"""Body-only edits recompile one function: equivalence with whole-source compiles.

``AnalysisSession.edit_source`` compiles an edit against the resident's
declaration digests and, when only function bodies changed, parses, lowers
and prepares just those bodies.  These tests hold that path to the answers
of a test-only reference that compiles both sources whole and diffs every
function with ``print_function`` — the edit op's contract before the
per-function path existed.
"""

import pytest

from repro.benchgen import build_program, edit_scenario
from repro.benchgen.suites import SUITE_PROGRAMS
from repro.frontend import compile_source, tokenize
from repro.frontend.cparser import ParseError, Parser
from repro.frontend.declarations import split_declarations
from repro.frontend import driver
from repro.frontend.driver import compile_indexed
from repro.frontend.lexer import LexerError
from repro.frontend.lowering import LoweringError
from repro.frontend.sema import SemanticError
from repro.ir.instructions import CallInst
from repro.ir.printer import print_function, print_module
from repro.service import AnalysisSession, ServiceError

COMPILE_ERRORS = (LexerError, ParseError, SemanticError, LoweringError)


def _reference(old_module, new_source, name):
    """The edit op's answer from two whole-source compiles.

    Returns ``{"reloaded", "changed"}`` or ``{"error": (code, message)}``.
    """
    try:
        new_module = compile_source(new_source, name)
    except COMPILE_ERRORS as error:
        return {"error": ("edit_rejected", f"compiling module {name!r} failed: "
                                           f"{type(error).__name__}: {error}")}
    return _diff(_summary(old_module), _summary(new_module))


def _summary(module):
    """Globals, signatures and printed IR of every defined function."""
    return ({g.name: g.value_type for g in module.globals},
            {fn.name: (fn.function_type, print_function(fn))
             for fn in module.defined_functions()})


def _diff(old, new):
    (old_globals, old_functions), (new_globals, new_functions) = old, new
    if old_globals != new_globals or set(old_functions) != set(new_functions) or any(
            old_functions[fn][0] != new_functions[fn][0] for fn in old_functions):
        return {"reloaded": True, "changed": []}
    return {"reloaded": False,
            "changed": [fn for fn in old_functions
                        if old_functions[fn][1] != new_functions[fn][1]]}


def _answer(session, name, source):
    try:
        edited = session.edit_source(name, source)
    except ServiceError as error:
        return {"error": (error.code, str(error))}
    return {"reloaded": edited["reloaded"], "changed": edited["changed"]}


def _shape(module):
    """Printed IR plus how each call names its callee.

    ``print_function`` prints a direct call and a call by name alike, but
    the call graph tells them apart, so both must match a whole compile.
    """
    calls = [(fn.name, inst.callee_name(), inst.is_external())
             for fn in module.defined_functions()
             for inst in fn.instructions() if isinstance(inst, CallInst)]
    return print_module(module), calls


@pytest.fixture
def whole_compiles(monkeypatch):
    """Names of the modules whose edits took the whole-source path."""
    calls = []
    original = driver._compile

    def spy(source, name, *args, tokens=None, **kwargs):
        if tokens is not None:  # an edit's stream, compiled whole
            calls.append(name)
        return original(source, name, *args, tokens=tokens, **kwargs)

    monkeypatch.setattr(driver, "_compile", spy)
    return calls


# -- every suite edit scenario --------------------------------------------------

@pytest.mark.parametrize("program", SUITE_PROGRAMS, ids=lambda p: p.name)
def test_scenarios_match_whole_source_compiles(program, whole_compiles):
    for seed in range(3):
        scenario = edit_scenario(program.config(), edits=8, seed=seed)
        states = [compile_source(step.source, program.name)
                  for step in scenario.steps]
        summaries = [_summary(module) for module in states]
        shapes = [_shape(module) for module in states]
        session = AnalysisSession()
        session.load_source(program.name, scenario.steps[0].source)
        resident = session._modules[program.name]
        last = len(scenario.steps) - 1
        state = 0
        for target in list(range(1, last + 1)) + list(range(last - 1, -1, -1)):
            expected = _diff(summaries[state], summaries[target])
            answer = _answer(session, program.name, scenario.steps[target].source)
            assert answer == expected, (seed, state, target)
            for name in expected["changed"]:
                assert print_function(resident.module.get_function(name)) == \
                    summaries[target][1][name][1]
            assert _shape(resident.module) == shapes[target], (seed, target)
            state = target
    assert not whole_compiles


def test_parser_spans_are_the_splitter_spans():
    for program in SUITE_PROGRAMS:
        tokens = tokenize(build_program(program.name).source)
        unit = Parser(tokens).parse_translation_unit()
        assert split_declarations(tokens) == unit.spans, program.name


def test_index_keeps_no_body_ast():
    module, index = compile_indexed(SOURCE, "m")
    # struct, global, prototype, then five definitions (``main`` has a string).
    assert [bool(d.body) for d in index.declarations] == [False] * 3 + [True] * 5
    assert [d.strings for d in index.declarations] == [False] * 7 + [True]
    for decl in index.header.function_decls.values():
        assert decl.body is None or not decl.body.statements
    assert print_module(module) == print_module(compile_source(SOURCE, "m"))


def test_split_declarations_rejects_unbalanced_braces():
    assert split_declarations(tokenize("int f() { return 0; ")) is None
    assert split_declarations(tokenize("int f() { return 0; } }")) is None
    tokens = tokenize("struct s { int a; }; int g; int f() { { } }")
    assert split_declarations(tokens) == [(0, 8), (8, 11), (11, 19)]


# -- guardrails and rejections ---------------------------------------------------

SOURCE = """
struct pair { int a; int b; };
int counter = 1;
int helper(int x);
int twice(int x) { return helper(x) + helper(x); }
int helper(int x) { return x + counter; }
void fill(struct pair* p, int n) {
  int i;
  for (i = 0; i < n; i++) { p[i].a = twice(i); p[i].b = later(i); }
}
int later(int x) { return x * 2; }
int main(int argc, char** argv) {
  struct pair* ps = (struct pair*)malloc(8 * sizeof(struct pair));
  fill(ps, atoi(argv[1]));
  puts("done");
  return helper(ps[0].a);
}
"""

REORDERED = SOURCE.replace(
    "int later(int x) { return x * 2; }\n", "").replace(
    "void fill(", "int later(int x) { return x * 2; }\nvoid fill(")

EDITS = {
    # Body-only edits: recompiled per function.
    "body": ("body", SOURCE.replace("p[i].b = later(i);", "p[i].b = later(i + 1);")),
    "two bodies": ("body", SOURCE.replace("x * 2", "x * 3").replace(
        "helper(x) + helper(x)", "helper(x) - helper(x)")),
    "recursion": ("body", SOURCE.replace("x * 2", "later(x - 1)")),
    "whitespace and comments": ("body", SOURCE.replace(
        "int i;", "int   i; /* index */\n\n").replace("\nint later", "// later\nint later")),
    "tokens but not IR": ("body", SOURCE.replace("return x + counter;",
                                                 "return ((x) + (counter));")),
    "parse error in a body": ("body", SOURCE.replace("p[i].b = later(i);", "p[i].b = ;")),
    "undeclared identifier": ("body", SOURCE.replace("later(i);", "missing;")),
    # Everything else: the whole-source path.
    "global initializer": ("whole", SOURCE.replace("counter = 1", "counter = 5")),
    "struct field": ("whole", SOURCE.replace("int b; };", "int b; int c; };")),
    "prototype": ("whole", SOURCE.replace("int helper(int x);", "int helper(int y);")),
    "conflicting prototype": ("whole", SOURCE.replace("int helper(int x);",
                                                      "int helper(char* x);")),
    "function header": ("whole", SOURCE.replace("int later(int x) { return x * 2; }",
                                                "int later(int y) { return y * 2; }")),
    "added function": ("whole", SOURCE + "int extra(int x) { return x; }\n"),
    "reordered functions": ("whole", REORDERED),
    "string in a changed body": ("whole", SOURCE.replace('puts("done")', 'puts("done!")')),
    "string added to a body": ("whole", SOURCE.replace("int i;", 'int i; puts("fill");')),
    "string removed from a body": ("whole", SOURCE.replace('puts("done");', "")),
    "unbalanced braces": ("whole", SOURCE.replace("return x * 2; }", "return x * 2;")),
    "extra closing brace": ("whole", SOURCE + "}\n"),
    # Raised by the one lex of the edited source, before either path.
    "lexer error": ("body", SOURCE.replace("x * 2", "x * 2 @")),
}


@pytest.mark.parametrize("case", sorted(EDITS))
def test_edit_matches_the_whole_source_path(case, whole_compiles):
    path, source = EDITS[case]
    session = AnalysisSession()
    session.load_source("m", SOURCE)
    resident = session._modules["m"]
    before = (resident.source, resident.digest, resident.index,
              resident.edits, print_module(resident.module))
    expected = _reference(compile_source(SOURCE, "m"), source, "m")
    assert _answer(session, "m", source) == expected
    assert whole_compiles == ([] if path == "body" else ["m"])
    resident = session._modules["m"]
    if "error" in expected:
        assert (resident.source, resident.digest, resident.index,
                resident.edits, print_module(resident.module)) == before
    elif case != "reordered functions":  # a graft keeps the resident's order
        assert _shape(resident.module) == _shape(compile_source(source, "m"))


def test_body_edits_chain_on_the_new_index(whole_compiles):
    session = AnalysisSession()
    session.load_source("m", SOURCE)
    first = EDITS["body"][1]
    second = first.replace("x * 2", "x * 4")
    assert session.edit_source("m", first)["changed"] == ["fill"]
    assert session.edit_source("m", second)["changed"] == ["later"]
    assert session.edit_source("m", SOURCE)["changed"] == ["fill", "later"]
    assert not whole_compiles
    assert _shape(session._modules["m"].module) == _shape(compile_source(SOURCE, "m"))
