"""One-call compilation driver: mini-C source text to analysis-ready IR.

The driver chains the explicit frontend stages (see
:mod:`repro.frontend.stages`): scan → parse → analyze → lower → prepare.
When a phase collector is active (:func:`repro.frontend.stages.collect_phases`)
each stage's wall time plus token/instruction counts and determinism digests
are recorded; otherwise the same path times into a throwaway collector and
skips the counts and digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..ir.function import Function
from ..ir.module import Module
from ..transforms.pipeline import PipelineOptions, prepare_function, prepare_module
from .cparser import Parser
from .declarations import SourceIndex, declarations_of, split_declarations
from .lexer import Token, tokenize
from .lowering import lower_function_definitions, lower_translation_unit
from .sema import analyze
from .stages import PhaseTimings, active_collector, module_digest, token_stream_digest

__all__ = ["EditCompile", "compile_edit", "compile_indexed", "compile_source"]


def compile_source(source: str, name: str = "module", *,
                   prepare: bool = True,
                   pipeline_options: Optional[PipelineOptions] = None) -> Module:
    """Compile mini-C ``source`` into an IR :class:`~repro.ir.module.Module`.

    Args:
        source: the program text.
        name: module name (used in diagnostics and reports).
        prepare: when true (default), run the standard preparation pipeline
            (mem2reg, simplification, e-SSA) so the module is ready for the
            pointer analyses; when false, return the raw ``-O0``-style IR.
        pipeline_options: overrides for the preparation pipeline.
    """
    return _compile(source, name, prepare, pipeline_options)[0]


def compile_indexed(source: str, name: str = "module") -> Tuple[Module, SourceIndex]:
    """:func:`compile_source` plus the :class:`SourceIndex` of ``source``.

    The index is digested from the compile's own token stream, at the
    declaration spans the parser records.
    """
    return _compile(source, name, True, None, indexed=True)


def _compile(source: str, name: str, prepare: bool,
             pipeline_options: Optional[PipelineOptions], *, indexed: bool = False,
             tokens: Optional[List[Token]] = None) -> Tuple[Module, Optional[SourceIndex]]:
    collector = active_collector()
    phases = collector if collector is not None else PhaseTimings()  # no-op sink
    start = perf_counter()
    if tokens is None:
        tokens = tokenize(source)
    t_lex = perf_counter()
    unit = Parser(tokens).parse_translation_unit()
    declarations = declarations_of(tokens, unit.spans) if indexed else ()
    t_parse = perf_counter()
    if collector is None:
        del tokens  # parsed: only a collector still reads the stream
    info = analyze(unit)
    t_sema = perf_counter()
    module = lower_translation_unit(unit, name, info)
    t_lower = perf_counter()
    if prepare:
        prepare_module(module, pipeline_options)
    t_prepare = perf_counter()

    phases.lex_seconds += t_lex - start
    phases.parse_seconds += t_parse - t_lex
    phases.sema_seconds += t_sema - t_parse
    phases.lower_seconds += t_lower - t_sema
    phases.prepare_seconds += t_prepare - t_lower
    if collector is not None:
        collector.tokens += len(tokens)
        collector.instructions += module.instruction_count()
        # Digests chain across compiles so a collector spanning several
        # modules still yields one order-sensitive deterministic fingerprint.
        collector.token_digest = _chain(collector.token_digest,
                                        token_stream_digest(tokens))
        collector.ir_digest = _chain(collector.ir_digest, module_digest(module))
    index = SourceIndex(declarations, info.header()) if indexed else None
    return module, index


@dataclass
class EditCompile:
    """What :func:`compile_edit` made of an edited source."""

    #: The index of the edited source.
    index: SourceIndex
    #: The whole edited source's module, when the edit was not body-only.
    module: Optional[Module] = None
    #: Otherwise the recompiled definitions, prepared, in module order
    #: (empty when no token changed).  Each lives in a donor module of
    #: shells, ready for :meth:`~repro.ir.module.Module.replace_function`.
    functions: Dict[str, Function] = field(default_factory=dict)


def compile_edit(index: Optional[SourceIndex], source: str,
                 name: str = "module") -> EditCompile:
    """Compile an edited ``source`` against the ``index`` of its previous one.

    The source is lexed whole, so every error is the one
    :func:`compile_source` would raise, and cut at its top-level
    declarations.  When only function bodies changed (see
    :meth:`SourceIndex.changed_bodies`), just those bodies are parsed,
    lowered and prepared.  Any other edit — or no ``index`` — compiles the
    whole source, like :func:`compile_indexed`.
    """
    tokens = tokenize(source)
    spans = split_declarations(tokens)
    declarations = declarations_of(tokens, spans) if spans is not None else ()
    changed = index.changed_bodies(declarations) \
        if index is not None and spans is not None else None
    if changed is not None:
        parser = Parser(tokens)
        definitions = {}
        for position in changed:
            decl = parser.parse_function_definition(*spans[position])
            if decl is None:
                break
            definitions[decl.name] = decl
        else:
            donor = lower_function_definitions(index.header, definitions, name)
            functions = {}
            for function in donor.defined_functions():
                prepare_function(function)
                functions[function.name] = function
            return EditCompile(SourceIndex(declarations, index.header),
                               functions=functions)
    module, new_index = _compile(source, name, True, None, indexed=True, tokens=tokens)
    return EditCompile(new_index, module=module)


def _chain(previous: str, digest: str) -> str:
    if not previous:
        return digest
    return sha256(f"{previous}\x1e{digest}".encode()).hexdigest()
