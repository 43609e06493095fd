"""Top-level declarations as the unit of recompilation.

A resident module keeps a :class:`SourceIndex` of its source instead of the
source's tokens or AST: one :class:`Declaration` digest record per
top-level declaration plus the header half of its
:class:`~repro.frontend.sema.SemanticInfo`.  An edited source is lexed and
cut at top-level declarations by :func:`split_declarations` (a brace
counter, no parsing), and :meth:`SourceIndex.changed_bodies` compares the
two sides digest by digest.  When only function bodies differ, only those
bodies need parsing, lowering and preparing
(:func:`repro.frontend.driver.compile_edit`); anything else returns
``None`` and the edit takes the whole-source path.

Digests cover token texts, not positions: the IR does not depend on line
numbers, so an edit that shifts later declarations down a line leaves their
digests alone.  Lexer and parser errors still carry the right positions
because the edited source is always lexed whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from .lexer import Token, TokenKind
from .sema import SemanticInfo

__all__ = ["Declaration", "SourceIndex", "declarations_of", "split_declarations"]

_SEPARATOR = "\x1f"
_text = attrgetter("text")


@dataclass(frozen=True)
class Declaration:
    """The digest record of one top-level declaration."""

    #: Digest of the tokens before the body (the whole declaration when it
    #: is not a function definition).
    header: str
    #: Digest of the body tokens, ``{`` to ``}``; ``""`` when there is none.
    body: str
    #: The body holds a string literal.  Lowering numbers ``.str.N``
    #: globals module-wide, so such a body cannot be recompiled alone.
    strings: bool = False


def split_declarations(tokens: Sequence[Token]) -> Optional[List[Tuple[int, int]]]:
    """Cut an EOF-terminated token stream at its top-level declarations.

    Returns ``(start, end)`` token index ranges that cover the stream up to
    EOF, the same ranges the parser records in ``TranslationUnit.spans`` for
    a well-formed source.  A declaration ends at a ``;`` outside braces, or
    at the ``}`` that closes a function body (a ``{`` opened right after a
    ``)``).  ``None`` means the braces do not balance.
    """
    spans: List[Tuple[int, int]] = []
    start = 0
    depth = 0
    in_body = False
    previous = ""
    last = len(tokens) - 1  # the EOF token
    for index in range(last):
        token = tokens[index]
        if token.kind == TokenKind.PUNCT:
            text = token.text
            if text == "{":
                if depth == 0:
                    in_body = previous == ")"
                depth += 1
            elif text == "}":
                depth -= 1
                if depth < 0:
                    return None
                if depth == 0 and in_body:
                    spans.append((start, index + 1))
                    start = index + 1
                    in_body = False
            elif text == ";" and depth == 0:
                spans.append((start, index + 1))
                start = index + 1
            previous = text
        else:
            previous = ""
    if start != last or depth:
        return None
    return spans


def _digest(texts: Sequence[str]) -> str:
    # Unambiguous: only a quoted token can hold the separator, and where a
    # quoted token ends is fixed by its closing quote.
    return sha256(_SEPARATOR.join(texts).encode("utf-8", "surrogatepass")).hexdigest()


def declarations_of(tokens: Sequence[Token],
                    spans: Sequence[Tuple[int, int]]) -> Tuple[Declaration, ...]:
    """Digest each ``(start, end)`` span of ``tokens``.

    A span that ends in ``}`` is a function definition, whose body starts
    at its first ``{``.  (Only punctuators have the texts ``{`` and ``}``;
    quoted tokens keep their quotes.)
    """
    texts = list(map(_text, tokens))
    records = []
    for start, end in spans:
        if texts[end - 1] != "}":
            records.append(Declaration(_digest(texts[start:end]), ""))
            continue
        brace = texts.index("{", start, end)
        body = _SEPARATOR.join(texts[brace:end])
        records.append(Declaration(
            _digest(texts[start:brace]),
            sha256(body.encode("utf-8", "surrogatepass")).hexdigest(),
            # A string literal is the one token whose text opens with '"'.
            _SEPARATOR + '"' in body))
    return tuple(records)


@dataclass(frozen=True)
class SourceIndex:
    """What a resident module keeps of its source between edits."""

    declarations: Tuple[Declaration, ...]
    #: :meth:`SemanticInfo.header`: structs, signatures and globals.
    header: SemanticInfo

    def changed_bodies(self, declarations: Sequence[Declaration]) -> Optional[List[int]]:
        """Positions of the function bodies ``declarations`` changed.

        ``None`` unless every other token is unchanged: same declarations in
        the same order, same headers, and no string literal in a changed
        body on either side.
        """
        if len(declarations) != len(self.declarations):
            return None
        changed = []
        for position, (old, new) in enumerate(zip(self.declarations, declarations)):
            if old.header != new.header:
                return None
            if old.body == new.body:
                continue
            if not old.body or not new.body or old.strings or new.strings:
                return None
            changed.append(position)
        return changed
