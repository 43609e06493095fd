"""One-call compilation driver: mini-C source text to analysis-ready IR.

The driver chains the explicit frontend stages (see
:mod:`repro.frontend.stages`): scan → parse → analyze → lower → prepare.
When a phase collector is active (:func:`repro.frontend.stages.collect_phases`)
each stage's wall time plus token/instruction counts and determinism digests
are recorded; otherwise the same path times into a throwaway collector and
skips the counts and digests.
"""

from __future__ import annotations

from hashlib import sha256
from time import perf_counter
from typing import Optional

from ..ir.module import Module
from ..transforms.pipeline import PipelineOptions, prepare_module
from .cparser import Parser
from .lexer import tokenize
from .lowering import lower_translation_unit
from .sema import analyze
from .stages import PhaseTimings, active_collector, module_digest, token_stream_digest

__all__ = ["compile_source"]


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
    collector = active_collector()
    phases = collector if collector is not None else PhaseTimings()  # no-op sink
    start = perf_counter()
    tokens = tokenize(source)
    t_lex = perf_counter()
    unit = Parser(tokens).parse_translation_unit()
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
    return module


def _chain(previous: str, digest: str) -> str:
    if not previous:
        return digest
    return sha256(f"{previous}\x1e{digest}".encode()).hexdigest()
