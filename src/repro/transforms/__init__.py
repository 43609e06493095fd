"""IR-to-IR transformations: SSA promotion, e-SSA, renaming and clean-ups."""

from .essa import build_essa, build_essa_function, split_critical_edges
from .mem2reg import is_promotable, promote_allocas, promote_allocas_in_function
from .pipeline import PipelineOptions, PipelineResult, prepare_function, prepare_module
from .region_rename import (
    canonical_bases,
    rename_region_pointers,
    rename_region_pointers_in_function,
)
from .simplify import (
    eliminate_dead_code_in_function,
    fold_constants_in_function,
    simplify_function,
    simplify_module,
)

__all__ = [
    "build_essa",
    "build_essa_function",
    "split_critical_edges",
    "is_promotable",
    "promote_allocas",
    "promote_allocas_in_function",
    "PipelineOptions",
    "PipelineResult",
    "prepare_function",
    "prepare_module",
    "canonical_bases",
    "rename_region_pointers",
    "rename_region_pointers_in_function",
    "eliminate_dead_code_in_function",
    "fold_constants_in_function",
    "simplify_function",
    "simplify_module",
]
