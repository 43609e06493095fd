"""Classic CFG analyses: orderings, dominance, loops, liveness and call graph."""

from .callgraph import CallGraph, CallSite
from .cfg import (
    back_edges,
    is_single_entry_region,
    post_order,
    predecessor_map,
    reachable_blocks,
    reverse_post_order,
    successor_map,
)
from .dominance import DominatorTree, dominance_frontiers
from .facts import CFGFacts
from .liveness import LivenessInfo
from .loops import Loop, LoopInfo

__all__ = [
    "CallGraph",
    "CallSite",
    "CFGFacts",
    "back_edges",
    "is_single_entry_region",
    "post_order",
    "predecessor_map",
    "reachable_blocks",
    "reverse_post_order",
    "successor_map",
    "DominatorTree",
    "dominance_frontiers",
    "LivenessInfo",
    "Loop",
    "LoopInfo",
]
