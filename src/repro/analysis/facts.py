"""Per-function CFG facts shared by every analysis of one module.

After ``prepare_module`` the CFG of a function no longer changes until the
function is replaced by an edit, so its dominator tree and loop forest are
facts of the function: the local range analysis (dominance-preorder sweep),
the scalar-evolution baseline and the loop-parallelization client all read
the same ones.  :class:`CFGFacts` computes each once, on first request, and
the engine's ``keys.CFG_FACTS`` entry hands one instance to all of them.
"""

from __future__ import annotations

from typing import Dict

from ..ir.function import Function
from .dominance import DominatorTree
from .loops import LoopInfo

__all__ = ["CFGFacts"]


class CFGFacts:
    """Lazily computed dominator trees and loop forests, one per function.

    The facts describe the CFG as it was when first requested: a transform
    that changes a function's CFG must drop the function first (the
    manager's ``refresh_function`` edit hook does, for replaced functions).
    """

    def __init__(self) -> None:
        self._dominator_trees: Dict[Function, DominatorTree] = {}
        self._loop_forests: Dict[Function, LoopInfo] = {}

    def dominator_tree(self, function: Function) -> DominatorTree:
        tree = self._dominator_trees.get(function)
        if tree is None:
            tree = DominatorTree.compute(function)
            self._dominator_trees[function] = tree
        return tree

    def loop_info(self, function: Function) -> LoopInfo:
        """The natural-loop forest, found over the shared dominator tree."""
        info = self._loop_forests.get(function)
        if info is None:
            info = LoopInfo.compute(function, self.dominator_tree(function))
            self._loop_forests[function] = info
        return info

    def refresh_function(self, old_function: Function,
                         new_function: Function) -> None:
        """Manager edit hook: forget the replaced body; the new body's facts
        are computed when a consumer first asks for them."""
        self._dominator_trees.pop(old_function, None)
        self._loop_forests.pop(old_function, None)
