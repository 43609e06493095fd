"""Call graph construction.

The paper's implementation is interprocedural but context-insensitive: it
"associates actual parameters with formal parameters of functions" (Section
3.1).  The call graph records exactly those actual→formal bindings so the
global analysis can seed argument abstract states, and it exposes a bottom-up
ordering (SCC condensation) so callees are analysed before callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ir.function import Function
from ..ir.instructions import CallInst
from ..ir.module import Module
from ..ir.values import Value

__all__ = ["CallSite", "CallGraph"]


@dataclass(frozen=True)
class CallSite:
    """One direct call: the instruction, the caller and the resolved callee."""

    instruction: CallInst
    caller: Function
    callee: Optional[Function]  # ``None`` for calls to external names

    @property
    def callee_name(self) -> str:
        return self.instruction.callee_name()

    def argument_bindings(self) -> List[Tuple[Value, Value]]:
        """Pairs ``(formal parameter, actual argument)`` for resolved callees."""
        if self.callee is None or self.callee.is_declaration():
            return []
        return list(zip(self.callee.args, self.instruction.args))


class CallGraph:
    """Direct-call graph over the functions of a module."""

    def __init__(self, module: Module):
        self.module = module
        self.call_sites: List[CallSite] = []
        self._callees: Dict[Function, List[Function]] = {f: [] for f in module.defined_functions()}
        self._callers: Dict[Function, List[Function]] = {f: [] for f in module.defined_functions()}
        self._external_calls: Dict[Function, List[CallInst]] = {
            f: [] for f in module.defined_functions()
        }
        self._build()

    @classmethod
    def compute(cls, module: Module) -> "CallGraph":
        return cls(module)

    def _build(self) -> None:
        for function in self.module.defined_functions():
            for inst in function.instructions():
                if not isinstance(inst, CallInst):
                    continue
                callee: Optional[Function]
                if isinstance(inst.callee, Function):
                    callee = inst.callee
                else:
                    callee = self.module.get_function(inst.callee)
                if callee is not None and callee.is_declaration():
                    callee = None
                site = CallSite(instruction=inst, caller=function, callee=callee)
                self.call_sites.append(site)
                if callee is None:
                    self._external_calls[function].append(inst)
                else:
                    if callee not in self._callees[function]:
                        self._callees[function].append(callee)
                    if function not in self._callers.get(callee, []):
                        self._callers.setdefault(callee, []).append(function)

    # -- queries -------------------------------------------------------------
    def callees(self, function: Function) -> List[Function]:
        return list(self._callees.get(function, []))

    def callers(self, function: Function) -> List[Function]:
        return list(self._callers.get(function, []))

    def external_calls(self, function: Function) -> List[CallInst]:
        """Calls whose target is not defined in the module."""
        return list(self._external_calls.get(function, []))

    def sites_calling(self, function: Function) -> List[CallSite]:
        return [site for site in self.call_sites if site.callee is function]

    def is_address_taken(self, function: Function) -> bool:
        """True when the function escapes as a value (conservatively: any non-call use)."""
        return any(not isinstance(use.user, CallInst) for use in function.uses)

    # -- orderings ------------------------------------------------------------
    def strongly_connected_components(self) -> List[List[Function]]:
        """Tarjan SCCs in bottom-up order (callees before callers)."""
        index_counter = [0]
        stack: List[Function] = []
        lowlink: Dict[Function, int] = {}
        index: Dict[Function, int] = {}
        on_stack: Set[Function] = set()
        components: List[List[Function]] = []

        def strongconnect(node: Function) -> None:
            # Iterative Tarjan to survive deep call chains in generated code.
            work = [(node, iter(self._callees.get(node, [])))]
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index:
                        index[child] = lowlink[child] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(self._callees.get(child, []))))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[current] = min(lowlink[current], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == index[current]:
                    component: List[Function] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member is current:
                            break
                    components.append(component)

        for function in self.module.defined_functions():
            if function not in index:
                strongconnect(function)
        return components

    def bottom_up_order(self) -> List[Function]:
        """Functions ordered so that callees come before their callers."""
        ordered: List[Function] = []
        for component in self.strongly_connected_components():
            ordered.extend(component)
        return ordered
