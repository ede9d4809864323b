"""Checked large-step operational semantics for Filament (§4.2).

The semantics is *checked*: it tracks ρ — the multiset of memory
accesses in the current logical time step — and raises
:class:`StuckError` when a command would access a memory whose port
budget is exhausted. The soundness theorem (§4.6) says well-typed
programs never trigger this.

The paper's ρ is a *set* and memories are single-ported. We implement
the quantitative generalization the paper's §4.5 leaves as future work
(bounded-linear resources): ρ maps each memory to its access count and a
memory with ``ports = k`` tolerates ``k`` accesses per time step. With
every ``ports = 1`` (the default and the entire formal fragment) this
degenerates to exactly the paper's set semantics, which is what the
equivalence property tests against the small-step semantics rely on.

Judgments:

    σ₁, ρ₁, e ⇓ σ₂, ρ₂, v        (expressions)
    σ₁, ρ₁, c ⇓ σ₂, ρ₂           (commands)

Ordered composition runs both commands against the *initial* ρ and joins
the resulting access sets (pointwise max); unordered composition threads
ρ through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import InterpError, StuckError
from ..util.deadline import check_deadline
from .syntax import (
    CAssign,
    CExpr,
    CIf,
    CLet,
    COrdered,
    CSkip,
    CUnordered,
    CWhile,
    CWrite,
    EBinOp,
    ECall,
    ERead,
    EVal,
    EVar,
    FCmd,
    FExpr,
    FProgram,
    InterSeq,
    Value,
)

import math

_MATH_BUILTINS = {
    "sqrt": math.sqrt,
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "floor": math.floor,
    "min": min,
    "max": max,
}

#: ρ — access counts per memory in the current logical time step.
Rho = dict[str, int]


def rho_join(left: Rho, right: Rho) -> Rho:
    """ρ₂ ∪ ρ₃ of the ordered-composition rule (pointwise max)."""
    joined = dict(left)
    for name, count in right.items():
        joined[name] = max(joined.get(name, 0), count)
    return joined


@dataclass
class Store:
    """σ — maps variables to values and memories to mutable cells."""

    vars: dict[str, Value] = field(default_factory=dict)
    mems: dict[str, list[Value]] = field(default_factory=dict)
    ports: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "Store":
        return Store(dict(self.vars),
                     {name: list(cells) for name, cells in self.mems.items()},
                     dict(self.ports))

    def ports_of(self, mem: str) -> int:
        return self.ports.get(mem, 1)


def apply_binop(op: str, lhs: Value, rhs: Value) -> Value:
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            raise InterpError("division by zero")
        if isinstance(lhs, int) and isinstance(rhs, int):
            return int(lhs / rhs)          # C-style truncation
        return lhs / rhs
    if op == "%":
        if rhs == 0:
            raise InterpError("modulo by zero")
        return int(lhs - rhs * int(lhs / rhs))
    if op == "<":
        return lhs < rhs
    if op == ">":
        return lhs > rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">=":
        return lhs >= rhs
    if op == "==":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "&&":
        return bool(lhs) and bool(rhs)
    if op == "||":
        return bool(lhs) or bool(rhs)
    raise InterpError(f"unknown operator {op!r}")


def _touch(store: Store, rho: Rho, mem: str) -> None:
    used = rho.get(mem, 0)
    if used >= store.ports_of(mem):
        raise StuckError(
            f"memory {mem!r} exhausted its {store.ports_of(mem)} port(s) "
            f"in this logical time step")
    rho[mem] = used + 1


def eval_expr(store: Store, rho: Rho, expr: FExpr) -> Value:
    """σ, ρ, e ⇓ σ, ρ′, v — mutates ``rho`` in place (σ is never changed
    by expressions: lemma L3 of the appendix)."""
    if isinstance(expr, EVal):
        return expr.value
    if isinstance(expr, EVar):
        if expr.name not in store.vars:
            raise InterpError(f"unbound variable {expr.name!r}")
        return store.vars[expr.name]
    if isinstance(expr, EBinOp):
        lhs = eval_expr(store, rho, expr.lhs)
        rhs = eval_expr(store, rho, expr.rhs)
        return apply_binop(expr.op, lhs, rhs)
    if isinstance(expr, ERead):
        index = eval_expr(store, rho, expr.index)
        cells = store.mems.get(expr.mem)
        if cells is None:
            raise InterpError(f"unknown memory {expr.mem!r}")
        index = int(index)
        if not 0 <= index < len(cells):
            raise InterpError(
                f"index {index} out of bounds for {expr.mem!r}"
                f"[{len(cells)}]")
        _touch(store, rho, expr.mem)
        return cells[index]
    if isinstance(expr, ECall):
        func = _MATH_BUILTINS.get(expr.func)
        if func is None:
            raise InterpError(f"unknown builtin {expr.func!r}")
        args = [eval_expr(store, rho, arg) for arg in expr.args]
        return func(*args)
    raise InterpError(f"cannot evaluate {type(expr).__name__}")


def eval_cmd(store: Store, rho: Rho, cmd: FCmd) -> Rho:
    """σ₁, ρ₁, c ⇓ σ₂, ρ₂ — returns the final ρ (σ mutated in place)."""
    if isinstance(cmd, CSkip):
        return rho
    if isinstance(cmd, CExpr):
        eval_expr(store, rho, cmd.expr)
        return rho
    if isinstance(cmd, CLet):
        store.vars[cmd.var] = eval_expr(store, rho, cmd.expr)
        return rho
    if isinstance(cmd, CAssign):
        if cmd.var not in store.vars:
            raise InterpError(f"assignment to unbound {cmd.var!r}")
        store.vars[cmd.var] = eval_expr(store, rho, cmd.expr)
        return rho
    if isinstance(cmd, CWrite):
        index = int(eval_expr(store, rho, cmd.index))
        value = eval_expr(store, rho, cmd.value)
        cells = store.mems.get(cmd.mem)
        if cells is None:
            raise InterpError(f"unknown memory {cmd.mem!r}")
        if not 0 <= index < len(cells):
            raise InterpError(
                f"index {index} out of bounds for {cmd.mem!r}[{len(cells)}]")
        _touch(store, rho, cmd.mem)
        cells[index] = value
        return rho
    if isinstance(cmd, CUnordered):
        rho = eval_cmd(store, rho, cmd.first)
        return eval_cmd(store, rho, cmd.second)
    if isinstance(cmd, (COrdered, InterSeq)):
        # Both commands run against the initial ρ; results are joined.
        if isinstance(cmd, InterSeq):
            initial: Rho = {name: 1 for name in cmd.rho}
        else:
            initial = dict(rho)
        rho2 = eval_cmd(store, dict(rho), cmd.first)
        rho3 = eval_cmd(store, initial, cmd.second)
        return rho_join(rho2, rho3)
    if isinstance(cmd, CIf):
        if cmd.cond not in store.vars:
            raise InterpError(f"unbound condition {cmd.cond!r}")
        if store.vars[cmd.cond]:
            return eval_cmd(store, rho, cmd.then_branch)
        return eval_cmd(store, rho, cmd.else_branch)
    if isinstance(cmd, CWhile):
        if cmd.cond not in store.vars:
            raise InterpError(f"unbound condition {cmd.cond!r}")
        # `while x c` unfolds to the *ordered* composition `c  while x c`,
        # so every iteration runs against the loop's incoming ρ and the
        # final ρ is the join of all iterations' access sets.
        initial = dict(rho)
        result = dict(rho)
        iterations = 0
        while store.vars[cmd.cond]:
            # A served request's budget stops the loop here (a no-op
            # outside a request), freeing its thread for the next one.
            check_deadline()
            result = rho_join(result, eval_cmd(store, dict(initial), cmd.body))
            iterations += 1
            if iterations > 10_000_000:
                raise InterpError("while loop exceeded fuel")
        return result
    raise InterpError(f"cannot evaluate {type(cmd).__name__}")


def run(program: FProgram,
        memories: dict[str, list[Value]] | None = None,
        vars_: dict[str, Value] | None = None) -> Store:
    """Run a program from fresh (or provided) memory contents."""
    store = Store()
    for name, mem_ty in program.memories.items():
        if memories is not None and name in memories:
            cells = list(memories[name])
            if len(cells) != mem_ty.size:
                raise InterpError(
                    f"memory {name!r}: expected {mem_ty.size} cells, got "
                    f"{len(cells)}")
        else:
            cells = [0] * mem_ty.size
        store.mems[name] = cells
        store.ports[name] = getattr(mem_ty, "ports", 1)
    if vars_:
        store.vars.update(vars_)
    eval_cmd(store, {}, program.command)
    return store
