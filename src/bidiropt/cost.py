"""Cost model and the rank key.

rank_key is the total order the searches minimize: lower static cost wins,
then fewer instructions, then (optionally) lower dynamic cost, with the
canonical text as the final deterministic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import Function, canonical_text

_DEFAULT_COSTS = {
    "udiv": 4, "urem": 4,
    "mul": 3,
    "load": 2, "store": 2,
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "shl": 1, "lshr": 1,
    "icmp.eq": 1, "icmp.ne": 1, "icmp.ult": 1, "icmp.ule": 1,
    "select": 1,
    "condbr": 1, "br": 1, "ret": 1,
    "phi": 0, "alloca": 0,
}


@dataclass(frozen=True)
class CostModel:
    """Per-opcode cost table; unknown opcodes are a configuration error."""

    costs: dict[str, int] = field(default_factory=dict)

    def cost(self, opcode: str) -> int:
        if opcode in self.costs:
            return self.costs[opcode]
        return _DEFAULT_COSTS[opcode]


DEFAULT_COST_MODEL = CostModel()


def static_size(f: Function) -> int:
    """Instruction count, phis and terminators included."""
    return sum(len(b.instrs) for b in f.blocks)


def static_cost(f: Function, model: CostModel | None = None) -> int:
    model = model or DEFAULT_COST_MODEL
    return sum(model.cost(ins.opcode) for b in f.blocks for ins in b.instrs)


def rank_key(f: Function, model: CostModel | None = None,
             dynamic_cost: int | None = None) -> tuple:
    """(static_cost, static_size[, dynamic_cost], canonical text); lower is better.

    Alpha-equivalent functions get identical keys; the text component makes
    the order total and every search result deterministic. Under the dynamic
    metric the caller measures f (interp.dynamic_cost_total) and passes the
    total as dynamic_cost.
    """
    key: list = [static_cost(f, model), static_size(f)]
    if dynamic_cost is not None:
        key.append(dynamic_cost)
    key.append(canonical_text(f))
    return tuple(key)
