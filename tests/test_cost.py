"""Cost table, metrics, and the rank-key total order."""

from dataclasses import replace

import pytest

from bidiropt.cost import (
    CostModel,
    rank_key,
    static_cost,
    static_size,
)
from bidiropt.interp import Workload, dynamic_cost_total

from conftest import load, rename_values


def test_default_table_spot_values():
    m = CostModel()
    assert m.cost("udiv") == m.cost("urem") == 4
    assert m.cost("mul") == 3
    assert m.cost("load") == m.cost("store") == 2
    assert m.cost("add") == m.cost("shl") == m.cost("icmp.ult") == 1
    assert m.cost("phi") == m.cost("alloca") == 0


def test_model_override_and_unknown_opcode():
    m = CostModel({"mul": 10})
    assert m.cost("mul") == 10
    assert m.cost("add") == 1
    with pytest.raises(KeyError):
        m.cost("fma")


def test_static_measures():
    f = load("bin2bcd")
    assert static_cost(f) == 11
    assert static_size(f) == 5
    d = load("diamond")
    assert static_cost(d) == 7
    assert static_size(d) == 8  # phis and terminators count


def test_rank_key_shape_and_order():
    f = load("bin2bcd")
    g = load("bin2bcd_mul6")
    kf, kg = rank_key(f), rank_key(g)
    assert kf[:2] == (11, 5)
    assert kg[:2] == (9, 4)
    assert kg < kf
    assert isinstance(kf[-1], str)


def test_rank_key_with_workload_appends_dynamic_cost():
    f = load("bin2bcd")
    wl = Workload("w", ((45,), (255,)))
    k = rank_key(f, dynamic_cost=dynamic_cost_total(f, wl))
    assert len(k) == 4
    assert k[2] == 22


def test_rank_key_invariant_under_value_renaming():
    f = load("bin2bcd")
    g = rename_values(f, {"q": "quotient", "s": "sum"})
    assert rank_key(f) == rank_key(g)


def test_rank_key_total_order_breaks_ties_on_text():
    f = load("bin2bcd")
    g = replace(f, name="aaa")
    assert rank_key(f)[:-1] == rank_key(g)[:-1]
    assert rank_key(f) != rank_key(g)
    assert rank_key(g) < rank_key(f)  # "aaa" sorts before "bin2bcd"
