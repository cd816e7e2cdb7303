import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propmech.allocation import (AllocationResult, DemandOutOfBox, allocate,
                                 allocate_many, alpha0)
from propmech.model import Constraint, Instance, Valuation


def canonical():
    return Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("log_shift", 1.0, 1.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
        equality_groups=(), d=0.01, D=100.0, eta=1.0)


def grouped():
    # two equal partners sharing a capped row plus the equality encodings
    return Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("power", 1.0, 0.5)),
        constraints=(Constraint({0: -1.0, 1: 1.0}, 0.0),
                     Constraint({0: 1.0, 1: -1.0}, 0.0),
                     Constraint({0: 0.5, 1: 0.5}, 10.0)),
        equality_groups=((0, 1),), d=0.01, D=100.0, eta=1.0)


def test_feasible_demands_pass_through():
    res = allocate(canonical(), np.array([0.3, 0.4]))
    assert res.x.tolist() == [0.3, 0.4]
    assert res.alpha0 == 1.0
    assert res.binding_constraint is None
    assert res.was_interior


def test_pullback_lands_on_first_face():
    inst = canonical()
    res = allocate(inst, np.array([2.0, 3.0]))
    # theta = (0.005, 0.005); crossing at alpha = 0.99 / 4.99
    assert res.alpha0 == pytest.approx(0.99 / 4.99, abs=1e-15)
    assert res.x[0] == pytest.approx(0.4008016032064128, abs=1e-12)
    assert res.x[1] == pytest.approx(0.5991983967935871, abs=1e-12)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.binding_constraint == 0
    assert not res.was_interior


def test_symmetric_overdemand_splits_evenly():
    res = allocate(canonical(), np.array([2.0, 2.0]))
    assert res.alpha0 == pytest.approx(0.99 / 3.99, abs=1e-15)
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-12)


def test_floor_demands_rejected():
    inst = canonical()
    with pytest.raises(DemandOutOfBox):
        allocate(inst, np.array([0.01, 0.5]))
    with pytest.raises(DemandOutOfBox):
        allocate(inst, np.array([-0.2, 0.5]))


def test_alpha0_reports_no_crossing_for_feasible_point():
    inst = canonical()
    a, row = alpha0(inst, np.array([0.005, 0.005]), np.array([0.2, 0.3]))
    assert (a, row) == (1.0, None)


def test_group_members_always_equal():
    inst = grouped()
    res = allocate(inst, np.array([1.0, 3.0]))
    # feasible after averaging: both get the group mean
    assert res.x.tolist() == [2.0, 2.0]
    assert res.was_interior
    res2 = allocate(inst, np.array([30.0, 50.0]))
    assert res2.x[0] == res2.x[1]
    assert res2.binding_constraint == 2
    assert 0.5 * res2.x.sum() == pytest.approx(10.0, abs=1e-9)


def test_grouped_allocation_is_the_group_average():
    inst = grouped()
    assert inst.is_degenerate
    res = allocate(inst, np.array([1.0, 3.0]))
    assert res.x.tolist() == [2.0, 2.0]


def test_own_demand_raises_own_allocation():
    inst = canonical()
    step = 1e-7
    # the feasible branch and the pullback branch
    for y in (np.array([0.3, 0.4]), np.array([2.0, 3.0])):
        bumped = y.copy()
        bumped[0] += step
        diff = (allocate(inst, bumped).x[0] - allocate(inst, y).x[0]) / step
        assert diff > 1e-10


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.02, 200.0), min_size=2, max_size=2))
def test_allocation_always_feasible(ys):
    inst = canonical()
    res = allocate(inst, np.array(ys))
    assert (inst.A @ res.x - inst.caps).item() <= 1e-12 * 2.0
    assert np.all(res.x >= 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.02, 200.0), min_size=2, max_size=2))
def test_grouped_allocation_feasible_and_equal(ys):
    inst = grouped()
    res = allocate(inst, np.array(ys))
    assert res.x[0] == res.x[1]
    assert np.all(inst.A @ res.x - inst.caps <= 1e-12 * 11.0)


def test_feasible_profile_is_fixed_point():
    inst = canonical()
    y = np.array([0.55, 0.35])
    res = allocate(inst, y)
    again = allocate(inst, res.x)
    assert again.x.tolist() == res.x.tolist()
    assert again.was_interior


def test_allocate_many_matches_scalar_allocate():
    inst = canonical()
    rng = np.random.default_rng(7)
    Y = rng.uniform(0.02, 5.0, size=(64, 2))
    X = allocate_many(inst, Y)
    for k in range(Y.shape[0]):
        assert np.allclose(X[k], allocate(inst, Y[k]).x, rtol=0, atol=1e-14)

    g = grouped()
    Yg = rng.uniform(0.02, 60.0, size=(64, 2))
    Xg = allocate_many(g, Yg)
    for k in range(Yg.shape[0]):
        assert np.allclose(Xg[k], allocate(g, Yg[k]).x, rtol=0, atol=1e-14)


def test_allocate_many_unconstrained_group_mean():
    # no nonvacuous rows at all: everyone just gets the group mean
    inst = Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("power", 1.0, 0.5)),
        constraints=(Constraint({0: -1.0, 1: 1.0}, 0.0),
                     Constraint({0: 1.0, 1: -1.0}, 0.0)),
        equality_groups=((0, 1),), d=0.01, D=100.0, eta=1.0)
    X = allocate_many(inst, np.array([[1.0, 3.0], [4.0, 8.0]]))
    assert X.tolist() == [[2.0, 2.0], [6.0, 6.0]]
    res = allocate(inst, np.array([1.0, 3.0]))
    assert res.x.tolist() == [2.0, 2.0]
