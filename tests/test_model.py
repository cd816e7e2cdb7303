import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propmech.game import Schedule
from propmech.model import (Constraint, DimensionMismatch, DomainError,
                            Instance, InvalidParameter,
                            NegativeReducedCoefficient, NoInteriorPoint,
                            Valuation, ValuationTable, Variant, derive_theta,
                            instance_digest, instance_from_dict,
                            instance_to_dict, load_instance, reduce_equalities,
                            save_instance, validate)


def canonical():
    return Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("log_shift", 1.0, 1.0)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
        equality_groups=(),
        d=0.01, D=100.0, eta=1.0)


# ---------------------------------------------------------------------------
# valuations


def test_log_shift_values():
    v = Valuation("log_shift", 2.0, 3.0)
    assert v.value_s(1.0) == pytest.approx(2.0 * math.log(4.0), abs=1e-15)
    assert v.deriv_s(1.0) == pytest.approx(1.5, abs=1e-15)
    assert v.deriv2_s(1.0) == pytest.approx(-1.125, abs=1e-15)


def test_power_values_and_infinite_slope_at_zero():
    v = Valuation("power", 2.0, 0.5)
    assert v.value_s(4.0) == pytest.approx(4.0, abs=1e-15)
    assert v.deriv_s(4.0) == pytest.approx(0.5, abs=1e-15)
    assert v.deriv2_s(4.0) == pytest.approx(-0.0625, abs=1e-15)
    assert v.deriv_s(0.0) == math.inf
    assert v.deriv2_s(0.0) == -math.inf


def test_quad_cap_values_nonmonotone_past_satiation():
    v = Valuation("quad_cap", 1.5, 2.0)
    assert v.value_s(1.0) == pytest.approx(2.25, abs=1e-15)
    assert v.deriv_s(1.0) == pytest.approx(1.5, abs=1e-15)
    assert v.deriv_s(3.0) == pytest.approx(-1.5, abs=1e-15)
    assert v.deriv2_s(7.0) == -1.5


def test_valuation_array_and_scalar_paths_agree():
    vals = (Valuation("log_shift", 1.3, 0.7),
            Valuation("power", 0.8, 0.4),
            Valuation("quad_cap", 2.0, 3.0))
    xs = np.array([0.05, 0.5, 1.7, 2.9])
    for v in vals:
        assert np.allclose(v.value(xs), [v.value_s(float(x)) for x in xs],
                           rtol=0, atol=0)
        assert np.allclose(v.deriv(xs), [v.deriv_s(float(x)) for x in xs],
                           rtol=0, atol=0)
        assert np.allclose(v.deriv2(xs), [v.deriv2_s(float(x)) for x in xs],
                           rtol=0, atol=0)
    # the mixed-family table, agents along the first axis
    table = ValuationTable.of(vals[::-1] + vals)
    X = np.tile(xs, (6, 1))
    for fn in ("value", "deriv", "deriv2"):
        want = [[getattr(v, fn + "_s")(float(x)) for x in xs]
                for v in vals[::-1] + vals]
        assert np.allclose(getattr(table, fn)(X), want, rtol=0, atol=0)


def test_valuation_domain_and_parameter_errors():
    v = Valuation("log_shift", 1.0, 1.0)
    with pytest.raises(DomainError):
        v.value_s(-0.1)
    with pytest.raises(DomainError):
        v.deriv(np.array([0.2, -0.2]))
    with pytest.raises(ValueError):
        Valuation("power", 1.0, 1.2)
    with pytest.raises(ValueError):
        Valuation("log_shift", 0.0, 1.0)
    with pytest.raises(ValueError):
        Valuation("cubic", 1.0, 1.0)


@st.composite
def valuations(draw):
    fam = draw(st.sampled_from(["log_shift", "power", "quad_cap"]))
    a = draw(st.floats(0.1, 5.0))
    if fam == "power":
        b = draw(st.floats(0.1, 0.9))
    else:
        b = draw(st.floats(0.1, 5.0))
    return Valuation(fam, a, b)


def _bisect_inverse(v: Valuation, q: float, D: float) -> float:
    """Maximizer of v(z) - q z on [0, D] by bisection on the scalar v'."""
    if v.deriv_s(D) >= q:
        return D
    if v.deriv_s(0.0) <= q:
        return 0.0
    lo, hi = 0.0, D
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if v.deriv_s(mid) > q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def valuation_and_slope(draw):
    v = draw(valuations())
    D = draw(st.sampled_from([1.0, 10.0, 100.0]))
    top, bottom = v.deriv_s(0.0), v.deriv_s(D)
    u = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["zero", "at", "above", "below", "inside"]))
    if kind == "zero":
        q = 0.0
    elif kind in ("at", "above"):  # v'(0) is infinite for power
        scale = 1.0 + u if kind == "above" else 1.0
        q = 1e12 * scale if math.isinf(top) else top * scale
    elif kind == "below":  # at or below v'(D)
        q = bottom - u * (1.0 + abs(bottom))
    else:
        hi = top if math.isfinite(top) else v.deriv_s(1e-9 * D)
        q = bottom + u * (hi - bottom)
    return v, D, q


@settings(max_examples=400, deadline=None)
@given(valuation_and_slope())
def test_inverse_slope_matches_bisection(case):
    v, D, q = case
    z = ValuationTable.of([v]).inv_deriv(np.array([q]), D)[0]
    ref = _bisect_inverse(v, q, D)
    assert 0.0 <= z <= D
    assert z == pytest.approx(ref, rel=1e-9, abs=1e-9)
    # the endpoint cases are exact, as the safeguarded search's are
    if q >= v.deriv_s(0.0):
        assert z == 0.0
    if q == 0.0 and v.family != "quad_cap":
        assert z == D
    if q <= v.deriv_s(D):
        assert z == pytest.approx(D, rel=1e-12)


@settings(max_examples=120, deadline=None)
@given(valuations(), st.floats(0.05, 20.0))
def test_derivatives_match_finite_differences(v, x):
    h = 1e-6 * (1.0 + x)
    fd1 = (v.value_s(x + h) - v.value_s(x - h)) / (2.0 * h)
    assert fd1 == pytest.approx(v.deriv_s(x), rel=1e-5, abs=1e-7)
    fd2 = (v.deriv_s(x + h) - v.deriv_s(x - h)) / (2.0 * h)
    assert fd2 == pytest.approx(v.deriv2_s(x), rel=1e-4, abs=1e-6)
    assert v.deriv2_s(x) < 0


def test_valuation_dict_round_trip_uses_m_for_satiation():
    v = Valuation("quad_cap", 1.5, 2.5)
    d = v.to_dict()
    assert d == {"family": "quad_cap", "a": 1.5, "m": 2.5}
    assert Valuation.from_dict(d) == v
    w = Valuation("power", 1.0, 0.5)
    assert Valuation.from_dict(w.to_dict()) == w


# ---------------------------------------------------------------------------
# constraints and instance plumbing


def test_constraint_rejects_zero_coefficient_and_empty():
    with pytest.raises(ValueError):
        Constraint({0: 0.0}, 1.0)
    with pytest.raises(ValueError):
        Constraint({}, 1.0)


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_valuation_rejects_non_finite_parameters(field, bad):
    params = {"a": 1.0, "b": 1.0, field: bad}
    with pytest.raises(InvalidParameter):
        Valuation("log_shift", **params)


def _canonical_with(cap=1.0, coeff=1.0, **fields):
    args = dict(valuations=(Valuation("log_shift", 1.0, 1.0),
                            Valuation("log_shift", 1.0, 1.0)),
                equality_groups=(), d=0.01, D=100.0, eta=1.0)
    args.update(fields)
    return Instance(constraints=(Constraint({0: coeff, 1: 1.0}, cap),),
                    **args)


@pytest.mark.parametrize("bad", [
    {"cap": math.nan}, {"cap": math.inf}, {"coeff": math.nan},
    {"coeff": -math.inf}, {"d": [0.01, math.nan]}, {"D": math.inf},
    {"D": math.nan}, {"eta": math.nan}, {"eta": math.inf},
    {"D": 0.01}, {"D": -1.0}, {"d": [0.01, 200.0]},
], ids=["nan-cap", "inf-cap", "nan-coeff", "inf-coeff", "nan-floor",
        "inf-ceiling", "nan-ceiling", "nan-eta", "inf-eta",
        "ceiling-at-floor", "negative-ceiling", "floor-above-ceiling"])
def test_instance_rejects_bad_numbers(bad):
    with pytest.raises(InvalidParameter):
        _canonical_with(**bad)


def test_instance_broadcasts_scalar_floor():
    inst = canonical()
    assert inst.d.shape == (2,)
    assert np.all(inst.d == 0.01)


def test_instance_rejects_out_of_range_constraint():
    with pytest.raises(DimensionMismatch):
        Instance(valuations=(Valuation("log_shift", 1, 1),),
                 constraints=(Constraint({3: 1.0}, 1.0),),
                 equality_groups=(), d=0.01, D=10.0, eta=1.0)


def test_groups_normalized_missing_agents_become_singletons():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(4)),
        constraints=(Constraint({0: 1, 1: 1, 2: 1, 3: 1}, 4.0),),
        equality_groups=((2, 1),), d=0.01, D=10.0, eta=1.0)
    assert inst.equality_groups == ((0,), (1, 2), (3,))
    with pytest.raises(ValueError):
        Instance(
            valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
            constraints=(Constraint({0: 1, 1: 1, 2: 1}, 3.0),),
            equality_groups=((0, 1), (1, 2)), d=0.01, D=10.0, eta=1.0)


def test_index_sets_both_directions():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
        constraints=(Constraint({0: 1.0, 2: 2.0}, 1.0),
                     Constraint({1: 1.0, 2: 1.0}, 2.0)),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    idx = inst.index_sets
    assert idx.members == ((0, 2), (1, 2))
    assert idx.rows_of_agent == ((0,), (1,), (0, 1))
    assert idx.counts.tolist() == [2, 2]
    assert idx.degrees.tolist() == [1, 1, 2]
    assert inst.A.tolist() == [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]


# ---------------------------------------------------------------------------
# equality reduction


def test_reduce_collapses_group_columns():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
        constraints=(Constraint({0: 1.0, 1: 2.0, 2: 3.0}, 6.0),),
        equality_groups=((0, 1),), d=0.01, D=10.0, eta=1.0)
    red = inst.reduced
    assert red.A_red.tolist() == [[3.0, 3.0]]
    assert red.group_sizes.tolist() == [2, 1]
    assert red.nonvacuous.tolist() == [True]
    # averaged row value: A_hat spreads group coefficients over members
    assert red.A_hat.tolist() == [[1.5, 1.5, 3.0]]
    assert red.expand(np.array([5.0, 7.0])).tolist() == [5.0, 5.0, 7.0]
    assert red.restrict(np.array([5.0, 5.0, 7.0])).tolist() == [5.0, 7.0]
    assert red.average(np.array([4.0, 6.0, 7.0])).tolist() == [5.0, 7.0]


def test_reduce_marks_cycle_rows_vacuous():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: -1.0, 1: 1.0}, 0.0),
                     Constraint({0: 1.0, 1: -1.0}, 0.0),
                     Constraint({0: 0.5, 1: 0.5}, 2.0)),
        equality_groups=((0, 1),), d=0.01, D=10.0, eta=1.0)
    red = inst.reduced
    assert red.nonvacuous.tolist() == [False, False, True]
    assert red.A_red[:, 0].tolist() == [0.0, 0.0, 1.0]


def test_reduce_rejects_negative_aggregate():
    inst_args = dict(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: 1.0, 1: -2.0}, 1.0),),
        d=0.01, D=10.0, eta=1.0)
    with pytest.raises(NegativeReducedCoefficient):
        Instance(equality_groups=((0, 1),), **inst_args).reduced
    # negative entries are rejected even per-singleton: the pullback ray
    # needs every surviving reduced coefficient to be nonnegative
    with pytest.raises(NegativeReducedCoefficient):
        Instance(equality_groups=(), **inst_args).reduced
    # but signs that cancel inside a group reduce to a vacuous row
    ok = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: 1.0, 1: -1.0}, 0.0),),
        equality_groups=((0, 1),), d=0.01, D=10.0, eta=1.0)
    assert ok.reduced.A_red.tolist() == [[0.0]]
    assert not ok.reduced.nonvacuous[0]


def test_group_aggregates_sum_members():
    inst = Instance(
        valuations=(Valuation("log_shift", 1.0, 1.0),
                    Valuation("quad_cap", 2.0, 3.0)),
        constraints=(Constraint({0: 0.5, 1: 0.5}, 2.0),),
        equality_groups=((0, 1),), d=0.01, D=10.0, eta=1.0)
    table = inst.valuation_table
    x = inst.reduced.expand(np.array([1.0]))
    assert table.value(x).sum() == pytest.approx(
        math.log(2.0) + 2.0 * (3.0 - 0.5), abs=1e-14)
    assert table.deriv(x).sum() == pytest.approx(0.5 + 4.0, abs=1e-14)
    assert table.deriv2(x).sum() == pytest.approx(-0.25 - 2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# interior point


def test_derive_theta_canonical_half_floor():
    th = derive_theta(canonical())
    assert th.tolist() == [0.005, 0.005]


def test_derive_theta_needs_three_halvings_for_heavy_row():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: 100.0, 1: 100.0}, 1.0),),
        equality_groups=(), d=0.02, D=10.0, eta=1.0)
    th = derive_theta(inst)
    # sigma halves 1/2 -> 1/4 -> 1/8 before 200*sigma*0.02 fits under 1
    assert th.tolist() == [0.0025, 0.0025]


def test_derive_theta_zero_cap_has_no_interior():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 0.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    with pytest.raises(NoInteriorPoint):
        derive_theta(inst)


def test_derive_theta_ignores_vacuous_rows():
    # zero-cap cycle rows are equality encodings, not geometry
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: -1.0, 1: 1.0}, 0.0),
                     Constraint({0: 1.0, 1: -1.0}, 0.0),
                     Constraint({0: 0.5, 1: 0.5}, 1.0)),
        equality_groups=((0, 1),), d=0.01, D=10.0, eta=1.0)
    th = derive_theta(inst)
    assert th.tolist() == [0.005, 0.005]


# ---------------------------------------------------------------------------
# validation


def names(report):
    return {c.name: c.status for c in report.checks}


def test_validate_canonical_passes_with_deferred_optimum():
    rep = validate(canonical())
    st = names(rep)
    assert rep.passed
    assert st["A1"] == "pass"
    assert st["A2(box)"] == "pass"
    assert st["A2(optimum)"] == "deferred"
    assert st["A3"] == st["A4"] == st["A5"] == st["A6"] == "pass"
    assert st["theta"] == "pass"


def test_validate_optimum_interiority_with_solution():
    inst = canonical()
    good = validate(inst, x_star=np.array([0.5, 0.5]))
    assert names(good)["A2(optimum)"] == "pass"
    bad = validate(inst, x_star=np.array([0.01, 0.99]))
    assert names(bad)["A2(optimum)"] == "fail"
    assert not bad.passed
    assert [c.name for c in bad.failures] == ["A2(optimum)"]


def test_validate_flags_negative_cap_and_thin_row():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: 1.0}, -1.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    st = names(validate(inst))
    assert st["A3"] == "fail"
    assert st["A4"] == "fail"


def test_validate_flags_infeasible_floor():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 0.005),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    st = names(validate(inst))
    assert st["A2(box)"] == "fail"
    # the pullback anchor lives below the floor, so theta itself is fine
    assert st["theta"] == "pass"


def test_validate_offeq_preconditions():
    small = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
        constraints=(Constraint({0: 1, 1: 1, 2: 1}, 1.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    st = names(validate(small, "sbb-offeq"))
    assert st["A4'"] == "fail"
    big = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(5)),
        constraints=(Constraint({i: 1.0 for i in range(5)}, 2.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    assert names(validate(big, "sbb-offeq"))["A4'"] == "pass"
    assert "A4'" not in names(validate(big, "base"))


def test_validate_supplied_theta():
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0,
        theta=np.array([0.004, 0.006]))
    assert names(validate(inst))["theta"] == "pass"
    bad = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(2)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
        equality_groups=(), d=0.01, D=10.0, eta=1.0,
        theta=np.array([0.02, 0.005]))
    assert names(validate(bad))["theta"] == "fail"


def test_variant_parse_normalizes():
    assert Variant.parse("SBB_NE") is Variant.SBB_NE
    assert Variant.parse("sbb-offeq") is Variant.SBB_OFFEQ
    assert Variant.parse(Variant.BASE) is Variant.BASE
    with pytest.raises(ValueError, match="unknown variant 'vcg'.*sbb-offeq"):
        Variant.parse("vcg")
    assert Schedule.parse("best_response") is Schedule.BEST_RESPONSE
    assert Schedule.parse(" Price-Adjust-BR ") is Schedule.PRICE_ADJUST_BR
    assert Schedule.parse(Schedule.BEST_RESPONSE) is Schedule.BEST_RESPONSE
    with pytest.raises(ValueError,
                       match="unknown schedule 'gossip'.*best-response"):
        Schedule.parse("gossip")


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_preserves_digest(tmp_path):
    inst = Instance(
        valuations=(Valuation("log_shift", 1.0, 2.0),
                    Valuation("power", 0.9, 0.5),
                    Valuation("quad_cap", 1.1, 3.0)),
        constraints=(Constraint({0: 1.0, 1: 2.0}, 1.5),
                     Constraint({1: -1.0, 2: 1.0}, 0.0)),
        equality_groups=((1, 2),), d=np.array([0.01, 0.02, 0.02]),
        D=50.0, eta=0.5, theta=np.array([0.005, 0.004, 0.004]))
    p = tmp_path / "inst.json"
    save_instance(inst, p)
    back = load_instance(p)
    assert instance_digest(back) == instance_digest(inst)
    assert instance_to_dict(back) == instance_to_dict(inst)
    # digest is over canonical JSON: key order in file must not matter
    payload = json.loads(p.read_text())
    assert instance_digest(instance_from_dict(payload)) == \
        instance_digest(inst)


def test_from_dict_defaults_eta_and_groups():
    payload = {
        "agents": [{"valuation": {"family": "log_shift", "a": 1.0, "b": 1.0}},
                   {"valuation": {"family": "log_shift", "a": 1.0, "b": 1.0}}],
        "constraints": [{"coeffs": {"0": 1.0, "1": 1.0}, "cap": 1.0}],
        "d": [0.01, 0.01],
        "D": 100.0,
    }
    inst = instance_from_dict(payload)
    assert inst.eta == 1.0
    assert inst.equality_groups == ((0,), (1,))
    assert inst.theta is None
