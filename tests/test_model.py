import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import propmech
from propmech import model
from propmech.centralized import solve
from propmech.cli import main
from propmech.game import Schedule
from propmech.harness import Scenario, generate
from propmech.model import (FAMILIES, Constraint, DimensionMismatch,
                            DomainError, Instance, InvalidParameter,
                            NegativeReducedCoefficient, NNLSNoConvergence,
                            NoInteriorPoint, Valuation, ValuationTable,
                            Variant, derive_theta, instance_digest,
                            instance_from_dict, instance_to_dict,
                            load_instance, nnls, reduce_equalities,
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
    assert v.value(1.0) == pytest.approx(2.0 * math.log(4.0), abs=1e-15)
    assert v.deriv(1.0) == pytest.approx(1.5, abs=1e-15)
    assert v.deriv2(1.0) == pytest.approx(-1.125, abs=1e-15)


def test_power_values_and_infinite_slope_at_zero():
    v = Valuation("power", 2.0, 0.5)
    assert v.value(4.0) == pytest.approx(4.0, abs=1e-15)
    assert v.deriv(4.0) == pytest.approx(0.5, abs=1e-15)
    assert v.deriv2(4.0) == pytest.approx(-0.0625, abs=1e-15)
    assert v.deriv(0.0) == math.inf
    assert v.deriv2(0.0) == -math.inf


def test_quad_cap_values_nonmonotone_past_satiation():
    v = Valuation("quad_cap", 1.5, 2.0)
    assert v.value(1.0) == pytest.approx(2.25, abs=1e-15)
    assert v.deriv(1.0) == pytest.approx(1.5, abs=1e-15)
    assert v.deriv(3.0) == pytest.approx(-1.5, abs=1e-15)
    assert v.deriv2(7.0) == -1.5


def test_family_forms_agree_on_floats_and_arrays():
    # the same FAMILIES entry on Python floats (libm pow and log1p) and on
    # arrays (numpy's) agrees within 2 ulp: 30,000 random points
    rng = np.random.default_rng(5)
    m = 10_000
    for name, fam in FAMILIES.items():
        a = rng.uniform(0.1, 5.0, m)
        b = rng.uniform(0.1, 0.9, m) if name == "power" \
            else rng.uniform(0.1, 5.0, m)
        x = 10.0 ** rng.uniform(-6.0, 2.0, m)
        for form in (fam.value, fam.deriv, fam.deriv2):
            arr = form(fam.coefficients(a, b), x)
            flt = np.array([form(fam.coefficients(float(p), float(q)),
                                 float(t)) for p, q, t in zip(a, b, x)])
            ulp = np.spacing(np.maximum(np.abs(arr), np.abs(flt)))
            assert np.all(np.abs(flt - arr) <= 2.0 * ulp), (name, form)
    # the mixed-family table, agents along the first axis, is each
    # agent's own array call
    vals = (Valuation("log_shift", 1.3, 0.7), Valuation("power", 0.8, 0.4),
            Valuation("quad_cap", 2.0, 3.0))
    xs = np.array([0.05, 0.5, 1.7, 2.9])
    table = ValuationTable.of(vals[::-1] + vals)
    X = np.tile(xs, (6, 1))
    for fn in ("value", "deriv", "deriv2"):
        want = [getattr(v, fn)(xs) for v in vals[::-1] + vals]
        assert np.array_equal(getattr(table, fn)(X), want)


def test_log_shift_curvature_past_the_square_overflow():
    # every b whose square is finite keeps the former form bitwise, on
    # floats and on arrays; past 2**511 b ** 2 overflows, and the
    # curvature -a (b / (1 + b x))^2 is still finite for x > 0
    def former(a, b, x):
        return -a * b ** 2 / (1.0 + b * x) ** 2

    fam = FAMILIES["log_shift"]

    def curv(a, b, x):
        return fam.deriv2(fam.coefficients(a, b), x)

    rng = np.random.default_rng(17)
    a = rng.uniform(0.1, 5.0, 2000)
    b = 10.0 ** rng.uniform(-3.0, 150.0, 2000)
    x = 10.0 ** rng.uniform(-6.0, 2.0, 2000)
    assert np.array_equal(curv(a, b, x), former(a, b, x))
    assert [curv(*v) for v in zip(a.tolist(), b.tolist(), x.tolist())] \
        == [former(*v) for v in zip(a.tolist(), b.tolist(), x.tolist())]
    for b in (2.0 ** 511, 1e300):
        v = Valuation("log_shift", 2.0, b)
        table = ValuationTable.of((v,))
        for x in (1e-6, 0.5, 40.0):
            want = -2.0 * (b / (1.0 + b * x)) ** 2
            assert v.deriv2(x) == pytest.approx(want, rel=1e-15)
            assert table.deriv2(np.array([x]))[0] == v.deriv2(x)


def _former_log_curv(a, b, x):
    huge = b >= 2.0 ** 511
    if not (huge if isinstance(huge, bool) else huge.any()):
        return -a * b ** 2 / (1.0 + b * x) ** 2
    t = b / (1.0 + b * x)
    if isinstance(huge, bool):
        return -(a * t) * t
    return np.where(huge, -(a * t) * t, -a * b ** 2 / (1.0 + b * x) ** 2)


def _former_log_inv(a, b, q):
    z = np.where(q > 0, a / q - 1.0 / b, np.inf)
    return np.where(q >= a * b, 0.0, z)


# each family's value, slope, curvature and inverse slope as functions of
# (a, b, x), as they were before the coefficients were formed once
FORMER_FAMILIES = {
    "log_shift": (lambda a, b, x: a * np.log1p(b * x),
                  lambda a, b, x: a * b / (1.0 + b * x),
                  _former_log_curv, _former_log_inv),
    "power": (lambda a, b, x: a * x ** b,
              lambda a, b, x: a * b * x ** (b - 1.0),
              lambda a, b, x: a * b * (b - 1.0) * x ** (b - 2.0),
              lambda a, b, q: np.where(
                  q > 0, (q / (a * b)) ** (1.0 / (b - 1.0)), np.inf)),
    "quad_cap": (lambda a, b, x: a * (b * x - x ** 2 / 2.0),
                 lambda a, b, x: a * (b - x),
                 lambda a, b, x: 0.0 * x - a,
                 lambda a, b, q: np.where(q >= a * b, 0.0, b - q / a)),
}
_FORMS = ("value", "deriv", "deriv2", "inv_deriv")


def _former_on_float(form, a, b, x):
    """The former float path (model._bind): Python floats, and numpy
    floats where those overflow."""
    try:
        return form(a, b, x)
    except OverflowError:
        with np.errstate(all="ignore"):
            return float(form(*map(np.float64, (a, b, x))))


def test_coefficient_forms_are_bitwise_the_parameter_forms():
    """The forms on coefficients formed once are bitwise the former forms
    in (a, b, x): on arrays through ValuationTable (mixed and one-family
    tables, with and without a trailing axis) and Valuation, and on Python
    floats through _bind, with log_shift's b at and past 2^511 and points
    whose Python powers overflow."""
    rng = np.random.default_rng(35)
    huge_b = [2.0 ** 511, 2.0 ** 512, 1e300]
    vals = [Valuation("log_shift", a, b) for a, b in zip(
        rng.uniform(0.1, 5.0, 9).tolist(),
        [*rng.uniform(0.1, 5.0, 6).tolist(), *huge_b])]
    vals += [Valuation("power", a, b) for a, b in zip(
        rng.uniform(0.1, 5.0, 6).tolist(),
        rng.uniform(0.05, 0.95, 6).tolist())]
    vals += [Valuation("quad_cap", a, b) for a, b in zip(
        rng.uniform(0.1, 5.0, 6).tolist(), rng.uniform(1e-9, 5.0, 6).tolist())]
    order = rng.permutation(len(vals))
    xs = np.concatenate([[0.0, 1e-300, 1e-12], 10.0 ** rng.uniform(
        -12.0, 3.0, 12), [1e154, 1e200, 1e300]])

    def bits(v):
        return np.asarray(v, dtype=float).tobytes()

    def former_rows(vs, fn, X):
        with np.errstate(all="ignore"):
            return np.array([FORMER_FAMILIES[v.family][_FORMS.index(fn)](
                v.a, v.b, x) for v, x in zip(vs, X)])

    tables = [[vals[j] for j in order],
              *([v for v in vals if v.family == f] for f in FAMILIES)]
    for vs in tables:
        table = ValuationTable.of(vs)
        X = np.tile(xs, (len(vs), 1))
        for fn in _FORMS:
            want = former_rows(vs, fn, X)
            assert bits(table._map(fn, X)) == bits(want), fn
            assert bits(table._map(fn, X[:, 7])) == bits(want[:, 7]), fn
    for v in vals:
        fam = FORMER_FAMILIES[v.family]
        for fn, form in zip(_FORMS[:3], fam[:3]):
            with np.errstate(all="ignore"):
                want = form(v.a, v.b, xs)
            with np.errstate(over="ignore"):
                assert bits(getattr(v, fn)(xs)) == bits(want), (v, fn)
        for got, form in zip(model._bind(v.family, v.a, v.b), fam[:3]):
            for x in xs[1:].tolist() if v.family == "power" else xs.tolist():
                assert bits(got(x)) == bits(
                    _former_on_float(form, v.a, v.b, x)), (v, form, x)


def test_valuation_domain_and_parameter_errors():
    v = Valuation("log_shift", 1.0, 1.0)
    with pytest.raises(DomainError):
        v.value(-0.1)
    with pytest.raises(DomainError):
        v.deriv(np.array([0.2, -0.2]))
    with pytest.raises(ValueError):
        Valuation("power", 1.0, 1.2)
    with pytest.raises(ValueError):
        Valuation("log_shift", 0.0, 1.0)
    with pytest.raises(ValueError):
        Valuation("cubic", 1.0, 1.0)


def test_quad_cap_satiation_below_the_consensus_floor_is_refused(tmp_path,
                                                                  capsys):
    with pytest.raises(InvalidParameter, match="satiation"):
        Valuation("quad_cap", 1.0, 1e-14)
    # from 1e-9 up, the consensus floor of 1e-12 stays within 1e-3
    table = ValuationTable.of([Valuation("quad_cap", 1.0, 1e-9)] * 2)
    z = table.group_inv_deriv(np.array([1e-17]), 100.0, np.array([0, 0]),
                              0.0)
    assert z[0] == pytest.approx(1e-9 - 5e-18, rel=1e-3)
    inst = instance_to_dict(canonical())
    inst["agents"][0]["valuation"] = {"family": "quad_cap", "a": 1.0,
                                      "m": 1e-14}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(["solve", str(path)]) == 2
    assert "satiation" in capsys.readouterr().err


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
    if v.deriv(D) >= q:
        return D
    if v.deriv(0.0) <= q:
        return 0.0
    lo, hi = 0.0, D
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if v.deriv(mid) > q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def valuation_and_slope(draw):
    v = draw(valuations())
    D = draw(st.sampled_from([1.0, 10.0, 100.0]))
    top, bottom = v.deriv(0.0), v.deriv(D)
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
        hi = top if math.isfinite(top) else v.deriv(1e-9 * D)
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
    if q >= v.deriv(0.0):
        assert z == 0.0
    if q == 0.0 and v.family != "quad_cap":
        assert z == D
    if q <= v.deriv(D):
        assert z == pytest.approx(D, rel=1e-12)


@settings(max_examples=120, deadline=None)
@given(valuations(), st.floats(0.05, 20.0))
def test_derivatives_match_finite_differences(v, x):
    h = 1e-6 * (1.0 + x)
    fd1 = (v.value(x + h) - v.value(x - h)) / (2.0 * h)
    assert fd1 == pytest.approx(v.deriv(x), rel=1e-5, abs=1e-7)
    fd2 = (v.deriv(x + h) - v.deriv(x - h)) / (2.0 * h)
    assert fd2 == pytest.approx(v.deriv2(x), rel=1e-4, abs=1e-6)
    assert v.deriv2(x) < 0


def test_valuation_dict_round_trip_uses_m_for_satiation():
    v = Valuation("quad_cap", 1.5, 2.5)
    d = v.to_dict()
    assert d == {"family": "quad_cap", "a": 1.5, "m": 2.5}
    assert Valuation.from_dict(d) == v
    w = Valuation("power", 1.0, 0.5)
    assert Valuation.from_dict(w.to_dict()) == w


# ---------------------------------------------------------------------------
# nonnegative least squares (scipy is the reference)


def _cycle(m: int) -> np.ndarray:
    """An m-member equality group's cycle rows over its members, transposed:
    column j is e_(j+1 mod m) - e_j."""
    A = np.zeros((m, m))
    for j in range(m):
        A[j, j], A[(j + 1) % m, j] = -1.0, 1.0
    return A


def _nnls_problem(kind: str, rng: np.random.Generator):
    m, n = (int(v) for v in rng.integers(1, 9, size=2))
    if kind == "cycle":
        A = _cycle(max(m, 2))
        b = rng.normal(size=A.shape[0])
        return A, b - b.mean() * rng.integers(2)  # consistent half the time
    A = rng.normal(size=(m, n))
    if kind == "zero":  # A >= 0 and b <= 0: x = 0
        return np.abs(A), -np.abs(rng.normal(size=m))
    if kind == "duplicate" and n > 1:
        i, j = rng.choice(n, 2, replace=False)
        A[:, j] = A[:, i]
    # half the right-hand sides lie near the cone of A, so most columns enter
    if rng.integers(2):
        return A, A @ np.abs(rng.normal(size=n)) + 0.1 * rng.normal(size=m)
    return A, rng.normal(size=m)


def _check_nnls(A: np.ndarray, b: np.ndarray, scipy_nnls) -> np.ndarray:
    """nnls(A, b) against scipy's: the residual norm within 1e-12
    relative, the KKT conditions, and the same x where A has full column
    rank."""
    x = nnls(A, b)
    xs, rs = scipy_nnls(A, b)
    assert abs(float(np.linalg.norm(b - A @ x)) - rs) \
        <= 1e-12 * float(np.linalg.norm(b))
    assert x.shape == xs.shape and np.all(x >= 0.0)
    grad = A.T @ (A @ x - b)  # of |A x - b|^2 / 2
    tol = 1e-9 * (1.0 + float(np.abs(A).max()) * float(np.abs(b).sum()))
    assert np.all(grad[x == 0.0] >= -tol)
    assert np.all(np.abs(grad[x > 0.0]) <= tol)
    if A.shape[0] >= A.shape[1] and np.linalg.matrix_rank(A) == A.shape[1]:
        assert float(np.max(np.abs(x - xs))) <= 1e-13 * np.linalg.cond(A) \
            * (1.0 + float(np.max(np.abs(xs))))
    return x


@pytest.mark.parametrize("kind, count", [
    ("random", 1000), ("duplicate", 3000), ("zero", 300), ("cycle", 1000)])
def test_nnls_matches_scipy(kind, count):
    # the duplicate columns' rounding-noise gradients exceed the tolerance
    # on a few of these 3,000 problems: the dependence guard skips them
    scipy_nnls = pytest.importorskip("scipy.optimize").nnls
    rng = np.random.default_rng(["random", "duplicate", "zero",
                                 "cycle"].index(kind))
    for _ in range(count):
        A, b = _nnls_problem(kind, rng)
        x = _check_nnls(A, b, scipy_nnls)
        if kind == "zero":
            assert not x.any()


def test_nnls_skips_dependent_columns_at_zero_tolerance(monkeypatch):
    # with the gradient tolerance at 0, the rounding noise of an exact
    # duplicate of a passive column offers it for entry on most problems;
    # only the dependence guard keeps the passive system regular
    scipy_nnls = pytest.importorskip("scipy.optimize").nnls
    monkeypatch.setattr(model, "nnls_tol_scale", lambda A: 0.0)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        _check_nnls(*_nnls_problem("duplicate", rng), scipy_nnls)


def test_nnls_edge_shapes():
    assert nnls(np.zeros((3, 0)), np.ones(3)).shape == (0,)
    assert not nnls(np.ones((2, 2)), np.zeros(2)).any()
    assert nnls(np.eye(2), np.array([3.0, -1.0])) == pytest.approx([3.0, 0])


def test_nnls_outer_iteration_limit_is_a_typed_runtime_error(monkeypatch):
    monkeypatch.setattr(model, "NNLS_OUTER", 0)
    with pytest.raises(NNLSNoConvergence) as err:
        nnls(np.eye(2), np.ones(2))
    assert isinstance(err.value, RuntimeError)
    assert np.array_equal(err.value.x, np.zeros(2))  # the last iterate
    # problems that need no column still solve
    assert not nnls(np.eye(2), -np.ones(2)).any()


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


@pytest.mark.parametrize("d", [0.0, -0.01, [0.01, 0.0], [-1e-300, 0.01]])
def test_instance_refuses_a_floor_at_or_below_zero(d):
    # no interior anchor theta = sigma d exists there, so solve and verify
    # could only fail later
    with pytest.raises(InvalidParameter, match="floor in d"):
        _canonical_with(d=d)
    assert np.all(_canonical_with(d=1e-300).d == 1e-300)


@pytest.mark.parametrize("build, match", [
    (lambda: _canonical_with(d=[0.01, 0.01, 0.01]), r"d has shape \(3,\)"),
    (lambda: _canonical_with(theta=[0.005]), "theta length mismatch"),
    (lambda: _canonical_with(equality_groups=((0, 2),)),
     "equality group member 2 out of range"),
    (lambda: Constraint({0: 1.0, -1: 1.0}, 1.0), "agent index -1 is negative"),
], ids=["floor-length", "theta-length", "group-member", "negative-agent"])
def test_instance_refuses_a_vector_or_index_that_does_not_fit(build, match):
    with pytest.raises(DimensionMismatch, match=match):
        build()


def test_instance_refuses_no_agents():
    # the dynamics and the verifier once failed on it with numpy's
    # ValueError, and solve returned an empty solution
    with pytest.raises(InvalidParameter, match="at least one agent"):
        Instance(valuations=(), constraints=(), equality_groups=(), d=[],
                 D=1.0, eta=1.0)


def test_instance_refuses_negative_eta_and_keeps_zero():
    with pytest.raises(InvalidParameter, match="eta"):
        _canonical_with(eta=-1e-3)
    assert _canonical_with(eta=0.0).eta == 0.0


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
    members = [np.flatnonzero(on).tolist() for on in idx.on.T]
    assert members == [[0, 2], [1, 2]]
    assert [r.tolist() for r in idx.rows_of_agent] == [[0], [1], [0, 1]]
    assert idx.counts.tolist() == [2, 2]
    assert inst.A.tolist() == [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]


@st.composite
def membership_cases(draw):
    """Agents, rows as {agent: coefficient} (signs mixed) and, half the
    time, an equality partition."""
    n = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        mem = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                            unique=True))
        rows.append({i: draw(st.sampled_from([-2.0, -0.5, 0.25, 1.0, 3.0]))
                     for i in mem})
    perm = draw(st.permutations(range(n)))
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, n - 1)),
                                    max_size=3)))) if n > 1 else []
    groups = [tuple(perm[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    return n, rows, groups if draw(st.booleans()) else ()


@settings(max_examples=300, deadline=None)
@given(membership_cases())
def test_index_sets_match_a_reference_from_A(case):
    n, rows, groups = case
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1.0 + i, 1.0)
                         for i in range(n)),
        constraints=tuple(Constraint(c, 1.0) for c in rows),
        equality_groups=groups, d=0.01, D=10.0, eta=1.0)
    A, idx, L = inst.A, inst.index_sets, len(rows)
    members = [np.flatnonzero(A[l]).tolist() for l in range(L)]
    own = [np.flatnonzero(A[:, i]).tolist() for i in range(n)]
    assert idx.on.dtype == bool and np.array_equal(idx.on, A.T != 0)
    assert idx.counts.tolist() == [len(m) for m in members]
    assert inst.thin_rows == tuple(l for l, m in enumerate(members)
                                   if len(m) < 2)
    assert inst.thin_rows == tuple(np.flatnonzero(idx.counts < 2).tolist())
    m = max(map(len, members), default=0)
    for a in (idx.index, idx.mask, idx.pick, idx.coef):
        assert a.shape == (L, m)
    for l, mem in enumerate(members):
        pad = [0] * (m - len(mem))
        assert idx.mask[l].tolist() == [True] * len(mem) + [False] * len(pad)
        assert idx.index[l].tolist() == mem + pad
        assert idx.pick[l].tolist() == [i * L + l for i in mem + pad]
        assert idx.coef[l].tolist() == [A[l, i] for i in mem] + pad
    W = max(map(len, own))
    assert idx.cells.shape == (W, n)
    for i, r in enumerate(own):
        assert idx.rows_of_agent[i].dtype.kind == "i"
        assert idx.rows_of_agent[i].tolist() == r
        order = r + [l for l in range(L) if l not in r]
        assert idx.cells[:, i].tolist() == [i * L + l for l in order[:W]]
    # the layout reads no reduction: A4 is reported when A6 fails too
    a4 = {c.name: c.status for c in validate(inst).checks}["A4"]
    assert a4 == ("fail" if inst.thin_rows else "pass")
    try:
        red = inst.reduced
    except NegativeReducedCoefficient:
        return
    for l, mem in enumerate(members):
        ks = red.group_of_agent[mem]
        ref = [A[l, i] if red.group_sizes[k] == 1
               else red.A_red[l, k] / int((ks == k).sum())
               for i, k in zip(mem, ks)]
        assert red.weight[l].tolist() == ref + [0.0] * (m - len(mem))
    split = red.split
    sizes = [len(g) for g in red.group_members]
    multi = [k for k, s in enumerate(sizes) if s > 1]
    grouped = sorted(i for k in multi for i in red.group_members[k])
    assert split.ones.tolist() == [k for k, s in enumerate(sizes) if s == 1]
    assert split.singles.tolist() == [red.group_members[k][0]
                                      for k in split.ones]
    assert split.multi.tolist() == multi
    assert split.members.tolist() == grouped
    assert split.loc.tolist() == [multi.index(red.group_of_agent[i])
                                  for i in grouped]
    assert split.t_singles.a.tolist() == [1.0 + i for i in split.singles]
    assert split.t_members.a.tolist() == [1.0 + i for i in grouped]


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


def reference_group_inv_deriv(table, q, D, group, lo, z0=None):
    """The former group solve, kept as the reference: one safeguarded
    Newton vectorized over the groups on group_sums, in which every group
    iterates until all are done."""
    G = len(q)
    a = np.zeros(G) + lo
    b = np.full(G, float(D))
    at_top = table.group_sums("deriv", b, group) - q >= 0
    at_bot = table.group_sums("deriv", np.maximum(a, 1e-300), group) \
        - q <= 0
    pinned = at_top | at_bot  # overwritten below, need not converge
    z = np.clip(z0 if z0 is not None else np.full(G, D / 2),
                np.maximum(a, 1e-12), D - 1e-12)
    for _ in range(80):
        slope = table.group_sums("deriv", z, group)
        curv = table.group_sums("deriv2", z, group)
        f = slope - q
        pos = f > 0
        a = np.where(pos, z, a)
        b = np.where(pos, b, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = z - f / curv
        inside = (newton >= a) & (newton <= b) & np.isfinite(newton)
        z_new = np.where(inside, newton, 0.5 * (a + b))
        done = np.all(pinned | (z_new == a) | (z_new == b)
                      | (np.abs(z_new - z) <= 4e-16 * (1.0 + np.abs(z))))
        z = z_new
        if done:
            break
    z = np.where(at_bot, lo, z)
    return np.where(at_top, float(D), z)


@st.composite
def group_solve_cases(draw):
    """A mixed-family table of 1-3 groups of 1-7 members, D up to 1e6,
    and per group a floor lo (0 or a message floor), a start z0 (none,
    inside, at either end or outside [lo, D]) and a cost q (at most 0, the
    summed slope at a point inside, or at or above the slope at lo).
    Inside points keep off the 1e-12 below which the solve does not go."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    G = len(sizes)
    vals = [draw(valuations()) for _ in range(sum(sizes))]
    group = np.repeat(np.arange(G), sizes)
    table = ValuationTable.of(vals)
    D = draw(st.floats(1.0, 1e6))
    lo = np.array([draw(st.sampled_from([0.0, draw(st.floats(1e-4, 0.5))]))
                   for _ in range(G)])

    def inside(g):
        return lo[g] + (D - lo[g]) * draw(st.floats(1e-6, 1.0 - 1e-6))

    def slope(g, z):
        return sum(v.deriv(z) for v in
                   (vals[j] for j in np.flatnonzero(group == g)))

    # numpy's array power and the C library's differ in the last bit on
    # some points, so "at the slope" takes the larger of the two paths'
    # sums: both then pin the end
    floor = np.maximum(lo, 1e-300)
    at_floor = np.maximum(table.group_sums("deriv", floor, group), [
        sum(table._forms[j][1](floor[g]) for j in np.flatnonzero(group == g))
        for g in range(G)])
    q, z0 = np.empty(G), np.empty(G)
    for g in range(G):
        kind = draw(st.sampled_from(["low", "inside", "high"]))
        if kind == "low":
            q[g] = -draw(st.floats(0.0, 10.0))
        elif kind == "inside":
            q[g] = slope(g, inside(g))
        else:
            q[g] = at_floor[g] * (1.0 + draw(st.floats(0.0, 1.0)))
        z0[g] = draw(st.sampled_from([
            inside(g), lo[g], D, lo[g] - 1.0, D + 1.0]))
    return table, q, D, group, lo, None if draw(st.booleans()) else z0


@settings(max_examples=300, deadline=None)
@given(group_solve_cases())
def test_group_solve_matches_the_vectorized_reference(case):
    table, q, D, group, lo, z0 = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = table.group_inv_deriv(q, D, group, lo, z0)
    with np.errstate(all="ignore"):
        ref = reference_group_inv_deriv(table, q, D, group, lo, z0)
    assert np.array_equal(got == D, ref == D)
    assert np.array_equal(got == lo, ref == lo)
    assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + np.abs(ref))), \
        (got, ref)


def _log_space_crossing(vals, q, D, lo):
    """The end of [lo, D] that a crossing outside pins, else the point
    where the members' summed slope meets q: a bisection on log z, which
    shares nothing with the Newton kernel."""
    def slope(z):
        return math.fsum(v.deriv(z) for v in vals)

    if slope(D) >= q:
        return D
    if slope(max(lo, 1e-300)) <= q:
        return lo
    a, b = math.log(max(lo, 1e-300)), math.log(D)
    while (m := 0.5 * (a + b)) not in (a, b):
        if slope(math.exp(m)) > q:
            a = m
        else:
            b = m
    return math.exp(b)


def test_group_solve_on_floats_survives_huge_ceilings():
    # Python raises OverflowError where numpy returns inf: past 1e154 a
    # log_shift curvature squares 1 + b z out of range. And from a ceiling
    # far above the crossing a Newton step loses all precision, so the
    # solve must narrow the bracket in log space to end at the crossing
    # within its step bound
    mixed = [Valuation("log_shift", 1.0, 2.0), Valuation("quad_cap", 1.5, 3.0),
             Valuation("power", 2.0, 0.5), Valuation("log_shift", 0.7, 0.3)]
    pair = [Valuation("log_shift", 1.0, 1.0)] * 2  # crossing at z = 199
    cases = [(mixed, [0, 0, 1, 1], [0.5, 1e-100], D)
             for D in (1e160, 1e200, 1e300)]
    cases += [(pair, [0, 0], [0.01], D) for D in (1e30, 1e50, 1e300)]
    for vals, group, q, D in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ValuationTable.of(vals).group_inv_deriv(
                np.array(q), D, np.array(group), 0.01)
        for g, qg in enumerate(q):
            members = [v for v, gv in zip(vals, group) if gv == g]
            want = _log_space_crossing(members, qg, D, 0.01)
            assert abs(got[g] - want) <= 1e-12 * want, (D, g, got[g], want)


def test_group_newton_stops_when_it_alternates_between_neighbours():
    # a dynamics call of a grouped instance in which Newton alternated
    # between two floats 4 ulp apart near z = 63.4 until the 80-iteration
    # limit; a step onto a bracket end now ends that group's solve
    names = list(FAMILIES)
    table = ValuationTable.of([
        Valuation(names[c], a, b) for c, a, b in zip(
            [1, 1, 1, 0],
            [1.7364016364577362, 1.9421054449789725, 1.8743882826416276,
             1.9018835244210255],
            [0.42795006931179697, 0.4301075104794845, 0.6309655558303546,
             1.3033734988284456])])
    q = np.array([0.1950423118046382, 0.28540376513871374])
    group = np.array([0, 0, 1, 1])
    calls = [0] * 4

    def counted(j, dv):
        def f(x):
            calls[j] += 1
            return dv(x)
        return f
    # every member's slope evaluations: the end tests plus one per step
    table.__dict__["_forms"] = tuple((v, counted(j, dv), d2v) for j, (
        v, dv, d2v) in enumerate(table._forms))
    z = table.group_inv_deriv(q, 100.0, group, 0.0,
                              np.array([83.95271777884972, 100.0]))
    assert max(calls) <= 20, calls
    assert table.group_sums("deriv", z, group) == pytest.approx(q, rel=1e-14)


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


def test_validate_reports_a_negative_aggregate_as_a6(tmp_path, capsys):
    # A2(box) and theta read the reduction, which A6 refuses: they are
    # deferred, and validate reports instead of raising
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
        constraints=(Constraint({0: 1.0, 1: -3.0, 2: 1.0}, 1.0),
                     Constraint({0: 1.0, 1: 1.0, 2: 1.0}, 1.0)),
        equality_groups=((0, 1),), d=0.01, D=10.0, eta=1.0)
    rep = validate(inst)
    st = names(rep)
    assert st["A6"] == "fail" and not rep.passed
    assert [c.name for c in rep.failures] == ["A6"]
    assert st["A2(box)"] == st["theta"] == "deferred"
    assert st["A1"] == st["A3"] == st["A4"] == "pass"
    # the command line still refuses it as bad input
    path = tmp_path / "negative_aggregate.json"
    save_instance(inst, path)
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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


def test_validate_a2_box_holds_each_row_to_its_own_cap():
    # d breaks the tight row by 1e-10: within a tolerance scaled by the
    # largest cap (1e6), beyond the tight row's own
    inst = Instance(
        valuations=tuple(Valuation("log_shift", 1, 1) for _ in range(3)),
        constraints=(Constraint({0: 1.0, 1: 1.0}, 0.02 - 1e-10),
                     Constraint({1: 1.0, 2: 1.0}, 1e6)),
        equality_groups=(), d=0.01, D=10.0, eta=1.0)
    rep = validate(inst)
    assert [c.name for c in rep.failures] == ["A2(box)"]
    with pytest.raises(NoInteriorPoint):
        solve(inst)


def _a1_reference(instance):
    """A1's detail strings from the per-agent scalar valuations."""
    grid = np.geomspace(max(instance.D * 1e-6, 1e-9), instance.D, 23)
    bad = []
    for i, v in enumerate(instance.valuations):
        if not np.all(np.asarray(v.deriv2(grid)) < 0):
            bad.append(f"agent {i}: second derivative not negative")
        if v.deriv(0.0) <= 0:
            bad.append(f"agent {i}: nonpositive derivative at 0")
    return "; ".join(bad)


def test_validate_a1_matches_the_per_agent_check():
    # a = 5e-324 underflows the curvature to -0.0 (and log_shift's slope
    # at 0 to 0.0), which A1 reports per agent in agent order
    vals = (Valuation("log_shift", 1.0, 1.0),
            Valuation("log_shift", 5e-324, 0.1),
            Valuation("power", 2.0, 0.5),
            Valuation("power", 5e-324, 0.5),
            Valuation("quad_cap", 1.0, 3.0))
    inst = Instance(valuations=vals,
                    constraints=(Constraint({0: 1.0, 1: 1.0}, 1.0),),
                    equality_groups=(), d=0.01, D=100.0, eta=1.0)
    a1 = validate(inst).checks[0]
    assert a1.name == "A1" and a1.status == "fail"
    assert a1.detail == _a1_reference(inst)
    assert a1.detail.startswith("agent 1: second derivative not negative; "
                                "agent 1: nonpositive derivative at 0; "
                                "agent 3:")
    ok = canonical()
    assert validate(ok).checks[0].detail == _a1_reference(ok) == ""


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
    # below d, but the floors themselves break the cap
    outside = _canonical_with(cap=0.015, theta=np.array([0.009, 0.009]))
    assert _failure(outside, "theta") == "theta is not strictly interior"


def _failure(inst, name: str) -> str:
    """The detail of validate's failed check ``name`` on inst."""
    failed = {c.name: c.detail for c in validate(inst).failures}
    assert name in failed, failed
    return failed[name]


def test_validate_holds_a_group_to_one_floor_and_one_theta():
    inst = generate(Scenario(kind="local-public-goods", group_sizes=(2, 2)),
                    200)
    assert validate(inst).passed and inst.equality_groups[0] == (0, 1)
    d = inst.d.copy()
    d[1] *= 1.5
    assert _failure(dataclasses.replace(inst, d=d), "A2(box)") \
        == "group (0, 1) has non-constant d"
    theta = np.full(inst.n_agents, 0.5 * inst.d[0])
    assert validate(dataclasses.replace(inst, theta=theta)).passed
    theta[1] *= 0.9
    assert _failure(dataclasses.replace(inst, theta=theta), "theta") \
        == "group (0, 1) has non-constant theta"


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


# the classes that mean bad input, and those that keep RuntimeError as well
INPUT_ERRORS = {"InputError", "DomainError", "DimensionMismatch",
                "InvalidParameter", "NegativeReducedCoefficient",
                "DemandOutOfBox", "AgentNotOnConstraint",
                "AssumptionA4PrimeViolated", "DegenerateRowUnsupported",
                "UnknownSuite", "NoInteriorPoint", "TooLarge", "A2Violation",
                "GenerationFailed"}
RUNTIME_ERRORS = {"NoInteriorPoint", "TooLarge", "A2Violation",
                  "GenerationFailed", "NoConvergence", "NNLSNoConvergence"}


def test_every_exception_derives_from_one_root():
    errors = {name: getattr(propmech, name) for name in propmech.__all__
              if isinstance(getattr(propmech, name), type)
              and issubclass(getattr(propmech, name), BaseException)}
    # the two roots and the fifteen classes of the six modules
    assert len(errors) == 17
    for name, cls in errors.items():
        assert issubclass(cls, propmech.PropmechError), name
        is_input = issubclass(cls, propmech.InputError)
        assert is_input == (name in INPUT_ERRORS), name
        if name in RUNTIME_ERRORS:
            assert issubclass(cls, RuntimeError), name
        elif name != "PropmechError":
            assert issubclass(cls, ValueError), name
    # a bad option is bad input
    with pytest.raises(InvalidParameter):
        Variant.parse("vcg")


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
