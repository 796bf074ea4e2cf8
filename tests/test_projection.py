import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz_condenser import InfeasibleProblemError, project_capped_simplex


def test_projection_hand_case_simplex():
    y = project_capped_simplex(np.array([0.8, 0.3]))
    assert np.allclose(y, [0.75, 0.25])


def test_projection_hand_case_with_caps():
    y = project_capped_simplex(np.array([0.8, 0.3]), caps=np.array([0.7, np.inf]))
    assert np.allclose(y, [0.7, 0.3])


def test_projection_returns_caps_when_they_barely_carry_the_target():
    caps = np.array([0.25, 0.75])
    y = project_capped_simplex(np.array([5.0, -3.0]), caps=caps)
    assert np.array_equal(y, caps)


def test_projection_infeasible_reports_deficit():
    with pytest.raises(InfeasibleProblemError) as err:
        project_capped_simplex(np.zeros(2), caps=np.array([0.2, 0.3]))
    assert err.value.deficit == pytest.approx(0.5)


def test_projection_empty_is_infeasible():
    with pytest.raises(InfeasibleProblemError):
        project_capped_simplex(np.array([]))


def test_projection_validation():
    x = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        project_capped_simplex(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        project_capped_simplex(x, target=-1.0)
    with pytest.raises(ValueError):
        project_capped_simplex(x, gauge=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        project_capped_simplex(x, caps=np.array([-0.1, 1.0]))
    with pytest.raises(ValueError):
        project_capped_simplex(x, caps=np.array([1.0]))


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=100_000),
    capped=st.booleans(),
    gauged=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_projection_feasible_and_stationary(n, seed, capped, gauged):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * rng.uniform(0.1, 5.0)
    target = float(rng.uniform(0.2, 3.0))
    gauge = rng.uniform(0.3, 3.0, size=n) if gauged else None
    g = np.ones(n) if gauge is None else gauge
    caps = None
    if capped:
        caps = rng.uniform(0.1, 1.0, size=n) * target
        total = float(g @ caps)
        if total < 1.2 * target:
            caps *= 1.2 * target / total
    y = project_capped_simplex(x, caps, gauge, target)
    c = np.full(n, np.inf) if caps is None else caps
    assert (y >= 0.0).all()
    assert (y <= c + 1e-12).all()
    assert float(g @ y) == pytest.approx(target, rel=1e-9)
    # The projection has the form y = clip(x - t * g, 0, caps) for one
    # shift t; free nodes recover t exactly and bounded nodes must be
    # consistent with it.
    free = (y > 1e-11) & (y < c - 1e-11)
    shifts = (x - y)[free] / g[free]
    if free.any():
        t = float(np.median(shifts))
        assert np.max(np.abs(shifts - t)) <= 1e-7 * max(1.0, abs(t))
        at_zero = y <= 1e-11
        at_cap = np.isfinite(c) & (y >= c - 1e-11)
        if at_zero.any():
            assert (x[at_zero] / g[at_zero] <= t + 1e-7 * max(1.0, abs(t))).all()
        if at_cap.any():
            lo = (x[at_cap] - c[at_cap]) / g[at_cap]
            assert (lo >= t - 1e-7 * max(1.0, abs(t))).all()


@given(
    n=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=60, deadline=None)
def test_projection_idempotent_and_nonexpansive(n, seed):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.3, 1.5, size=n)
    target = float(0.8 * caps.sum() * rng.uniform(0.3, 1.0))
    if target <= 0.05:
        target = 0.05
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    pa = project_capped_simplex(a, caps, target=target)
    pb = project_capped_simplex(b, caps, target=target)
    again = project_capped_simplex(pa, caps, target=target)
    assert np.allclose(again, pa, atol=1e-10)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) * (1.0 + 1e-9) + 1e-9


def test_projection_bisects_through_a_zero_slope_gap():
    # The unclipped start leaves both nodes at a bound (slope 0, mass short).
    y = project_capped_simplex(np.array([10.0, -10.0]), caps=np.ones(2), target=1.5)
    assert np.allclose(y, [1.0, 0.5], rtol=0.0, atol=1e-15)


def test_projection_reaches_a_shift_far_below_the_start():
    x = np.array([2500.0, -2500.0, 3.0])
    y = project_capped_simplex(x, caps=np.ones(3), target=2.5)
    assert np.allclose(y, [1.0, 0.5, 1.0], rtol=0.0, atol=1e-12)


def breakpoint_projection(x, caps, gauge, target):
    """Reference projection: locate the piece of the mass function that
    meets the target among the sorted breakpoints, then solve it exactly."""

    def mass(t):
        return float(gauge @ np.clip(x - t * gauge, 0.0, caps))

    finite = np.isfinite(caps)
    points = np.unique(np.concatenate([x / gauge, ((x - caps) / gauge)[finite]]))
    # mass is nonincreasing in t and 0 at points[-1]; find the last
    # breakpoint whose mass still reaches the target.
    lo, hi = -1, len(points) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mass(points[mid]) >= target:
            lo = mid
        else:
            hi = mid
    if lo >= 0 and mass(points[lo]) == target:
        return np.clip(x - points[lo] * gauge, 0.0, caps)
    inside = points[hi] - 1.0 if lo < 0 else 0.5 * (points[lo] + points[hi])
    v = x - inside * gauge
    free = (v > 0.0) & (v < caps)
    at_cap = v >= caps
    t = (gauge[free] @ x[free] + gauge[at_cap] @ caps[at_cap] - target) / (
        gauge[free] @ gauge[free]
    )
    return np.clip(x - t * gauge, 0.0, caps)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_exact_at_scale_with_binding_caps(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    x = np.round(rng.normal(size=n), 1)  # rounding makes many ties
    gauge = rng.uniform(0.5, 2.0, size=n)
    kind = rng.integers(3, size=n)
    finite_caps = rng.uniform(0.0, 0.3, n)
    caps = np.where(kind == 0, 0.0, np.where(kind == 1, finite_caps, np.inf))
    target = 150.0
    y = project_capped_simplex(x, caps, gauge, target)
    ref = breakpoint_projection(x, caps, gauge, target)
    assert np.max(np.abs(y - ref)) <= 1e-13 * max(float(np.max(np.abs(x))), target)
    # The case mixes every kind of node: zero caps, caps that bind, free
    # nodes under finite and infinite caps, and nodes pushed to 0.
    finite = np.isfinite(caps) & (caps > 0.0)
    assert (finite & (y == caps)).sum() > 100
    assert (finite & (y > 0.0) & (y < caps)).any()
    assert (np.isinf(caps) & (y > 0.0)).sum() > 100
    assert (np.isinf(caps) & (y == 0.0)).sum() > 100


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=100_000),
    rounded=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_projection_feasible_with_zero_and_infinite_caps(n, seed, rounded):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * rng.uniform(0.1, 1e3)
    if rounded:
        x = np.round(x)
    target = float(rng.uniform(0.2, 3.0))
    gauge = rng.uniform(0.3, 3.0, size=n)
    kind = rng.integers(3, size=n)
    finite_caps = rng.uniform(0.1, 1.0, n)
    caps = np.where(kind == 0, 0.0, np.where(kind == 1, finite_caps, np.inf))
    room = float(gauge @ caps)
    if room == 0.0:
        caps[-1] = np.inf
    elif room < 1.2 * target:
        caps *= 1.2 * target / room
    y = project_capped_simplex(x, caps, gauge, target)
    assert (y >= 0.0).all()
    assert (y <= caps).all()
    scale = max(target, float(gauge @ np.abs(x)))
    assert abs(float(gauge @ y) - target) <= 1e-12 * scale
