"""Tests for the chaotic map primitives."""

import math
import random
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoscrypt.maps import (
    DivergenceError,
    DomainError,
    MapKind,
    MapParams,
    State,
    arnold_step,
    divergence_measure,
    duffing_step,
    iterate,
    signed_mod,
    trajectory,
    write_trajectory_csv,
)

from oracles import arnold_edge_params, arnold_oracle_step, duffing_oracle_step, oracle_orbit

# Parameter sets and start points from the reference scatter plots.
FIG_ARNOLD = MapParams(-3.5, 0.9, 1.0)
FIG_DUFFING = MapParams(2.75, 0.1)
ARNOLD_START = State(0.5, 0.06)
DUFFING_START = State(-0.04, 0.2)


def test_signed_mod_integer_examples():
    assert signed_mod(5, 3) == 2.0
    assert signed_mod(-5, 3) == -2.0


def test_signed_mod_zero_dividend():
    for m in (1.0, 3.0, 0.25, 1e6):
        assert signed_mod(0.0, m) == 0.0


def test_signed_mod_real_extension():
    assert abs(signed_mod(1.06, 1.0) - 0.06) < 1e-12


def test_signed_mod_decomposition():
    # d - r must be an integer multiple of m across the whole float range
    rng = random.Random(20240817)
    for _ in range(10_000):
        d = rng.uniform(-1e6, 1e6)
        m = 10.0 ** rng.uniform(-3.0, 3.0)
        r = signed_mod(d, m)
        assert abs(r) < m
        t = (d - r) / m
        assert abs(t - round(t)) <= 1e-9 * max(1.0, abs(t))


def test_signed_mod_sign_follows_dividend():
    rng = random.Random(7)
    for _ in range(2_000):
        d = rng.uniform(-100.0, 100.0)
        m = rng.uniform(1e-3, 50.0)
        r = signed_mod(d, m)
        assert r == 0.0 or (r > 0) == (d > 0)


def test_signed_mod_rejects_bad_arguments():
    for d, m in [(1.0, 0.0), (1.0, -2.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)]:
        with pytest.raises(DomainError):
            signed_mod(d, m)


def test_arnold_step_figure_point():
    s = arnold_step(ARNOLD_START, FIG_ARNOLD)
    assert s.x == pytest.approx(-0.27, abs=1e-12)
    assert s.y == pytest.approx(0.506, abs=1e-12)


def test_arnold_step_trivial_points():
    assert arnold_step(State(0.0, 0.0), MapParams(2.2, -0.3, 1.0)) == State(0.0, 0.0)
    # a = 1 kills the x channel and mod(1, 1) = 0 clears y
    assert arnold_step(State(1.0, 1.0), MapParams(1.0, 1.0, 1.0)) == State(0.0, 0.0)


def test_duffing_step_figure_point():
    s = duffing_step(DUFFING_START, FIG_DUFFING)
    assert s.x == pytest.approx(0.2, abs=1e-12)
    assert s.y == pytest.approx(0.546, abs=1e-12)


def test_duffing_step_trivial_points():
    assert duffing_step(State(0.0, 0.0), MapParams(2.75, 0.2)) == State(0.0, 0.0)
    assert duffing_step(State(1.0, 0.0), MapParams(2.75, 0.2)) == State(0.0, -0.2)


def test_iterate_zero_is_identity():
    s = State(0.123, -0.456)
    assert iterate(MapKind.ARNOLD, s, FIG_ARNOLD, 0) == s
    assert iterate(MapKind.DUFFING, s, FIG_DUFFING, 0) == s


def test_iterate_matches_straight_line_recomputation():
    # two cat-map steps recomputed by hand, no library calls
    x0, y0 = 0.5, 0.06
    a, b, n = -3.5, 0.9, 1.0
    x1 = (a - 1.0) * math.fmod(2.0 * x0 + y0, n)
    y1 = math.fmod(x0 + (1.0 - b) * y0, n)
    x2 = (a - 1.0) * math.fmod(2.0 * x1 + y1, n)
    y2 = math.fmod(x1 + (1.0 - b) * y1, n)
    got = iterate(MapKind.ARNOLD, ARNOLD_START, FIG_ARNOLD, 2)
    assert (got.x, got.y) == (x2, y2)


def test_iterate_composes():
    rng = random.Random(99)
    for kind, start, params in [(MapKind.ARNOLD, ARNOLD_START, FIG_ARNOLD),
                                (MapKind.DUFFING, DUFFING_START, FIG_DUFFING)]:
        for _ in range(25):
            m = rng.randrange(0, 101)
            n = rng.randrange(0, 101)
            whole = iterate(kind, start, params, m + n)
            split = iterate(kind, iterate(kind, start, params, m), params, n)
            assert whole == split


def test_origin_fixed_point_is_invariant():
    assert iterate(MapKind.DUFFING, State(0.0, 0.0), MapParams(2.2, 0.3), 1000) == State(0.0, 0.0)
    assert iterate(MapKind.ARNOLD, State(0.0, 0.0), MapParams(-4.1, 1.3, 2.0), 1000) == State(0.0, 0.0)


def test_iterate_rejects_negative_count():
    with pytest.raises(DomainError):
        iterate(MapKind.ARNOLD, ARNOLD_START, FIG_ARNOLD, -1)


def test_trajectory_single_step():
    pts = trajectory(MapKind.DUFFING, DUFFING_START, FIG_DUFFING, 1)
    assert pts == [DUFFING_START, duffing_step(DUFFING_START, FIG_DUFFING)]


def test_trajectory_is_stepwise_consistent():
    pts = trajectory(MapKind.ARNOLD, ARNOLD_START, FIG_ARNOLD, 40)
    assert len(pts) == 41
    for prev, cur in zip(pts, pts[1:]):
        assert arnold_step(prev, FIG_ARNOLD) == cur


def test_duffing_trajectory_bounded_in_chaotic_regime():
    pts = trajectory(MapKind.DUFFING, DUFFING_START, FIG_DUFFING, 5000)
    assert len(pts) == 5001
    assert all(abs(s.x) <= 10.0 and abs(s.y) <= 10.0 for s in pts)


def test_arnold_y_channel_is_mod_reduced():
    pts = trajectory(MapKind.ARNOLD, ARNOLD_START, FIG_ARNOLD, 1000)
    assert len(pts) == 1001
    assert all(abs(s.y) < 1.0 for s in pts[1:])


def test_arnold_y_bound_holds_for_random_parameters():
    rng = random.Random(3)
    for _ in range(50):
        p = MapParams(rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0),
                      rng.choice([0.5, 1.0, 2.0]))
        s = State(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for _ in range(20):
            s = arnold_step(s, p)
            assert abs(s.y) < p.n_modulus


def test_divergence_error_reports_step_index():
    with pytest.raises(DivergenceError) as err:
        iterate(MapKind.DUFFING, State(0.0, 3.0), MapParams(5.0, 0.0), 1000)
    assert err.value.step is not None
    assert 0 <= err.value.step < 100


def test_trajectory_divergence_carries_prefix():
    with pytest.raises(DivergenceError) as err:
        trajectory(MapKind.DUFFING, State(0.0, 3.0), MapParams(5.0, 0.0), 1000)
    prefix = err.value.prefix
    assert prefix is not None
    assert prefix[0] == State(0.0, 3.0)
    assert 1 <= len(prefix) < 100


def test_divergence_measure_exceeds_chaos_threshold():
    # thresholds recorded by a straight-line run before the build
    m_arnold = divergence_measure(MapKind.ARNOLD, ARNOLD_START, 1e-8, FIG_ARNOLD, 5000)
    m_duffing = divergence_measure(MapKind.DUFFING, DUFFING_START, 1e-8, FIG_DUFFING, 5000)
    assert m_arnold > 0.1
    assert m_duffing > 0.1


def test_divergence_measure_validates_arguments():
    for delta in (0.0, -1e-9, math.nan):
        with pytest.raises(DomainError):
            divergence_measure(MapKind.DUFFING, DUFFING_START, delta, FIG_DUFFING, 10)
    with pytest.raises(DomainError):
        divergence_measure(MapKind.DUFFING, DUFFING_START, 1e-8, FIG_DUFFING, 0)


def test_steps_are_pure_across_threads():
    def run(_):
        return iterate(MapKind.DUFFING, DUFFING_START, FIG_DUFFING, 500)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, range(32)))
    assert len(set(results)) == 1


def test_state_and_params_validate_finiteness():
    with pytest.raises(DomainError):
        State(math.nan, 0.0)
    with pytest.raises(DomainError):
        MapParams(1.0, math.inf)
    with pytest.raises(DomainError):
        MapParams(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        MapParams(1.0, 1.0, -3.0)


def test_trajectory_csv_round_trips_full_precision(tmp_path):
    pts = trajectory(MapKind.DUFFING, DUFFING_START, FIG_DUFFING, 25)
    path = tmp_path / "points.csv"
    with open(path, "w") as f:
        write_trajectory_csv(pts, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,x,y"
    assert len(lines) == 27
    for k, line in enumerate(lines[1:]):
        ks, xs, ys = line.split(",")
        assert int(ks) == k
        assert float(xs) == pts[k].x
        assert float(ys) == pts[k].y


# --- the orbit tools against a flat, both-coordinates oracle ---------------



# Arnold keys on both sides of (1 + |a - 1| + |1 - b|) N = 1e6 (boxed), of
# |a - 1| * N = 1e6 and of N = 1e6, where the per-step bound test is
# skipped or kept, and moduli up to 1e300.
arnold_params = st.one_of(
    st.tuples(st.floats(-6.0, 2.0), st.floats(-3.0, 3.0), st.sampled_from([0.5, 1.0, 2.0])),
    st.builds(lambda n, side, f, b: (1.0 + side * (1e6 / n) * f, b, n),
              st.sampled_from([1.0, 1e3, 1e6 * (1 - 2.0 ** -40), 1e6, 1e6 * (1 + 2.0 ** -40),
                               2e6, 1e300]),
              st.sampled_from([1.0, -1.0]),
              st.sampled_from([1 - 2.0 ** -40, 1.0, 1 + 2.0 ** -40, 0.5, 1.5, 2.0]),
              st.floats(-3.0, 3.0)),
    st.builds(arnold_edge_params, st.sampled_from([1.0, 3.0, 1e3, 2e5]),
              st.sampled_from([1.0, -1.0]), st.floats(0.0, 0.5), st.sampled_from([1.0, -1.0]),
              st.sampled_from([1 - 2.0 ** -40, 1.0, 1 + 2.0 ** -40, 0.5, 2.0])))
# about a third of this Duffing box diverges; the cipher tests a key with
# |a| + |b| <= 1e11 once per symbol, so keys on both sides of that edge
# check that the orbit tools still test every step
duffing_params = st.one_of(
    st.tuples(st.floats(1.5, 3.1), st.floats(-0.8, 0.4), st.just(1.0)),
    st.builds(lambda a, side, f: (a, side * (1e11 - abs(a)) * f, 1.0),
              st.floats(-1e11, 1e11), st.sampled_from([1.0, -1.0]),
              st.sampled_from([1 - 2.0 ** -40, 1.0, 1 + 2.0 ** -40, 0.5, 2.0])))
# inside the box, on both sides of its edge, and near the largest floats
small = st.floats(-2.0, 2.0)
coordinates = st.one_of(
    small, st.floats(-2e6, 2e6), st.sampled_from([1e6, -1e6, 1e6 + 2.0 ** -29, -2e6, 1e9]),
    st.floats(1e307, 1.7976931348623157e308), st.floats(-1.7976931348623157e308, -1e307))
starts = st.one_of(st.tuples(small, small), st.tuples(coordinates, small),
                   st.tuples(small, coordinates), st.tuples(coordinates, coordinates))


@st.composite
def orbit_cases(draw):
    kind = draw(st.sampled_from(list(MapKind)))
    params = MapParams(*draw(arnold_params if kind is MapKind.ARNOLD else duffing_params))
    start = State(*draw(starts))
    # the large shifts push x + delta past the largest float at times
    delta = draw(st.sampled_from([1e-8, 1e-3, 1.0, 1e307]))
    return kind, params, start, draw(st.integers(0, 50)), delta


def oracle_step(kind, p):
    if kind is MapKind.ARNOLD:
        return arnold_oracle_step(p.a, p.b, p.n_modulus)
    return duffing_oracle_step(p.a, p.b)


def exact(points):
    return [(x.hex(), y.hex()) for x, y in points]


def raises_as(call, failure):
    """call() raises what the oracle's failure (k, error) says: a
    DivergenceError at step k naming the point outside the bound, or the
    exception the step raised. Returns the exception."""
    k, error = failure
    if isinstance(error, Exception):
        expected = (type(error), str(error), None)
    else:
        expected = (DivergenceError, f"orbit diverged at step {k}: ({error[0]!r}, {error[1]!r})", k)
    with pytest.raises((DivergenceError, ValueError)) as err:
        call()
    assert (type(err.value), str(err.value), getattr(err.value, "step", None)) == expected
    return err.value


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(orbit_cases())
# a Duffing start y outside the box diverges at step 0, with that step's point
@example((MapKind.DUFFING, MapParams(2.75, 0.1), State(0.5, -3e6), 3, 1e-3))
# ... also when x0 cancels y0^3 exactly, so that the step-0 y is inside
@example((MapKind.DUFFING, MapParams(2.0, -2.0 ** -14), State(2.0 ** 74 - 2.0 ** 35, 2.0 ** 20),
          3, 1e-8))
# the orbit leaves the box at step 0 and is back at (0, 0) from step 2 on
@example((MapKind.DUFFING, MapParams(4e12, 0.0), State(0.0, 5e-7), 5, 1e-8))
# past the edge of the boxed keys, an Arnold orbit leaves the box at step
# 0: with N > 1e6, y' however small (|a - 1| + |1 - b|) N / 1e6 is, and
# with |a - 1| N = 1.5e6, x'
@example((MapKind.ARNOLD, MapParams(1.25, 0.9, 2e6), State(1.5e6, 0.0), 3, 1e-3))
@example((MapKind.ARNOLD, MapParams(1.0 + 1.5e6, 1.0, 1.0), State(0.45, 0.0), 3, 1e-3))
# x + delta overflows: the shifted Arnold orbit's first fmod raises
@example((MapKind.ARNOLD, MapParams(-3.5, 0.9, 1.0), State(1.7e308, 0.5), 5, 1e307))
# both Duffing orbits diverge: the unshifted one first (step 17 against
# 19), the shifted one first (6 against 10), and both at step 6 from
# different points
@example((MapKind.DUFFING, MapParams(2.1461, -0.6242), State(-0.246, 0.977), 30, 1e-3))
@example((MapKind.DUFFING, MapParams(3.0188, -0.3708), State(-0.191, 0.098), 30, 1.0))
@example((MapKind.DUFFING, MapParams(2.8959, -0.4528), State(0.923, 0.078), 30, 1e-3))
def test_orbit_tools_match_checked_oracle(case):
    kind, p, s0, n, delta = case
    step = oracle_step(kind, p)

    points, failure = oracle_orbit(step, s0.x, s0.y, n)
    if failure is None:
        end = iterate(kind, s0, p, n)
        assert exact([(end.x, end.y)]) == exact([points[-1] if points else (s0.x, s0.y)])
    else:
        raises_as(lambda: iterate(kind, s0, p, n), failure)

    m = max(n, 1)
    points, failure = oracle_orbit(step, s0.x, s0.y, m)
    expected = exact([(s0.x, s0.y)] + points)
    if failure is None:
        assert exact((s.x, s.y) for s in trajectory(kind, s0, p, m)) == expected
    else:
        err = raises_as(lambda: trajectory(kind, s0, p, m), failure)
        if isinstance(err, DivergenceError):
            assert exact((s.x, s.y) for s in err.prefix) == expected

    # the two orbits advance in lockstep, the unshifted one first: the
    # earlier failure wins, and the unshifted orbit's on the same step
    shifted, failure_b = oracle_orbit(step, s0.x + delta, s0.y, m)
    call = partial(divergence_measure, kind, s0, delta, p, m)
    if failure is None and failure_b is None:
        worst = max(math.hypot(xa - xb, ya - yb) for (xa, ya), (xb, yb) in zip(points, shifted))
        assert call().hex() == worst.hex()
    else:
        raises_as(call, failure if failure_b is None
                  or failure is not None and failure[0] <= failure_b[0] else failure_b)
