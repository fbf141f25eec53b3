import importlib
import io
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab.model import SubSystem, SwitchedSystem, Weights, average_system
from swstab.signals import (NormMinPolicy, PeriodicSignal, Segment,
                            example_signal, shift)
from swstab.simulate import (BLOCK_ROWS, DIVERGENCE_GUARD, AffineMap,
                             DivergenceError, NoAttractingCycleError,
                             Trajectory, limit_cycle, poincare_map,
                             segment_map, simulate, simulate_norm_min)
from swstab.stability import monodromy
from conftest import random_switched_system

# the package exports the function simulate under the module's name
simulate_module = importlib.import_module("swstab.simulate")


def one_segment(sub, tau):
    """The segment map of one subsystem over tau."""
    return segment_map(SwitchedSystem((sub,)), [(1, tau)])[0]


def segment_reference(sub, tau):
    """A segment map built alone, from scipy's expm of one augmented
    (n + 1, n + 1) matrix: the oracle for the stacked segment_map."""
    n = sub.n
    G = np.zeros((n + 1, n + 1))
    G[:n, :n] = sub.A
    G[:n, n] = sub.b
    E = scipy.linalg.expm(tau * G)
    return AffineMap(E[:n, :n], E[:n, n])


def simulate_reference(sys_, sig, x0, t_end, dt):
    """simulate's walk one step at a time, each map built alone when it is
    first needed: (times, states, active), with no divergence guard."""
    n = int(np.floor(t_end / dt + 1e-9))
    sample_times = [k * dt for k in range(1, n + 1)]
    if not sample_times or sample_times[-1] < t_end - 1e-9 * t_end:
        sample_times.append(t_end)
    full = [segment_reference(sys_.subsystem(i), d) for i, d in sig.segments]
    partial = {}
    pos, t_seg, x = 0, 0.0, np.array(x0, dtype=float)
    states, active = [x], [sig.segments[0].index]
    for t in sample_times:
        while t_seg + sig.segments[pos].duration <= t + 1e-12 * max(t, 1.0):
            x = full[pos](x)
            t_seg += sig.segments[pos].duration
            pos = (pos + 1) % len(sig.segments)
        idx, tau = sig.segments[pos].index, t - t_seg
        if tau > 0.0:
            key = (pos, round(tau, 12))
            if key not in partial:
                partial[key] = segment_reference(sys_.subsystem(idx), tau)
            states.append(partial[key](x))
        else:
            states.append(x)
        active.append(idx)
    return np.array([0.0] + sample_times), np.array(states), np.array(active)


def walk_labels(sig, t_end, dt):
    """Segment that simulate's walk propagates at each sample, replayed."""
    n = int(np.floor(t_end / dt + 1e-9))
    times = [k * dt for k in range(1, n + 1)]
    if not times or times[-1] < t_end - 1e-9 * t_end:
        times.append(t_end)
    pos, t_seg, labels = 0, 0.0, [sig.segments[0].index]
    for t in times:
        while t_seg + sig.segments[pos].duration <= t + 1e-12 * max(t, 1.0):
            t_seg += sig.segments[pos].duration
            pos = (pos + 1) % len(sig.segments)
        labels.append(sig.segments[pos].index)
    return np.array(labels)


def norm_min_reference(sys_, x0, t_end, h):
    """The norm-min loop written plainly, as the oracle for the lean one:
    list appends, the np.linalg.norm guard and np.argmin."""
    n_steps = max(1, int(round(t_end / h)))
    step_maps = [one_segment(sub, h) for sub in sys_.subsystems]
    As = np.stack([sub.A for sub in sys_.subsystems])
    bs = np.stack([sub.b for sub in sys_.subsystems])
    x = np.array(x0, dtype=float)
    times, states, actives = [], [], []
    for k in range(n_steps + 1):
        t = k * h
        i = int(np.argmin((As @ x + bs) @ x))
        times.append(t)
        states.append(x.copy())
        actives.append(i + 1)
        if k < n_steps:
            x = step_maps[i](x)
            if not np.linalg.norm(x) <= DIVERGENCE_GUARD:
                raise DivergenceError(t + h, Trajectory(
                    np.array(times), np.array(states),
                    np.array(actives, dtype=int)))
    return Trajectory(np.array(times), np.array(states),
                      np.array(actives, dtype=int))


def assert_same_trajectory(got, want):
    for name in ("times", "states", "active"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


def assert_same_escape(sys_, x0, t_end, h):
    """simulate_norm_min and the reference loop diverge at the same time
    with the same trajectory; returns simulate_norm_min's error."""
    with pytest.raises(DivergenceError) as got:
        simulate_norm_min(sys_, x0, t_end, NormMinPolicy(h))
    with pytest.raises(DivergenceError) as want:
        norm_min_reference(sys_, x0, t_end, h)
    assert got.value.time == want.value.time
    assert_same_trajectory(got.value.trajectory, want.value.trajectory)
    return got.value


class TestSegmentStep:
    def test_linear_case(self):
        from swstab.linalg import mat_exp
        sub = SubSystem(np.array([[0.0, 1.0], [-2.0, -0.5]]), np.zeros(2))
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(one_segment(sub, 0.8)(x),
                                   mat_exp(0.8 * sub.A) @ x, atol=1e-13)

    def test_affine_closed_form(self, rng):
        # A nonsingular: x(tau) = e^{A tau} x + A^{-1}(e^{A tau} - I) b
        from swstab.linalg import mat_exp
        for _ in range(15):
            A = rng.normal(size=(3, 3)) + np.diag([-2.0, -2.0, -2.0])
            b = rng.normal(size=3)
            x = rng.normal(size=3)
            tau = rng.uniform(0.1, 2.0)
            E = mat_exp(tau * A)
            want = E @ x + np.linalg.solve(A, (E - np.eye(3)) @ b)
            got = one_segment(SubSystem(A, b), tau)(x)
            np.testing.assert_allclose(got, want, atol=1e-10 * max(
                1.0, np.linalg.norm(want)))

    def test_equilibrium_is_fixed(self, example1):
        sub = example1.subsystems[0]
        out = one_segment(sub, 1.7)(np.array([0.0, -1.0]))
        np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-12)

    def test_nonpositive_tau_rejected(self, example1):
        with pytest.raises(ValueError):
            segment_map(example1, [(1, 1.0), (2, 0.0)])


class TestSimulate:
    def test_constant_at_common_equilibrium(self, example1):
        traj = simulate(example1, example_signal(1.0), np.array([0.0, -1.0]),
                        t_end=10.0, sample_dt=0.25)
        np.testing.assert_allclose(traj.states,
                                   np.tile([0.0, -1.0], (len(traj.times), 1)),
                                   atol=1e-10)

    def test_benchmark_convergence(self, example1):
        traj = simulate(example1, example_signal(1.1), np.array([1.0, 0.0]),
                        t_end=60.0, sample_dt=0.1)
        assert np.linalg.norm(traj.states[-1] - [0.0, -1.0]) < 1e-3

    def test_index_out_of_range_refused_up_front(self, example1):
        # t_end ends inside the first segment, before subsystem 3 is due
        sig = PeriodicSignal((Segment(1, 1.0), Segment(3, 1.0)))
        with pytest.raises(IndexError, match="subsystem 3, system has 2"):
            simulate(example1, sig, np.zeros(2), t_end=0.5, sample_dt=0.25)

    def test_active_indices_recorded(self, example1):
        traj = simulate(example1, example_signal(1.0), np.zeros(2),
                        t_end=8.0, sample_dt=0.5)
        # square wave: subsystem 1 on [0,2), 2 on [2,4), repeating
        for t, a in zip(traj.times, traj.active):
            assert a == (1 if (t % 4.0) < 2.0 else 2)

    @pytest.mark.parametrize("eta, t_end", [(1e-3, 20.0), (1.1, 60.0)])
    def test_labels_are_the_walks_segments(self, example1, eta, t_end):
        sig = example_signal(eta)
        traj = simulate(example1, sig, np.array([1.0, 0.0]), t_end, 0.05)
        np.testing.assert_array_equal(traj.active,
                                      walk_labels(sig, t_end, 0.05))

    def test_switching_instant_reads_new_segment(self, example1):
        # segments of 2.2: subsystem 2 begins at t = 2 * 4.4 + 2.2 = 11.0
        traj = simulate(example1, example_signal(1.1), np.array([1.0, 0.0]),
                        60.0, 0.05)
        assert traj.times[220] == pytest.approx(11.0)
        assert traj.active[220] == 2

    def test_matches_poincare_map_over_one_period(self, rng):
        for _ in range(10):
            sys_ = random_switched_system(rng, 3, 3, affine=True)
            segs = tuple(Segment(int(rng.integers(1, 4)),
                                 float(rng.uniform(0.1, 0.6)))
                         for _ in range(4))
            sig = PeriodicSignal(segs)
            x0 = rng.normal(size=3)
            traj = simulate(sys_, sig, x0, t_end=sig.period,
                            sample_dt=sig.period)
            pm = poincare_map(sys_, sig)
            np.testing.assert_allclose(traj.states[-1], pm(x0), atol=1e-10)

    def test_negation_symmetry_linear(self, rng):
        sys_ = random_switched_system(rng, 2, 2)
        sig = PeriodicSignal((Segment(1, 0.3), Segment(2, 0.4)))
        x0 = np.array([0.7, -0.2])
        fwd = simulate(sys_, sig, x0, 3.0, 0.1)
        neg = simulate(sys_, sig, -x0, 3.0, 0.1)
        np.testing.assert_allclose(neg.states, -fwd.states, atol=1e-10)

    def test_divergence_guard(self):
        sys_ = SwitchedSystem((SubSystem(np.array([[5.0]]), np.zeros(1)),))
        sig = PeriodicSignal((Segment(1, 1.0),))
        with pytest.raises(DivergenceError) as exc:
            simulate(sys_, sig, np.array([1.0]), t_end=20.0, sample_dt=0.5)
        assert exc.value.time < 20.0
        assert exc.value.trajectory.states.shape[0] > 1

    def test_csv_format(self, example1):
        traj = simulate(example1, example_signal(1.0), np.array([1.0, 0.0]),
                        t_end=1.0, sample_dt=0.5)
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x1,x2,active"
        assert len(lines) == len(traj.times) + 1

    SPECIAL = np.array([-0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300])

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 5),
           rows=st.sampled_from([1, 255, 256, 257, 3 * BLOCK_ROWS + 7]),
           offset=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_csv_bytes_equal_savetxt(self, n, rows, offset, seed):
        rng = np.random.default_rng(seed)
        times = (np.cumsum(rng.uniform(0.5, 1.5, rows))
                 * 10.0 ** rng.uniform(-9.0, 3.0))
        states = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(
            -300, 300, size=(rows, n))
        flat = states.reshape(-1)
        flat[rng.random(flat.size) < 0.2] = rng.choice(self.SPECIAL)
        # each special value at least once, when the table has room for it
        k = min(flat.size, self.SPECIAL.size)
        where = rng.permutation(flat.size)[:k]
        flat[where] = np.roll(self.SPECIAL, offset)[:k]
        active = rng.integers(1, 6, size=rows)
        got = io.StringIO()
        Trajectory(times, states, active).write_csv(got)
        want = io.StringIO()
        header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["active"])
        np.savetxt(want, np.column_stack([times, states, active]), fmt="%.12g",
                   delimiter=",", header=header, comments="")
        assert got.getvalue() == want.getvalue()


class TestStackedPropagation:
    """One stacked exponential gives the bits of one call per map."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), k=st.integers(1, 8),
           kind=st.sampled_from(["random", "diagonal", "upper", "lower"]),
           overflow=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_segment_maps_equal_one_call_each(self, n, m, k, kind, overflow,
                                              seed):
        # diagonal and triangular augmented matrices take scipy's special
        # branches; a tau of 1e3 on an unstable A overflows
        rng = np.random.default_rng(seed)
        subs = []
        for _ in range(m):
            A = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            if kind == "diagonal":
                A, b = np.diag(np.diag(A)), np.zeros(n)
            elif kind == "upper":
                A = np.triu(A)
            elif kind == "lower":
                A, b = np.tril(A), np.zeros(n)
            if overflow:        # by Gershgorin, every Re(lambda) >= 1
                A = A + (1.0 + np.abs(A).sum()) * np.eye(n)
            subs.append(SubSystem(A, b))
        sys_ = SwitchedSystem(tuple(subs))
        taus = (10.0 ** rng.uniform(-8.0, 1.0, size=k)).tolist()
        if overflow:
            taus[rng.integers(k)] = 1e3
        pairs = [(int(rng.integers(1, m + 1)), tau) for tau in taus]
        with np.errstate(over="ignore", invalid="ignore"):
            got = segment_map(sys_, pairs)
            want = [segment_reference(sys_.subsystem(i), tau)
                    for i, tau in pairs]
        assert len(got) == k
        for g, w in zip(got, want):
            assert np.array_equal(g.M, w.M, equal_nan=True)
            assert np.array_equal(g.v, w.v, equal_nan=True)
        if overflow:
            assert not all(np.isfinite(g.M).all() for g in got)

    @staticmethod
    def assert_equals_reference(sys_, sig, x0, t_end, dt):
        try:
            traj = simulate(sys_, sig, x0, t_end, dt)
        except DivergenceError as exc:
            traj = exc.trajectory
        times, states, active = simulate_reference(sys_, sig, x0, t_end, dt)
        rows = len(traj.times)
        assert rows > 1
        assert np.array_equal(traj.times, times[:rows])
        assert np.array_equal(traj.states, states[:rows])
        assert np.array_equal(traj.active, active[:rows])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), segments=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_orbit_equals_step_by_step(self, n, m, segments, seed):
        # the 200-sample orbit of limit_cycle
        rng = np.random.default_rng(seed)
        sys_ = random_switched_system(rng, n, m, affine=True)
        sig = PeriodicSignal(tuple(
            Segment(int(rng.integers(1, m + 1)), float(rng.uniform(0.05, 1.0)))
            for _ in range(segments)))
        self.assert_equals_reference(sys_, sig, rng.normal(size=n),
                                     sig.period, sig.period / 200)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), periods=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_repeated_offsets_equal_step_by_step(self, n, periods, seed):
        # dt divides the period, so the sample offsets repeat every period
        # and each distinct partial map is built once
        rng = np.random.default_rng(seed)
        sys_ = random_switched_system(rng, n, 2, affine=True)
        sig = PeriodicSignal((Segment(1, 0.3), Segment(2, 0.2)))
        built = []

        def recording(system, pairs):
            built.append(len(pairs))
            return segment_map(system, pairs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate_module, "segment_map", recording)
            self.assert_equals_reference(sys_, sig, rng.normal(size=n),
                                         periods * sig.period, 0.05)
        # one call: the 2 full maps, then the 9 distinct offsets, one of
        # them a round-off sliver past a switch
        assert built[0] == 2 + 9 and len(built) == 1

    @staticmethod
    def recorded_calls(call):
        """call(), and the number of maps each segment_map call built."""
        built = []

        def recording(system, pairs):
            built.append(len(pairs))
            return segment_map(system, pairs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate_module, "segment_map", recording)
            call()
        return built

    def test_block_plans_equal_step_by_step(self):
        # an irrational period: nearly every one of the 778 samples has an
        # offset of its own, built BLOCK_ROWS samples at a time
        rng = np.random.default_rng(5)
        sys_ = SwitchedSystem(tuple(
            SubSystem(0.2 * rng.normal(size=(2, 2)) - np.eye(2),
                      rng.normal(size=2)) for _ in range(2)))
        sig = PeriodicSignal((Segment(1, 0.3), Segment(2, 0.2 * np.sqrt(2))))
        t_end = (3 * BLOCK_ROWS + 10) * 0.05
        built = self.recorded_calls(lambda: self.assert_equals_reference(
            sys_, sig, rng.normal(size=2), t_end, 0.05))
        assert len(built) == 4 and sum(built) <= 2 + 778

    def test_divergence_stops_the_plan(self):
        # the state passes the guard near t = 9.2, inside the first block:
        # the maps of the later blocks are never built
        sub = SubSystem(3.0 * np.eye(2), np.zeros(2))
        sys_ = SwitchedSystem((sub, sub))
        sig = PeriodicSignal((Segment(1, 0.3), Segment(2, 0.2 * np.sqrt(2))))

        def run():
            with pytest.raises(DivergenceError) as exc:
                simulate(sys_, sig, np.ones(2), 3 * BLOCK_ROWS * 0.05, 0.05)
            assert exc.value.time < BLOCK_ROWS * 0.05

        built = self.recorded_calls(run)
        assert len(built) == 1 and built[0] <= 2 + BLOCK_ROWS


class TestPoincareMap:
    def test_linear_reduces_to_monodromy(self, rng):
        sys_ = random_switched_system(rng, 2, 2)
        sig = PeriodicSignal((Segment(1, 0.5), Segment(2, 0.7)))
        pm = poincare_map(sys_, sig)
        np.testing.assert_allclose(pm.M, monodromy(sys_, sig), atol=1e-12)
        np.testing.assert_allclose(pm.v, np.zeros(2), atol=1e-14)

    def test_single_segment_closed_form(self, example1):
        from swstab.linalg import mat_exp
        sub = example1.subsystems[0]
        pm = poincare_map(example1, PeriodicSignal((Segment(1, 0.9),)))
        E = mat_exp(0.9 * sub.A)
        np.testing.assert_allclose(
            pm.v, np.linalg.solve(sub.A, (E - np.eye(2)) @ sub.b), atol=1e-12)


class TestLimitCycle:
    def test_common_equilibrium_collapses(self, example1):
        cyc = limit_cycle(example1, example_signal(1.1))
        np.testing.assert_allclose(cyc.fixed_point, [0.0, -1.0], atol=1e-9)
        assert np.max(np.linalg.norm(cyc.orbit - [0.0, -1.0], axis=1)) < 1e-9
        # the average equilibrium coincides, so the radius vanishes
        assert cyc.practical_radius == pytest.approx(0.0, abs=1e-9)

    def test_benchmark_nondegenerate_orbit(self, example2):
        cyc = limit_cycle(example2, example_signal(0.5))
        assert cyc.practical_radius > 0.1
        # orbit closes on the fixed point
        np.testing.assert_allclose(cyc.orbit[-1], cyc.fixed_point, atol=1e-9)

    def test_radius_shrinks_with_dwell_scale(self, example2):
        radii = [limit_cycle(example2, example_signal(eta)).practical_radius
                 for eta in (0.5, 0.25, 0.125)]
        assert radii[1] < radii[0] and radii[2] < radii[1]

    def test_shift_preserves_orbit_point_set(self, example2):
        sig = example_signal(0.5)
        base = limit_cycle(example2, sig, orbit_samples=400).orbit
        shifted = limit_cycle(example2, shift(sig, 0.7),
                              orbit_samples=400).orbit
        # one-sided Hausdorff distances, both directions
        for P, Q in ((base, shifted), (shifted, base)):
            d = np.min(np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=2),
                       axis=1)
            assert np.max(d) <= 1e-6

    def test_no_contraction_rejected(self, example2):
        with pytest.raises(NoAttractingCycleError):
            limit_cycle(example2, example_signal(2.0))

    @pytest.mark.parametrize("samples", [0, -3, 2.5, 1.0, True, "200", None])
    def test_bad_orbit_samples_refused_first(self, example2, samples,
                                             monkeypatch):
        # refused before the period map is computed
        def no_map(*args):
            raise AssertionError("period map computed for a refused count")
        monkeypatch.setattr(simulate_module, "poincare_map", no_map)
        with pytest.raises(ValueError, match="orbit_samples"):
            limit_cycle(example2, example_signal(0.5), orbit_samples=samples)

    @pytest.mark.parametrize("samples", [1, np.int64(3)])
    def test_integer_orbit_samples_accepted(self, example2, samples):
        cyc = limit_cycle(example2, example_signal(0.5), orbit_samples=samples)
        assert len(cyc.trajectory.times) == samples + 1

    def test_orbit_is_a_labelled_trajectory(self, example2):
        sig = example_signal(0.5)
        cyc = limit_cycle(example2, sig)
        traj = cyc.trajectory
        assert len(traj.times) == 201 and traj.times[-1] == sig.period
        np.testing.assert_array_equal(cyc.orbit, traj.states)
        np.testing.assert_array_equal(
            traj.active, walk_labels(sig, sig.period, sig.period / 200))
        np.testing.assert_allclose(cyc.average_equilibrium, [0.0, 3.0],
                                   atol=1e-9)
        assert cyc.to_dict()["average_equilibrium"] == \
            cyc.average_equilibrium.tolist()

    def test_singular_average_has_no_equilibrium(self):
        # A1 + A2 = [[0, 0], [1, 0]] is singular, the period map contracts
        sys_ = SwitchedSystem((
            SubSystem(np.array([[-2.0, -2.0], [1.0, -2.0]]), np.array([1.0, 0.0])),
            SubSystem(np.array([[2.0, 2.0], [0.0, 2.0]]), np.array([0.0, 1.0]))))
        cyc = limit_cycle(sys_, PeriodicSignal((Segment(1, 1.0), Segment(2, 1.0))))
        assert cyc.average_equilibrium is None and cyc.practical_radius is None
        assert cyc.to_dict()["average_equilibrium"] is None


class TestWorkBound:
    @pytest.fixture
    def no_propagation(self, monkeypatch):
        def fail(*args):
            raise AssertionError("segment map built for refused work")
        monkeypatch.setattr(simulate_module, "segment_map", fail)

    @pytest.mark.parametrize("eta, t_end, dt", [
        (1.0, 1e12, 1e-9),          # samples
        (1e-6, 4.0, 1.0),           # 2e6 segment crossings, 4 samples
        (1.0, np.inf, 1.0),
    ])
    @pytest.mark.usefixtures("no_propagation")
    def test_simulate_refused_before_work(self, example1, eta, t_end, dt):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            simulate(example1, example_signal(eta), np.zeros(2), t_end, dt)

    @pytest.mark.parametrize("t_end, dt", [(1e12, 1e-9), (np.inf, 1.0)])
    @pytest.mark.usefixtures("no_propagation")
    def test_norm_min_refused_before_work(self, example1, t_end, dt):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            simulate_norm_min(example1, np.zeros(2), t_end, NormMinPolicy(dt))

    @pytest.mark.parametrize("t_end, dt", [(1.0, 0.3), (1.0, 3.0),
                                           (1.0, 0.4), (2.5, 1.0),
                                           (1.000001, 0.01)])
    @pytest.mark.usefixtures("no_propagation")
    def test_norm_min_refuses_partial_step(self, example1, t_end, dt):
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate_norm_min(example1, np.zeros(2), t_end, NormMinPolicy(dt))

    @pytest.mark.usefixtures("no_propagation")
    def test_max_steps_refusal_comes_first(self, example1):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            simulate_norm_min(example1, np.zeros(2), 1e7 + 0.5,
                              NormMinPolicy(1.0))

    @pytest.mark.parametrize("t_end, dt", [(10.0, 1e-3), (30.0, 1e-3),
                                           (60.0, 0.05)])
    def test_norm_min_accepts_whole_steps(self, example1, t_end, dt):
        traj = simulate_norm_min(example1, np.array([1.0, 0.0]), t_end,
                                 NormMinPolicy(dt))
        assert len(traj.times) == round(t_end / dt) + 1
        assert traj.times[-1] == pytest.approx(t_end, rel=1e-12)

    def test_bound_is_inclusive(self, example1, monkeypatch):
        monkeypatch.setattr(simulate_module, "MAX_STEPS", 100)
        policy = NormMinPolicy(0.01)
        assert len(simulate_norm_min(example1, np.zeros(2), 1.0, policy).times) == 101
        with pytest.raises(ValueError, match="MAX_STEPS"):
            simulate_norm_min(example1, np.zeros(2), 1.02, policy)
        # 20 samples plus 80 crossings of 0.125-long segments
        sig = PeriodicSignal((Segment(1, 0.125),))
        assert len(simulate(example1, sig, np.zeros(2), 10.0, 0.5).times) == 21
        with pytest.raises(ValueError, match="MAX_STEPS"):
            simulate(example1, sig, np.zeros(2), 10.0, 0.25)


class TestNormMin:
    def test_tie_breaks_to_lowest_index(self):
        sub = SubSystem(np.diag([-1.0, -1.0]), np.zeros(2))
        sys_ = SwitchedSystem((sub, sub))
        traj = simulate_norm_min(sys_, np.array([1.0, 1.0]), 1.0,
                                 NormMinPolicy(0.01))
        assert np.all(traj.active == 1)

    def test_single_subsystem_matches_periodic(self):
        sub = SubSystem(np.array([[-0.5, 1.0], [-1.0, -0.5]]), np.zeros(2))
        sys_ = SwitchedSystem((sub,))
        x0 = np.array([1.0, 0.0])
        nm = simulate_norm_min(sys_, x0, 2.0, NormMinPolicy(0.1))
        per = simulate(sys_, PeriodicSignal((Segment(1, 0.1),)), x0, 2.0, 0.1)
        np.testing.assert_allclose(nm.states, per.states, atol=1e-10)

    def test_stabilises_linear_benchmark(self, example1):
        lin = example1.linear_part()
        traj = simulate_norm_min(lin, np.array([1.0, 0.0]), 30.0,
                                 NormMinPolicy(1e-3))
        assert np.linalg.norm(traj.states[-1]) < 1e-3

    def test_selection_is_argmin_post_hoc(self, example1):
        lin = example1.linear_part()
        traj = simulate_norm_min(lin, np.array([0.3, 0.9]), 2.0,
                                 NormMinPolicy(1e-2))
        for x, a in zip(traj.states, traj.active):
            vals = [x @ (sub.A @ x + sub.b) for sub in lin.subsystems]
            assert a == int(np.argmin(vals)) + 1

    def test_origin_selects_first(self, example1):
        lin = example1.linear_part()
        traj = simulate_norm_min(lin, np.zeros(2), 1.0, NormMinPolicy(0.1))
        assert np.all(traj.active == 1)

    # bitwise: each row of the stacked product must round as the lone A_i
    # and M_i products of the reference do
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 5),
           h=st.sampled_from([1e-3, 1e-2, 0.1]),
           affine=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_loop(self, n, m, h, affine, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_switched_system(rng, n, m, affine=affine)
        x0 = rng.normal(size=n)
        got = simulate_norm_min(sys_, x0, 2.0, NormMinPolicy(h))
        assert_same_trajectory(got, norm_min_reference(sys_, x0, 2.0, h))

    def test_unselected_overflow_adds_no_warning(self):
        # e^{800} overflows in the second step map, which is never selected
        sys_ = SwitchedSystem((SubSystem(-np.eye(2), np.zeros(2)),
                               SubSystem(800.0 * np.eye(2), np.zeros(2))))
        x0 = np.array([1.0, 0.0])

        def recorded(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                traj = run()
            return traj, {str(w.message) for w in caught}

        got, got_warnings = recorded(
            lambda: simulate_norm_min(sys_, x0, 10.0, NormMinPolicy(1.0)))
        want, want_warnings = recorded(
            lambda: norm_min_reference(sys_, x0, 10.0, 1.0))
        assert got_warnings <= want_warnings
        assert_same_trajectory(got, want)
        assert np.all(got.active == 1)

    # h = 0.1 passes the guard with a finite state, h = 20 by overflow
    @pytest.mark.parametrize("h", [0.1, 20.0])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_matches_reference_loop(self, h):
        sys_ = SwitchedSystem((SubSystem(50.0 * np.eye(2), np.zeros(2)),))
        x0 = np.array([1.0, 0.0])
        with pytest.raises(DivergenceError) as got:
            simulate_norm_min(sys_, x0, 40.0, NormMinPolicy(h))
        with pytest.raises(DivergenceError) as want:
            norm_min_reference(sys_, x0, 40.0, h)
        assert got.value.time == want.value.time
        assert_same_trajectory(got.value.trajectory, want.value.trajectory)

    # escapes on the last and first rows of a guard block (256, 257), and
    # on the final step; at h = 0.1, 300 * h differs from 299 * h + h
    @pytest.mark.parametrize("escape, t_end", [
        (BLOCK_ROWS, 60.0), (BLOCK_ROWS + 1, 60.0), (300, 30.0)])
    def test_block_guard_escape_row(self, escape, t_end):
        # from (1, 0) the norm is e^{a h k}: 1e12 is crossed half a step
        # before state `escape`, so the guard trips there and not sooner
        h = 0.1
        a = np.log(DIVERGENCE_GUARD) / ((escape - 0.5) * h)
        sys_ = SwitchedSystem((SubSystem(a * np.eye(2), np.zeros(2)),))
        exc = assert_same_escape(sys_, np.array([1.0, 0.0]), t_end, h)
        assert len(exc.trajectory.times) == escape

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_block_guard_nan_escape(self):
        # x1 drifts up by h under subsystem 1, selected while x1 <= 0; at
        # state 100 subsystem 2, whose step map overflowed, is selected and
        # state 101 is NaN, with every earlier norm far below the guard
        sys_ = SwitchedSystem((
            SubSystem(np.zeros((2, 2)), np.array([1.0, 0.0])),
            SubSystem(np.diag([0.0, 8000.0]), np.zeros(2))))
        exc = assert_same_escape(sys_, np.array([-9.95, 0.0]), 60.0, 0.1)
        assert exc.trajectory.active[-1] == 2
        assert len(exc.trajectory.times) == 101
        assert np.abs(exc.trajectory.states).max() < 10.0

    # x1 steps up by 1 from x0 over 300 steps; every state lies inside the
    # block test's margin, so each block is walked with the exact formula
    @pytest.mark.parametrize("x0, escape", [
        (DIVERGENCE_GUARD - 310.0, None),     # up to 1e12 - 10: no escape
        (DIVERGENCE_GUARD - 99.5, 100),       # state 100 is 1e12 + 0.5
    ])
    def test_block_guard_margin(self, x0, escape):
        assert x0 ** 2 >= simulate_module._GUARD_CLEAR
        sys_ = SwitchedSystem((SubSystem(np.zeros((1, 1)), np.ones(1)),))
        if escape is None:
            got = simulate_norm_min(sys_, np.array([x0]), 300.0,
                                    NormMinPolicy(1.0))
            assert_same_trajectory(
                got, norm_min_reference(sys_, np.array([x0]), 300.0, 1.0))
            assert got.states[-1, 0] == DIVERGENCE_GUARD - 10.0
        else:
            exc = assert_same_escape(sys_, np.array([x0]), 300.0, 1.0)
            assert len(exc.trajectory.times) == escape

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_diverges(self):
        # e^{1000} overflows: the state becomes (inf, nan), whose norm is NaN
        sys_ = SwitchedSystem((SubSystem(50.0 * np.eye(2), np.zeros(2)),))
        with pytest.raises(DivergenceError) as exc:
            simulate_norm_min(sys_, np.array([1.0, 0.0]), 40.0,
                              NormMinPolicy(20.0))
        assert exc.value.time == 20.0
        np.testing.assert_array_equal(exc.value.trajectory.states, [[1.0, 0.0]])
