import io

import numpy as np
import pytest

from swstab.model import SubSystem, SwitchedSystem, Weights, average_system
from swstab.signals import (NormMinPolicy, PeriodicSignal, Segment,
                            example_signal, shift)
from swstab.simulate import (DivergenceError, NoAttractingCycleError,
                             limit_cycle, poincare_map, segment_map,
                             simulate, simulate_norm_min)
from swstab.stability import monodromy
from conftest import random_switched_system


class TestSegmentStep:
    def test_linear_case(self):
        from swstab.linalg import mat_exp
        sub = SubSystem(np.array([[0.0, 1.0], [-2.0, -0.5]]), np.zeros(2))
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(segment_map(sub, 0.8)(x),
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
            got = segment_map(SubSystem(A, b), tau)(x)
            np.testing.assert_allclose(got, want, atol=1e-10 * max(
                1.0, np.linalg.norm(want)))

    def test_equilibrium_is_fixed(self, example1):
        sub = example1.subsystems[0]
        out = segment_map(sub, 1.7)(np.array([0.0, -1.0]))
        np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-12)

    def test_nonpositive_tau_rejected(self, example1):
        with pytest.raises(ValueError):
            segment_map(example1.subsystems[0], 0.0)


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

    def test_active_indices_recorded(self, example1):
        traj = simulate(example1, example_signal(1.0), np.zeros(2),
                        t_end=8.0, sample_dt=0.5)
        # square wave: subsystem 1 on [0,2), 2 on [2,4), repeating
        for t, a in zip(traj.times, traj.active):
            assert a == (1 if (t % 4.0) < 2.0 else 2)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_diverges(self):
        # e^{1000} overflows: the state becomes (inf, nan), whose norm is NaN
        sys_ = SwitchedSystem((SubSystem(50.0 * np.eye(2), np.zeros(2)),))
        with pytest.raises(DivergenceError) as exc:
            simulate_norm_min(sys_, np.array([1.0, 0.0]), 40.0,
                              NormMinPolicy(20.0))
        assert exc.value.time == 20.0
        np.testing.assert_array_equal(exc.value.trajectory.states, [[1.0, 0.0]])
