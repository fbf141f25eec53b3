import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import presets
from swstab.linalg import mat_exp, operator_norm_2, spectrum
from swstab.model import SubSystem, SwitchedSystem, Weights, average_system
from swstab.signals import (PeriodicSignal, Segment, example_signal, permute,
                            shift)
from swstab.stability import (average_deviation, bch_c2,
                              det_monodromy_oracle, is_ici_stable,
                              lemma4_bound_holds, monodromy)
from conftest import random_switched_system

HALF = Weights(np.array([0.5, 0.5]), 4.0)


@st.composite
def affine_system_and_signal(draw):
    """Random affine system (n, m in 1..4) and a 1-6 segment signal."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    entry = st.floats(-2.0, 2.0)
    subs = tuple(
        SubSystem(np.array(draw(st.lists(entry, min_size=n * n,
                                         max_size=n * n))).reshape(n, n),
                  np.array(draw(st.lists(entry, min_size=n, max_size=n))))
        for _ in range(m))
    segs = draw(st.lists(st.tuples(st.integers(1, m), st.floats(0.05, 1.0)),
                         min_size=1, max_size=6))
    return SwitchedSystem(subs), PeriodicSignal(tuple(segs))


def diag_system(*rates):
    return SwitchedSystem(tuple(
        SubSystem(np.diag(r), np.zeros(len(r))) for r in rates))


class TestMonodromy:
    def test_single_segment(self, example1):
        sig = PeriodicSignal((Segment(1, 0.7),))
        np.testing.assert_allclose(
            monodromy(example1, sig), mat_exp(0.7 * presets.A1), atol=1e-13)

    def test_commuting_subsystems_multiply_exactly(self):
        sys_ = diag_system([-1.0, -2.0], [0.5, -0.3])
        sig = PeriodicSignal((Segment(1, 1.5), Segment(2, 0.5), Segment(1, 1.0)))
        merged = 2.5 * sys_.subsystems[0].A + 0.5 * sys_.subsystems[1].A
        np.testing.assert_allclose(monodromy(sys_, sig), mat_exp(merged),
                                   atol=1e-12)

    def test_small_dwell_approximates_average(self, example1):
        # compose over horizon 1 at eta = 1e-3 and compare to e^{A_avg}
        w = Weights(np.array([0.5, 0.5]), 1.0)
        assert average_deviation(example1, w, 1e-3, 1.0) <= 1e-2

    @settings(max_examples=100, deadline=None)
    @given(affine_system_and_signal())
    def test_equals_product_of_segment_exponentials(self, case):
        sys_, sig = case
        want = np.eye(sys_.n)
        for idx, dur in sig.segments:       # earliest segment rightmost
            want = scipy.linalg.expm(dur * sys_.subsystems[idx - 1].A) @ want
        got = monodromy(sys_, sig)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_index_out_of_range(self, example1):
        sig = PeriodicSignal((Segment(1, 1.0), Segment(3, 1.0)))
        for f in (monodromy, det_monodromy_oracle):
            with pytest.raises(IndexError, match="subsystem 3, system has 2"):
                f(example1, sig)


class TestStabilityReport:
    def test_benchmark_large_dwell(self, example1):
        report = is_ici_stable(example1, example_signal(1.1), eta=1.1)
        assert report.is_stable
        assert report.eta == 1.1
        assert report.period == pytest.approx(4.4)

    def test_benchmark_small_dwell(self, example1):
        assert is_ici_stable(example1, example_signal(1e-3)).is_stable

    def test_single_stable_subsystem(self):
        sys_ = diag_system([-1.0, -2.0])
        sig = PeriodicSignal((Segment(1, 3.0),))
        report = is_ici_stable(sys_, sig)
        assert report.is_stable and report.norm_condition_holds

    def test_verdict_matches_radius(self, example1):
        report = is_ici_stable(example1, example_signal(2.0))
        assert not report.is_stable
        assert report.spectral_radius >= 1.0


class TestDetOracle:
    def test_trace_free(self):
        sys_ = SwitchedSystem((
            SubSystem(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2)),
            SubSystem(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))))
        assert det_monodromy_oracle(sys_, example_signal(1.3)) == \
            pytest.approx(1.0)

    def test_benchmark_closed_form(self, example1):
        got = det_monodromy_oracle(example1, example_signal(1.0))
        assert got == pytest.approx(math.exp(-4.2), rel=1e-12)

    def test_matches_lu_determinant(self, rng):
        for _ in range(25):
            sys_ = random_switched_system(rng, rng.integers(2, 5),
                                          rng.integers(1, 5))
            segs = tuple(Segment(int(rng.integers(1, sys_.m + 1)),
                                 float(rng.uniform(0.05, 1.0)))
                         for _ in range(rng.integers(1, 6)))
            sig = PeriodicSignal(segs)
            oracle = det_monodromy_oracle(sys_, sig)
            direct = np.linalg.det(monodromy(sys_, sig))
            assert direct == pytest.approx(oracle, rel=1e-10)


class TestBchC2:
    def test_commuting_vanishes(self):
        sys_ = diag_system([-1.0, -2.0], [0.5, -0.3])
        np.testing.assert_allclose(
            bch_c2(sys_, Weights(np.array([0.3, 0.7]), 1.0)), np.zeros((2, 2)))

    def test_single_subsystem(self):
        sys_ = diag_system([-1.0, -2.0])
        np.testing.assert_allclose(
            bch_c2(sys_, Weights(np.array([1.0]), 1.0)), np.zeros((2, 2)))

    def test_two_even_subsystems(self, example1):
        C = bch_c2(example1, Weights(np.array([0.5, 0.5]), 1.0))
        np.testing.assert_allclose(
            C, (presets.A2 @ presets.A1 - presets.A1 @ presets.A2) / 8.0,
            atol=1e-14)

    def test_matches_log_monodromy_expansion(self, example1):
        # log(Phi) - eta*T*A_avg should approach (eta*T)^2 * C2 as eta -> 0
        w = Weights(np.array([0.5, 0.5]), 1.0)
        C = bch_c2(example1, w)
        A_avg = average_system(example1, w).A
        errs = []
        for eta in (0.1, 0.05):
            sig = PeriodicSignal((Segment(1, 0.5 * eta), Segment(2, 0.5 * eta)))
            Z = scipy.linalg.logm(monodromy(example1, sig))
            errs.append(np.linalg.norm(Z - eta * A_avg - eta * eta * C))
        # third-order remainder: halving eta cuts the error ~8x
        assert errs[1] <= errs[0] / 6.0


class TestLemma4:
    K_LIST = tuple(2 ** i for i in range(11))

    def test_commuting_with_stable_average(self):
        sys_ = diag_system([-1.0, -2.0], [-0.5, -0.3])
        w = Weights(np.array([0.5, 0.5]), 1.0)
        assert lemma4_bound_holds(sys_, w, 1.0, self.K_LIST)

    def test_benchmark_small_eta(self, example1):
        assert lemma4_bound_holds(example1, HALF, 1e-4, self.K_LIST)

    def test_fails_before_instability(self, example1):
        etas = np.linspace(0.05, 3.0, 60)
        bound_fail = next(e for e in etas
                          if not lemma4_bound_holds(example1, HALF, e, self.K_LIST))
        rho_fail = next(
            e for e in etas
            if not is_ici_stable(example1, example_signal(e)).is_stable)
        assert bound_fail <= rho_fail


class TestAverageErrorBound:
    """The error of the average approximation, ||Phi - e^{A_avg T}||."""

    def test_tracks_measured_deviation(self, example1):
        # the subsystems do not commute, so the deviation is positive and
        # shrinks with eta
        w = Weights(np.array([0.5, 0.5]), 1.0)
        measured = [average_deviation(example1, w, eta, 1.0)
                    for eta in (0.1, 0.05, 0.025)]
        assert measured[-1] > 0.0
        assert all(m2 < m1 for m1, m2 in zip(measured, measured[1:]))


class TestInvariants:
    def test_det_invariant_under_permutation(self, rng):
        for _ in range(15):
            sys_ = random_switched_system(rng, 3, 3)
            segs = tuple(Segment(int(rng.integers(1, 4)),
                                 float(rng.uniform(0.1, 1.0)))
                         for _ in range(5))
            sig = PeriodicSignal(segs)
            base = np.linalg.det(monodromy(sys_, sig))
            perm = rng.permutation(5).tolist()
            permuted = np.linalg.det(monodromy(sys_, permute(sig, perm)))
            assert permuted == pytest.approx(base, rel=1e-10)

    def test_spectrum_invariant_under_cyclic_rotation(self, example1):
        sig = PeriodicSignal((Segment(1, 0.5), Segment(2, 1.0),
                              Segment(1, 0.25), Segment(2, 0.75)))
        base = np.sort_complex(spectrum(monodromy(example1, sig)))
        for r in range(1, 4):
            rot = permute(sig, [(k + r) % 4 for k in range(4)])
            eigs = np.sort_complex(spectrum(monodromy(example1, rot)))
            np.testing.assert_allclose(eigs, base, atol=1e-8)

    def test_verdict_invariant_under_shift(self, example1):
        sig = example_signal(1.1)
        base = is_ici_stable(example1, sig).is_stable
        for gamma in np.linspace(0.0, sig.period, 7)[:-1]:
            assert is_ici_stable(example1, shift(sig, gamma)).is_stable == base

    def test_average_convergence_order(self, example1):
        w = Weights(np.array([0.5, 0.5]), 1.0)
        etas = [0.1, 0.05, 0.025, 0.0125]
        devs = [average_deviation(example1, w, eta, 1.0) for eta in etas]
        slope = np.polyfit(np.log(etas), np.log(devs), 1)[0]
        assert slope >= 0.9

    def test_lie_product_formula_order(self, rng):
        # k-fold product error halves as k doubles
        for _ in range(10):
            X = rng.normal(size=(2, 2))
            Y = rng.normal(size=(2, 2))
            target = mat_exp(X + Y)
            errs = []
            for k in (64, 128, 256):
                step = mat_exp(X / k) @ mat_exp(Y / k)
                errs.append(operator_norm_2(
                    np.linalg.matrix_power(step, k) - target))
            for e1, e2 in zip(errs, errs[1:]):
                assert e2 == pytest.approx(e1 / 2.0, rel=0.3)

    def test_horizon_must_divide(self, example1):
        w = Weights(np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError):
            average_deviation(example1, w, 0.3, 1.0)
