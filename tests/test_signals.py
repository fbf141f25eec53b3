import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab.model import Weights
from swstab.signals import (NormMinPolicy, PeriodicSignal, Segment,
                            activation_fractions, active_index,
                            example_signal, from_weights, permute, scale,
                            shift, signal_from_dict, signal_to_dict)


def dyadic(lo=1, hi=256, denom=64):
    # exact binary fractions keep boundary arithmetic exact in the
    # shift/scale translation properties
    return st.integers(lo, hi).map(lambda k: k / denom)


def signals(max_segments=6):
    seg = st.tuples(st.integers(1, 4), dyadic())
    return st.lists(seg, min_size=1, max_size=max_segments).map(
        lambda segs: PeriodicSignal(tuple(Segment(i, d) for i, d in segs)))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicSignal(())
        with pytest.raises(ValueError):
            PeriodicSignal((Segment(0, 1.0),))
        with pytest.raises(ValueError):
            PeriodicSignal((Segment(1, 0.0),))
        # every duration is finite, their sum is not
        with pytest.raises(ValueError, match="period of inf"):
            PeriodicSignal((Segment(1, 1e308), Segment(2, 1e308)))

    def test_period_sums_left_to_right(self, monkeypatch):
        # 0.1 + 0.2 rounds up to 0.30000000000000004; a compensated sum
        # (the builtin sum from Python 3.12 on) gives 0.6.  A module-level
        # sum that compensates stands in for the newer builtin, so a
        # return to sum fails here under any Python
        monkeypatch.setattr(importlib.import_module("swstab.signals"),
                            "sum", math.fsum, raising=False)
        sig = PeriodicSignal((Segment(1, 0.1), Segment(2, 0.2), Segment(3, 0.3)))
        assert sig.period == 0.6000000000000001

    def test_policy_validation(self):
        NormMinPolicy(1e-3)
        with pytest.raises(ValueError):
            NormMinPolicy(0.0)

    def test_from_weights(self):
        sig = from_weights(Weights(np.array([0.5, 0.5]), 2.0), 1.0)
        assert sig.segments == (Segment(1, 1.0), Segment(2, 1.0))
        sig = from_weights(Weights(np.array([0.5, 0.5]), 2.0), 0.5)
        assert sig.segments == (Segment(1, 0.5), Segment(2, 0.5))

    def test_from_weights_drops_zero_fraction(self):
        sig = from_weights(Weights(np.array([1.0, 0.0]), 3.0), 1.0)
        assert sig.segments == (Segment(1, 3.0),)

    def test_example_signal(self):
        assert example_signal(1.0).segments == (Segment(1, 2.0), Segment(2, 2.0))
        assert example_signal(0.5).segments == (Segment(1, 1.0), Segment(2, 1.0))
        np.testing.assert_allclose(
            [d for _, d in example_signal(1.1).segments], [2.2, 2.2])


class TestScale:
    def test_doubling(self):
        sig = PeriodicSignal((Segment(1, 1.0), Segment(2, 1.0)))
        assert scale(sig, 2.0).segments == (Segment(1, 2.0), Segment(2, 2.0))

    def test_identity(self):
        sig = example_signal(1.0)
        assert scale(sig, 1.0) == sig

    @settings(max_examples=40, deadline=None)
    @given(signals())
    def test_by_one_is_exact(self, sig):
        # the CLI and signal_from_dict scale by eta = 1 unconditionally
        assert scale(sig, 1.0).segments == sig.segments
        assert signal_from_dict(signal_to_dict(sig)) == sig

    @settings(max_examples=40, deadline=None)
    @given(signals(), st.floats(0.1, 4.0), st.floats(0.1, 4.0))
    def test_composition(self, sig, a, b):
        lhs = scale(scale(sig, a), b)
        rhs = scale(sig, a * b)
        np.testing.assert_allclose([d for _, d in lhs.segments],
                                   [d for _, d in rhs.segments], rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(signals(), st.floats(0.1, 4.0))
    def test_preserves_fractions(self, sig, eta):
        np.testing.assert_allclose(
            activation_fractions(scale(sig, eta)).alpha,
            activation_fractions(sig).alpha, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(signals(), dyadic(1, 64, 16), dyadic(0, 1024, 32))
    def test_order_preserved(self, sig, eta, t):
        assert active_index(scale(sig, eta), eta * t) == active_index(sig, t)


class TestShift:
    def test_by_period_is_identity(self):
        sig = example_signal(1.0)
        assert shift(sig, sig.period) == sig

    def test_by_zero(self):
        sig = example_signal(1.0)
        assert shift(sig, 0.0) == sig

    def test_split(self):
        sig = PeriodicSignal((Segment(1, 1.0), Segment(2, 1.0)))
        assert shift(sig, 0.5).segments == (
            Segment(1, 0.5), Segment(2, 1.0), Segment(1, 0.5))

    def test_onto_boundary(self):
        sig = PeriodicSignal((Segment(1, 1.0), Segment(2, 1.0)))
        assert shift(sig, 1.0).segments == (Segment(2, 1.0), Segment(1, 1.0))

    @pytest.mark.parametrize("gamma", [np.inf, np.nan, -1.0])
    def test_bad_shift_refused(self, gamma):
        # inf % T and nan % T are nan, which once returned sig unshifted
        with pytest.raises(ValueError, match="finite and nonnegative"):
            shift(example_signal(1.0), gamma)

    @settings(max_examples=60, deadline=None)
    @given(signals(), st.floats(0.0, 30.0))
    def test_preserves_period_and_fractions(self, sig, gamma):
        shifted = shift(sig, gamma)
        assert shifted.period == pytest.approx(sig.period, rel=1e-12)
        np.testing.assert_allclose(
            activation_fractions(shifted, 4).alpha,
            activation_fractions(sig, 4).alpha, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(signals(), dyadic(0, 512, 64), dyadic(0, 512, 64))
    def test_matches_time_translation(self, sig, gamma, t):
        assert active_index(shift(sig, gamma), t) == active_index(sig, t + gamma)


class TestPermute:
    def test_identity(self):
        sig = example_signal(1.0)
        assert permute(sig, [0, 1]) == sig

    def test_swap(self):
        sig = PeriodicSignal((Segment(1, 1.0), Segment(2, 1.0)))
        assert permute(sig, [1, 0]).segments == (Segment(2, 1.0), Segment(1, 1.0))

    def test_invalid(self):
        with pytest.raises(ValueError):
            permute(example_signal(1.0), [0, 0])

    @settings(max_examples=40, deadline=None)
    @given(signals(), st.randoms(use_true_random=False))
    def test_fractions_invariant(self, sig, rnd):
        perm = list(range(len(sig.segments)))
        rnd.shuffle(perm)
        permuted = permute(sig, perm)
        np.testing.assert_allclose(
            activation_fractions(permuted, 4).alpha,
            activation_fractions(sig, 4).alpha, atol=1e-12)
        assert permuted.period == pytest.approx(sig.period, rel=1e-15)


class TestActiveIndex:
    def test_square_wave_first_half(self):
        assert active_index(example_signal(1.0), 0.5) == 1

    def test_square_wave_second_half(self):
        assert active_index(example_signal(1.0), 2.5) == 2

    def test_wraparound_at_period(self):
        sig = example_signal(1.0)
        assert active_index(sig, sig.period) == 1

    def test_right_continuity_at_switch(self):
        assert active_index(example_signal(1.0), 2.0) == 2

    @pytest.mark.parametrize("t", [np.inf, np.nan, -1.0])
    def test_bad_time_refused(self, t):
        # inf % T and nan % T are nan, which once fell through to index 1
        with pytest.raises(ValueError, match="finite and nonnegative"):
            active_index(example_signal(1.0), t)


class TestActivationFractions:
    def test_square_wave(self):
        for eta in (1.0, 0.5, 2.5):
            w = activation_fractions(example_signal(eta))
            np.testing.assert_allclose(w.alpha, [0.5, 0.5])
            assert w.period == pytest.approx(4.0 * eta)

    def test_single_segment(self):
        w = activation_fractions(PeriodicSignal((Segment(1, 3.0),)))
        np.testing.assert_allclose(w.alpha, [1.0])
        assert w.period == pytest.approx(3.0)

    def test_uneven(self):
        sig = PeriodicSignal((Segment(1, 1.0), Segment(2, 3.0)))
        np.testing.assert_allclose(activation_fractions(sig).alpha, [0.25, 0.75])

    def test_padded_to_m(self):
        w = activation_fractions(PeriodicSignal((Segment(2, 1.0),)), m=3)
        np.testing.assert_allclose(w.alpha, [0.0, 1.0, 0.0])


class TestJson:
    def test_round_trip(self):
        sig = PeriodicSignal((Segment(1, 1.5), Segment(3, 0.25)))
        assert signal_from_dict(signal_to_dict(sig)) == sig

    def test_eta_scaling(self):
        spec = {"segments": [{"index": 1, "duration": 2.0},
                             {"index": 2, "duration": 2.0}],
                "eta": 0.5}
        assert signal_from_dict(spec) == example_signal(0.5)

    @pytest.mark.parametrize("index", [1.7, 2.9, True, False, "2"])
    def test_non_integral_index_refused(self, index):
        spec = {"segments": [{"index": index, "duration": 1.0}]}
        with pytest.raises(ValueError, match="segment index must be an integer"):
            signal_from_dict(spec)

    def test_integral_index_accepted(self):
        spec = {"segments": [{"index": 1, "duration": 1.0},
                             {"index": 2.0, "duration": 1.0}]}
        assert signal_from_dict(spec) == PeriodicSignal(
            (Segment(1, 1.0), Segment(2, 1.0)))

    def test_missing_segments(self):
        with pytest.raises(ValueError):
            signal_from_dict({})
