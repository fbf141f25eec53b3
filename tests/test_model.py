import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab.linalg import DimensionError, NumericalError
from swstab.model import (EquilibriumError, SubSystem, SwitchedSystem,
                          Weights, average_system, common_equilibrium,
                          equilibrium, load_system, system_from_dict,
                          system_to_dict)


class TestTypes:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            SubSystem(np.eye(2), np.zeros(3))
        with pytest.raises(DimensionError):
            SwitchedSystem((SubSystem(np.eye(2), np.zeros(2)),
                            SubSystem(np.eye(3), np.zeros(3))))

    def test_empty_matrix_refused(self):
        # a 0x0 subsystem once built, and failed later inside numpy
        with pytest.raises(DimensionError,
                           match=r"nonempty square matrix, got shape \(0, 0\)"):
            SubSystem(np.zeros((0, 0)), np.zeros(0))

    def test_subsystem_by_signal_index(self):
        subs = (SubSystem(np.eye(2), np.zeros(2)),
                SubSystem(-np.eye(2), np.ones(2)))
        sys_ = SwitchedSystem(subs)
        assert sys_.subsystem(1) is subs[0] and sys_.subsystem(2) is subs[1]
        for index in (0, 3):
            with pytest.raises(IndexError, match=f"subsystem {index}, "
                                                 "system has 2"):
                sys_.subsystem(index)

    def test_state_is_a_new_float_vector(self):
        sys_ = SwitchedSystem((SubSystem(np.eye(2), np.zeros(2)),))
        x0 = np.array([1, -2])
        x = sys_.state(x0)
        assert x.dtype == float and x.tolist() == [1.0, -2.0]
        x[0] = 5.0
        assert x0.tolist() == [1, -2]
        assert sys_.state([0.5, 0.25]).tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("x0, error, message", [
        pytest.param([1.0, 0.0, 0.0], DimensionError,
                     r"\[1.0, 0.0, 0.0\] has wrong dimension", id="long"),
        pytest.param([1.0], DimensionError, "has wrong dimension",
                     id="short"),
        pytest.param([[1.0], [0.0]], DimensionError, "has wrong dimension",
                     id="column"),
        pytest.param(1.0, DimensionError, "has wrong dimension",
                     id="scalar"),
        pytest.param([1.0, np.nan], ValueError, r"\[1.0, nan\] is not finite",
                     id="nan"),
        pytest.param([-np.inf, 0.0], ValueError, "is not finite", id="inf")])
    def test_bad_state_refused(self, x0, error, message):
        sys_ = SwitchedSystem((SubSystem(np.eye(2), np.zeros(2)),))
        with pytest.raises(error, match=message):
            sys_.state(x0)

    def test_weights_validation(self):
        Weights(np.array([0.5, 0.5]), 2.0)
        with pytest.raises(ValueError):
            Weights(np.array([0.7, 0.5]), 1.0)
        with pytest.raises(ValueError):
            Weights(np.array([-0.1, 1.1]), 1.0)
        with pytest.raises(ValueError):
            Weights(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("period", [np.inf, -np.inf, np.nan])
    def test_non_finite_period_refused(self, period):
        with pytest.raises(ValueError, match="period must be finite"):
            Weights(np.array([0.5, 0.5]), period)

    def test_zero_weight_allowed(self):
        w = Weights(np.array([1.0, 0.0]), 1.0)
        assert w.alpha[1] == 0.0


class TestAverageSystem:
    def test_example2_average(self, example2):
        avg = average_system(example2, Weights(np.array([0.5, 0.5]), 4.0))
        np.testing.assert_allclose(avg.A, [[-0.55, 0.0], [0.3, -0.5]])
        np.testing.assert_allclose(avg.b, [0.0, 1.5])

    def test_simplex_vertex(self, example1):
        avg = average_system(example1, Weights(np.array([1.0, 0.0]), 1.0))
        np.testing.assert_allclose(avg.A, example1.subsystems[0].A)
        np.testing.assert_allclose(avg.b, example1.subsystems[0].b)

    def test_identical_subsystems(self):
        sub = SubSystem(np.diag([-1.0, -2.0]), np.array([1.0, 1.0]))
        sys_ = SwitchedSystem((sub, sub, sub))
        avg = average_system(sys_, Weights(np.array([0.2, 0.3, 0.5]), 1.0))
        np.testing.assert_allclose(avg.A, sub.A)
        np.testing.assert_allclose(avg.b, sub.b)

    def test_length_mismatch(self, example1):
        with pytest.raises(DimensionError):
            average_system(example1, Weights(np.array([1.0]), 1.0))

    def test_overflow_is_numerical_error(self):
        # valid subsystems whose convex combination overflows: a numerical
        # failure, not invalid input, and no RuntimeWarning
        big = np.finfo(float).max
        sys_ = SwitchedSystem(tuple(SubSystem(A, np.zeros(2)) for A in (
            -big * np.eye(2), np.array([[-big, 1.0], [0.0, -big]]),
            np.array([[-big, 0.0], [1.0, -big]]))))
        with pytest.raises(NumericalError, match="overflows"):
            average_system(sys_, Weights(np.array([0.5, 0.1, 0.4]), 1.0))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 0.99))
    def test_affine_in_weights(self, a, b, lam):
        # averaging weight vectors commutes with building the average system
        sub1 = SubSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 0.0]))
        sub2 = SubSystem(np.array([[2.0, 0.0], [0.0, -3.0]]), np.array([0.0, 2.0]))
        sys_ = SwitchedSystem((sub1, sub2))
        w1 = Weights(np.array([a, 1.0 - a]), 1.0)
        w2 = Weights(np.array([b, 1.0 - b]), 1.0)
        mixed = Weights(lam * w1.alpha + (1.0 - lam) * w2.alpha, 1.0)
        direct = average_system(sys_, mixed)
        blended_A = (lam * average_system(sys_, w1).A
                     + (1.0 - lam) * average_system(sys_, w2).A)
        np.testing.assert_allclose(direct.A, blended_A, atol=1e-12)


class TestEquilibria:
    def test_example1_common_point(self, example1):
        np.testing.assert_allclose(
            equilibrium(example1.subsystems[0]), [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(
            equilibrium(example1.subsystems[1]), [0.0, -1.0], atol=1e-12)

    def test_example2_second_equilibrium(self, example2):
        e2 = equilibrium(example2.subsystems[1])
        np.testing.assert_allclose(e2, [-40.0 / 11.0, 9.0 / 11.0], atol=1e-12)
        assert np.allclose(e2, [-3.64, 0.82], atol=0.01)

    def test_example2_average_equilibrium(self, example2):
        avg = average_system(example2, Weights(np.array([0.5, 0.5]), 1.0))
        np.testing.assert_allclose(equilibrium(avg), [0.0, 3.0], atol=1e-12)

    def test_singular_matrix(self):
        with pytest.raises(EquilibriumError):
            equilibrium(SubSystem(np.zeros((2, 2)), np.array([1.0, 0.0])))

    def test_average_equilibrium_satisfies_dynamics(self, example2, rng):
        for _ in range(10):
            a = rng.uniform(0.05, 0.95)
            avg = average_system(example2, Weights(np.array([a, 1.0 - a]), 1.0))
            e = equilibrium(avg)
            assert np.linalg.norm(avg.A @ e + avg.b) <= 1e-9


class TestCommonEquilibrium:
    def test_example1_shares(self, example1):
        eq = common_equilibrium(example1, tol=1e-9)
        np.testing.assert_allclose(eq, [0.0, -1.0], atol=1e-12)

    def test_example2_does_not(self, example2):
        assert common_equilibrium(example2, tol=1e-9) is None

    def test_single_subsystem(self):
        sub = SubSystem(np.diag([-1.0, -1.0]), np.array([2.0, 0.0]))
        eq = common_equilibrium(SwitchedSystem((sub,)))
        np.testing.assert_allclose(eq, equilibrium(sub))

    def test_returned_point_is_equilibrium_of_each(self, example1):
        y = common_equilibrium(example1)
        for sub in example1.subsystems:
            norm = np.linalg.norm(sub.A @ y + sub.b)
            assert norm <= (1.0 + np.linalg.norm(sub.A)) * 1e-9

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tol_refused(self, example2, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            common_equilibrium(example2, tol=tol)

    def test_zero_tol_is_exact_agreement(self):
        sub = SubSystem(np.diag([-1.0, -2.0]), np.array([1.0, 2.0]))
        eq = common_equilibrium(SwitchedSystem((sub, sub)), tol=0.0)
        np.testing.assert_array_equal(eq, [1.0, 1.0])

    def test_singular_subsystem_reported(self):
        sys_ = SwitchedSystem((
            SubSystem(np.zeros((2, 2)), np.array([1.0, 0.0])),
            SubSystem(np.eye(2), np.zeros(2))))
        with pytest.raises(EquilibriumError) as exc:
            common_equilibrium(sys_)
        assert exc.value.subsystem == 1


class TestJson:
    def test_round_trip(self, example2):
        again = system_from_dict(system_to_dict(example2))
        for a, b in zip(again.subsystems, example2.subsystems):
            np.testing.assert_allclose(a.A, b.A)
            np.testing.assert_allclose(a.b, b.b)

    def test_omitted_b_is_zero(self):
        sys_ = system_from_dict({"subsystems": [{"A": [[-1.0, 0.0], [0.0, -1.0]]}]})
        assert np.all(sys_.subsystems[0].b == 0.0)

    def test_dimension_declaration_checked(self):
        with pytest.raises(ValueError):
            system_from_dict({"n": 3, "subsystems": [{"A": [[1.0]]}]})

    @pytest.mark.parametrize("n", [2.9, 2.5, True, "2"])
    def test_non_integral_dimension_refused(self, n):
        with pytest.raises(ValueError, match='"n" must be an integer'):
            system_from_dict({"n": n, "subsystems": [{"A": np.eye(2).tolist()}]})

    @pytest.mark.parametrize("n", [2, 2.0])
    def test_integral_dimension_accepted(self, n):
        assert system_from_dict(
            {"n": n, "subsystems": [{"A": np.eye(2).tolist()}]}).n == 2

    def test_load_from_file(self, tmp_path, example1):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system_to_dict(example1)))
        loaded = load_system(path)
        assert loaded.m == 2 and loaded.n == 2
