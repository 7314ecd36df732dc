"""Unit tests for utility functions (Section 2.1 / Figure 2)."""

import math

import pytest

from repro.errors import UtilityError
from repro.model.utility import (
    ExponentialUtility,
    InelasticUtility,
    LinearUtility,
    LogUtility,
    QuadraticUtility,
    check_concavity,
)


class TestLinearUtility:
    def test_paper_shape(self):
        # Section 5.2: f(lat) = 2*C - lat.
        fn = LinearUtility(critical_time=45.0, k=2.0)
        assert fn.value(0.0) == pytest.approx(90.0)
        assert fn.value(45.0) == pytest.approx(45.0)
        assert fn.derivative(10.0) == -1.0

    def test_prototype_shape(self):
        # Section 6.2: f(lat) = -lat (k = 0).
        fn = LinearUtility(critical_time=105.0, k=0.0)
        assert fn.value(35.0) == pytest.approx(-35.0)
        assert fn.derivative(35.0) == -1.0

    def test_custom_slope(self):
        fn = LinearUtility(critical_time=10.0, k=1.0, slope=2.5)
        assert fn.derivative(1.0) == -2.5
        assert fn.value(4.0) == pytest.approx(10.0 - 10.0)

    def test_non_increasing(self):
        fn = LinearUtility(critical_time=50.0)
        assert fn.value(10.0) > fn.value(20.0) > fn.value(50.0)

    @pytest.mark.parametrize("bad", [-1.0, -0.001])
    def test_rejects_negative_k(self, bad):
        with pytest.raises(UtilityError):
            LinearUtility(critical_time=10.0, k=bad)

    def test_rejects_bad_critical_time(self):
        with pytest.raises(UtilityError):
            LinearUtility(critical_time=0.0)
        with pytest.raises(UtilityError):
            LinearUtility(critical_time=-5.0)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(UtilityError):
            LinearUtility(critical_time=10.0, slope=0.0)

    def test_rejects_negative_latency(self):
        fn = LinearUtility(critical_time=10.0)
        with pytest.raises(UtilityError):
            fn.value(-1.0)

    def test_is_elastic(self):
        assert LinearUtility(critical_time=10.0).is_elastic()


class TestLogUtility:
    def test_zero_at_critical_time(self):
        fn = LogUtility(critical_time=50.0)
        assert fn.value(50.0) == pytest.approx(0.0)

    def test_positive_below_critical_time(self):
        fn = LogUtility(critical_time=50.0, softness=25.0)
        assert fn.value(25.0) == pytest.approx(math.log(2.0))

    def test_derivative_matches_numeric(self):
        fn = LogUtility(critical_time=50.0, scale=3.0)
        lat, h = 30.0, 1e-6
        numeric = (fn.value(lat + h) - fn.value(lat - h)) / (2 * h)
        assert fn.derivative(lat) == pytest.approx(numeric, rel=1e-5)

    def test_linear_extension_beyond_soft_deadline(self):
        # Beyond C + softness the function continues linearly (finite,
        # concave, differentiable) so numeric solvers can roam.
        fn = LogUtility(critical_time=50.0, softness=5.0)
        assert fn.value(60.0) < fn.value(55.0) < fn.value(50.0)
        assert fn.derivative(60.0) == pytest.approx(fn.derivative(70.0))
        with pytest.raises(UtilityError):
            fn.value(-1.0)

    def test_non_increasing(self):
        fn = LogUtility(critical_time=50.0)
        assert fn.value(10.0) > fn.value(30.0) > fn.value(50.0)

    def test_concave(self):
        fn = LogUtility(critical_time=50.0)
        assert check_concavity(fn, 0.1, 50.0)


class TestQuadraticUtility:
    def test_default_calibration_zero_at_deadline(self):
        fn = QuadraticUtility(critical_time=10.0)
        assert fn.value(10.0) == pytest.approx(0.0)
        assert fn.value(0.0) == pytest.approx(fn.u_max)

    def test_derivative_steepens(self):
        fn = QuadraticUtility(critical_time=10.0)
        assert abs(fn.derivative(8.0)) > abs(fn.derivative(2.0))

    def test_concave(self):
        fn = QuadraticUtility(critical_time=10.0)
        assert check_concavity(fn, 0.0, 10.0)

    def test_rejects_negative_curvature(self):
        with pytest.raises(UtilityError):
            QuadraticUtility(critical_time=10.0, a=-1.0)


class TestExponentialUtility:
    def test_decay(self):
        fn = ExponentialUtility(critical_time=30.0, u_max=1.0, tau=10.0)
        assert fn.value(0.0) == pytest.approx(1.0)
        assert fn.value(10.0) == pytest.approx(math.exp(-1.0))

    def test_not_concave(self):
        # exp decay is convex; the checker must say so (LLA refuses it).
        fn = ExponentialUtility(critical_time=30.0)
        assert not check_concavity(fn, 0.1, 30.0)


class TestInelasticUtility:
    def test_step_shape(self):
        fn = InelasticUtility(critical_time=20.0, u_max=5.0)
        assert fn.value(19.9) == 5.0
        assert fn.value(20.0) == 5.0
        assert fn.value(20.1) == 0.0

    def test_zero_derivative(self):
        fn = InelasticUtility(critical_time=20.0)
        assert fn.derivative(5.0) == 0.0

    def test_not_elastic(self):
        assert not InelasticUtility(critical_time=20.0).is_elastic()


class TestConcavityChecker:
    def test_rejects_bad_interval(self):
        fn = LinearUtility(critical_time=10.0)
        with pytest.raises(UtilityError):
            check_concavity(fn, 5.0, 5.0)

    def test_linear_is_concave(self):
        assert check_concavity(LinearUtility(critical_time=10.0), 0.1, 10.0)
