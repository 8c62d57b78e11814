import numpy as np
import pytest
from hypothesis import given, strategies as st

from adaweight import DataError, LossFunction
from adaweight.cli import parse_loss


class TestRho:
    def test_square_value(self):
        assert LossFunction.square().rho(3.0) == 9.0

    def test_huber_quadratic_branch(self):
        # x^2/2 below the cutoff
        assert LossFunction.huber(1.0).rho(0.5) == 0.125

    def test_huber_linear_branch(self):
        # c*(x - c/2) above the cutoff: 1*(2 - 0.5)
        assert LossFunction.huber(1.0).rho(2.0) == 1.5

    def test_huber_continuous_at_cutoff(self):
        loss = LossFunction.huber(1.3)
        below = loss.rho(1.3 - 1e-9)
        above = loss.rho(1.3 + 1e-9)
        assert abs(below - above) < 1e-8

    def test_power_value(self):
        assert LossFunction.power(3.0).rho(2.0) == 8.0

    def test_rho_zero_is_zero(self):
        for loss in (LossFunction.square(), LossFunction.huber(0.7), LossFunction.power(1.5)):
            assert loss.rho(0.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            LossFunction.square().rho(-1.0)

    def test_convexity_on_grid(self):
        t = np.linspace(0.0, 5.0, 201)
        for loss in (LossFunction.square(), LossFunction.huber(1.0), LossFunction.power(1.5)):
            vals = loss.rho(t)
            midpoint = loss.rho(0.5 * (t[:-1] + t[1:]))
            assert np.all(midpoint <= 0.5 * (vals[:-1] + vals[1:]) + 1e-12)


class TestScoreTransforms:
    def test_g1_square(self):
        # rho'(t) = 2t, so g1 = (2*1.5)^2
        assert LossFunction.square().g1(1.5) == 9.0

    def test_g1_huber_inside(self):
        assert LossFunction.huber(1.0).g1(0.5) == 0.25

    def test_g1_huber_clamps_at_cutoff(self):
        assert LossFunction.huber(1.0).g1(-3.0) == 1.0

    def test_g2_square_constant(self):
        assert LossFunction.square().g2(7.0) == 2.0

    def test_g2_huber_branches(self):
        loss = LossFunction.huber(1.0)
        assert loss.g2(0.5) == 1.0
        assert loss.g2(2.0) == 0.0

    def test_g2_huber_boundary_left_continuous(self):
        assert LossFunction.huber(1.0).g2(1.0) == 1.0
        assert LossFunction.huber(1.0).g2(-1.0) == 1.0

    def test_symmetry_in_residual(self):
        rng = np.random.default_rng(7)
        e = rng.normal(scale=3.0, size=500)
        for loss in (LossFunction.square(), LossFunction.huber(0.9), LossFunction.power(2.5)):
            assert np.array_equal(loss.g1(e), loss.g1(-e))
            assert np.array_equal(loss.g2(e), loss.g2(-e))

    def test_huber_g1_bounded_and_continuous(self):
        loss = LossFunction.huber(2.0)
        e = np.linspace(-10, 10, 2001)
        vals = loss.g1(e)
        assert np.all(vals <= 4.0 + 1e-15)
        assert np.max(np.abs(np.diff(vals))) < 0.1  # no jumps on a fine grid

    def test_huber_large_cutoff_matches_half_square(self):
        # once c > |e|, the Huber score is rho'(t) = t, so g1 = e^2 exactly
        e = np.array([-5.0, -1.0, 0.0, 2.5, 80.0])
        loss = LossFunction.huber(100.0)
        assert np.array_equal(loss.g1(e), e**2)

    def test_vectorized_matches_scalar(self):
        loss = LossFunction.huber(1.0)
        e = np.array([-2.0, -0.3, 0.0, 0.7, 4.0])
        assert np.array_equal(loss.g1(e), [loss.g1(v) for v in e])
        assert np.array_equal(loss.g2(e), [loss.g2(v) for v in e])


class TestValidation:
    def test_huber_needs_positive_cutoff(self):
        with pytest.raises(ValueError):
            LossFunction.huber(0.0)
        with pytest.raises(ValueError):
            LossFunction.huber(-1.0)

    def test_power_needs_exponent_above_one(self):
        with pytest.raises(ValueError):
            LossFunction.power(1.0)
        with pytest.raises(ValueError):
            LossFunction.power(0.5)

    def test_bad_spec_is_a_data_error(self):
        for make in (lambda: LossFunction("cauchy"), lambda: LossFunction.huber(0.0),
                     lambda: LossFunction.power(1.0)):
            with pytest.raises(DataError):
                make()

    def test_power_exponent_two_equals_square(self):
        t = np.linspace(0, 4, 50)
        assert np.allclose(LossFunction.power(2.0).rho(t), LossFunction.square().rho(t))

    def test_non_finite_parameter_rejected(self):
        for make in (lambda: LossFunction.huber(np.inf), lambda: LossFunction.huber(np.nan),
                     lambda: LossFunction.power(np.inf), lambda: LossFunction.power(np.nan)):
            with pytest.raises(DataError):
                make()

    def test_string_forms(self):
        assert str(LossFunction.square()) == "square"
        assert str(LossFunction.huber(1.5)) == "huber:1.5"
        assert str(LossFunction.power(3.0)) == "power:3"
        assert str(LossFunction.huber(1.345)) == "huber:1.345"
        assert str(LossFunction.huber(1.3456789)) == "huber:1.3456789"

    @given(cutoff=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_huber_name_parses_back(self, cutoff):
        loss = LossFunction.huber(cutoff)
        assert parse_loss(str(loss)) == loss

    @given(exponent=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False))
    def test_power_name_parses_back(self, exponent):
        loss = LossFunction.power(exponent)
        assert parse_loss(str(loss)) == loss
