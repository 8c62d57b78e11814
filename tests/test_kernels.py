import math

import numpy as np
import pytest
from scipy import integrate

from adaweight import EpanechnikovKernel, ball_volume, epanechnikov_constant


def sphere_area(q):
    return q * ball_volume(q)


class TestNormalizingConstant:
    def test_c1_exact(self):
        # integral of (1-u^2) over [-1,1] is 4/3, so c_1 = 3/4
        assert epanechnikov_constant(1) == 0.75

    def test_c2(self):
        assert epanechnikov_constant(2) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            epanechnikov_constant(0)

    def test_ball_volume_matches_gamma_formula(self):
        for q in range(1, 26):
            expected = math.pi ** (q / 2.0) / math.gamma(q / 2.0 + 1.0)
            assert ball_volume(q) == pytest.approx(expected, rel=1e-14)

    def test_q1_quadrature_of_kernel(self):
        kernel = EpanechnikovKernel(1)
        val, _ = integrate.quad(lambda u: kernel(np.array([u])), -1.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestEvaluation:
    def test_origin_1d(self):
        assert EpanechnikovKernel(1)(np.array([0.0])) == 0.75

    def test_support_boundary_1d(self):
        assert EpanechnikovKernel(1)(np.array([1.0])) == 0.0

    def test_support_boundary_2d(self):
        assert EpanechnikovKernel(2)(np.array([0.6, 0.8])) == 0.0

    def test_zero_outside_ball(self):
        kernel = EpanechnikovKernel(3)
        assert kernel(np.array([1.0, 1.0, 1.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EpanechnikovKernel(2)(np.array([1.0, 2.0, 3.0]))

    def test_batch_evaluation(self):
        kernel = EpanechnikovKernel(2)
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
        out = kernel(pts)
        assert out.shape == (3,)
        assert out[0] == kernel.norm_const
        assert out[2] == 0.0

    def test_symmetry_random_points(self):
        rng = np.random.default_rng(3)
        for q in (1, 2, 4, 8):
            kernel = EpanechnikovKernel(q)
            u = rng.uniform(-1.2, 1.2, size=(1000, q))
            assert np.array_equal(kernel(u), kernel(-u))

    def test_profile_agrees_with_call(self):
        rng = np.random.default_rng(4)
        kernel = EpanechnikovKernel(3)
        u = rng.uniform(-1, 1, size=(50, 3))
        assert np.allclose(kernel(u), kernel.profile(np.sum(u**2, axis=1)))

    def test_profile_in_place(self):
        kernel = EpanechnikovKernel(2)
        sq = np.array([[0.0, 0.25], [1.0, 4.0]])
        expected = kernel.profile(sq)
        out = kernel.profile(sq, out=sq)
        assert out is sq
        assert np.array_equal(sq, expected)


class TestNormalization:
    @pytest.mark.parametrize("q", range(1, 26))
    def test_unit_mass_radial_quadrature(self, q):
        # reduce the q-dim integral to the radial profile times the sphere area
        kernel = EpanechnikovKernel(q)
        val, _ = integrate.quad(
            lambda r: kernel.profile(r * r) * sphere_area(q) * r ** (q - 1), 0.0, 1.0
        )
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_unit_mass_direct_2d(self):
        # integrate over the disk itself so the support boundary is not a kink
        kernel = EpanechnikovKernel(2)
        half = lambda u: math.sqrt(max(0.0, 1.0 - u * u))
        val, _ = integrate.dblquad(
            lambda v, u: kernel(np.array([u, v])), -1, 1,
            lambda u: -half(u), lambda u: half(u),
        )
        assert val == pytest.approx(1.0, abs=1e-6)
