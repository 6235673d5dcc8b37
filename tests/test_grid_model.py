import numpy as np
import pytest
from scipy.integrate import quad

from dispersion_lab.errors import DomainError, ValidationError
from dispersion_lab.grid_model import (
    Grid,
    PotentialSpec,
    _simpson,
    _simpson_weighted,
    lambda0,
    sample_potential,
    weighted_l1_norm,
)

from conftest import GAUSS31, SECH21, ZERO


def quad_oracle(spec, j, box=60.0):
    """Independent adaptive-quadrature evaluation of the weighted norm."""
    val, _ = quad(
        lambda x: abs(spec(np.array([x]))[0]) * (1 + abs(x)) ** j,
        -box,
        box,
        limit=400,
    )
    return val


class TestGrid:
    def test_spacing_and_symmetry(self):
        g = Grid(l_box=10.0, n_points=101)
        assert g.h == pytest.approx(0.2)
        assert np.allclose(g.x, -g.x[::-1])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            Grid(l_box=1.0, n_points=15)

    def test_bad_half_width_rejected(self):
        with pytest.raises(ValidationError):
            Grid(l_box=0.0, n_points=64)


class TestSamplePotential:
    def test_zero_family_all_zeros(self):
        g = Grid(l_box=5.0, n_points=64)
        assert not np.any(sample_potential(ZERO, g).values)

    def test_gaussian_center_value(self):
        g = Grid(l_box=5.0, n_points=101)
        V = sample_potential(GAUSS31, g)
        assert V.values[50] == pytest.approx(3.0)

    def test_sech_squared_center_value(self):
        g = Grid(l_box=5.0, n_points=101)
        V = sample_potential(SECH21, g)
        assert V.values[50] == pytest.approx(-2.0)

    @pytest.mark.parametrize("spec", [GAUSS31, SECH21, PotentialSpec("square_well", -1.0, 2.0)])
    def test_even_families_sample_symmetric(self, spec):
        g = Grid(l_box=8.0, n_points=257)
        v = sample_potential(spec, g).values
        assert np.array_equal(v, v[::-1])

    def test_custom_table_interpolates(self):
        spec = PotentialSpec("custom_table", table=((-2.0, 0.0), (0.0, 4.0), (2.0, 0.0)))
        g = Grid(l_box=2.0, n_points=17)
        v = sample_potential(spec, g).values
        assert v[8] == pytest.approx(4.0)
        assert v[12] == pytest.approx(2.0)  # halfway down the ramp

    def test_custom_table_must_cover_box(self):
        spec = PotentialSpec("custom_table", table=((-1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(DomainError):
            sample_potential(spec, Grid(l_box=2.0, n_points=32))

    def test_unsorted_table_rejected(self):
        with pytest.raises(ValidationError):
            PotentialSpec("custom_table", table=((1.0, 0.0), (-1.0, 0.0)))

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            PotentialSpec("gaussian", amplitude=float("inf"), width=1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            PotentialSpec("coulomb", amplitude=1.0)


class TestWeightedNorm:
    def test_zero_potential_all_j(self):
        for j in (0, 1, 2):
            assert weighted_l1_norm(ZERO, j) == 0.0

    def test_gaussian_l1_closed_form(self):
        # oracle: adaptive quadrature of |3 e^{-x^2}|, equals 3 sqrt(pi)
        oracle = quad_oracle(GAUSS31, 0)
        assert oracle == pytest.approx(3.0 * np.sqrt(np.pi), rel=1e-10)
        assert weighted_l1_norm(GAUSS31, 0) == pytest.approx(oracle, rel=1e-9)

    def test_sech_squared_l1_antiderivative(self):
        # antiderivative of 2 sech^2 is 2 tanh: the full-line integral is 4
        oracle = 2.0 * (np.tanh(60.0) - np.tanh(-60.0))
        assert oracle == pytest.approx(4.0, abs=1e-12)
        assert weighted_l1_norm(SECH21, 0) == pytest.approx(4.0, rel=1e-9)

    def test_square_well_l1(self):
        spec = PotentialSpec("square_well", amplitude=-1.5, width=2.0)
        assert weighted_l1_norm(spec, 0) == pytest.approx(6.0, rel=1e-3)

    def test_weighted_j1_quadrature_oracle(self):
        assert weighted_l1_norm(GAUSS31, 1) == pytest.approx(quad_oracle(GAUSS31, 1), rel=1e-8)

    @pytest.mark.parametrize("spec", [GAUSS31, SECH21, PotentialSpec("square_well", 2.0, 1.0)])
    def test_monotone_in_j(self, spec):
        v0 = weighted_l1_norm(spec, 0)
        v1 = weighted_l1_norm(spec, 1)
        v2 = weighted_l1_norm(spec, 2)
        assert v0 <= v1 <= v2

    @pytest.mark.parametrize("spec", [GAUSS31, SECH21])
    def test_box_doubling_converged(self, spec):
        w = spec.width
        a = _simpson_weighted(spec, 1, 20.0 * w, w / 1024.0)
        b = _simpson_weighted(spec, 1, 40.0 * w, w / 1024.0)
        assert abs(a - b) < 1e-10

    def test_bad_j_rejected(self):
        with pytest.raises(DomainError):
            weighted_l1_norm(GAUSS31, 3)


class TestSimpsonRule:
    @pytest.mark.parametrize("n", list(range(3, 41)) + [1024, 2048, 3072, 4001, 4097])
    def test_equals_scipy_simpson_exactly(self, n):
        from scipy.integrate import simpson

        rng = np.random.default_rng(n)
        for _ in range(5):
            y = np.abs(rng.normal(size=n)) * rng.uniform(0.1, 1e3)
            h = rng.uniform(1e-4, 2.0)
            assert _simpson(y, h) == simpson(y, dx=h)

    def test_l1_norm_equals_scipy_simpson_exactly(self, gauss_pot):
        from scipy.integrate import simpson

        even = sample_potential(GAUSS31, Grid(l_box=15.0, n_points=4096))
        for V in (gauss_pot, even):
            assert V.l1_norm() == float(simpson(np.abs(V.values), dx=V.grid.h))


class TestLambda0:
    def test_zero(self):
        assert lambda0(ZERO) == 0.0

    def test_sech_squared(self):
        assert lambda0(SECH21) == pytest.approx(16.0, rel=1e-8)

    def test_gaussian(self):
        assert lambda0(GAUSS31) == pytest.approx(9.0 * np.pi, rel=1e-8)
