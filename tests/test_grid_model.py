import numpy as np
import pytest

from dispersion_lab.errors import DomainError, ValidationError
from dispersion_lab.grid_model import (
    Grid,
    PotentialSpec,
    _simpson,
    sample_potential,
    simpson_weights,
)

from conftest import GAUSS31, SECH21, ZERO


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


class TestSimpsonWeights:
    """The one weight function behind the Born series and the time quadratures."""

    @pytest.mark.parametrize("n", [16, 17, 2048, 4097])
    def test_integrates_one_and_x_exactly(self, n):
        h = 80.0 / (n - 1)
        w = simpson_weights(n, h)
        assert w.shape == (n,)
        length = (n - 1) * h
        assert np.sum(w) == pytest.approx(length, rel=1e-13)
        assert w @ (h * np.arange(n)) == pytest.approx(length**2 / 2.0, rel=1e-13)

    @pytest.mark.parametrize("n", [17, 1025, 2049, 4001, 4097])
    def test_odd_point_count_is_plain_simpson(self, n):
        h = 30.0 / (n - 1)
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        assert np.array_equal(simpson_weights(n, h), w * h / 3.0)

    def test_two_points_are_the_trapezoid(self):
        assert np.array_equal(simpson_weights(2, 0.5), [0.25, 0.25])


class TestLambda0:
    """The Born threshold lambda0 = ||V||_1^2, from the grid L1 norm that
    scatter-sweep and born-check report, against closed forms."""

    def test_zero(self, zero_pot):
        assert zero_pot.l1_norm() ** 2 == 0.0

    def test_sech_squared(self, sech_pot):
        # the antiderivative of 2 sech^2 is 2 tanh: ||V||_1 = 4 on the line
        assert sech_pot.l1_norm() ** 2 == pytest.approx(16.0, rel=1e-8)

    def test_gaussian(self, gauss_pot):
        # ||3 e^{-x^2}||_1 = 3 sqrt(pi)
        assert gauss_pot.l1_norm() ** 2 == pytest.approx(9.0 * np.pi, rel=1e-8)

    def test_square_well(self):
        # Simpson's error is O(h) at the jumps
        V = sample_potential(PotentialSpec("square_well", -1.5, 2.0), Grid(4.0, 8001))
        assert V.l1_norm() ** 2 == pytest.approx(36.0, rel=1e-3)
