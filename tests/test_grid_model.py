import warnings

import numpy as np
import pytest

from dispersion_lab.errors import DomainError, ValidationError
from dispersion_lab.grid_model import (
    L_BOX_MAX,
    Grid,
    PotentialGrid,
    PotentialSpec,
    sample_potential,
    simpson_weights,
)

from conftest import GAUSS31, SECH21, ZERO


# the grids the configs and the benchmark cases run: (n_points, l_box)
GRIDS = [(2048, 40.0), (3072, 100.0), (1024, 30.0), (1024, 40.0), (4001, 20.0), (4097, 15.0), (512, 40.0)]
BOXES = sorted({l_box for _, l_box in GRIDS})


class TestGrid:
    def test_spacing_and_symmetry(self):
        g = Grid(l_box=10.0, n_points=101)
        assert g.h == pytest.approx(0.2)
        assert np.allclose(g.x, -g.x[::-1])

    @pytest.mark.parametrize("n", [16, 17, 512, 513, 1024, 2048, 3072, 4001, 4097, 8192])
    @pytest.mark.parametrize("l_box", [40.0, 100.0, 3.7, 1e-3])
    def test_mirror_exact(self, n, l_box):
        x = Grid(l_box=l_box, n_points=n).x
        assert np.array_equal(x, -x[::-1])
        assert x[0] == -l_box and x[-1] == l_box
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("l_box", BOXES + [3.7, 54.4])
    def test_within_two_ulps_of_linspace(self, l_box):
        # mirroring moved a node by at most 2 ulps of l_box in a scan of
        # n = 16..8192 on about 100 boxes in [0.01, 1000]: 0.8 l_box eps at
        # l_box = 40 and 20, up to 1.37 l_box eps on other boxes
        for n in list(range(16, 1025)) + [2048, 3072, 4001, 4097, 8192]:
            x = Grid(l_box=l_box, n_points=n).x
            assert np.abs(x - np.linspace(-l_box, l_box, n)).max() <= 2 * np.spacing(l_box)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            Grid(l_box=1.0, n_points=15)

    def test_bad_half_width_rejected(self):
        with pytest.raises(ValidationError):
            Grid(l_box=0.0, n_points=64)

    @pytest.mark.parametrize("l_box", [np.inf, np.nan, 1e308, np.nextafter(L_BOX_MAX, np.inf)])
    def test_box_length_must_be_finite(self, l_box):
        # above L_BOX_MAX the box length 2 l_box overflows: h would be inf, x NaN
        with pytest.raises(ValidationError):
            Grid(l_box=l_box, n_points=64)
        g = Grid(l_box=L_BOX_MAX, n_points=64)
        assert np.isfinite(2.0 * g.l_box) and np.isfinite(g.h)


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

    def test_sech_squared_on_a_wide_box_warns_nothing(self):
        # cosh(x)^2 overflows past |x| ~ 355; the sample there is an exact 0
        g = Grid(l_box=800.0, n_points=1601)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = sample_potential(SECH21, g).values
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy's overflow warnings, unguarded
            unguarded = -2.0 / np.cosh(g.x) ** 2
        assert np.array_equal(v, unguarded) and np.all(v[np.abs(g.x) > 400] == 0.0)

    @pytest.mark.parametrize("spec", [GAUSS31, SECH21, PotentialSpec("square_well", -1.0, 2.0)])
    @pytest.mark.parametrize("n, l_box", GRIDS)
    def test_even_families_are_palindromes_on_every_run_grid(self, spec, n, l_box):
        v = sample_potential(spec, Grid(l_box=l_box, n_points=n)).values
        assert np.array_equal(v, v[::-1])

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


class TestL1Norm:
    """||V||_1 is simpson_weights applied to |V|: against closed forms on an
    odd and an even grid (the even one ends in a trapezoid panel), where the
    largest relative error measured was 6.7e-16 over n in {1024, 1025,
    4001, 4096}."""

    @pytest.mark.parametrize("n", [4001, 4096])
    @pytest.mark.parametrize(
        "spec, exact",
        [
            (PotentialSpec("gaussian", 3.0, 1.0), 3.0 * np.sqrt(np.pi)),  # A w sqrt(pi)
            (PotentialSpec("gaussian", -0.7, 2.5), 0.7 * 2.5 * np.sqrt(np.pi)),
            (PotentialSpec("sech_squared", -2.0, 1.0), 4.0),  # 2 |A| w
            (PotentialSpec("sech_squared", 1.5, 0.8), 2.0 * 1.5 * 0.8),
        ],
    )
    def test_closed_forms(self, n, spec, exact):
        V = sample_potential(spec, Grid(l_box=30.0, n_points=n))
        assert V.l1_norm() == pytest.approx(exact, rel=1e-13)
        # the same weights as the time quadratures
        w = simpson_weights(n, V.grid.h)
        assert V.l1_norm() == pytest.approx(w @ np.abs(V.values), rel=1e-14)


class TestBornThreshold:
    def test_is_the_squared_l1_norm(self):
        V = sample_potential(GAUSS31, Grid(l_box=20.0, n_points=512))
        assert V.born_threshold() == V.l1_norm() ** 2

    # ||V||_1 = 1.77e160 and 1.77e308 square past the float range; the table's
    # Simpson sum itself overflows, with no numpy warning
    @pytest.mark.parametrize(
        "spec",
        [
            PotentialSpec("gaussian", 1e160, 1.0),
            PotentialSpec("gaussian", 1e308, 1.0),
            PotentialSpec("custom_table", table=((-30.0, 1e308), (30.0, 1e308))),
        ],
    )
    def test_overflow_is_a_domain_error(self, spec):
        V = sample_potential(spec, Grid(l_box=20.0, n_points=64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="threshold"):
                V.born_threshold()


class TestSimpsonWeights:
    """The one weight function behind ||V||_1 and the time quadratures."""

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

    @pytest.mark.parametrize("n", list(range(3, 41)) + [1024, 2048, 3072, 4001, 4097])
    def test_rule_at_every_point_count(self, n):
        """Odd n: exact on cubics and scipy's Simpson up to rounding.  Even n:
        Simpson on the first n-1 points plus a trapezoid on the last panel,
        exact on lines.  The largest relative error measured over these n was
        5.3e-16; l1_norm is the same weighted sum, to the bit."""
        from scipy.integrate import simpson

        rng = np.random.default_rng(n)
        for _ in range(5):
            y = np.abs(rng.normal(size=n)) * rng.uniform(0.1, 1e3)
            h = rng.uniform(1e-4, 2.0)
            w = simpson_weights(n, h)
            x = h * np.arange(n)
            length = (n - 1) * h
            for k in range(4 if n % 2 else 2):
                exact = length ** (k + 1) / (k + 1)
                assert np.sum(w * x**k) == pytest.approx(exact, rel=1e-14)
            if n % 2:
                assert np.sum(w * y) == pytest.approx(simpson(y, dx=h), rel=1e-14)
            else:
                head = simpson_weights(n - 1, h)
                assert np.array_equal(w[:-2], head[:-1])
                assert w[-2] == head[-1] + h / 2.0 and w[-1] == h / 2.0
            if n >= 16:
                V = PotentialGrid(Grid(l_box=(n - 1) * h / 2.0, n_points=n), y)
                assert V.l1_norm() == float(np.sum(simpson_weights(n, V.grid.h) * y))


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
