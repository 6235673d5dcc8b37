import math

import numpy as np
import pytest
from scipy.integrate import quad

from dispersion_lab import _parallel, spectral_operator
from dispersion_lab.errors import (
    ConditioningError,
    ContractViolationError,
    DomainError,
    HypothesisViolationWarning,
)
from dispersion_lab.estimates import (
    admissible_pair,
    convolution_lemma_experiment,
    dispersive_experiment,
    expectation_decay_experiment,
    fit_decay_exponent,
    fit_report,
    gaussian_packet,
    holder_conjugate,
    lp_norm_x,
    mixed_norm,
    mu_homogeneous,
    mu_inhomogeneous,
    odd_packet,
    percentile,
    strichartz_homogeneous_experiment,
    strichartz_inhomogeneous_experiment,
)
from dispersion_lab.grid_model import Grid, sample_potential, sorted_unique
from dispersion_lab.spectral_operator import build_hamiltonian
from dispersion_lab.stochastic import sample_brownian

from conftest import HALF_INVERSE_MOMENT, ZERO, half_inverse_moment_report

INF = math.inf


class TestLpNorm:
    def test_indicator_l1(self):
        grid = Grid(l_box=2.0, n_points=4001)
        u = ((grid.x >= 0) & (grid.x <= 1)).astype(float)
        assert abs(lp_norm_x(u, 1.0, grid) - 1.0) <= 1.5 * grid.h

    def test_indicator_sup(self):
        grid = Grid(l_box=2.0, n_points=4001)
        u = ((grid.x >= 0) & (grid.x <= 1)).astype(float)
        assert lp_norm_x(u, INF, grid) == 1.0

    def test_gaussian_l2_quadrature_oracle(self):
        grid = Grid(l_box=12.0, n_points=8001)
        u = np.exp(-grid.x**2)
        oracle = quad(lambda x: np.exp(-2 * x * x), -12, 12)[0] ** 0.5
        assert oracle == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-12)
        assert lp_norm_x(u, 2.0, grid) == pytest.approx(oracle, abs=1e-6)

    def test_p_below_one_rejected(self):
        grid = Grid(l_box=1.0, n_points=16)
        with pytest.raises(DomainError):
            lp_norm_x(np.ones(16), 0.5, grid)

    def test_monotone_under_domination(self, rng):
        grid = Grid(l_box=3.0, n_points=128)
        for _ in range(20):
            w = rng.normal(size=128) + 1j * rng.normal(size=128)
            shrink = rng.uniform(0.0, 1.0, size=128)
            u = w * shrink
            for p in (1.0, 2.0, 4.0, INF):
                assert lp_norm_x(u, p, grid) <= lp_norm_x(w, p, grid) + 1e-12


class TestMixedNorm:
    def test_constant_samples(self):
        times = np.linspace(0.0, 2.0, 65)
        samples = np.ones((5, 65))
        assert mixed_norm(samples, times, 3.0, 4.0) == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_single_sample_reduces_to_space_norm(self):
        val = mixed_norm(np.array([[7.5]]), np.array([0.0]), 2.0, 2.0)
        assert val == 7.5

    def test_two_path_power_mean(self):
        times = np.linspace(0.0, 1.0, 3)
        samples = np.vstack([np.full(3, 2.0), np.full(3, 4.0)])
        assert mixed_norm(samples, times, 2.0, INF) == pytest.approx(np.sqrt((4.0 + 16.0) / 2.0))

    def test_inf_over_paths(self):
        times = np.linspace(0.0, 1.0, 3)
        samples = np.vstack([np.full(3, 2.0), np.full(3, 4.0)])
        assert mixed_norm(samples, times, INF, INF) == 4.0

    @pytest.mark.parametrize("rho, r", [(0.5, 2.0), (2.0, 0.5), (0.0, INF)])
    def test_exponent_below_one_rejected(self, rho, r):
        with pytest.raises(DomainError, match="exponents must be >= 1 or inf"):
            mixed_norm(np.ones((1, 5)), np.linspace(0, 1, 5), rho, r)

    @pytest.mark.parametrize("start", [0.25, -0.25, 1e-300])
    def test_times_not_starting_at_zero_rejected(self, start):
        # the window is [0, times[-1]]: samples that start elsewhere miss part of it
        with pytest.raises(DomainError, match="sample times must start at 0"):
            mixed_norm(np.ones((1, 5)), np.linspace(start, 1, 5), 2.0, 2.0)
        with pytest.raises(DomainError, match="sample times must start at 0"):
            mixed_norm(np.array([[7.5]]), np.array([start]), 2.0, 2.0)

    def test_monotone_under_domination(self, rng):
        times = np.linspace(0.0, 1.0, 17)
        for _ in range(10):
            big = rng.uniform(0.5, 2.0, size=(4, 17))
            small = big * rng.uniform(0.0, 1.0, size=(4, 17))
            assert mixed_norm(small, times, 3.0, 2.0) <= mixed_norm(big, times, 3.0, 2.0) + 1e-12


class TestAdmissibilityAndMu:
    def test_holder_conjugates(self):
        assert holder_conjugate(1.0) == INF
        assert holder_conjugate(INF) == 1.0
        assert holder_conjugate(4.0) == pytest.approx(4.0 / 3.0)

    def test_endpoint_pair(self):
        assert admissible_pair(INF, 2.0) is True
        assert admissible_pair(INF, 4.0) is False

    def test_strict_inequality(self):
        assert admissible_pair(4.0, 4.0) is True
        assert admissible_pair(8.0, 4.0) is False  # 1/4 > 1/4 fails

    def test_below_two_rejected(self):
        assert admissible_pair(1.5, 4.0) is False
        assert admissible_pair(4.0, 1.5) is False

    def test_mu_values(self):
        assert mu_inhomogeneous(4.0, 4.0) == pytest.approx(3.0 / 8.0)
        assert mu_homogeneous(4.0, 4.0) == pytest.approx(3.0 / 8.0)
        assert mu_inhomogeneous(INF, 2.0) == pytest.approx(0.0)
        assert mu_homogeneous(INF, 2.0) == pytest.approx(0.0)
        assert mu_inhomogeneous(2.0, 2.0) == pytest.approx(1.0)
        assert mu_homogeneous(2.0, 2.0) == pytest.approx(1.0)

    def test_inadmissible_rejected(self):
        with pytest.raises(DomainError):
            mu_inhomogeneous(8.0, 4.0)
        with pytest.raises(DomainError):
            mu_homogeneous(8.0, 4.0)


class TestFitDecayExponent:
    def test_exact_half_power(self):
        a = np.geomspace(1.0, 100.0, 12)
        rep = fit_decay_exponent(a, a**-0.5)
        assert rep.fitted_slope == pytest.approx(-0.5, abs=1e-12)
        assert rep.slope_ci_95[1] - rep.slope_ci_95[0] < 1e-12

    def test_exact_quarter_power_with_constant(self):
        a = np.geomspace(0.5, 50.0, 10)
        rep = fit_decay_exponent(a, 3.0 * a**-0.25)
        assert rep.fitted_slope == pytest.approx(-0.25, abs=1e-12)
        assert rep.fitted_intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_noisy_power_recovers_slope(self, rng):
        a = np.geomspace(1.0, 200.0, 40)
        v = a**-0.5 * (1.0 + 0.01 * rng.normal(size=40))
        rep = fit_decay_exponent(a, v)
        assert -0.52 <= rep.fitted_slope <= -0.48
        lo, hi = rep.slope_ci_95
        assert lo <= rep.fitted_slope <= hi

    def test_span_guard(self):
        a = np.geomspace(1.0, 5.0, 12)
        with pytest.raises(ConditioningError):
            fit_decay_exponent(a, a**-0.5)

    def test_count_guard(self):
        a = np.geomspace(1.0, 100.0, 5)
        with pytest.raises(ConditioningError):
            fit_decay_exponent(a, a**-0.5)

    def test_positivity_guard(self):
        a = np.geomspace(1.0, 100.0, 10)
        v = a**-0.5
        v[3] = -1.0
        with pytest.raises(DomainError):
            fit_decay_exponent(a, v)

    def test_finiteness_guard(self):
        a = np.geomspace(1.0, 100.0, 10)
        v = a**-0.5
        v[3] = np.inf
        with pytest.raises(DomainError, match="finite"):
            fit_decay_exponent(a, v)


class TestNumpyMaFreeOrderStatistics:
    """percentile and sorted_unique against the numpy calls they replace."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 399, 400])
    def test_percentile_is_numpy_percentile_bit_for_bit(self, rng, n):
        for scale in (1e-3, 1.0, 1e5):
            x = scale * rng.normal(size=n)
            x[: n // 3] = np.round(x[: n // 3], 1) + 0.05 * scale  # ties, no zeros
            for q in (0.0, 2.5, 12.5, 50.0, 97.5, 100.0):
                assert np.float64(percentile(x, q)).tobytes() == np.percentile(x, q).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 5, 100])
    def test_sorted_unique_is_numpy_unique(self, rng, n):
        a = rng.integers(-5, 5, size=n)
        got, want = sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestFitReport:
    def test_fit_carries_sampling_and_extras(self):
        a = np.geomspace(1.0, 100.0, 12)
        rep = fit_report(a, a**-0.5, 7, 11, tag="x")
        assert rep.fitted_slope == pytest.approx(-0.5, abs=1e-12)
        assert (rep.n_paths, rep.seed, rep.extras) == (7, 11, {"tag": "x"})

    @pytest.mark.parametrize(
        "values, reason",
        [
            ([1.0, 0.5, 0.25], "need at least 8 pairs, got 3"),
            ([1.0, np.inf, 0.25], "log-log fit needs finite abscissa and values"),
            ([1.0, np.nan, 0.25], "log-log fit needs finite abscissa and values"),
        ],
    )
    def test_unsupported_fit_is_degenerate(self, values, reason):
        a = np.array([1.0, 10.0, 100.0])
        rep = fit_report(a, values, 7, 11, tag="x")
        assert math.isnan(rep.fitted_slope) and all(map(math.isnan, rep.slope_ci_95))
        assert rep.extras == {"degenerate": True, "degenerate_reason": reason, "tag": "x"}
        assert (rep.n_paths, rep.seed) == (7, 11)

    def test_reason_skips_the_fit(self):
        a = np.geomspace(1.0, 100.0, 12)
        rep = fit_report(a, a**-0.5, 7, 11, reason="nothing to fit")
        assert math.isnan(rep.fitted_slope)
        assert rep.extras == {"degenerate": True, "degenerate_reason": "nothing to fit"}


class TestDispersiveExperiment:
    def test_free_slope_small(self, ham_free_2048):
        ens = sample_brownian(8.0, 128, 60, seed=42)
        u0 = gaussian_packet(ham_free_2048.grid, width=0.5)
        rep = dispersive_experiment(ham_free_2048, ens, u0, n_time_samples=12)
        assert -0.55 <= rep.fitted_slope <= -0.44
        assert rep.extras["resonant"] is False

    def test_censoring_sensitivity(self, ham_free_2048):
        # halving beta_min moves the fitted slope by < 0.02
        ens = sample_brownian(8.0, 128, 60, seed=42)
        u0 = gaussian_packet(ham_free_2048.grid, width=0.5)
        bm = 2.0 * np.pi * ham_free_2048.grid.h
        r1 = dispersive_experiment(ham_free_2048, ens, u0, beta_min=bm, n_time_samples=12)
        r2 = dispersive_experiment(ham_free_2048, ens, u0, beta_min=bm / 2, n_time_samples=12)
        assert abs(r1.fitted_slope - r2.fitted_slope) < 0.02

    def test_resonant_potential_flagged(self, ham_sech_1024_l30):
        ens = sample_brownian(4.0, 64, 4, seed=3)
        u0 = gaussian_packet(ham_sech_1024_l30.grid, width=0.5)
        with pytest.warns(HypothesisViolationWarning):
            rep = dispersive_experiment(ham_sech_1024_l30, ens, u0, n_time_samples=8)
        assert rep.extras["resonant"] is True

    def test_projected_bound_state_degenerate(self, ham_sech_4096):
        H = ham_sech_4096
        u0 = H.eigenvectors[:, H.bound_state_indices[0]].astype(complex)
        ens = sample_brownian(4.0, 32, 3, seed=5)
        with pytest.warns(HypothesisViolationWarning):
            rep = dispersive_experiment(H, ens, u0, n_time_samples=8)
        assert rep.extras.get("degenerate") is True
        assert math.isnan(rep.fitted_slope)


class TestExpectationDecay:
    def test_p_out_of_range(self, ham_free_2048):
        ens = sample_brownian(2.0, 16, 2, seed=1)
        u0 = gaussian_packet(ham_free_2048.grid, width=0.5)
        with pytest.raises(DomainError):
            expectation_decay_experiment(ham_free_2048, ens, u0, p=2.0)

    def test_abscissa_only_matches_quadrature(self):
        # E|beta(t)|^{-1/2} = E|Z|^{-1/2} t^{-1/4}; the quadrature constant
        # anchors the Monte Carlo means, taken at an expectation report's
        # sample times (which a small grid gives as well as any)
        ens = sample_brownian(16.0, 512, 1000, seed=14)
        H = build_hamiltonian(sample_potential(ZERO, Grid(l_box=10.0, n_points=64)))
        times = expectation_decay_experiment(H, ens, gaussian_packet(H.grid, width=0.5)).abscissa
        rep = half_inverse_moment_report(ens, times)
        assert -0.28 <= rep.fitted_slope <= -0.22
        ratios = rep.values / (HALF_INVERSE_MOMENT * rep.abscissa**-0.25)
        assert abs(np.median(ratios) - 1.0) < 0.1


def test_half_inverse_moment_equals_quadrature():
    # the closed form 2^(-1/4) Gamma(1/4) / sqrt(pi) against adaptive quadrature
    val, _ = quad(
        lambda z: z**-0.5 * np.exp(-0.5 * z * z) * np.sqrt(2.0 / np.pi),
        0.0,
        12.0,
        points=[0.0],
        limit=200,
    )
    assert HALF_INVERSE_MOMENT == pytest.approx(val, rel=1e-12)


class TestConvolutionLemma:
    def test_alpha_zero_exact(self):
        horizons = 0.25 * 2.0 ** np.arange(0, 4.5, 0.5)
        rep = convolution_lemma_experiment(0.0, horizons, n_steps=64, n_paths=3, seed=1)
        assert rep.fitted_slope == pytest.approx(3.0, abs=0.01)
        assert np.allclose(rep.values, horizons**3 / 3.0, rtol=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            convolution_lemma_experiment(1.0, [0.5, 1.0], n_steps=8, n_paths=2, seed=0)

    def test_runs_without_the_worker_pool(self, monkeypatch):
        # its per-path kernels hold the GIL, so the paths run in a plain loop
        from dispersion_lab import estimates

        def no_pool(*args, **kwargs):
            raise AssertionError("the convolution lemma reached ordered_map")

        monkeypatch.setattr(estimates, "ordered_map", no_pool)
        horizons = np.array([0.5, 1.0, 2.0])
        rep = convolution_lemma_experiment(0.0, horizons, n_steps=16, n_paths=3, seed=1)
        assert np.allclose(rep.values, horizons**3 / 3.0, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_equals_full_matrix_kernel_exactly(self, alpha):
        from dispersion_lab.estimates import _sub_seed
        from dispersion_lab.grid_model import simpson_weights

        horizons = [0.5, 1.0, 2.0]
        n_steps, n_paths, seed = 32, 6, 4
        rep = convolution_lemma_experiment(
            alpha, horizons, n_steps=n_steps, n_paths=n_paths, seed=seed
        )
        expected = []
        for i, T in enumerate(horizons):
            # the per-path integrand as it was computed on the full matrix,
            # with the weight f = 1 of the lemma
            ens = sample_brownian(T, n_steps, n_paths, _sub_seed(seed, i))
            fs = np.ones(n_steps + 1)
            wq = simpson_weights(n_steps + 1, ens.dt)
            vals = []
            for b in ens.values:
                diff = np.abs(b[:, None] - b[None, :])
                lower = np.tril(np.ones_like(diff, dtype=bool), -1)
                with np.errstate(divide="ignore"):
                    kern = np.where(lower, diff ** (-alpha), 0.0)
                g = (kern * np.abs(fs)[None, :]).sum(axis=1) * ens.dt
                vals.append(float(np.sum(wq * g**2)))
            expected.append(float(np.mean(vals)))
        assert np.array_equal(rep.values, expected)

    def test_alpha_half_scaling_small(self):
        horizons = 0.25 * 2.0 ** np.arange(0, 4.5, 0.5)
        rep = convolution_lemma_experiment(0.5, horizons, n_steps=64, n_paths=120, seed=2)
        assert 2.3 <= rep.fitted_slope <= 2.7
        assert rep.extras["ratio_max_min"] < 3.0


class TestStrichartz:
    def test_exact_l2_case(self, ham_free_1024_l30):
        u0 = gaussian_packet(ham_free_1024_l30.grid, width=0.5)
        rep = strichartz_homogeneous_experiment(
            ham_free_1024_l30, u0, 2.0, 2.0, [0.5, 1.0, 2.0], n_steps=64, n_paths=4, seed=9
        )
        assert np.allclose(rep.values, np.sqrt(rep.abscissa), atol=1e-9)

    def test_inadmissible_rejected(self, ham_free_1024_l30):
        u0 = gaussian_packet(ham_free_1024_l30.grid, width=0.5)
        with pytest.raises(DomainError):
            strichartz_homogeneous_experiment(
                ham_free_1024_l30, u0, 8.0, 4.0, [0.5, 1.0], n_steps=16, n_paths=2, seed=0
            )

    def test_r_infinity_out_of_scope(self, ham_free_1024_l30):
        u0 = gaussian_packet(ham_free_1024_l30.grid, width=0.5)
        with pytest.raises(DomainError):
            strichartz_homogeneous_experiment(
                ham_free_1024_l30, u0, INF, 2.0, [0.5, 1.0], n_steps=16, n_paths=2, seed=0
            )

    def test_inhom_forcing_contract(self, ham_free_1024_l30):
        with pytest.raises(ContractViolationError):
            strichartz_inhomogeneous_experiment(
                ham_free_1024_l30,
                lambda t: t,  # path-dependent callables are rejected
                2.0,
                4.0,
                4.0,
                [0.5, 1.0],
                n_steps=16,
                n_paths=2,
                seed=0,
            )

    def test_inhom_zero_forcing(self, ham_free_1024_l30):
        g = np.zeros(ham_free_1024_l30.n)
        rep = strichartz_inhomogeneous_experiment(
            ham_free_1024_l30, g, 2.0, 4.0, 4.0, [0.5, 1.0, 2.0], n_steps=32, n_paths=2, seed=0
        )
        assert np.all(rep.values == 0.0)
        assert math.isnan(rep.fitted_slope)
        assert rep.extras.get("degenerate") is True

    def test_inhom_equals_direct_duhamel_sum(self, ham_free_1024_l30):
        # the experiment keeps only the modes above 1e-12 of the largest
        # amplitude; the direct sum propagates every mode
        H = ham_free_1024_l30
        rep = assert_inhom_equals_direct_sum(H, gaussian_packet(H.grid, width=1.0), project=False)
        assert rep.extras["n_modes"] < H.n // 2

    def test_inhom_projected_equals_direct_duhamel_sum(self, ham_sech_1024_l30):
        H = ham_sech_1024_l30
        assert_inhom_equals_direct_sum(H, odd_packet(H.grid, width=1.0) + 0.5, project=True)


def assert_inhom_equals_direct_sum(H, g, project):
    """The forced term at t_k is dt * sum_{s_j < t_k} S(t_k, s_j) P_ac g: sum
    the propagated states directly and compare the window norm."""
    from dispersion_lab.estimates import _sub_seed, lp_norms_columns
    from dispersion_lab.spectral_operator import evolve, occupied_modes

    n_steps, n_paths, T, seed = 32, 2, 1.0, 77
    rep = strichartz_inhomogeneous_experiment(
        H, g, 2.0, 4.0, 4.0, [T], n_steps=n_steps, n_paths=n_paths, seed=seed, project=project
    )
    ens = sample_brownian(T, n_steps, n_paths, seed=_sub_seed(seed, 0))
    modes = occupied_modes(H, g, project)
    norms = np.zeros((n_paths, n_steps + 1))
    for pi, b in enumerate(ens.values):
        states = np.zeros((H.n, n_steps + 1), dtype=complex)
        for k in range(1, n_steps + 1):
            states[:, k] = ens.dt * evolve(modes, b[k] - b[:k]).sum(axis=1)
        norms[pi] = lp_norms_columns(states, 4.0, H.grid)
    expect = mixed_norm(norms, ens.times, 2.0, 4.0)
    assert rep.values[0] == pytest.approx(expect, rel=1e-10)
    return rep


def per_path_duhamel_tables(modes, ens):
    """The coefficient tables of the per-path Duhamel closure the kernel
    replaced: exp(+i E b) from its own outer product, the shifted running
    sum, then the phases e^{-i b E} of the same path."""
    for b in ens.values:
        csum = np.cumsum(np.exp(1j * np.outer(modes.energies, b)) * modes.coef[:, None], axis=1)
        duh = np.zeros_like(csum)
        duh[:, 1:] = ens.dt * csum[:, :-1]  # strictly s < t
        yield np.exp(-1j * np.outer(modes.energies, b)) * duh


def row_fold_norms(panels, p, grid):
    """lp_norms_columns as it read RowPanels before the mirror reuse: |.|
    and |.|^p of every block of the product, folded in row order."""
    acc = None
    for a in map(np.abs, panels):
        if p == INF:
            acc = a.max(axis=0) if acc is None else np.maximum(acc, a.max(axis=0))
        else:
            a = a**p
            acc = np.sum(a if acc is None else np.vstack([acc, a]), axis=0)
    return acc if p == INF else (grid.h * acc) ** (1.0 / p)


class TestDuhamelKernel:
    """duhamel against the per-path closure it replaced.

    A GEMM's column results depend in the last bits on where the column
    sits in the product (OpenBLAS runs the last columns through narrower
    kernels), so the reference reduces each group's tables with one
    product, as the kernel does.  Reduced one path at a time the norms
    agree to round-off.
    """

    N_STEPS, N_PATHS = 32, 20  # groups of 512 // 33 = 15 paths: 15 + a ragged 5

    def check(self, H, f, project, p, workers, chunk=spectral_operator._TAU_CHUNK):
        from dispersion_lab.estimates import lp_norms_columns
        from dispersion_lab.spectral_operator import RowPanels, duhamel, occupied_modes

        modes = occupied_modes(H, f, project, mode_tol=1e-12)
        ens = sample_brownian(1.0, self.N_STEPS, self.N_PATHS, seed=91)
        group = max(1, chunk // (self.N_STEPS + 1))
        tables = list(per_path_duhamel_tables(modes, ens))
        want = np.concatenate([
            row_fold_norms(RowPanels(modes.basis, np.hstack(tables[i : i + group])), p, H.grid)
            for i in range(0, self.N_PATHS, group)
        ]).reshape(ens.values.shape)
        runs = []
        reduce = lambda states: lp_norms_columns(states, p, H.grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral_operator, "_TAU_CHUNK", chunk)
            for n in (1, 2):
                with workers(n):
                    runs.append(duhamel(modes, ens.values, ens.dt, reduce))
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], want)
        per_path = np.stack([row_fold_norms(RowPanels(modes.basis, t), p, H.grid) for t in tables])
        assert np.max(np.abs(per_path - want)) <= 1e-14 * np.abs(want).max()
        return modes

    @pytest.mark.parametrize("p", [2.0, 4.0, INF])
    @pytest.mark.parametrize("chunk", [512, 20], ids=["groups", "chunk-below-path"])
    def test_free_split_one_parity(self, ham_free_1024_l30, workers, p, chunk):
        H = ham_free_1024_l30
        odd = self.check(H, odd_packet(H.grid, width=1.0), False, p, workers, chunk)
        assert odd.basis.even.shape[1] == 0 < odd.basis.odd.shape[1]
        even = self.check(H, gaussian_packet(H.grid, width=1.0), False, p, workers, chunk)
        assert even.basis.odd.shape[1] == 0 < even.basis.even.shape[1]

    @pytest.mark.parametrize("p", [2.0, 4.0, INF])
    def test_free_split_mixed_parity(self, ham_free_1024_l30, workers, p):
        H = ham_free_1024_l30
        f = odd_packet(H.grid, width=1.0) + 0.3 * gaussian_packet(H.grid, width=1.0)
        modes = self.check(H, f, False, p, workers)
        assert modes.basis.even.shape[1] > 0 and modes.basis.odd.shape[1] > 0

    @pytest.mark.parametrize("p", [2.0, 4.0, INF])
    def test_unsplit_projected(self, ham_sech_1024_l30, workers, p):
        H = ham_sech_1024_l30
        assert H.basis.mirror_rows == 0 and len(H.bound_state_indices) > 0
        self.check(H, odd_packet(H.grid, width=1.0) + 0.5, True, p, workers)


class TestTimeResolutionStability:
    def test_doubling_time_grid_is_converged(self, ham_free_1024_l30):
        # Richardson-style check on one ensemble: the window norm from the
        # half-resolution time grid agrees with the full-resolution one
        from dispersion_lab.estimates import _space_norms_at_taus

        H = ham_free_1024_l30
        u0 = gaussian_packet(H.grid, width=0.5)
        u0 = u0 / lp_norm_x(u0, 2.0, H.grid)
        T, n_steps, n_paths = 2.0, 128, 16
        ens = sample_brownian(T, n_steps, n_paths, seed=33)
        norms = _space_norms_at_taus(H, u0, ens.values, 4.0, False, 1e-12)
        norms = norms.reshape(n_paths, n_steps + 1)
        full = mixed_norm(norms, ens.times, 4.0, 4.0)
        half = mixed_norm(norms[:, ::2], ens.times[::2], 4.0, 4.0)
        # the path norm is Holder-1/2 in t, so quadrature converges slowly;
        # stability at the percent level is what the window fits rely on
        assert abs(half - full) / full < 1e-2


class TestStreamedNormMemory:
    def test_reduced_block_holds_one_panel(self):
        # one 1024-tau block of a width-2 Gaussian (67 occupied modes) at
        # n = 2048: the sup norms stream over row panels, so the block never
        # holds its whole (n, 1024) complex states (32 MB)
        import tracemalloc

        from dispersion_lab.estimates import lp_norms_columns
        from dispersion_lab.grid_model import PotentialSpec, sample_potential
        from dispersion_lab.spectral_operator import build_hamiltonian, evolve, occupied_modes

        grid = Grid(l_box=40.0, n_points=2048)
        H = build_hamiltonian(sample_potential(PotentialSpec("zero"), grid))
        modes = occupied_modes(H, gaussian_packet(grid, width=2.0), mode_tol=1e-12)
        assert len(modes.energies) == 67
        taus = np.linspace(0.1, 5.0, 1024)
        whole_block = grid.n_points * len(taus) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            sup = evolve(modes, taus, reduce=lambda states: lp_norms_columns(states, INF, grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sup.shape == (1024,)
        assert peak < whole_block / 2

    def test_duhamel_window_holds_one_group(self):
        # 128 paths of 129 steps and the 201 modes of a width-0.5 Gaussian at
        # n = 1024: the window's coefficient tables would take 53 MB; one
        # worker holds a group of 512 // 129 = 3 paths, 1.2 MB per table,
        # and one panel of the group's states
        import tracemalloc

        from dispersion_lab.estimates import lp_norms_columns
        from dispersion_lab.grid_model import PotentialSpec
        from dispersion_lab.spectral_operator import duhamel, occupied_modes

        grid = Grid(l_box=30.0, n_points=1024)
        H = build_hamiltonian(sample_potential(PotentialSpec("zero"), grid))
        modes = occupied_modes(H, gaussian_packet(grid, width=0.5), mode_tol=1e-12)
        assert len(modes.energies) == 201
        ens = sample_brownian(4.0, 128, 128, seed=5)
        all_tables = len(modes.energies) * ens.values.size * np.dtype(complex).itemsize
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_parallel, "worker_count", lambda: 1)
            tracemalloc.start()
            try:
                reduce = lambda states: lp_norms_columns(states, 4.0, grid)
                norms = duhamel(modes, ens.values, ens.dt, reduce)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert norms.shape == (128, 129)
        assert peak < all_tables / 4

    def test_one_parity_datum_holds_one_half(self):
        # criterion 3's datum: an even width-0.18 packet at n = 3072 keeps
        # the 1315 lowest even modes at mode_tol 1e-6.  Only the even half
        # (1536 x 1536, 18.9 MB) is solved, and its kept run is a view, so
        # the peak is that half plus the eigensolve's workspace.  Solving
        # both halves and copying the kept columns held more than the two
        # halves plus the copy.
        import tracemalloc

        from dispersion_lab.grid_model import PotentialSpec
        from dispersion_lab.spectral_operator import occupied_modes

        grid = Grid(l_box=100.0, n_points=3072)
        V = sample_potential(PotentialSpec("zero"), grid)
        u0 = gaussian_packet(grid, width=0.18)
        tracemalloc.start()
        try:
            H = build_hamiltonian(V)
            modes = occupied_modes(H, u0, project=True, mode_tol=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        even = H.half(0)[1]
        assert H.eigensolves == [1536] and modes.basis.odd.shape == (1536, 0)
        assert modes.basis.even.shape == (1536, 1315)
        assert np.shares_memory(modes.basis.even, even)
        assert peak < 2 * even.nbytes + modes.basis.even.nbytes
