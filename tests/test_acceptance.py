"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a PASS line with the measured quantities so a log of
this module doubles as the verification report.
"""

import json

import numpy as np
import pytest

from dispersion_lab import spectral_operator
from dispersion_lab.cli_runner import load_config, run
from dispersion_lab.estimates import (
    convolution_lemma_experiment,
    dispersive_experiment,
    expectation_decay_experiment,
    gaussian_packet,
    mu_homogeneous,
    mu_inhomogeneous,
    odd_packet,
    strichartz_homogeneous_experiment,
    strichartz_inhomogeneous_experiment,
)
from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential
from dispersion_lab.scattering import (
    detect_resonance,
    jost_solution,
    resolvent_kernel_jost_table,
    scattering_coefficients,
    wronskian,
)
from dispersion_lab.spectral_operator import (
    born_series_terms,
    build_hamiltonian,
    propagate_batch,
    richardson_resolvent_table,
    stone_spectral_density,
    tridiagonal_resolvent_solve,
)
from dispersion_lab.stochastic import euler_maruyama_ito, sample_brownian

from conftest import GAUSS31, HALF_INVERSE_MOMENT, SECH21, ZERO, half_inverse_moment_report


def note(criterion, msg):
    print(f"PASS criterion {criterion}: {msg}")


HORIZONS_9 = [float(t) for t in np.round(0.25 * 2.0 ** np.arange(0, 4.5, 0.5), 6)]


def test_criterion_01_free_dispersive_decay(ham_free_2048):
    ens = sample_brownian(8.0, 256, 200, seed=42)
    u0 = gaussian_packet(ham_free_2048.grid, width=0.5)
    rep = dispersive_experiment(ham_free_2048, ens, u0, t_min=0.5, n_time_samples=16)
    assert -0.55 <= rep.fitted_slope <= -0.45, rep.fitted_slope
    note(1, f"free dispersive slope {rep.fitted_slope:.4f} in [-0.55, -0.45] "
            f"({rep.extras['n_samples']} censored samples)")


def test_criterion_02_dispersive_with_potential(ham_gauss_2048):
    assert detect_resonance(ham_gauss_2048.potential) is False
    ens = sample_brownian(8.0, 256, 200, seed=42)
    u0 = odd_packet(ham_gauss_2048.grid, width=0.8)
    rep = dispersive_experiment(ham_gauss_2048, ens, u0, t_min=0.5, n_time_samples=16)
    assert -0.60 <= rep.fitted_slope <= -0.40, rep.fitted_slope
    note(2, f"gaussian(3,1) dispersive slope {rep.fitted_slope:.4f} in [-0.60, -0.40] "
            "(verified non-resonant)")


def test_criterion_03_expectation_decay():
    grid = Grid(l_box=100.0, n_points=3072)
    H = build_hamiltonian(sample_potential(ZERO, grid))
    ens = sample_brownian(16.0, 512, 1000, seed=7)
    u0 = gaussian_packet(grid, width=0.18)
    rep = expectation_decay_experiment(H, ens, u0, p=1.0, t_min=0.5, n_time_samples=32)
    assert -0.28 <= rep.fitted_slope <= -0.22, rep.fitted_slope
    # abscissa-only cross-check against the quadrature constant, at the
    # report's sample times
    rep2 = half_inverse_moment_report(ens, rep.abscissa)
    assert -0.28 <= rep2.fitted_slope <= -0.22, rep2.fitted_slope
    ratios = rep2.values / (HALF_INVERSE_MOMENT * rep2.abscissa**-0.25)
    assert abs(np.median(ratios) - 1.0) < 0.1
    note(3, f"expectation decay slope {rep.fitted_slope:.4f}, abscissa-only "
            f"{rep2.fitted_slope:.4f}, median ratio to quadrature "
            f"{np.median(ratios):.3f}")


def test_criterion_04_solution_operator_identity(ham_gauss_1024):
    H = ham_gauss_1024
    c = H.to_eigenbasis(gaussian_packet(H.grid, width=2.0))
    c[H.eigenvalues > 2.5] = 0.0
    c /= np.linalg.norm(c)
    u0 = H.from_eigenbasis(c)
    T, n_fine, n_paths = 1.0, 2**12, 200
    levels = [2**k for k in range(6, 13)]
    ens = sample_brownian(T, n_fine, n_paths, seed=9)
    exact = propagate_batch(H, ens.values[:, -1], u0)
    errs = np.zeros(len(levels))
    for li, nst in enumerate(levels):
        # one batched integration per level, its per-path errors summed in path order
        em = euler_maruyama_ito(H, ens.increments, T, u0, nst)
        for p in range(n_paths):
            errs[li] += np.linalg.norm(em[:, p] - exact[:, p])
    errs /= n_paths
    dts = np.array([T / n for n in levels])
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.35 <= order <= 0.65, order
    note(4, f"Euler-Maruyama -> e^(-i beta(T) H) with strong order {order:.3f} "
            "in [0.35, 0.65]")


def test_criterion_05_low_energy_resolvent_identity():
    grid = Grid(l_box=20.0, n_points=4001)
    V = sample_potential(GAUSS31, grid)
    probes = np.linspace(-2.0, 2.0, 5)
    l_or, h_or = 2000.0, 0.008
    grid_or = Grid(l_box=l_or, n_points=int(round(2 * l_or / h_or)) + 1)
    vals_or = GAUSS31(grid_or.x)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        jost = resolvent_kernel_jost_table(V, lam, probes, probes)
        eps = lam * 11.5 / l_or * 4.0
        dense = richardson_resolvent_table(grid_or, vals_or, lam**2, eps, probes, probes)
        worst = max(worst, float(np.max(np.abs(jost - dense) / np.abs(dense))))
    assert worst < 1e-3, worst
    note(5, f"Jost kernel vs dense resolvent max rel err {worst:.2e} < 1e-3 "
            "at lam in {0.5, 1, 2}, 5x5 probes")


def test_criterion_06_born_series():
    grid = Grid(l_box=15.0, n_points=4097)
    V = sample_potential(GAUSS31, grid)
    lam0 = V.l1_norm() ** 2
    energy = 4.0 * lam0
    f = np.exp(-(grid.x**2)).astype(complex)
    terms = born_series_terms(V, energy, f, 20)
    sups = [float(np.max(np.abs(t))) for t in terms]
    ratios = np.array([sups[i + 1] / sups[i] for i in range(len(sups) - 1)])
    bound = V.l1_norm() / (2.0 * np.sqrt(energy))
    assert np.all(ratios <= 1.1 * bound), ratios.max()
    born = np.sum(terms, axis=0)
    l_or, h_or = 1000.0, 0.0032
    grid_or = Grid(l_box=l_or, n_points=int(round(2 * l_or / h_or)) + 1)
    vals_or = GAUSS31(grid_or.x)
    f_or = np.exp(-(grid_or.x**2)).astype(complex)
    k = np.sqrt(energy)
    eps = 2.0 * k * 11.5 / (2.0 * (l_or - 8.0))
    sols = [
        tridiagonal_resolvent_solve(grid_or, vals_or, energy + 1j * e, f_or)
        for e in (4 * eps, 2 * eps, eps)
    ]
    oracle = (sols[0] - 6.0 * sols[1] + 8.0 * sols[2]) / 3.0
    mask = np.abs(grid.x) <= 3.0
    oi = np.interp(grid.x[mask], grid_or.x, oracle.real) + 1j * np.interp(
        grid.x[mask], grid_or.x, oracle.imag
    )
    rel = float(np.max(np.abs(born[mask] - oi)) / np.max(np.abs(oi)))
    assert rel < 1e-2, rel
    note(6, f"Born ratios max {ratios.max():.3f} <= {1.1 * bound:.3f}; 20-term sum vs "
            f"dense oracle rel err {rel:.2e} < 1e-2")


def test_criterion_07_stone_formula(ham_gauss_1024):
    H = ham_gauss_1024
    k = 12
    w = H.eigenvalues
    spacing = min(w[k] - w[k - 1], w[k + 1] - w[k])
    eps = spacing / 10.0
    margin = 80.0 * eps
    f = H.eigenvectors[:, k]
    enclosing = stone_spectral_density(H, w[k] - margin, w[k] + margin, eps, f=f)
    mass = enclosing.integral()
    assert abs(mass - 1.0) < 1e-2, mass
    boundary = stone_spectral_density(H, w[k], w[k] + margin, eps, f=f)
    half = boundary.integral()
    assert abs(half - 0.5) < 2e-2, half
    note(7, f"spectral mass {mass:.4f} (enclosing) and {half:.4f} (eigenvalue on the "
            "edge) at eps = spacing/10")


def test_criterion_08_convolution_lemma():
    rep0 = convolution_lemma_experiment(0.0, HORIZONS_9, n_steps=128, n_paths=3, seed=21)
    assert abs(rep0.fitted_slope - 3.0) <= 0.01, rep0.fitted_slope
    assert np.allclose(rep0.values, np.asarray(HORIZONS_9) ** 3 / 3.0, rtol=1e-10)
    rep = convolution_lemma_experiment(0.5, HORIZONS_9, n_steps=128, n_paths=500, seed=21)
    assert abs(rep.fitted_slope - 2.5) <= 0.15, rep.fitted_slope
    assert rep.extras["ratio_max_min"] < 3.0, rep.extras["ratio_max_min"]
    note(8, f"convolution scaling: alpha=0 exponent {rep0.fitted_slope:.4f} (exact), "
            f"alpha=1/2 exponent {rep.fitted_slope:.3f} in 2.5 +- 0.15, "
            f"ratio spread {rep.extras['ratio_max_min']:.2f} < 3")


def test_criterion_09_strichartz_scalings(ham_free_1024_l30, ham_sech_1024_l30):
    H = ham_free_1024_l30
    mu_h = mu_homogeneous(4.0, 4.0)
    mu_i = mu_inhomogeneous(4.0, 4.0)
    assert mu_h == pytest.approx(3.0 / 8.0) and mu_i == pytest.approx(3.0 / 8.0)
    u0 = gaussian_packet(H.grid, width=0.5)
    hom = strichartz_homogeneous_experiment(
        H, u0, 4.0, 4.0, HORIZONS_9, n_steps=128, n_paths=64, seed=51
    )
    assert hom.fitted_slope >= mu_h / 2.0 - 0.05, hom.fitted_slope
    assert hom.extras["ratio_max_min"] < 5.0, hom.extras["ratio_max_min"]
    # exact (2, 2) case: unitarity makes every time slice norm one
    exact = strichartz_homogeneous_experiment(
        H, u0, 2.0, 2.0, [0.25, 1.0, 4.0], n_steps=128, n_paths=8, seed=52
    )
    dev = float(np.max(np.abs(exact.values - np.sqrt(exact.abscissa))))
    assert dev < 1e-9, dev
    # forced term at (rho, r, p) = (2, 4, 4)
    g = odd_packet(H.grid, width=1.0)
    inhom = strichartz_inhomogeneous_experiment(
        H, g, 2.0, 4.0, 4.0, HORIZONS_9, n_steps=128, n_paths=64, seed=53
    )
    assert inhom.extras["ratio_max_min"] < 5.0, inhom.extras["ratio_max_min"]
    # projection removes the bound state; the bound still scales
    u0s = gaussian_packet(ham_sech_1024_l30.grid, width=0.5)
    hom_s = strichartz_homogeneous_experiment(
        ham_sech_1024_l30, u0s, 4.0, 4.0, HORIZONS_9, n_steps=128, n_paths=48,
        seed=54, project=True,
    )
    assert hom_s.extras["ratio_max_min"] < 5.0, hom_s.extras["ratio_max_min"]
    note(9, f"mu(4,4) = 3/8 both routes; homogeneous exponent {hom.fitted_slope:.3f} "
            f">= {mu_h / 2 - 0.05:.4f}, ratio spreads {hom.extras['ratio_max_min']:.2f} "
            f"/ {inhom.extras['ratio_max_min']:.2f} / {hom_s.extras['ratio_max_min']:.2f} < 5, "
            f"(2,2) deviation {dev:.1e} < 1e-9")


def test_criterion_10_scattering_invariants(zero_pot, gauss_pot, sech_pot):
    for lam in np.geomspace(0.1, 10.0, 7):
        w = wronskian(
            jost_solution(zero_pot, lam, "plus"), jost_solution(zero_pot, lam, "minus")
        )
        assert abs(w - (-2j * lam)) < 1e-10
    fp, fm = jost_solution(gauss_pot, 1.5, "plus"), jost_solution(gauss_pot, 1.5, "minus")
    prof = (fp.f_values() * fm.f_prime_values() - fp.f_prime_values() * fm.f_values())[50:-50]
    rel_sigma = float(np.std(np.abs(prof)) / np.mean(np.abs(prof)))
    assert rel_sigma < 1e-6, rel_sigma
    unit_dev = 0.0
    for lam in (0.5, 1.0, 2.0, 4.0):
        sd = scattering_coefficients(gauss_pot, lam)
        unit_dev = max(unit_dev, abs(abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 - 1))
    assert unit_dev < 1e-6, unit_dev
    assert detect_resonance(zero_pot) is True
    assert detect_resonance(gauss_pot) is False
    assert detect_resonance(sech_pot) is True
    note(10, f"free Wronskian exact to 1e-10; x-independence rel sigma {rel_sigma:.1e}; "
             f"max unitarity deviation {unit_dev:.1e}; resonance verdicts "
             "(zero, gaussian, sech^2) = (True, False, True)")


def test_criterion_11_reproducibility(tmp_path, monkeypatch, workers):
    cfg_doc = {
        "experiment": "dispersive",
        "potential": {"family": "zero"},
        "grid": {"n_points": 1024, "l_box": 40.0},
        "stochastic": {"horizon": 8.0, "n_steps": 128, "n_paths": 40, "seed": 2024},
        "params": {"n_time_samples": 12},
        "output_dir": str(tmp_path / "base"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_doc))
    cfg = load_config(path)
    # its 480 taus would be one default block of 512; blocks of 64 give
    # each of 8 workers one
    monkeypatch.setattr(spectral_operator, "_TAU_CHUNK", 64)
    blobs = []
    for n, tag in ((1, "a"), (1, "b"), (8, "a"), (8, "b")):
        out = tmp_path / f"w{n}{tag}"
        with workers(n):
            run(cfg, out_dir=out)
        blobs.append((out / "data.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    note(11, f"data.csv byte-identical over 2 runs x (1, 8) workers "
             f"({len(blobs[0])} bytes)")
