"""Acceptance criteria 1-11, tolerances pinned.

Criteria 1-10 are the benchmark's case table, perfbench/cases.py: each case
runs through cli_runner.run at the table's default seed and must meet the
table's pass condition.  The direct tests check what no case expresses.
Each test prints a PASS line with the measured quantities so a log of
this module doubles as the verification report.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dispersion_lab import spectral_operator
from dispersion_lab.cli_runner import ExperimentConfig, load_config, run
from dispersion_lab.grid_model import Grid, sample_potential
from dispersion_lab.scattering import jost_solution, midpoint_wronskian
from dispersion_lab.spectral_operator import (
    born_series_terms,
    build_hamiltonian,
    outgoing_closure,
    stone_spectral_density,
    tridiagonal_resolvent_solve,
)
from dispersion_lab.stochastic import sample_brownian

from conftest import HALF_INVERSE_MOMENT, half_inverse_moment_report

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import cases  # noqa: E402

TABLE = [case for workload in cases.WORKLOADS.values() for case in workload]
CASES = {case.name: case for case in TABLE}


def note(criterion, msg):
    print(f"PASS criterion {criterion}: {msg}")


def config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(CASES[name].config_for(cases.DEFAULT_SEED))


def potential(name: str):
    """A case's potential sampled on its grid."""
    cfg = config(name)
    return sample_potential(cfg.potential, cfg.grid)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """results(name): the cases.Result of the case's run, made on first use."""
    done = {}

    def get(name: str) -> cases.Result:
        if name not in done:
            out = tmp_path_factory.mktemp(name)
            done[name] = cases.Result.read(out, run(config(name), out_dir=out))
        return done[name]

    return get


def test_case_table_covers_criteria_1_to_10():
    assert len(CASES) == len(TABLE), "a case name runs twice"
    assert {case.criterion for case in TABLE} == set(range(1, 11))


@pytest.mark.parametrize("name", list(CASES))
def test_case(results, name):
    case, result = CASES[name], results(name)
    assert cases.verify(case, result) is None
    measured = {**result.metrics, **result.metrics.get("extras", {})}
    shown = {k: v for k, v in measured.items() if isinstance(v, (bool, int, float))}
    note(case.criterion, f"{name}: {case.condition}; measured {shown}")


def test_criterion_03_abscissa_only_cross_check(results):
    # the path mean of |beta(t)|^(-1/2) at the run's own sample times meets
    # the case's slope band, and its constant is the quadrature's
    cfg, case = config("expectation-decay"), CASES["expectation-decay"]
    times = np.array([row[0] for row in results(case.name).rows])
    ens = sample_brownian(cfg.horizon, cfg.n_steps, cfg.n_paths, cfg.seed)
    rep = half_inverse_moment_report(ens, times)
    fit = {"metrics": {"fitted_slope": rep.fitted_slope}}
    assert cases.verify(case, cases.Result(exit_code=0, report=fit, rows=[])) is None
    ratio = float(np.median(rep.values / (HALF_INVERSE_MOMENT * times**-0.25)))
    assert abs(ratio - 1.0) < 0.1, ratio
    note(3, f"abscissa-only slope {rep.fitted_slope:.4f}, median ratio to quadrature {ratio:.3f}")


def test_criterion_06_born_sum_matches_dense_oracle():
    # the oracle solves on the case's box at a finer step, closed by the
    # lattice's exact outgoing boundary: both take V and f as 0 outside it
    cfg, V = config("born-check"), potential("born-check")
    x, n_terms = cfg.grid.x, cfg.params["n_terms"]
    energy = cfg.params["energy_factor"] * V.l1_norm() ** 2
    born = np.sum(born_series_terms(V, energy, np.exp(-(x**2)).astype(complex), n_terms), axis=0)
    l_or, h_or = cfg.grid.l_box, 0.0032
    grid_or = Grid(l_box=l_or, n_points=int(round(2 * l_or / h_or)) + 1)
    closed = outgoing_closure(grid_or, cfg.potential(grid_or.x), energy)
    oracle = tridiagonal_resolvent_solve(grid_or, closed, energy, np.exp(-(grid_or.x**2)))
    mask = np.abs(x) <= 3.0
    oi = np.interp(x[mask], grid_or.x, oracle.real) + 1j * np.interp(x[mask], grid_or.x, oracle.imag)
    rel = float(np.max(np.abs(born[mask] - oi)) / np.max(np.abs(oi)))
    assert rel < 1e-2, rel
    note(6, f"{n_terms}-term Born sum vs dense oracle rel err {rel:.2e} < 1e-2")


def test_criterion_07_eigenvalue_on_the_edge():
    # the case's interval with its lower end moved onto the eigenvalue holds half the mass
    H, params = build_hamiltonian(potential("stone-density")), config("stone-density").params
    k, w = params["eigenindex"], H.eigenvalues
    eps = params["epsilon_factor"] * min(w[k] - w[k - 1], w[k + 1] - w[k])
    half = stone_spectral_density(
        H.potential, w[k], w[k] + params["margin_factor"] * eps, eps, f=H.eigenvectors[:, k]
    ).integral()
    assert abs(half - 0.5) < 2e-2, half
    note(7, f"spectral mass {half:.4f} with the eigenvalue on the edge")


def test_criterion_08_alpha_zero_is_exact(tmp_path):
    # at alpha = 0 the window integral is T^3 / 3 on every path
    doc = CASES["convolution-lemma"].config_for(cases.DEFAULT_SEED)
    doc["params"]["alpha"] = 0.0
    doc["stochastic"]["n_paths"] = 3
    code = run(ExperimentConfig.from_dict(doc), out_dir=tmp_path)
    result = cases.Result.read(tmp_path, code)
    slope = result.metrics["fitted_slope"]
    assert code == 0 and abs(slope - 3.0) <= 0.01, slope
    lhs = np.array([row[1] for row in result.rows])
    assert np.allclose(lhs, np.asarray(cases.HORIZONS_9) ** 3 / 3.0, rtol=1e-10)
    note(8, f"alpha=0 exponent {slope:.4f}, window values T^3/3 to 1e-10")


def test_criterion_10_wronskian_checks():
    zero, gauss = potential("resonance-zero"), potential("resonance-gaussian")
    for lam in np.geomspace(0.1, 10.0, 7):
        w = midpoint_wronskian(zero, lam)
        assert abs(w - (-2j * lam)) < 1e-10
    fp, fm = jost_solution(gauss, 1.5, "plus"), jost_solution(gauss, 1.5, "minus")
    prof = (fp.f_values() * fm.f_prime_values() - fp.f_prime_values() * fm.f_values())[50:-50]
    rel_sigma = float(np.std(np.abs(prof)) / np.mean(np.abs(prof)))
    assert rel_sigma < 1e-6, rel_sigma
    note(10, f"free Wronskian exact to 1e-10; x-independence rel sigma {rel_sigma:.1e}")


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
