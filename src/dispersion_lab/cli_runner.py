"""Reproducible experiment driver.

Configs are JSON (the grammar is documented in the README): one file
describes one experiment run.  `run` writes report.json, data.csv and
run_manifest.json into the output directory and returns a process exit
code: 0 success, 2 completed-with-hypothesis-warning, 1 error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import estimates, scattering, spectral_operator, stochastic
from ._parallel import ENV_THREADS, usable_cores, worker_count
from .errors import DispersionLabError, HypothesisViolationWarning, ValidationError
from .grid_model import Grid, PotentialSpec, lambda0, sample_potential

SCHEMA_LINE = "# schema=1"
# thread caps that the manifest records: BLAS results, and so the bytes of
# data.csv, depend on the BLAS thread count
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    ENV_THREADS,
)

EXPERIMENTS = {
    "scatter-sweep": "Wronskian, transmission and reflection over a momentum grid; checks |T|^2 + |R|^2 = 1",
    "resonance": "zero-energy Wronskian test classifying the potential as resonant or not",
    "resolvent-check": "Jost-built resolvent kernel against a banded linear-solve oracle at matched energies",
    "born-check": "high-energy resolvent series: geometric term ratios and agreement with the solve oracle",
    "stone-density": "spectral measure recovered from the resolvent jump across the real axis",
    "sde-convergence": "strong order of the Ito integrator against the time-changed propagator e^{-i beta(T) H}",
    "dispersive": "L1 -> Linf decay of the noise-driven propagator: fits the -1/2 exponent in |beta(t)|",
    "expectation-decay": "path-averaged sup-norm decay: fits the -1/4 exponent in t for p < 2",
    "convolution-lemma": "Brownian singular-convolution scaling: T^(2 - alpha) window growth",
    "strichartz-hom": "mixed-norm window scaling T^(mu/2) of the free noise-driven evolution",
    "strichartz-inhom": "mixed-norm window scaling T^mu of the forced (Duhamel) term",
}

_PARAM_DEFAULTS = {
    "scatter-sweep": {"n_lambdas": 48},
    "resonance": {"tol": 1e-4},
    "resolvent-check": {
        "lambdas": [0.5, 1.0, 2.0],
        "probe_half_width": 2.0,
        "n_probes": 5,
        "oracle_l_box": 2000.0,
        "oracle_h": 0.008,
    },
    "born-check": {"energy_factor": 4.0, "n_terms": 20},
    "stone-density": {"eigenindex": 12, "epsilon_factor": 0.1, "margin_factor": 80.0},
    "sde-convergence": {"level_min": 6, "level_max": 12, "energy_cut": 2.5},
    "dispersive": {
        "t_min": 0.5,
        "n_time_samples": 16,
        "beta_min": None,
        "u0_shape": "gaussian",
        "u0_width": 0.5,
        "u0_center": 0.0,
        "u0_momentum": 0.0,
    },
    "expectation-decay": {
        "p_exponent": 1.0,
        "t_min": 0.5,
        "n_time_samples": 24,
        "u0_shape": "gaussian",
        "u0_width": 0.18,
        "u0_center": 0.0,
        "u0_momentum": 0.0,
    },
    "convolution-lemma": {"alpha": 0.5, "horizons": [0.25, 0.5, 1.0, 2.0, 4.0]},
    "strichartz-hom": {
        "horizons": [0.25, 0.5, 1.0, 2.0, 4.0],
        "project": False,
        "u0_shape": "gaussian",
        "u0_width": 0.5,
        "u0_center": 0.0,
        "u0_momentum": 0.0,
    },
    "strichartz-inhom": {
        "horizons": [0.25, 0.5, 1.0, 2.0, 4.0],
        "project": False,
        "forcing_shape": "odd",
        "forcing_width": 1.0,
    },
}

_DEFAULTS = {
    "potential": {"family": "zero", "amplitude": 0.0, "width": 1.0, "table": None},
    "grid": {"n_points": 2048, "l_box": 40.0},
    "stochastic": {"horizon": 8.0, "n_steps": 256, "n_paths": 200, "seed": 1},
    "norms": {"rho": 4.0, "r": 4.0, "p": 4.0},
    "output_dir": "runs",
}

_TOP_LEVEL_KEYS = {"experiment", "params", *_DEFAULTS}


@dataclass
class ExperimentConfig:
    """One experiment run, fully materialized (all defaults filled in)."""

    experiment: str
    potential: PotentialSpec
    grid: Grid
    horizon: float
    n_steps: int
    n_paths: int
    seed: int
    rho: float
    r: float
    p: float
    output_dir: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        errors = []
        if not isinstance(raw, dict):
            raise ValidationError("config root must be a JSON object")
        exp = raw.get("experiment")
        if exp not in EXPERIMENTS:
            raise ValidationError(
                f"experiment: unknown name {exp!r}; run `dispersion-lab list`"
            )

        def section(name):
            sec = dict(_DEFAULTS[name])
            user = raw.get(name, {})
            if not isinstance(user, dict):
                errors.append(f"{name}: expected an object")
                return sec
            for k, val in user.items():
                if k not in sec:
                    errors.append(f"{name}.{k}: unknown key")
                else:
                    sec[k] = val
            return sec

        errors.extend(f"{k}: unknown key" for k in raw if k not in _TOP_LEVEL_KEYS)
        pot = section("potential")
        grd = section("grid")
        sto = section("stochastic")
        nrm = section("norms")
        params = dict(_PARAM_DEFAULTS[exp])
        user_params = raw.get("params", {})
        if not isinstance(user_params, dict):
            errors.append("params: expected an object")
            user_params = {}
        for k, val in user_params.items():
            if k not in params:
                errors.append(f"params.{k}: unknown key for experiment {exp}")
            else:
                params[k] = val
        out_dir = raw.get("output_dir", _DEFAULTS["output_dir"])
        if errors:
            raise ValidationError("; ".join(errors))
        try:
            table = pot["table"]
            spec = PotentialSpec(
                family=pot["family"],
                amplitude=float(pot["amplitude"]),
                width=float(pot["width"]),
                table=tuple(tuple(p) for p in table) if table else None,
            )
        except (DispersionLabError, TypeError, ValueError) as exc:
            raise ValidationError(f"potential: {exc}") from exc
        try:
            grid = Grid(l_box=float(grd["l_box"]), n_points=int(grd["n_points"]))
        except (DispersionLabError, TypeError, ValueError) as exc:
            raise ValidationError(f"grid: {exc}") from exc
        try:
            cfg = cls(
                experiment=exp,
                potential=spec,
                grid=grid,
                horizon=float(sto["horizon"]),
                n_steps=int(sto["n_steps"]),
                n_paths=int(sto["n_paths"]),
                seed=int(sto["seed"]),
                rho=_parse_exponent(nrm["rho"]),
                r=_parse_exponent(nrm["r"]),
                p=_parse_exponent(nrm["p"]),
                output_dir=str(out_dir),
                params=params,
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(str(exc)) from exc
        cfg._check_ranges()
        return cfg

    def _check_ranges(self) -> None:
        """Reject values that parse but that no runner can execute."""
        errors = [
            f"stochastic.{name}: must be at least 1, got {val}"
            for name, val in (("n_steps", self.n_steps), ("n_paths", self.n_paths))
            if val < 1
        ]
        if self.experiment == "stone-density":
            # the eigenvalue needs a neighbour on each side for its spacing
            top = self.grid.n_points - 2
            k = self.params["eigenindex"]
            integral = isinstance(k, (int, float)) and not isinstance(k, bool)
            if not (integral and float(k).is_integer() and 1 <= k <= top):
                errors.append(f"params.eigenindex: must be an integer in [1, {top}], got {k!r}")
        if errors:
            raise ValidationError("; ".join(errors))

    def to_canonical_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "potential": {
                "family": self.potential.family,
                "amplitude": self.potential.amplitude,
                "width": self.potential.width,
                "table": [list(p) for p in self.potential.table]
                if self.potential.table
                else None,
            },
            "grid": {"n_points": self.grid.n_points, "l_box": self.grid.l_box},
            "stochastic": {
                "horizon": self.horizon,
                "n_steps": self.n_steps,
                "n_paths": self.n_paths,
                "seed": self.seed,
            },
            "norms": {
                "rho": _dump_exponent(self.rho),
                "r": _dump_exponent(self.r),
                "p": _dump_exponent(self.p),
            },
            "params": {k: self.params[k] for k in sorted(self.params)},
            "output_dir": self.output_dir,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _parse_exponent(v) -> float:
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return math.inf
        raise ValidationError(f"norms: cannot parse exponent {v!r}")
    return float(v)


def _dump_exponent(v: float):
    return "inf" if v == math.inf else v


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def list_experiments() -> list[tuple[str, str]]:
    """Stable (name, description) table for the CLI and docs."""
    return list(EXPERIMENTS.items())


# ---------------------------------------------------------------------------
# experiment runners: each returns (report, header, rows, exit_code)

def _initial_data(cfg: ExperimentConfig, prefix: str = "u0"):
    shape = cfg.params.get(f"{prefix}_shape", "gaussian")
    width = float(cfg.params.get(f"{prefix}_width", 0.5))
    if shape == "odd":
        return estimates.odd_packet(cfg.grid, width=width)
    if shape == "gaussian":
        return estimates.gaussian_packet(
            cfg.grid,
            width=width,
            center=float(cfg.params.get(f"{prefix}_center", 0.0)),
            momentum=float(cfg.params.get(f"{prefix}_momentum", 0.0)),
        )
    raise ValidationError(f"params.{prefix}_shape: unknown shape {shape!r}")


def _report_from_estimate(rep: estimates.EstimateReport) -> dict:
    d = rep.to_dict()
    del d["abscissa"], d["values"]
    return d


def _run_scatter_sweep(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    lam0 = V.l1_norm() ** 2
    lams = scattering.lambda_sweep_grid(lam0, int(cfg.params["n_lambdas"]))
    rows = []
    unit_dev = 0.0
    for data in scattering.scattering_sweep(V, lams):
        t2r2 = abs(data.transmission) ** 2 + abs(data.reflection) ** 2
        unit_dev = max(unit_dev, abs(t2r2 - 1.0))
        rows.append(
            (
                data.lam,
                data.w.real,
                data.w.imag,
                abs(data.transmission),
                abs(data.reflection),
                abs(data.alpha),
                abs(data.beta_coeff),
            )
        )
    resonant = scattering.detect_resonance(V)
    report = {
        "lambda0": lam0,
        "max_unitarity_deviation": unit_dev,
        "resonant_at_zero": bool(resonant),
    }
    header = ["lambda", "re_w", "im_w", "abs_t", "abs_r", "abs_alpha", "abs_beta"]
    return report, header, rows, 0


def _run_resonance(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    tol = float(cfg.params["tol"])
    resonant, w0 = scattering.zero_energy_test(V, tol=tol)
    rows = [(0.0, abs(w0))]
    for lam in (0.01, 0.05, 0.1, 0.5):
        fp = scattering.jost_solution(V, lam, "plus")
        fm = scattering.jost_solution(V, lam, "minus")
        rows.append((lam, abs(scattering.wronskian(fp, fm))))
    report = {"resonant": bool(resonant), "abs_w0": abs(w0), "tol": tol}
    return report, ["lambda", "abs_w"], rows, 0


def _run_resolvent_check(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    pr = cfg.params
    half = float(pr["probe_half_width"])
    probes = np.linspace(-half, half, int(pr["n_probes"]))
    l_or = float(pr["oracle_l_box"])
    h_or = float(pr["oracle_h"])
    n_or = int(round(2 * l_or / h_or)) + 1
    grid_or = Grid(l_box=l_or, n_points=n_or)
    vals_or = cfg.potential(grid_or.x)
    rows = []
    max_rel = 0.0
    for lam in [float(v) for v in pr["lambdas"]]:
        jost_tab = scattering.resolvent_kernel_jost_table(V, lam, probes, probes)
        eps = lam * 11.5 / l_or * 4.0
        dense_tab = spectral_operator.richardson_resolvent_table(
            grid_or, vals_or, lam**2, eps, probes, probes
        )
        for j, y in enumerate(probes):
            for i, x in enumerate(probes):
                jv, dv = jost_tab[i, j], dense_tab[i, j]
                rel = abs(jv - dv) / abs(dv)
                max_rel = max(max_rel, rel)
                rows.append((lam, float(x), float(y), jv.real, jv.imag, dv.real, dv.imag, rel))
    report = {"max_rel_err": max_rel, "lambdas": [float(v) for v in pr["lambdas"]]}
    header = ["lambda", "x", "y", "re_jost", "im_jost", "re_dense", "im_dense", "rel_err"]
    return report, header, rows, 0


def _run_born_check(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    lam0 = V.l1_norm() ** 2
    energy = float(cfg.params["energy_factor"]) * lam0
    n_terms = int(cfg.params["n_terms"])
    f = estimates.gaussian_packet(cfg.grid, width=1.0)
    terms = spectral_operator.born_series_terms(V, energy, "plus", f, n_terms)
    sups = [float(np.max(np.abs(t))) for t in terms]
    ratios = [sups[i + 1] / sups[i] for i in range(len(sups) - 1)]
    bound = V.l1_norm() / (2.0 * np.sqrt(energy))
    rows = [(i, sups[i], ratios[i - 1] if i else float("nan")) for i in range(len(sups))]
    report = {
        "energy": energy,
        "lambda0": lam0,
        "ratio_bound": bound,
        "max_ratio": max(ratios),
        "ratios_ok": bool(max(ratios) <= 1.1 * bound),
    }
    return report, ["n", "term_sup", "ratio"], rows, 0


def _run_stone_density(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    H = spectral_operator.build_hamiltonian(V)
    k = int(cfg.params["eigenindex"])
    w = H.eigenvalues
    spacing = min(w[k] - w[k - 1], w[k + 1] - w[k])
    eps = float(cfg.params["epsilon_factor"]) * spacing
    margin = float(cfg.params["margin_factor"]) * eps
    a, b = w[k] - margin, w[k] + margin
    n_lambda = int(np.ceil((b - a) / (eps / 4.0)))
    est = spectral_operator.stone_spectral_density(
        H, a, b, eps, n_lambda, f=H.eigenvectors[:, k]
    )
    mass = est.integral()
    rows = list(zip(est.lambda_grid, est.density))
    report = {
        "eigenindex": k,
        "eigenvalue": float(w[k]),
        "epsilon": eps,
        "interval": [a, b],
        "mass": mass,
    }
    return report, ["lambda", "density"], rows, 0


def _run_sde_convergence(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    H = spectral_operator.build_hamiltonian(V)
    cut = float(cfg.params["energy_cut"])
    c = H.to_eigenbasis(estimates.gaussian_packet(cfg.grid, width=2.0))
    c[H.eigenvalues > cut] = 0.0
    c /= np.linalg.norm(c)
    u0 = H.from_eigenbasis(c)
    lmin, lmax = int(cfg.params["level_min"]), int(cfg.params["level_max"])
    n_fine = 2**lmax
    levels = [2**k for k in range(lmin, lmax + 1)]
    ens = stochastic.sample_brownian(cfg.horizon, n_fine, cfg.n_paths, cfg.seed)
    # the exact flow on the modes the integrator keeps
    exact = spectral_operator.propagate_batch(
        H, ens.values[:, -1], u0, mode_tol=stochastic.EM_MODE_TOL
    )

    def strong_error(n_steps: int) -> float:
        em = stochastic.euler_maruyama_ito(H, ens.increments, cfg.horizon, u0, n_steps)
        # a sequential sum over paths; np.sum would pair the terms differently
        return sum(
            np.sqrt(cfg.grid.h) * np.linalg.norm(em[:, p] - exact[:, p])
            for p in range(cfg.n_paths)
        )

    errs = np.array([strong_error(nst) for nst in levels]) / cfg.n_paths
    dts = np.array([cfg.horizon / n for n in levels])
    rep = estimates.fit_decay_exponent(dts, errs, min_points=len(levels), min_decades=1.0)
    rows = list(zip(dts, errs))
    report = {"fitted_order": rep.fitted_slope, "slope_ci_95": list(rep.slope_ci_95)}
    return report, ["dt", "strong_error"], rows, 0


def _experiment_ensemble(cfg: ExperimentConfig) -> stochastic.BrownianEnsemble:
    return stochastic.sample_brownian(cfg.horizon, cfg.n_steps, cfg.n_paths, cfg.seed)


def _run_dispersive(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    H = spectral_operator.build_hamiltonian(V)
    u0 = _initial_data(cfg)
    ens = _experiment_ensemble(cfg)
    beta_min = cfg.params["beta_min"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = estimates.dispersive_experiment(
            H,
            ens,
            u0,
            t_min=float(cfg.params["t_min"]),
            n_time_samples=int(cfg.params["n_time_samples"]),
            beta_min=float(beta_min) if beta_min is not None else None,
        )
    flagged = any(issubclass(w.category, HypothesisViolationWarning) for w in caught)
    report = _report_from_estimate(rep)
    report["hypothesis_violation"] = flagged
    if flagged:
        report["warning"] = "zero-energy resonance detected"
    rows = list(zip(rep.abscissa, rep.values))
    return report, ["abs_beta", "sup_norm"], rows, 2 if flagged else 0


def _run_expectation_decay(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    H = spectral_operator.build_hamiltonian(V)
    u0 = _initial_data(cfg)
    ens = _experiment_ensemble(cfg)
    rep = estimates.expectation_decay_experiment(
        H,
        ens,
        u0,
        p=float(cfg.params["p_exponent"]),
        t_min=float(cfg.params["t_min"]),
        n_time_samples=int(cfg.params["n_time_samples"]),
    )
    rows = list(zip(rep.abscissa, rep.values))
    return _report_from_estimate(rep), ["t", "mean_sup_norm"], rows, 0


def _run_convolution_lemma(cfg: ExperimentConfig):
    rep = estimates.convolution_lemma_experiment(
        alpha=float(cfg.params["alpha"]),
        horizons=[float(t) for t in cfg.params["horizons"]],
        n_steps=cfg.n_steps,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
    )
    rows = list(zip(rep.abscissa, rep.values, rep.extras["ratios"]))
    return _report_from_estimate(rep), ["horizon", "lhs", "ratio"], rows, 0


def _run_strichartz_hom(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    H = spectral_operator.build_hamiltonian(V)
    u0 = _initial_data(cfg)
    rep = estimates.strichartz_homogeneous_experiment(
        H,
        u0,
        r=cfg.r,
        p=cfg.p,
        horizons=[float(t) for t in cfg.params["horizons"]],
        n_steps=cfg.n_steps,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        project=bool(cfg.params["project"]),
    )
    rows = list(zip(rep.abscissa, rep.values, rep.extras["ratios"]))
    return _report_from_estimate(rep), ["horizon", "lhs", "ratio"], rows, 0


def _run_strichartz_inhom(cfg: ExperimentConfig):
    V = sample_potential(cfg.potential, cfg.grid)
    H = spectral_operator.build_hamiltonian(V)
    shape = cfg.params["forcing_shape"]
    width = float(cfg.params["forcing_width"])
    if shape == "odd":
        g = estimates.odd_packet(cfg.grid, width=width)
    else:
        g = estimates.gaussian_packet(cfg.grid, width=width)
    g = g / estimates.lp_norm_x(g, estimates.holder_conjugate(cfg.p), cfg.grid)
    rep = estimates.strichartz_inhomogeneous_experiment(
        H,
        g,
        rho=cfg.rho,
        r=cfg.r,
        p=cfg.p,
        horizons=[float(t) for t in cfg.params["horizons"]],
        n_steps=cfg.n_steps,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        project=bool(cfg.params["project"]),
    )
    rows = list(zip(rep.abscissa, rep.values, rep.extras["ratios"]))
    return _report_from_estimate(rep), ["horizon", "lhs", "ratio"], rows, 0


_RUNNERS = {
    "scatter-sweep": _run_scatter_sweep,
    "resonance": _run_resonance,
    "resolvent-check": _run_resolvent_check,
    "born-check": _run_born_check,
    "stone-density": _run_stone_density,
    "sde-convergence": _run_sde_convergence,
    "dispersive": _run_dispersive,
    "expectation-decay": _run_expectation_decay,
    "convolution-lemma": _run_convolution_lemma,
    "strichartz-hom": _run_strichartz_hom,
    "strichartz-inhom": _run_strichartz_inhom,
}


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [SCHEMA_LINE, ",".join(header)]
    lines.extend(",".join(_format_cell(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> int:
    """Execute one experiment and write its artifacts.

    Nothing is written if the runner raises; hypothesis-violation
    warnings still produce artifacts but exit with code 2.
    """
    t0 = time.perf_counter()
    runner = _RUNNERS[config.experiment]
    report, header, rows, code = runner(config)
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config.config_hash()
    report_doc = {
        "experiment": config.experiment,
        "config_hash": chash,
        "seed": config.seed,
        "grid": {"n_points": config.grid.n_points, "l_box": config.grid.l_box},
        "exit_code": code,
        "metrics": report,
    }
    _write_json(out / "report.json", report_doc)
    write_csv(out / "data.csv", header, rows)
    manifest = {
        "config": config.to_canonical_dict(),
        "config_hash": chash,
        "seed": config.seed,
        "versions": {
            "dispersion_lab": _version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "workers": worker_count(),
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "usable_cores": usable_cores(),
        "peak_rss_mb": _peak_rss_mb(),
        "wall_s": time.perf_counter() - t0,
    }
    _write_json(out / "run_manifest.json", manifest)
    return code


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _peak_rss_mb() -> float | None:
    """Peak resident set size of this process so far, None where unknown."""
    try:
        import resource
    except ImportError:  # not on this platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (2**20 if sys.platform == "darwin" else 1024)


def _finite_or_null(obj):
    """obj with every nan or infinite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(_finite_or_null(doc), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


def _version() -> str:
    from . import __version__

    return __version__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dispersion-lab",
        description="Run desk-scale experiments for the noise-dispersed Schrodinger evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="path to a JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    sub.add_parser("list", help="list experiment names")
    p_val = sub.add_parser("validate", help="validate a config file and exit")
    p_val.add_argument("config", help="path to a JSON config")
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, desc in list_experiments():
            print(f"{name:<{width}}  {desc}")
        print(f"({len(EXPERIMENTS)} experiments; workers capped by {ENV_THREADS})")
        return 0

    try:
        config = load_config(args.config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"ok: {config.experiment} (hash {config.config_hash()[:12]})")
        return 0

    if args.seed is not None:
        config.seed = args.seed
    try:
        return run(config, out_dir=args.out)
    except DispersionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
