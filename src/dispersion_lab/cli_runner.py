"""Reproducible experiment driver.

Configs are JSON (the grammar is documented in the README): one file
describes one experiment run.  `run` writes report.json, data.csv and
run_manifest.json into the output directory and returns a process exit
code: 0 success, 2 completed-with-hypothesis-warning, 1 error.

EXPERIMENTS is the one experiment registry: each entry holds the
experiment's description, its runner and the typed schema of its params;
SECTIONS holds the schema of every other config section.
ExperimentConfig.from_dict checks every field against its schema, so a
runner reads typed values only.
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
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, estimates, scattering, spectral_operator, stochastic
from ._parallel import BLAS_PINNED, BLAS_THREADS_FOUND, usable_cores, worker_count
from .errors import DispersionLabError, DomainError, HypothesisViolationWarning, ValidationError
from .grid_model import FAMILIES, Grid, PotentialSpec, sample_potential

SCHEMA_LINE = "# schema=1"
# thread caps that the manifest records: the BLAS threads they grant become
# the lab's workers; the bytes of data.csv do not depend on them while BLAS is pinned
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Param:
    """One config field: a default, whose JSON type the value must have, and a range.

    An int field also takes an integral float and stores it as int; a float
    field takes any finite number and stores it as float; a list field takes
    a non-empty list of numbers; a bool field takes only true or false; a str
    field takes one of choices, or any string where there are none; a pairs
    field, whose default is None, takes null or a non-empty list of [x, V]
    number pairs.  With inf, a number field also takes "inf" or
    "infinity" in any case and stores "inf".  Numbers lie in the interval
    from lo to hi, open at an end that ends marks with a parenthesis.  A
    bound may be a function of the config document, which then holds the
    values checked before this one; note says what such a bound stands for.
    """

    default: object
    lo: float | Callable = -math.inf
    hi: float | Callable = math.inf
    ends: str = "[]"
    choices: tuple[str, ...] = ()
    note: str = ""
    inf: bool = False
    pairs: bool = False

    def parse(self, value, doc: dict):
        """The typed value, or ValueError saying what the value must be."""
        d = self.default
        lo, hi = (b(doc) if callable(b) else b for b in (self.lo, self.hi))
        if d is None and value is None:
            return None
        if self.inf and isinstance(value, str) and value.lower() in ("inf", "infinity"):
            return "inf"
        if isinstance(d, bool):
            ok = isinstance(value, bool)
        elif isinstance(d, str):
            ok = isinstance(value, str) and (value in self.choices or not self.choices)
        elif isinstance(d, list):
            ok = isinstance(value, list) and len(value) > 0
            ok = ok and all(self._fits(v, lo, hi) for v in value)
            value = [float(v) for v in value] if ok else value
        elif self.pairs:
            ok = isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value)
            ok = ok and len(value) > 0 and all(self._fits(v, lo, hi) for p in value for v in p)
            # tuples, as PotentialSpec keeps them; JSON writes them as lists
            value = tuple(tuple(float(v) for v in p) for p in value) if ok else value
        else:
            ok = self._fits(value, lo, hi)
            value = (int if isinstance(d, int) else float)(value) if ok else value
        if ok:
            return value
        raise ValueError(f"must be {self._describe(lo, hi)}, got {value!r}")

    def _fits(self, v, lo: float, hi: float) -> bool:
        """v is a finite number in the range, and integral for an int field."""
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return False
        try:
            x = float(v)
        except OverflowError:  # an int beyond the float range
            return False
        if not math.isfinite(x) or (isinstance(self.default, int) and not x.is_integer()):
            return False
        # compare v, not x: float(2**63 - 1) rounds up to the seed's bound 2**63
        above = v > lo if self.ends[0] == "(" else v >= lo
        return above and (v < hi if self.ends[1] == ")" else v <= hi)

    def _describe(self, lo: float, hi: float) -> str:
        d = self.default
        if isinstance(d, bool):
            return "true or false"
        if isinstance(d, str):
            return "one of " + ", ".join(map(repr, self.choices)) if self.choices else "a string"
        what = {int: "an integer", list: "a non-empty list of numbers"}.get(type(d), "a number")
        what = "a non-empty list of [x, V] number pairs" if self.pairs else what
        if (lo, hi) != (-math.inf, math.inf):
            what += f" in {self.ends[0]}{lo}, {hi}{')' if hi == math.inf else self.ends[1]}"
        what += f" ({self.note})" if self.note else ""
        what += ' or "inf"' if self.inf else ""
        return what + (" or null" if d is None else "")


def _parse(schema: dict, raw: dict, out: dict, doc: dict, errors: list, path: str = "") -> None:
    """Fill out with raw's values, typed by schema, and every default.

    A nested dict of the schema is a section.  Each failure goes to errors
    under its field path, and the field holds its default, which later
    bounds read in its place.
    """
    if not isinstance(raw, dict):
        errors.append(f"{path.rstrip('.')}: expected an object")
        raw = {}
    errors.extend(f"{path}{k}: unknown key" for k in raw if k not in schema)
    for key, spec in schema.items():
        if isinstance(spec, dict):
            _parse(spec, raw.get(key, {}), out.setdefault(key, {}), doc, errors, f"{path}{key}.")
            continue
        try:
            out[key] = spec.parse(raw.get(key, spec.default), doc)
        except ValueError as exc:
            out[key] = spec.default
            errors.append(f"{path}{key}: {exc}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, parsed and typed, with every default filled in.

    doc is the canonical document that to_canonical_dict and config_hash
    read; the other fields are its values in the types the runners use.
    """

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
    params: dict
    doc: dict = field(repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValidationError("config root must be a JSON object")
        exp = raw.get("experiment")
        if exp not in EXPERIMENTS:
            raise ValidationError(
                f"experiment: unknown name {exp!r}; run `dispersion-lab list`"
            )
        schema = {**SECTIONS, "params": EXPERIMENTS[exp].params}
        doc, errors = {"experiment": exp}, []
        _parse(schema, {k: v for k, v in raw.items() if k != "experiment"}, doc, doc, errors)
        if errors:
            raise ValidationError("; ".join(errors))
        try:
            potential = PotentialSpec(**doc["potential"])
        except ValidationError as exc:
            raise ValidationError(f"potential: {exc}") from exc
        return cls(
            experiment=exp,
            potential=potential,
            grid=Grid(**doc["grid"]),
            **doc["stochastic"],
            **{k: float(v) for k, v in doc["norms"].items()},  # float("inf") is inf
            output_dir=doc["output_dir"],
            params=doc["params"],
            doc=doc,
        )

    def to_canonical_dict(self) -> dict:
        """A copy of the canonical document, as JSON reads it back."""
        return json.loads(json.dumps(self.doc))

    def config_hash(self) -> str:
        blob = json.dumps(self.doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# the registry: each runner is registered with its description and params,
# takes a RunContext and returns (report, header, rows)

class RunContext:
    """One run's config, with V and H built on first use.

    A context lives for one run call, so its eigenbasis goes with it; a
    config may be held for many runs and keeps no arrays.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.grid = cfg.grid
        self.params = cfg.params

    @cached_property
    def V(self):
        return sample_potential(self.cfg.potential, self.grid)

    @cached_property
    def H(self):
        return spectral_operator.build_hamiltonian(self.V)

    @property
    def eigensolves(self) -> list[int]:
        """Rows of each tridiagonal the run's H solved, in order; [] without an H."""
        return self.H.eigensolves if "H" in vars(self) else []


@dataclass(frozen=True)
class Experiment:
    """One registry entry: what the experiment checks, its runner, its params."""

    description: str
    runner: Callable[[RunContext], tuple]
    params: dict[str, Param]


EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(name: str, description: str, **params: Param):
    """Register the decorated runner as experiment name; params check in order."""

    def register(runner):
        EXPERIMENTS[name] = Experiment(description, runner, params)
        return runner

    return register


# every other config section, and output_dir: a field's bound may read the
# sections before it, and the params, checked after all of them, may read any
SECTIONS: dict[str, dict[str, Param] | Param] = {
    "potential": {
        "family": Param("zero", choices=FAMILIES),
        "amplitude": Param(0.0),
        "width": Param(1.0),
        "table": Param(None, pairs=True),
    },
    "grid": {"n_points": Param(2048, 16), "l_box": Param(40.0, 0, ends="(]")},
    "stochastic": {
        "horizon": Param(8.0, 0, ends="(]"),
        "n_steps": Param(256, 1),
        "n_paths": Param(200, 1),
        # a Philox key word and _sub_seed's arithmetic both take [0, 2**63)
        "seed": Param(1, 0, 2**63, "[)"),
    },
    "norms": {k: Param(4.0, 1, inf=True) for k in ("rho", "r", "p")},
    "output_dir": Param("runs"),
}

_HORIZONS = Param([0.25, 0.5, 1.0, 2.0, 4.0], 0, ends="(]")
_T_MIN = Param(
    0.5, 0, lambda doc: doc["stochastic"]["horizon"], "[)", note="below stochastic.horizon"
)
# the packet of each shape an initial datum or forcing may take
_PACKETS = {"gaussian": estimates.gaussian_packet, "odd": estimates.odd_packet}


def _packet_params(width: float, prefix: str = "u0", shape: str = "gaussian") -> dict[str, Param]:
    return {
        f"{prefix}_shape": Param(shape, choices=tuple(_PACKETS)),
        f"{prefix}_width": Param(width, 0, ends="(]"),
    }


def _initial_data(ctx: RunContext, prefix: str = "u0"):
    pr = ctx.params
    u = _PACKETS[pr[f"{prefix}_shape"]](ctx.grid, width=pr[f"{prefix}_width"])
    if not np.any(u):
        raise ValidationError(
            f"params.{prefix}_width: the packet samples to zero on a grid with h = {ctx.grid.h:.3g}"
        )
    return u


def _report_from_estimate(rep: estimates.EstimateReport) -> dict:
    """The fit, its sampling and its extras; the samples themselves go to data.csv."""
    keys = ("fitted_slope", "fitted_intercept", "slope_ci_95", "n_paths", "seed", "extras")
    return {k: getattr(rep, k) for k in keys}


@_experiment(
    "scatter-sweep",
    "Wronskian, transmission and reflection over a momentum grid; checks |T|^2 + |R|^2 = 1",
    n_lambdas=Param(48, 1),
)
def _run_scatter_sweep(ctx: RunContext):
    V = ctx.V
    lam0 = V.l1_norm() ** 2
    lams = scattering.lambda_sweep_grid(lam0, ctx.params["n_lambdas"])
    rows = []
    unit_dev = 0.0
    for lam in lams:
        data = scattering.scattering_coefficients(V, float(lam))
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
    return report, header, rows


@_experiment(
    "resonance",
    "zero-energy Wronskian test classifying the potential as resonant or not",
)
def _run_resonance(ctx: RunContext):
    V = ctx.V
    resonant, w0 = scattering.zero_energy_test(V)
    rows = [(0.0, abs(w0))]
    for lam in (0.01, 0.05, 0.1, 0.5):
        fp = scattering.jost_solution(V, lam, "plus")
        fm = scattering.jost_solution(V, lam, "minus")
        rows.append((lam, abs(scattering.wronskian(fp, fm))))
    report = {"resonant": bool(resonant), "abs_w0": abs(w0), "tol": scattering.RESONANCE_TOL}
    return report, ["lambda", "abs_w"], rows


# nodes of the dense oracle's grid, 2 * oracle_l_box / oracle_h + 1: at
# least a Grid's 16, at most four times the default oracle grid
_ORACLE_NODES = (16, 2_000_001)


@_experiment(
    "resolvent-check",
    "Jost-built resolvent kernel against a banded linear-solve oracle at matched energies",
    lambdas=Param([0.5, 1.0, 2.0], 0, ends="(]"),
    probe_half_width=Param(2.0, 0),
    n_probes=Param(5, 1),
    oracle_l_box=Param(2000.0, 0, ends="(]"),
    oracle_h=Param(
        0.008,
        lambda doc: 2.0 * doc["params"]["oracle_l_box"] / (_ORACLE_NODES[1] - 1),
        lambda doc: 2.0 * doc["params"]["oracle_l_box"] / (_ORACLE_NODES[0] - 1),
        "(]",
        note="the oracle grid needs %d to %d nodes" % _ORACLE_NODES,
    ),
)
def _run_resolvent_check(ctx: RunContext):
    pr = ctx.params
    half = pr["probe_half_width"]
    probes = np.linspace(-half, half, pr["n_probes"])
    l_or = pr["oracle_l_box"]
    grid_or = Grid(l_box=l_or, n_points=int(round(2 * l_or / pr["oracle_h"])) + 1)
    vals_or = ctx.cfg.potential(grid_or.x)
    rows = []
    max_rel = 0.0
    for lam in pr["lambdas"]:
        jost_tab = scattering.resolvent_kernel_jost_table(ctx.V, lam, probes, probes)
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
    report = {"max_rel_err": max_rel, "lambdas": pr["lambdas"]}
    header = ["lambda", "x", "y", "re_jost", "im_jost", "re_dense", "im_dense", "rel_err"]
    return report, header, rows


@_experiment(
    "born-check",
    "high-energy resolvent series: term sup norms and their ratios against ||V||_1 / (2 sqrt(E))",
    energy_factor=Param(4.0, 1, ends="(]", note="E must exceed ||V||_1^2"),
    n_terms=Param(20, 1),
)
def _run_born_check(ctx: RunContext):
    V = ctx.V
    lam0 = V.l1_norm() ** 2
    energy = ctx.params["energy_factor"] * lam0
    f = estimates.gaussian_packet(ctx.grid, width=1.0)
    terms = spectral_operator.born_series_terms(V, energy, f, ctx.params["n_terms"])
    sups = [float(np.max(np.abs(t))) for t in terms]
    # late terms underflow to exactly 0; a ratio to a 0 term is nan, as row 0's
    ratios = [math.nan] + [b / a if a else math.nan for a, b in zip(sups, sups[1:])]
    max_ratio = max((q for q in ratios if not math.isnan(q)), default=math.nan)
    bound = V.l1_norm() / (2.0 * np.sqrt(energy))
    rows = list(zip(range(len(sups)), sups, ratios))
    report = {
        "energy": energy,
        "lambda0": lam0,
        "ratio_bound": bound,
        "max_ratio": max_ratio,
        "ratios_ok": bool(max_ratio <= 1.1 * bound),
    }
    return report, ["n", "term_sup", "ratio"], rows


@_experiment(
    "stone-density",
    "spectral measure recovered from the resolvent jump across the real axis",
    eigenindex=Param(
        12, 1, lambda doc: doc["grid"]["n_points"] - 2, note="a neighbour on each side"
    ),
    epsilon_factor=Param(0.1, 0, ends="(]"),
    margin_factor=Param(80.0, 0, ends="(]"),
)
def _run_stone_density(ctx: RunContext):
    H = ctx.H
    k = ctx.params["eigenindex"]
    w = H.eigenvalues
    spacing = min(w[k] - w[k - 1], w[k + 1] - w[k])
    eps = ctx.params["epsilon_factor"] * spacing
    margin = ctx.params["margin_factor"] * eps
    a, b = w[k] - margin, w[k] + margin
    if not eps > 0:
        raise DomainError(
            f"params.epsilon_factor: the smoothing width epsilon_factor * {spacing:.3g} "
            "(the level spacing) underflows to 0"
        )
    if not a < b:
        raise DomainError(
            f"params.margin_factor: the interval eigenvalue +- margin_factor * {eps:.3g} "
            f"(epsilon) collapses to [{a}, {b}]"
        )
    f = H.from_eigenbasis(np.eye(1, H.n, k)[0])
    try:  # with eps > 0 and a < b, only the lambda count can fail
        est = spectral_operator.stone_spectral_density(H, a, b, eps, f)
    except DomainError as exc:
        raise DomainError(f"params.margin_factor: {exc}") from None
    mass = est.integral()
    rows = list(zip(est.lambda_grid, est.density))
    report = {
        "eigenindex": k,
        "eigenvalue": float(w[k]),
        "epsilon": eps,
        "interval": [a, b],
        "mass": mass,
    }
    return report, ["lambda", "density"], rows


@_experiment(
    "sde-convergence",
    "strong order of the Ito integrator against the time-changed propagator e^{-i beta(T) H}",
    level_min=Param(6, 0),
    level_max=Param(
        12, lambda doc: doc["params"]["level_min"] + 4,
        note="level_min + 4: the order fit needs a decade of step sizes",
    ),
    energy_cut=Param(2.5),
)
def _run_sde_convergence(ctx: RunContext):
    cfg, H = ctx.cfg, ctx.H
    c = H.to_eigenbasis(estimates.gaussian_packet(cfg.grid, width=2.0))
    c[H.eigenvalues > ctx.params["energy_cut"]] = 0.0
    c /= np.linalg.norm(c)
    u0 = H.from_eigenbasis(c)
    lmin, lmax = ctx.params["level_min"], ctx.params["level_max"]
    n_fine = 2**lmax
    levels = [2**k for k in range(lmin, lmax + 1)]
    ens = stochastic.sample_brownian(cfg.horizon, n_fine, cfg.n_paths, cfg.seed)
    # the exact flow on the modes the integrator keeps
    exact = spectral_operator.propagate_batch(
        H, ens.values[:, -1], u0, mode_tol=stochastic.EM_MODE_TOL
    )

    def strong_error(n_steps: int) -> float:
        em = stochastic.euler_maruyama_ito(H, ens.increments, cfg.horizon, u0, n_steps)
        # a sequential sum over paths; np.sum would pair the terms differently.
        # An error that overflows to inf is flagged by the degenerate fit below.
        with np.errstate(over="ignore"):
            return sum(
                np.sqrt(cfg.grid.h) * np.linalg.norm(em[:, p] - exact[:, p])
                for p in range(cfg.n_paths)
            )

    errs = np.array([strong_error(nst) for nst in levels]) / cfg.n_paths
    dts = np.array([cfg.horizon / n for n in levels])
    # an unstable step can overflow the errors: a degenerate fit, not an error
    rep = estimates.fit_report(dts, errs, cfg.n_paths, cfg.seed, n_boot=1000, min_points=len(levels))
    rows = list(zip(dts, errs))
    # extras holds only the degenerate flag and its reason, when set
    report = {"fitted_order": rep.fitted_slope, "slope_ci_95": rep.slope_ci_95, **rep.extras}
    return report, ["dt", "strong_error"], rows


@_experiment(
    "dispersive",
    "L1 -> Linf decay of the noise-driven propagator: fits the -1/2 exponent in |beta(t)|",
    t_min=_T_MIN,
    n_time_samples=Param(16, 1),
    **_packet_params(0.5),
)
def _run_dispersive(ctx: RunContext):
    cfg, H, u0 = ctx.cfg, ctx.H, _initial_data(ctx)
    ens = stochastic.sample_brownian(cfg.horizon, cfg.n_steps, cfg.n_paths, cfg.seed)
    rep = estimates.dispersive_experiment(
        H,
        ens,
        u0,
        t_min=ctx.params["t_min"],
        n_time_samples=ctx.params["n_time_samples"],
    )
    report = _report_from_estimate(rep)
    report["hypothesis_violation"] = rep.extras["resonant"]
    if rep.extras["resonant"]:
        report["warning"] = "zero-energy resonance detected"
    rows = list(zip(rep.abscissa, rep.values))
    return report, ["abs_beta", "sup_norm"], rows


@_experiment(
    "expectation-decay",
    "path-averaged sup-norm decay: fits the -1/4 exponent in t for p < 2",
    p_exponent=Param(1.0, 1, 2, "[)"),
    t_min=_T_MIN,
    n_time_samples=Param(24, 1),
    **_packet_params(0.18),
)
def _run_expectation_decay(ctx: RunContext):
    cfg, H, u0 = ctx.cfg, ctx.H, _initial_data(ctx)
    rep = estimates.expectation_decay_experiment(
        H,
        stochastic.sample_brownian(cfg.horizon, cfg.n_steps, cfg.n_paths, cfg.seed),
        u0,
        p=ctx.params["p_exponent"],
        t_min=ctx.params["t_min"],
        n_time_samples=ctx.params["n_time_samples"],
    )
    rows = list(zip(rep.abscissa, rep.values))
    return _report_from_estimate(rep), ["t", "mean_sup_norm"], rows


def _window_scaling(ctx: RunContext, experiment: Callable, *args, **kwargs):
    """Run a window-scaling experiment over params.horizons, sampled as the config says."""
    cfg = ctx.cfg
    rep = experiment(
        *args,
        horizons=ctx.params["horizons"],
        n_steps=cfg.n_steps,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        **kwargs,
    )
    rows = list(zip(rep.abscissa, rep.values, rep.extras["ratios"]))
    return _report_from_estimate(rep), ["horizon", "lhs", "ratio"], rows


@_experiment(
    "convolution-lemma",
    "Brownian singular-convolution scaling: T^(2 - alpha) window growth",
    alpha=Param(0.5, 0, 1, "[)"),
    horizons=_HORIZONS,
)
def _run_convolution_lemma(ctx: RunContext):
    return _window_scaling(ctx, estimates.convolution_lemma_experiment, alpha=ctx.params["alpha"])


@_experiment(
    "strichartz-hom",
    "mixed-norm window scaling T^(mu/2) of the free noise-driven evolution",
    horizons=_HORIZONS,
    project=Param(False),
    **_packet_params(0.5),
)
def _run_strichartz_hom(ctx: RunContext):
    return _window_scaling(
        ctx,
        estimates.strichartz_homogeneous_experiment,
        ctx.H,
        _initial_data(ctx),
        r=ctx.cfg.r,
        p=ctx.cfg.p,
        project=ctx.params["project"],
    )


@_experiment(
    "strichartz-inhom",
    "mixed-norm window scaling T^mu of the forced (Duhamel) term",
    horizons=_HORIZONS,
    project=Param(False),
    **_packet_params(1.0, "forcing", "odd"),
)
def _run_strichartz_inhom(ctx: RunContext):
    cfg = ctx.cfg
    g = _initial_data(ctx, "forcing")
    g = g / estimates.lp_norm_x(g, estimates.holder_conjugate(cfg.p), cfg.grid)
    return _window_scaling(
        ctx,
        estimates.strichartz_inhomogeneous_experiment,
        ctx.H,
        g,
        rho=cfg.rho,
        r=cfg.r,
        p=cfg.p,
        project=ctx.params["project"],
    )


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

    Nothing is written if the runner raises.  Each warning the run fired
    is printed to stderr, also when the runner raises, and a completed
    run lists them in the manifest; a hypothesis-violation warning still
    produces artifacts but exits with code 2.
    """
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # each distinct warning once
        ctx = RunContext(config)
        try:
            report, header, rows = EXPERIMENTS[config.experiment].runner(ctx)
        finally:
            fired = [{"category": w.category.__name__, "message": str(w.message)} for w in caught]
            for w in fired:
                print(f"warning: {w['category']}: {w['message']}", file=sys.stderr)
    eigensolves = ctx.eigensolves
    del ctx  # and with it any eigenbasis, before the artifacts are written
    code = 2 if any(issubclass(w.category, HypothesisViolationWarning) for w in caught) else 0
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
            "dispersion_lab": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "workers": worker_count(),
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "usable_cores": usable_cores(),
        "peak_rss_mb": _peak_rss_mb(),
        "wall_s": time.perf_counter() - t0,
        "eigensolves": eigensolves,
        "warnings": fired,
    }
    _write_json(out / "run_manifest.json", manifest)
    return code


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads_found": BLAS_THREADS_FOUND,
        "pinned": BLAS_PINNED,
    }


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
    """obj as JSON values: numpy scalars and arrays become Python ones, and
    every nan or infinite float becomes None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(_finite_or_null(doc), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


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
        for name, entry in EXPERIMENTS.items():
            print(f"{name:<{width}}  {entry.description}")
        print(
            f"({len(EXPERIMENTS)} experiments; workers: the BLAS threads found,"
            " capped by the usable cores)"
        )
        return 0

    try:
        config = load_config(args.config)
        if args.command == "validate":
            print(f"ok: {config.experiment} (hash {config.config_hash()[:12]})")
            return 0
        if args.seed is not None:  # the override is checked like any seed
            doc = config.to_canonical_dict()
            doc["stochastic"]["seed"] = args.seed
            config = ExperimentConfig.from_dict(doc)
        try:
            return run(config, out_dir=args.out)
        except MemoryError as exc:  # sizes are uncapped, so a valid config may ask for too much
            print(f"error: {config.experiment}: out of memory ({exc})", file=sys.stderr)
            return 1
    except (DispersionLabError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
