"""Workload tables: the experiment configs each workload runs, and the pass
condition each result must meet.

Every config reproduces one acceptance criterion of tests/test_acceptance.py
at its full size, expressed through the config grammar of
``dispersion_lab.cli_runner`` so that it runs through the public ``run``.
Each pass condition reads the run's ``report.json`` / ``data.csv`` and applies
the tolerance that criterion pins.  This module needs only the standard
library, so the parent benchmark process never imports numpy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The seed argument is an offset: seed 0 reproduces the acceptance seeds.
# It moves only the seeds of cases whose pass condition holds at every seed.
# A Monte Carlo band of tests/test_acceptance.py is pinned at its acceptance
# seed and is not a confidence band: at other seeds the estimate leaves it now
# and then (criterion 3's slope has sd ~0.006 and sits ~2.7 sd inside the
# band's upper edge), so such a case keeps its acceptance seed.
DEFAULT_SEED = 0

HORIZONS_9 = [0.25, 0.353553, 0.5, 0.707107, 1.0, 1.414214, 2.0, 2.828427, 4.0]

GAUSS31 = {"family": "gaussian", "amplitude": 3.0, "width": 1.0}
SECH21 = {"family": "sech_squared", "amplitude": -2.0, "width": 1.0}
ZERO = {"family": "zero"}
SCATTER_GRID = {"n_points": 4001, "l_box": 20.0}


@dataclass(frozen=True)
class Result:
    """What one experiment run left behind."""

    exit_code: int
    report: dict  # report.json
    rows: list  # data.csv rows as floats, header and schema line dropped

    @classmethod
    def read(cls, out_dir: Path, exit_code: int) -> "Result":
        report = json.loads((Path(out_dir) / "report.json").read_text())
        with open(Path(out_dir) / "data.csv", newline="") as fh:
            lines = list(csv.reader(fh))
        rows = [[float(c) for c in line] for line in lines[2:]]
        return cls(exit_code=exit_code, report=report, rows=rows)

    @property
    def metrics(self) -> dict:
        return self.report["metrics"]


@dataclass(frozen=True)
class Case:
    """One experiment: its config (seed left to the workload) and pass check."""

    name: str
    criterion: int
    acceptance_seed: int
    config: dict
    check: Callable[[Result], bool]
    condition: str  # the check in words, for failure messages
    mc_band: bool = False  # a Monte Carlo band pinned at acceptance_seed

    def config_for(self, seed: int) -> dict:
        offset = 0 if self.mc_band else seed
        cfg = json.loads(json.dumps(self.config))
        cfg.setdefault("stochastic", {})["seed"] = (self.acceptance_seed + offset) % 2**32
        return cfg


def _within(value, lo, hi) -> bool:
    return isinstance(value, (int, float)) and lo <= value <= hi


def _ratio_below(limit):
    return lambda r: r.metrics["extras"]["ratio_max_min"] < limit


def _unit_windows(r: Result) -> bool:
    # exact (2, 2) case: unitarity makes the window norm sqrt(T)
    return len(r.rows) == 3 and all(abs(lhs - math.sqrt(t)) < 1e-9 for t, lhs, _ in r.rows)


def _born_ratios(r: Result) -> bool:
    m = r.metrics
    return m["ratios_ok"] is True and m["max_ratio"] <= 1.1 * m["ratio_bound"]


def _strichartz(potential, n_paths, norms, **params):
    return {
        "experiment": "strichartz-hom" if "rho" not in norms else "strichartz-inhom",
        "potential": potential,
        "grid": {"n_points": 1024, "l_box": 30.0},
        "stochastic": {"horizon": 4.0, "n_steps": 128, "n_paths": n_paths},
        "norms": norms,
        "params": params,
    }


MC_PROPAGATE = [
    Case(
        "dispersive-free", 1, 42,
        {
            "experiment": "dispersive",
            "potential": ZERO,
            "grid": {"n_points": 2048, "l_box": 40.0},
            "stochastic": {"horizon": 8.0, "n_steps": 256, "n_paths": 200},
        },
        lambda r: r.exit_code == 0 and _within(r.metrics["fitted_slope"], -0.55, -0.45),
        "exit 0 and fitted_slope in [-0.55, -0.45]",
        mc_band=True,
    ),
    Case(
        "dispersive-gaussian-odd", 2, 42,
        {
            "experiment": "dispersive",
            "potential": GAUSS31,
            "grid": {"n_points": 2048, "l_box": 40.0},
            "stochastic": {"horizon": 8.0, "n_steps": 256, "n_paths": 200},
            "params": {"u0_shape": "odd", "u0_width": 0.8},
        },
        lambda r: (
            r.exit_code == 0
            and r.metrics["hypothesis_violation"] is False
            and _within(r.metrics["fitted_slope"], -0.60, -0.40)
        ),
        "exit 0, not resonant, fitted_slope in [-0.60, -0.40]",
        mc_band=True,
    ),
    Case(
        "expectation-decay", 3, 7,
        {
            "experiment": "expectation-decay",
            "potential": ZERO,
            "grid": {"n_points": 3072, "l_box": 100.0},
            "stochastic": {"horizon": 16.0, "n_steps": 512, "n_paths": 1000},
            "params": {"p_exponent": 1.0, "t_min": 0.5, "n_time_samples": 32, "u0_width": 0.18},
        },
        lambda r: _within(r.metrics["fitted_slope"], -0.28, -0.22),
        "fitted_slope in [-0.28, -0.22]",
        mc_band=True,
    ),
    Case(
        "convolution-lemma", 8, 21,
        {
            "experiment": "convolution-lemma",
            "stochastic": {"n_steps": 128, "n_paths": 500},
            "params": {"alpha": 0.5, "horizons": HORIZONS_9},
        },
        lambda r: abs(r.metrics["fitted_slope"] - 2.5) <= 0.15
        and r.metrics["extras"]["ratio_max_min"] < 3.0,
        "|fitted_slope - 2.5| <= 0.15 and ratio_max_min < 3",
        mc_band=True,
    ),
    Case(
        "strichartz-hom-44", 9, 51,
        _strichartz(ZERO, 64, {"r": 4.0, "p": 4.0}, horizons=HORIZONS_9),
        lambda r: r.metrics["fitted_slope"] >= 3.0 / 16.0 - 0.05
        and r.metrics["extras"]["ratio_max_min"] < 5.0,
        "fitted_slope >= mu(4,4)/2 - 0.05 and ratio_max_min < 5",
        mc_band=True,
    ),
    Case(
        "strichartz-hom-44-sech-projected", 9, 54,
        _strichartz(SECH21, 48, {"r": 4.0, "p": 4.0}, horizons=HORIZONS_9, project=True),
        _ratio_below(5.0),
        "ratio_max_min < 5",
        mc_band=True,
    ),
    Case(
        "strichartz-hom-22", 9, 52,
        _strichartz(ZERO, 8, {"r": 2.0, "p": 2.0}, horizons=[0.25, 1.0, 4.0]),
        _unit_windows,
        "|lhs - sqrt(T)| < 1e-9 on every window",
    ),
    Case(
        "strichartz-inhom-244", 9, 53,
        _strichartz(
            ZERO, 64, {"rho": 2.0, "r": 4.0, "p": 4.0},
            horizons=HORIZONS_9, forcing_shape="odd", forcing_width=1.0,
        ),
        _ratio_below(5.0),
        "ratio_max_min < 5",
        mc_band=True,
    ),
]

SDE_ORDER = [
    Case(
        "sde-convergence", 4, 9,
        {
            "experiment": "sde-convergence",
            "potential": GAUSS31,
            "grid": {"n_points": 1024, "l_box": 40.0},
            "stochastic": {"horizon": 1.0, "n_paths": 200},
            "params": {"level_min": 6, "level_max": 12, "energy_cut": 2.5},
        },
        lambda r: _within(r.metrics["fitted_order"], 0.35, 0.65),
        "fitted_order in [0.35, 0.65]",
        mc_band=True,
    ),
]


def _resonance(name, potential, verdict):
    return Case(
        name, 10, 1,
        {"experiment": "resonance", "potential": potential, "grid": SCATTER_GRID},
        lambda r: r.metrics["resonant"] is verdict,
        f"resonant is {verdict}",
    )


SPECTRAL_ORACLES = [
    Case(
        "scatter-sweep", 10, 1,
        {
            "experiment": "scatter-sweep",
            "potential": GAUSS31,
            "grid": SCATTER_GRID,
            "params": {"n_lambdas": 48},
        },
        lambda r: r.metrics["max_unitarity_deviation"] < 1e-6
        and r.metrics["resonant_at_zero"] is False,
        "max_unitarity_deviation < 1e-6 and not resonant",
    ),
    _resonance("resonance-zero", ZERO, True),
    _resonance("resonance-gaussian", GAUSS31, False),
    _resonance("resonance-sech2", SECH21, True),
    Case(
        "resolvent-check", 5, 1,
        {"experiment": "resolvent-check", "potential": GAUSS31, "grid": SCATTER_GRID},
        lambda r: r.metrics["max_rel_err"] < 1e-3,
        "max_rel_err < 1e-3",
    ),
    Case(
        "born-check", 6, 1,
        {
            "experiment": "born-check",
            "potential": GAUSS31,
            "grid": {"n_points": 4097, "l_box": 15.0},
            "params": {"energy_factor": 4.0, "n_terms": 20},
        },
        _born_ratios,
        "ratios_ok and max_ratio <= 1.1 * ratio_bound",
    ),
    Case(
        "stone-density", 7, 1,
        {
            "experiment": "stone-density",
            "potential": GAUSS31,
            "grid": {"n_points": 1024, "l_box": 40.0},
            "params": {"eigenindex": 12, "epsilon_factor": 0.1, "margin_factor": 80.0},
        },
        lambda r: abs(r.metrics["mass"] - 1.0) < 1e-2,
        "|mass - 1| < 1e-2",
    ),
]

WORKLOADS = {
    "mc-propagate": MC_PROPAGATE,
    "sde-order": SDE_ORDER,
    "spectral-oracles": SPECTRAL_ORACLES,
}

# The experiments that take most of each workload's time; their summed run
# time is steadier than wall_s, which also holds the short, noisier ones.
LONG_CASES = {
    "mc-propagate": ("expectation-decay", "strichartz-inhom-244"),
    "sde-order": ("sde-convergence",),
    "spectral-oracles": ("scatter-sweep", "resolvent-check"),
}


def verify(case: Case, result: Result) -> str | None:
    """None when the result meets its criterion, else the reason it does not."""
    try:
        ok = bool(case.check(result))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"criterion {case.criterion}: unreadable result ({exc!r})"
    if ok:
        return None
    return f"criterion {case.criterion}: expected {case.condition}"
