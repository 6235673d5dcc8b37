"""The result verifier accepts in-band results and rejects out-of-band ones.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from cases import DEFAULT_SEED, LONG_CASES, WORKLOADS, Result, verify  # noqa: E402

CASES = {case.name: case for cases in WORKLOADS.values() for case in cases}


def result(metrics=None, rows=(), exit_code=0):
    return Result(exit_code=exit_code, report={"metrics": metrics or {}}, rows=[list(r) for r in rows])


@pytest.mark.parametrize(
    "name, good, bad",
    [
        ("dispersive-free", {"fitted_slope": -0.49}, {"fitted_slope": -0.56}),
        (
            "dispersive-gaussian-odd",
            {"fitted_slope": -0.45, "hypothesis_violation": False},
            {"fitted_slope": -0.45, "hypothesis_violation": True},
        ),
        ("expectation-decay", {"fitted_slope": -0.235}, {"fitted_slope": -0.21}),
        (
            "convolution-lemma",
            {"fitted_slope": 2.53, "extras": {"ratio_max_min": 1.2}},
            {"fitted_slope": 2.53, "extras": {"ratio_max_min": 3.5}},
        ),
        (
            "strichartz-hom-44",
            {"fitted_slope": 0.17, "extras": {"ratio_max_min": 1.05}},
            {"fitted_slope": 0.13, "extras": {"ratio_max_min": 1.05}},
        ),
        ("strichartz-inhom-244", {"extras": {"ratio_max_min": 1.24}}, {"extras": {"ratio_max_min": 5.0}}),
        ("sde-convergence", {"fitted_order": 0.515}, {"fitted_order": 0.7}),
        ("resolvent-check", {"max_rel_err": 9.4e-5}, {"max_rel_err": 2e-3}),
        ("stone-density", {"mass": 0.992}, {"mass": 0.98}),
        (
            "scatter-sweep",
            {"max_unitarity_deviation": 1.5e-11, "resonant_at_zero": False},
            {"max_unitarity_deviation": 1e-5, "resonant_at_zero": False},
        ),
        (
            "born-check",
            {"ratios_ok": True, "max_ratio": 0.05, "ratio_bound": 0.25},
            {"ratios_ok": True, "max_ratio": 0.3, "ratio_bound": 0.25},
        ),
        ("resonance-zero", {"resonant": True}, {"resonant": False}),
        ("resonance-gaussian", {"resonant": False}, {"resonant": True}),
    ],
)
def test_band_edges(name, good, bad):
    case = CASES[name]
    assert verify(case, result(good)) is None
    reason = verify(case, result(bad))
    assert reason is not None and reason.startswith(f"criterion {case.criterion}:")


def test_nan_slope_is_rejected():
    assert verify(CASES["dispersive-free"], result({"fitted_slope": math.nan})) is not None


def test_unexpected_exit_code_is_rejected():
    assert verify(CASES["dispersive-free"], result({"fitted_slope": -0.49}, exit_code=2)) is not None


def test_unit_windows_read_from_csv():
    case = CASES["strichartz-hom-22"]
    exact = [(t, math.sqrt(t), 1.0) for t in (0.25, 1.0, 4.0)]
    assert verify(case, result(rows=exact)) is None
    off = [(t, math.sqrt(t) + 1e-8, 1.0) for t in (0.25, 1.0, 4.0)]
    assert verify(case, result(rows=off)) is not None


def test_missing_metric_is_a_failure_not_a_crash():
    reason = verify(CASES["resolvent-check"], result({}))
    assert "unreadable" in reason


def test_result_reads_run_artifacts(tmp_path):
    (tmp_path / "report.json").write_text(json.dumps({"metrics": {"max_rel_err": 1e-2}}))
    (tmp_path / "data.csv").write_text("# schema=1\na,b\n1.0,2.5\n")
    res = Result.read(tmp_path, 0)
    assert res.rows == [[1.0, 2.5]]
    assert verify(CASES["resolvent-check"], res) is not None


def test_default_seed_reproduces_acceptance_seeds():
    for case in CASES.values():
        assert case.config_for(DEFAULT_SEED)["stochastic"]["seed"] == case.acceptance_seed


def test_seed_moves_only_cases_that_hold_at_every_seed():
    for case in CASES.values():
        offset = 0 if case.mc_band else 5
        assert case.config_for(5)["stochastic"]["seed"] == case.acceptance_seed + offset
    assert CASES["expectation-decay"].mc_band and CASES["sde-convergence"].mc_band
    assert not CASES["strichartz-hom-22"].mc_band


def test_long_cases_exist():
    for workload, names in LONG_CASES.items():
        assert set(names) <= {c.name for c in WORKLOADS[workload]}
