"""BENCHMARK.json names exactly the workloads and metrics run.py produces.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from cases import WORKLOADS  # noqa: E402
from run import END_TO_END, layer_metrics  # noqa: E402
from tracer import COUNT_NAMES, SPAN_NAMES  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fake_traced_metrics():
    traced = {
        "layers": {n: {"calls": 1, "s": 0.5, "self_s": 0.25} for n in SPAN_NAMES},
        "counts": {n: 1 for n in COUNT_NAMES},
        "workers": 1,
        "wall_s": 1.0,
    }
    return layer_metrics({"wall_s": 1.0}, traced)


def test_workloads_match_cases():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_matches_run():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_matches_run():
    produced = {name: unit for name, (_, unit) in fake_traced_metrics().items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == produced


def test_names_are_valid_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
