"""The tracer's wrappers are transparent, record nested spans, and are removed.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import dispersion_lab  # noqa: E402
from dispersion_lab import cli_runner, estimates, spectral_operator, stochastic  # noqa: E402
from tracer import COUNT_NAMES, SPAN_NAMES, Tracer  # noqa: E402

SMALL = {
    "experiment": "dispersive",
    "potential": {"family": "gaussian", "amplitude": 3.0, "width": 1.0},
    "grid": {"n_points": 256, "l_box": 20.0},
    "stochastic": {"horizon": 8.0, "n_steps": 32, "n_paths": 6, "seed": 3},
    "params": {"n_time_samples": 12},
}


def bindings():
    """Every (module, name) -> object in the package, plus the traced methods."""
    mods = [dispersion_lab] + [
        importlib.import_module(f"dispersion_lab.{m.name}")
        for m in pkgutil.iter_modules(dispersion_lab.__path__)
    ]
    out = {(mod.__name__, k): v for mod in mods for k, v in vars(mod).items()}
    H = spectral_operator.DiscreteHamiltonian
    out[("H", "to")] = H.__dict__["to_eigenbasis"]
    out[("H", "from")] = H.__dict__["from_eigenbasis"]
    return out


def run_small(tmp_path, tag):
    cfg = cli_runner.ExperimentConfig.from_dict(SMALL)
    code = cli_runner.run(cfg, out_dir=tmp_path / tag)
    return code, (tmp_path / tag / "data.csv").read_bytes(), json.loads(
        (tmp_path / tag / "report.json").read_text()
    )


def test_wrappers_cover_copies_and_are_removed(tmp_path):
    before = bindings()
    tracer = Tracer()
    with tracer:
        # copies made by `from .x import f` are wrapped too
        assert estimates.ordered_map is not before[("dispersion_lab._parallel", "ordered_map")]
        assert estimates.ordered_map is dispersion_lab._parallel.ordered_map
        assert stochastic.propagate_batch is spectral_operator.propagate_batch
        assert estimates.detect_resonance.__wrapped__ is before[("dispersion_lab.scattering", "detect_resonance")]
        assert dispersion_lab.build_hamiltonian is spectral_operator.build_hamiltonian
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_is_transparent(tmp_path):
    plain = run_small(tmp_path, "plain")
    tracer = Tracer()
    with tracer:
        traced = run_small(tmp_path, "traced")
    assert traced == plain

    table = tracer.layer_table()
    assert set(table) == set(SPAN_NAMES)
    assert table["cli_runner.run"]["calls"] == 1
    assert table["estimates.dispersive_experiment"]["calls"] == 1
    assert table["spectral_operator.build_hamiltonian"]["calls"] == 1
    # the resonance check inside the experiment is reached through the copy
    assert table["scattering.detect_resonance"]["calls"] == 1
    run = table["cli_runner.run"]
    assert 0.0 <= run["self_s"] <= run["s"]

    spans = tracer.span_records()
    by_id = {s["id"]: s for s in spans}
    exp = next(s for s in spans if s["name"] == "estimates.dispersive_experiment")
    assert by_id[exp["parent"]]["name"] == "cli_runner.run"
    # the closure handed to ordered_map gets an estimates span under it
    items = [s for s in spans if s["name"] == "estimates.work_item"]
    assert items and all(by_id[s["parent"]]["name"] == "parallel.ordered_map" for s in items)
    assert len(items) == tracer.counts["parallel.ordered_map.items"]
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]

    counts = tracer.counts
    assert set(counts) == set(COUNT_NAMES)
    assert counts["spectral_operator.build_hamiltonian.n_sum"] == 256
    assert counts["stochastic.sample_brownian.increments"] == 6 * 32
    assert 0 < counts["estimates.dispersive.kept"] <= counts["estimates.dispersive.taus"]
    assert counts["cli_runner.write_csv.bytes"] == len(plain[1])


def test_install_twice_is_refused():
    tracer = Tracer()
    with tracer, pytest.raises(RuntimeError):
        tracer.install()
