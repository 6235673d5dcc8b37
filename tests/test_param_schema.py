"""The config schemas, params and sections alike: typed values, field paths, no tracebacks."""

import json
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dispersion_lab import cli_runner, spectral_operator
from dispersion_lab.cli_runner import (
    EXPERIMENTS,
    SECTIONS,
    ExperimentConfig,
    RunContext,
    load_config,
    main,
    run,
)
from dispersion_lab.errors import DomainError, StabilityWarning, ValidationError

# malformed params, each with the field its error must name
MALFORMED = [
    ("scatter-sweep", {"n_lambdas": "x"}, "n_lambdas"),
    ("strichartz-hom", {"horizons": []}, "horizons"),
    ("stone-density", {"epsilon_factor": 0}, "epsilon_factor"),
    ("born-check", {"n_terms": -1}, "n_terms"),
    ("resolvent-check", {"lambdas": "abc"}, "lambdas"),
    ("sde-convergence", {"level_min": 5, "level_max": 3}, "level_max"),
    ("scatter-sweep", {"n_lambdas": 0}, "n_lambdas"),
    ("strichartz-inhom", {"forcing_shape": "weird"}, "forcing_shape"),
    ("strichartz-hom", {"project": "no"}, "project"),
    ("dispersive", {"u0_shape": "square"}, "u0_shape"),
    ("expectation-decay", {"p_exponent": 3}, "p_exponent"),
    ("convolution-lemma", {"horizons": [1.0, -2.0]}, "horizons"),
    # T^(3 - alpha) overflows, or underflows to 0: these used to pass validate
    # and write inf and nan, or 0.0, cells
    ("convolution-lemma", {"horizons": [1e200, 1e210]}, "horizons"),
    ("convolution-lemma", {"horizons": [1e-300, 1e-290]}, "horizons"),
    # past the count where every term of a series within the checked ratio
    # bound is exactly 0; 2**70 used to run on with a banded solve per term
    ("born-check", {"n_terms": 2434}, "n_terms"),
    ("born-check", {"n_terms": 2**70}, "n_terms"),
    # 8 * margin_factor banded solves: above the cap of 1e3 a run could take hours
    ("stone-density", {"margin_factor": 1e308}, "margin_factor"),
    ("stone-density", {"margin_factor": 1000.5}, "margin_factor"),
    # at most stochastic.n_steps (64 here) distinct sample times exist; 10**9
    # would allocate 8 GB of sample times before dropping the duplicates
    ("dispersive", {"n_time_samples": 10**9}, "n_time_samples"),
    ("expectation-decay", {"n_time_samples": 65}, "n_time_samples"),
    # probes -4.5, 0, 4.5 beyond the box [-4, 4], which the oracle grid and
    # the Jost tables span
    ("resolvent-check", {"probe_half_width": 4.5, "n_probes": 3}, "probe_half_width"),
]

# malformed values of the other sections, each keyed by the field path its
# error must name; each used to pass validate and then run on a silently
# coerced value or fail late
MALFORMED_SECTIONS = [
    ("stochastic.n_paths", {"stochastic": {"n_paths": 2.5}}),
    ("stochastic.n_steps", {"stochastic": {"n_steps": True}}),
    ("stochastic.horizon", {"stochastic": {"horizon": "8"}}),
    ("stochastic.horizon", {"stochastic": {"horizon": -1}}),
    ("stochastic.seed", {"stochastic": {"seed": "7"}}),
    ("stochastic.seed", {"stochastic": {"seed": -1}}),
    ("stochastic.seed", {"stochastic": {"seed": 1e30}}),
    ("stochastic.seed", {"stochastic": {"seed": 2**64}}),
    ("grid.n_points", {"grid": {"n_points": 64.7}}),
    ("grid.n_points", {"grid": {"n_points": "64"}}),
    ("grid.l_box", {"grid": {"l_box": True}}),
    # 2 l_box overflows: h is inf and x NaN
    ("grid.l_box", {"grid": {"l_box": 1e308}}),
    # the stencil's h^2 overflows, and underflows to 0 (161 nodes): these used
    # to pass validate and end run with a step error that named no field
    ("grid.l_box", {"grid": {"l_box": 1e200}}),
    ("grid.l_box", {"grid": {"l_box": 1e-200}}),
    # a custom table that does not cover the box [-4, 4]: this used to pass
    # validate and end run with an error that named no field
    ("grid.l_box", {"potential": {"family": "custom_table", "table": [[-1, 0], [0, -1], [1, 0]]}}),
    ("output_dir", {"output_dir": 5}),
    ("potential.amplitude", {"potential": {"amplitude": "3"}}),
    ("potential.table", {"potential": {"table": "ab"}}),
    ("potential.table", {"potential": {"table": [[0, 1, 2]]}}),
    ("norms.p", {"norms": {"p": 0.5}}),
    ("norms.p", {"norms": {"p": [4]}}),
    # PotentialSpec's own checks, each message led by its field
    ("potential.width", {"potential": {"width": -1}}),
    ("potential.table", {"potential": {"family": "custom_table"}}),
    ("potential.table", {"potential": {"family": "custom_table", "table": [[50, 0], [-50, 0], [60, 1]]}}),
]

# small enough that any experiment runs in well under a second
TINY = {
    "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
    "grid": {"n_points": 161, "l_box": 4.0},
    "stochastic": {"horizon": 16.0, "n_steps": 64, "n_paths": 2, "seed": 3},
}
TINY_PARAMS = {
    "resolvent-check": {"oracle_h": 0.05},
    "sde-convergence": {"level_max": 10},
}


def tiny_config(experiment, params, tmp_path):
    raw = dict(TINY, experiment=experiment, output_dir=str(tmp_path / "out"))
    raw["params"] = {**TINY_PARAMS.get(experiment, {}), **params}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def bound(b, doc):
    return b(doc) if callable(b) else b


@pytest.mark.parametrize("experiment, params, name", MALFORMED)
def test_malformed_params_fail_validate_with_field_path(tmp_path, capsys, experiment, params, name):
    path = tiny_config(experiment, params, tmp_path)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"params.{name}:" in err
    assert "Traceback" not in err
    assert main(["run", str(path)]) == 1
    assert not (tmp_path / "out").exists()


def test_malformed_message_names_what_is_expected():
    raw = {"experiment": "strichartz-hom", "params": {"horizons": []}}
    with pytest.raises(ValidationError) as exc:
        ExperimentConfig.from_dict(raw)
    assert str(exc.value) == "params.horizons: must be a non-empty list of numbers in (0, inf), got []"


def section_config(tmp_path, experiment="strichartz-hom", params=None, **sections):
    """A tiny config whose named sections are updated key by key."""
    raw = json.loads(tiny_config(experiment, params or {}, tmp_path).read_text())
    for name, value in sections.items():
        raw[name] = {**raw.get(name, {}), **value} if isinstance(value, dict) else value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def fails_cleanly(argv, path, field, capsys):
    """argv exits 1 with one error line naming field, no traceback, nothing written."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field}: " in err
    assert "Traceback" not in err and "params." not in err
    assert sorted(p.name for p in path.parent.iterdir()) == ["config.json"]


@pytest.mark.parametrize("field, sections", MALFORMED_SECTIONS)
def test_malformed_sections_fail_validate_and_run_with_field_path(
    tmp_path, capsys, monkeypatch, field, sections
):
    monkeypatch.chdir(tmp_path)  # a bad output_dir would land here
    path = section_config(tmp_path, **sections)
    for command in ("validate", "run"):
        fails_cleanly([command, str(path)], path, field, capsys)


@pytest.mark.parametrize("seed", ["-3", "18446744073709551616"])
def test_seed_override_goes_through_the_schema(tmp_path, capsys, seed):
    path = section_config(tmp_path)
    fails_cleanly(["run", str(path), "--seed", seed], path, "stochastic.seed", capsys)


def test_seed_edges():
    top = {"experiment": "dispersive", "stochastic": {"seed": 2**63 - 1}}
    assert ExperimentConfig.from_dict(top).seed == 2**63 - 1
    with pytest.raises(ValidationError, match=r"stochastic.seed: must be an integer in \[0, 9223372036854775808\)"):
        ExperimentConfig.from_dict({"experiment": "dispersive", "stochastic": {"seed": 2**63}})


@pytest.mark.parametrize("n_points", [16, 161, spectral_operator.DENSE_SOLVER_CAP])
def test_l_box_range_keeps_the_stencil_finite(n_points):
    # where eigenpairs of H are solved, the stencil of every l_box validate
    # takes is finite and nonzero, and just beyond either end fails at
    # validate; an experiment that solves none keeps (0, L_BOX_MAX]
    doc = {"experiment": "dispersive", "grid": {"n_points": n_points}}
    param = SECTIONS["grid"]["l_box"]
    lo, hi = bound(param.lo, doc), bound(param.hi, doc)
    for l_box in (math.nextafter(lo, math.inf), hi):
        cfg = ExperimentConfig.from_dict(dict(doc, grid={"n_points": n_points, "l_box": l_box}))
        diag, off = spectral_operator._stencil(cfg.grid, np.zeros(n_points))
        assert np.all(np.isfinite(diag)) and diag[0] > 0 > off[0] > -np.inf
    for l_box in (lo, math.nextafter(hi, math.inf)):
        with pytest.raises(ValidationError, match="grid.l_box: must be a number in "):
            ExperimentConfig.from_dict(dict(doc, grid={"n_points": n_points, "l_box": l_box}))
    jost = {"experiment": "resonance", "grid": {"n_points": n_points}}
    assert (bound(param.lo, jost), bound(param.hi, jost)) == (0.0, cli_runner.L_BOX_MAX)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0 - 1e-6])
def test_convolution_horizons_keep_every_cell_finite_and_nonzero(tmp_path, alpha):
    # a run at each end of the horizons' range writes finite, nonzero cells
    # and fires no warning; just beyond either end fails validate
    param = EXPERIMENTS["convolution-lemma"].params["horizons"]
    doc = {"params": {"alpha": alpha}}
    lo, hi = bound(param.lo, doc), bound(param.hi, doc)
    for i, horizons in enumerate(([lo, 10.0 * lo], [hi / 10.0, hi])):
        raw = {
            "experiment": "convolution-lemma",
            "stochastic": {"n_steps": 16, "n_paths": 8},
            "params": {"alpha": alpha, "horizons": horizons},
        }
        out = tmp_path / f"out{i}"
        assert run(ExperimentConfig.from_dict(raw), out_dir=out) == 0
        cells = np.loadtxt(out / "data.csv", delimiter=",", skiprows=2)
        assert cells.shape == (2, 3) and np.all(np.isfinite(cells)) and np.all(cells != 0)
        assert json.loads((out / "run_manifest.json").read_text())["warnings"] == []
    for t in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
        raw = {"experiment": "convolution-lemma", "params": {"alpha": alpha, "horizons": [t]}}
        with pytest.raises(ValidationError, match=r"params.horizons: must be a non-empty list"):
            ExperimentConfig.from_dict(raw)


def test_born_terms_cap_is_the_first_count_past_underflow(tmp_path):
    # under the ratio bound born-check checks, 1.1 / (2 sqrt(energy_factor))
    # < 0.55, term n of a series whose first term is below 2^1024 is below
    # 2^1024 * 0.55^n: the cap is the least n that puts it under the least
    # subnormal 2^-1074, where a float is 0
    cap = EXPERIMENTS["born-check"].params["n_terms"].hi
    assert 1024 + cap * math.log2(0.55) < -1074 <= 1024 + (cap - 1) * math.log2(0.55)
    # measured: a run at the cap has its terms reach 0 long before it
    out = tmp_path / "out"
    assert run(load_config(tiny_config("born-check", {"n_terms": cap}, tmp_path)), out_dir=out) == 0
    sups = np.loadtxt(out / "data.csv", delimiter=",", skiprows=2, usecols=1)
    first_zero = int(np.argmax(sups == 0.0))
    assert len(sups) == cap + 1 and 0 < first_zero < cap and not np.any(sups[first_zero:])
    assert json.loads((out / "report.json").read_text())["metrics"]["ratios_ok"] is True


@pytest.mark.parametrize("spelling", ["inf", "INF", "Infinity", "infinity"])
def test_inf_spellings_are_stored_as_inf(spelling):
    cfg = ExperimentConfig.from_dict({"experiment": "strichartz-hom", "norms": {"rho": spelling}})
    assert cfg.rho == math.inf and cfg.to_canonical_dict()["norms"]["rho"] == "inf"


def test_table_is_stored_as_float_pairs():
    table = [[-5, 0], [0, -1], [5.0, 0]]
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "resonance",
            "potential": {"family": "custom_table", "table": table},
            "grid": {"l_box": 5},
        }
    )
    assert cfg.to_canonical_dict()["potential"]["table"] == [[-5.0, 0.0], [0.0, -1.0], [5.0, 0.0]]
    assert cfg.potential.table == ((-5.0, 0.0), (0.0, -1.0), (5.0, 0.0))


def test_config_is_frozen():
    cfg = ExperimentConfig.from_dict({"experiment": "dispersive"})
    with pytest.raises(AttributeError):
        cfg.seed = 12


# h = 0.05 on the tiny grid: a packet of width 1e-3 underflows at every node
@pytest.mark.parametrize(
    "experiment, params, field",
    [
        ("dispersive", {"u0_shape": "odd", "u0_width": 1e-3}, "params.u0_width"),
        ("strichartz-hom", {"u0_shape": "odd", "u0_width": 1e-3}, "params.u0_width"),
        ("expectation-decay", {"u0_shape": "odd", "u0_width": 1e-3}, "params.u0_width"),
        ("strichartz-inhom", {"forcing_width": 1e-3}, "params.forcing_width"),
    ],
)
def test_datum_that_samples_to_zero_is_an_error(tmp_path, capsys, experiment, params, field):
    path = tiny_config(experiment, params, tmp_path)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field}: " in err and "samples to zero" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_expectation_decay_with_too_few_times_is_degenerate(tmp_path):
    assert run(load_config(tiny_config("expectation-decay", {"n_time_samples": 2}, tmp_path))) == 0
    metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
    assert metrics["fitted_slope"] is None
    assert metrics["extras"]["degenerate"] is True
    assert "need at least 8 pairs, got 2" in metrics["extras"]["degenerate_reason"]


def test_sde_convergence_with_overflowing_errors_is_degenerate(tmp_path, capsys):
    # modes up to energy 40 make the coarse explicit steps blow up, so some
    # strong errors overflow; the fit is flagged, the run still completes
    path = tiny_config("sde-convergence", {"energy_cut": 40.0}, tmp_path)
    assert main(["run", str(path)]) == 0
    err = capsys.readouterr().err
    assert "warning: StabilityWarning:" in err and "Traceback" not in err
    # the overflow itself is flagged by the StabilityWarning, not by numpy
    assert "RuntimeWarning" not in err
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert {w["category"] for w in manifest["warnings"]} == {"StabilityWarning"}
    metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
    assert metrics["fitted_order"] is None and metrics["slope_ci_95"] == [None, None]
    assert metrics["degenerate"] is True
    assert metrics["degenerate_reason"] == "log-log fit needs finite abscissa and values"


def test_sde_convergence_normal_report_has_no_degenerate_keys(tmp_path):
    assert run(load_config(tiny_config("sde-convergence", {}, tmp_path))) == 0
    metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
    assert sorted(metrics) == ["fitted_order", "slope_ci_95"]


class TestWarnings:
    def test_failing_run_prints_its_warnings_before_the_error(self, tmp_path, capsys, monkeypatch):
        def runner(ctx):
            warnings.warn("step too large", StabilityWarning)
            raise DomainError("the run broke")

        entry = EXPERIMENTS["convolution-lemma"]
        monkeypatch.setitem(EXPERIMENTS, "convolution-lemma", replace(entry, runner=runner))
        assert main(["run", str(tiny_config("convolution-lemma", {}, tmp_path))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: StabilityWarning: step too large",
            "error: the run broke",
        ]
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # what a valid config with arrays too large to allocate (sde-convergence
        # at level_max 40 asks for 16 TiB) ends in; raised here, never allocated
        def runner(ctx):
            warnings.warn("step too large", StabilityWarning)
            raise MemoryError("Unable to allocate 16.0 TiB")

        entry = EXPERIMENTS["sde-convergence"]
        monkeypatch.setitem(EXPERIMENTS, "sde-convergence", replace(entry, runner=runner))
        assert main(["run", str(tiny_config("sde-convergence", {}, tmp_path))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: StabilityWarning: step too large",
            "error: sde-convergence: out of memory (Unable to allocate 16.0 TiB)",
        ]
        assert not (tmp_path / "out").exists()

    def test_stability_warning_is_listed_in_the_manifest(self, tmp_path, capsys):
        # with modes up to energy 10 kept, dt * lambda^2 > 1 at the coarse levels
        path = tiny_config("sde-convergence", {"energy_cut": 10.0}, tmp_path)
        assert run(load_config(path)) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        stability = [w for w in manifest["warnings"] if w["category"] == "StabilityWarning"]
        assert stability and "the explicit step amplifies those modes" in stability[0]["message"]
        assert "warning: StabilityWarning: dt * max occupied eigenvalue^2" in capsys.readouterr().err
        assert "Warning" not in (tmp_path / "out" / "report.json").read_text()

    def test_resonance_warning_sets_exit_two(self, tmp_path):
        path = section_config(
            tmp_path,
            "dispersive",
            potential={"family": "sech_squared", "amplitude": -2.0, "width": 1.0},
            grid={"n_points": 256, "l_box": 10.0},
        )
        assert main(["run", str(path)]) == 2
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert [w["category"] for w in manifest["warnings"]] == ["HypothesisViolationWarning"]
        metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
        assert metrics["hypothesis_violation"] is True

    def test_quiet_run_lists_no_warnings(self, tmp_path):
        assert run(load_config(tiny_config("convolution-lemma", {}, tmp_path))) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["warnings"] == []


def test_every_bad_param_is_reported_at_once():
    raw = {"experiment": "dispersive", "params": {"t_min": -1, "u0_shape": "square"}}
    with pytest.raises(ValidationError, match="params.t_min: .*; params.u0_shape: must be one of"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "param, value, stored",
    [("eigenindex", 12.0, 12), ("epsilon_factor", 1, 1.0), ("margin_factor", 80, 80.0)],
)
def test_values_are_stored_typed(param, value, stored):
    cfg = ExperimentConfig.from_dict({"experiment": "stone-density", "params": {param: value}})
    assert cfg.params[param] == stored and type(cfg.params[param]) is type(stored)


def test_schema_defaults_are_valid():
    for name, entry in EXPERIMENTS.items():
        cfg = ExperimentConfig.from_dict({"experiment": name})
        assert set(cfg.params) == set(entry.params)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_tiny_configs_run(tmp_path, monkeypatch, workers, experiment):
    # and write the same bytes at 1 and 2 workers; tau blocks of 16 and
    # Duhamel groups of one path give the pool several work items even here
    monkeypatch.setattr(spectral_operator, "_TAU_CHUNK", 16)
    config = load_config(tiny_config(experiment, {}, tmp_path))
    blobs = []
    for n in (1, 2):
        out = tmp_path / str(n)
        with workers(n):
            assert run(config, out_dir=out) == 0
        blobs.append([(out / name).read_bytes() for name in ("data.csv", "report.json")])
    assert blobs[0] == blobs[1]


class TestRunContext:
    def test_builds_only_what_the_runner_reads(self, tmp_path, monkeypatch):
        calls = []
        real = cli_runner.sample_potential
        monkeypatch.setattr(cli_runner, "sample_potential", lambda *a: calls.append(1) or real(*a))
        cfg = load_config(tiny_config("convolution-lemma", {}, tmp_path))
        run(cfg, out_dir=tmp_path / "a")
        assert calls == []
        cfg = load_config(tiny_config("dispersive", {}, tmp_path))
        run(cfg, out_dir=tmp_path / "b")
        assert calls == [1]

    def test_hamiltonian_is_freed_when_the_run_returns(self, tmp_path, monkeypatch):
        # a benchmark workload keeps all its configs alive between runs
        built = []
        real = cli_runner.spectral_operator.build_hamiltonian
        monkeypatch.setattr(
            cli_runner.spectral_operator,
            "build_hamiltonian",
            lambda V: built.append(weakref.ref(H := real(V))) or H,
        )
        cfg = load_config(tiny_config("dispersive", {}, tmp_path))
        before = dict(vars(cfg))
        run(cfg, out_dir=tmp_path / "a")
        assert len(built) == 1 and built[0]() is None
        assert vars(cfg) == before

    def test_hamiltonian_is_built_once(self):
        ctx = RunContext(ExperimentConfig.from_dict({"experiment": "stone-density", **TINY}))
        assert ctx.H is ctx.H and ctx.H.potential is ctx.V


# ---------------------------------------------------------------------------
# property tests, with values drawn from each schema's own bounds

def valid_values(param, doc):
    """Values the schema accepts, in the spellings JSON allows for them."""
    d = param.default
    if isinstance(d, bool):
        return st.booleans()
    if isinstance(d, str):
        return st.sampled_from(param.choices)
    lo, hi = bound(param.lo, doc), bound(param.hi, doc)
    if lo > hi or (lo == hi and param.ends != "[]"):
        return st.nothing()  # a bound derived from a drawn value left no room
    if isinstance(d, int):
        lo, hi = max(lo, -1000), hi - (param.ends[1] == ")")
        ints = st.integers(lo, min(hi, lo + 1000))
        if math.isfinite(hi):  # the top of a bounded range, such as the seed's 2**63 - 1
            ints |= st.integers(max(lo, hi - 1000), hi)
        # an integral float is an int, where the float is exact
        return ints | ints.filter(lambda i: float(i) == i).map(float)
    # open-ended ranges are cut at 1e9, so that a bound derived from a drawn
    # value (the oracle grid's, say) still leaves room for a valid value
    floats = st.floats(
        max(lo, -1e9), min(hi, 1e9), exclude_min=param.ends[0] == "(", exclude_max=param.ends[1] == ")"
    )
    numbers = floats | floats.filter(lambda x: abs(x) < 1e15 and x.is_integer()).map(int)
    if param.inf:
        numbers |= st.sampled_from(["inf", "INF", "Infinity", "infinity"])
    if isinstance(d, list):
        return st.lists(numbers, min_size=1, max_size=4)
    return st.none() | numbers if d is None else numbers


@settings(max_examples=60, deadline=None, print_blob=True)
@given(experiment=st.sampled_from(sorted(EXPERIMENTS)), data=st.data())
def test_round_trip_keeps_the_hash(experiment, data):
    # the potential is left at its default: PotentialSpec checks its width
    schema = {name: SECTIONS[name] for name in ("grid", "stochastic", "norms")}
    schema["params"] = EXPERIMENTS[experiment].params
    doc = ExperimentConfig.from_dict({"experiment": experiment}).to_canonical_dict()
    raw = {"experiment": experiment}
    for section, fields in schema.items():
        for name, param in fields.items():
            # a bound that reads an earlier field sees the value drawn for it,
            # and a default outside such a bound is replaced
            try:
                param.parse(param.default, doc)
                redraw = data.draw(st.booleans(), label=f"set {section}.{name}")
            except ValueError:
                redraw = True
            if redraw:
                value = data.draw(valid_values(param, doc), label=f"{section}.{name}")
                raw.setdefault(section, {})[name] = value
                doc[section][name] = param.parse(value, doc)
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.to_canonical_dict() == doc
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_canonical_dict())))
    assert again.config_hash() == cfg.config_hash()
    for section, fields in schema.items():
        for name, param in fields.items():
            d, value = param.default, cfg.doc[section][name]
            if param.inf and value == "inf":
                assert getattr(cfg, name) == math.inf
            elif isinstance(d, (bool, str, int)):
                assert type(value) is type(d)
            elif isinstance(d, list):
                assert all(type(v) is float for v in value)
            else:
                assert value is None or type(value) is float


def edge_values(param, doc):
    """The schema's edges: each bound, its neighbours, and ill-typed values."""
    d = param.default
    if isinstance(d, bool):
        return [True, False, "no", 1, None]
    if isinstance(d, str):
        return [*param.choices, "weird", "", None, 0]
    edges = ["x", True, None, math.nan, math.inf, -math.inf, 10**400]
    for b in (bound(param.lo, doc), bound(param.hi, doc)):
        if math.isfinite(b):
            if isinstance(d, int):
                edges += [b - 1, b, b + 1, float(b), b + 0.5]
            else:
                edges += [b - 1.0, math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf), b + 1.0]
    if isinstance(d, list):
        return ["abc", [], [True], *([e] for e in edges if not isinstance(e, str))]
    return edges + [[1.0]]


@settings(
    max_examples=80,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# resonance has no params to draw from
@given(experiment=st.sampled_from(sorted(e for e in EXPERIMENTS if EXPERIMENTS[e].params)), data=st.data())
def test_edge_values_fail_validate_or_run_cleanly(tmp_path_factory, capsys, experiment, data):
    tmp_path = tmp_path_factory.mktemp("edge")
    name = data.draw(st.sampled_from(sorted(EXPERIMENTS[experiment].params)), label="param")
    base = ExperimentConfig.from_dict(json.loads(tiny_config(experiment, {}, tmp_path).read_text()))
    value = data.draw(st.sampled_from(edge_values(EXPERIMENTS[experiment].params[name], base.doc)))
    path = tiny_config(experiment, {name: value}, tmp_path)
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and "params." in err
        return
    assert code == 0
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 1:
        # the warnings the run recorded come first, then one error line
        *warned, last = err.splitlines()
        assert last.startswith("error: ") and all(w.startswith("warning: ") for w in warned)
