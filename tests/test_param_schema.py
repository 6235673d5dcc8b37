"""The experiment registry's param schemas: typed values, field paths, no tracebacks."""

import json
import math
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dispersion_lab import cli_runner
from dispersion_lab.cli_runner import EXPERIMENTS, ExperimentConfig, RunContext, load_config, main, run
from dispersion_lab.errors import ValidationError

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
]

# small enough that any experiment runs in well under a second
TINY = {
    "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
    "grid": {"n_points": 161, "l_box": 4.0},
    "stochastic": {"horizon": 16.0, "n_steps": 64, "n_paths": 2, "seed": 3},
}
TINY_PARAMS = {
    "resolvent-check": {"oracle_l_box": 20.0, "oracle_h": 0.05},
    "sde-convergence": {"level_max": 10},
}


def tiny_config(experiment, params, tmp_path):
    raw = dict(TINY, experiment=experiment, output_dir=str(tmp_path / "out"))
    raw["params"] = {**TINY_PARAMS.get(experiment, {}), **params}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def bound(b, cfg):
    return b(cfg) if callable(b) else b


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
def test_tiny_configs_run(tmp_path, experiment):
    assert run(load_config(tiny_config(experiment, {}, tmp_path))) == 0


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

def valid_values(param, cfg):
    """Values the schema accepts, in the spellings JSON allows for them."""
    d = param.default
    if isinstance(d, bool):
        return st.booleans()
    if isinstance(d, str):
        return st.sampled_from(param.choices)
    lo, hi = bound(param.lo, cfg), bound(param.hi, cfg)
    if lo > hi or (lo == hi and param.ends != "[]"):
        return st.nothing()  # a bound derived from a drawn value left no room
    if isinstance(d, int):
        lo = max(lo, -1000)
        ints = st.integers(lo, min(hi, lo + 1000))
        return ints | ints.map(float)  # an integral float is an int
    # open-ended ranges are cut at 1e9, so that a bound derived from a drawn
    # value (the oracle grid's, say) still leaves room for a valid value
    floats = st.floats(
        max(lo, -1e9), min(hi, 1e9), exclude_min=param.ends[0] == "(", exclude_max=param.ends[1] == ")"
    )
    numbers = floats | floats.filter(lambda x: abs(x) < 1e15 and x.is_integer()).map(int)
    if isinstance(d, list):
        return st.lists(numbers, min_size=1, max_size=4)
    return st.none() | numbers if d is None else numbers


@settings(max_examples=60, deadline=None)
@given(experiment=st.sampled_from(sorted(EXPERIMENTS)), data=st.data())
def test_round_trip_keeps_the_hash(experiment, data):
    cfg = ExperimentConfig.from_dict({"experiment": experiment})
    raw = {"experiment": experiment, "params": {}}
    for name, param in EXPERIMENTS[experiment].params.items():
        # a bound that reads an earlier param sees the value drawn for it, and
        # a default outside such a bound is replaced
        try:
            param.parse(param.default, cfg)
            redraw = data.draw(st.booleans(), label=f"set {name}")
        except ValueError:
            redraw = True
        if redraw:
            raw["params"][name] = data.draw(valid_values(param, cfg), label=name)
            cfg.params[name] = param.parse(raw["params"][name], cfg)
    cfg = ExperimentConfig.from_dict(raw)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_canonical_dict())))
    assert again.config_hash() == cfg.config_hash()
    for name, param in EXPERIMENTS[experiment].params.items():
        d, value = param.default, cfg.params[name]
        if isinstance(d, (bool, str, int)):
            assert type(value) is type(d)
        elif isinstance(d, list):
            assert all(type(v) is float for v in value)
        else:
            assert value is None or type(value) is float


def edge_values(param, cfg):
    """The schema's edges: each bound, its neighbours, and ill-typed values."""
    d = param.default
    if isinstance(d, bool):
        return [True, False, "no", 1, None]
    if isinstance(d, str):
        return [*param.choices, "weird", "", None, 0]
    edges = ["x", True, None, math.nan, math.inf, -math.inf, 10**400]
    for b in (bound(param.lo, cfg), bound(param.hi, cfg)):
        if math.isfinite(b):
            if isinstance(d, int):
                edges += [b - 1, b, b + 1, float(b), b + 0.5]
            else:
                edges += [b - 1.0, math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf), b + 1.0]
    if isinstance(d, list):
        return ["abc", [], [True], *([e] for e in edges if not isinstance(e, str))]
    return edges + [[1.0]]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiment=st.sampled_from(sorted(EXPERIMENTS)), data=st.data())
def test_edge_values_fail_validate_or_run_cleanly(tmp_path_factory, capsys, experiment, data):
    tmp_path = tmp_path_factory.mktemp("edge")
    name = data.draw(st.sampled_from(sorted(EXPERIMENTS[experiment].params)), label="param")
    base = ExperimentConfig.from_dict(json.loads(tiny_config(experiment, {}, tmp_path).read_text()))
    value = data.draw(st.sampled_from(edge_values(EXPERIMENTS[experiment].params[name], base)))
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
        assert err.startswith("error: ")
