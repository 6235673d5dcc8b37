import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispersion_lab import spectral_operator
from dispersion_lab.cli_runner import (
    EXPERIMENTS,
    ExperimentConfig,
    load_config,
    main,
    run,
)
from dispersion_lab.errors import ValidationError


def small_dispersive_config(tmp_path, potential=None, **overrides):
    cfg = {
        "experiment": "dispersive",
        "potential": potential or {"family": "zero"},
        "grid": {"n_points": 512, "l_box": 40.0},
        "stochastic": {"horizon": 8.0, "n_steps": 64, "n_paths": 20, "seed": 11},
        "params": {"n_time_samples": 8},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_round_trip_is_identity(self, tmp_path):
        path = small_dispersive_config(tmp_path)
        cfg = load_config(path)
        canon = cfg.to_canonical_dict()
        cfg2 = ExperimentConfig.from_dict(canon)
        assert cfg2.to_canonical_dict() == canon
        assert cfg2.config_hash() == cfg.config_hash()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"experiment": "warp-drive"})

    def test_unknown_key_reports_path(self):
        raw = {"experiment": "dispersive", "grid": {"n_pts": 128}}
        with pytest.raises(ValidationError, match="grid.n_pts"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_param_reports_path(self):
        raw = {"experiment": "dispersive", "params": {"gamma": 1}}
        with pytest.raises(ValidationError, match="params.gamma"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_top_level_key_reports_path(self):
        raw = {"experiment": "dispersive", "grdi": {"n_points": 128}}
        with pytest.raises(ValidationError, match="grdi: unknown key"):
            ExperimentConfig.from_dict(raw)

    def test_params_must_be_an_object(self):
        raw = {"experiment": "dispersive", "params": [1]}
        with pytest.raises(ValidationError, match="params: expected an object"):
            ExperimentConfig.from_dict(raw)

    def test_validate_rejects_bad_top_level_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "dispersive", "grdi": {}, "params": [1]}))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "grdi: unknown key" in err and "params: expected an object" in err
        assert "Traceback" not in err

    def test_inf_exponent_round_trips(self):
        raw = {"experiment": "strichartz-hom", "norms": {"r": "inf", "p": 2}}
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.r == np.inf
        assert cfg.to_canonical_dict()["norms"]["r"] == "inf"

    def test_defaults_materialized(self):
        cfg = ExperimentConfig.from_dict({"experiment": "dispersive"})
        canon = cfg.to_canonical_dict()
        assert canon["grid"] == {"n_points": 2048, "l_box": 40.0}
        assert canon["params"]["u0_shape"] == "gaussian"


class TestListExperiments:
    def test_count_is_eleven(self):
        assert len(EXPERIMENTS) == 11

    def test_contains_expected_names(self):
        names = list(EXPERIMENTS)
        assert "dispersive" in names
        assert "convolution-lemma" in names

    def test_dispersive_tagline_mentions_the_bound(self):
        desc = EXPERIMENTS["dispersive"].description
        assert "L1 -> Linf" in desc and "-1/2" in desc

    def test_cli_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dispersive" in out and "11 experiments" in out


class TestRun:
    def test_dispersive_free_exit_zero(self, tmp_path):
        path = small_dispersive_config(tmp_path)
        code = main(["run", str(path)])
        assert code == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["hypothesis_violation"] is False
        data = (out / "data.csv").read_text().splitlines()
        assert data[0] == "# schema=1"
        assert data[1] == "abs_beta,sup_norm"
        assert (out / "run_manifest.json").exists()

    def test_resonant_potential_exit_two(self, tmp_path):
        path = small_dispersive_config(
            tmp_path,
            potential={"family": "sech_squared", "amplitude": -2.0, "width": 1.0},
            grid={"n_points": 1024, "l_box": 20.0},
        )
        code = main(["run", str(path)])
        assert code == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"]["warning"] == "zero-energy resonance detected"
        assert report["exit_code"] == 2

    def test_unknown_experiment_exit_one_no_files(self, tmp_path):
        cfg = {"experiment": "nonsense", "output_dir": str(tmp_path / "nope")}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 1
        assert not (tmp_path / "nope").exists()

    def test_invalid_json_exit_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 1

    def test_validate_command(self, tmp_path, capsys):
        path = small_dispersive_config(tmp_path)
        assert main(["validate", str(path)]) == 0
        assert "ok: dispersive" in capsys.readouterr().out

    def test_report_contains_config_hash(self, tmp_path):
        path = small_dispersive_config(tmp_path)
        cfg = load_config(path)
        run(cfg)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config_hash"] == cfg.config_hash()

    def test_seed_override_reaches_manifest(self, tmp_path):
        path = small_dispersive_config(tmp_path)
        main(["run", str(path), "--seed", "99"])
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["stochastic"]["seed"] == 99

    def test_out_override(self, tmp_path):
        path = small_dispersive_config(tmp_path)
        main(["run", str(path), "--out", str(tmp_path / "elsewhere")])
        assert (tmp_path / "elsewhere" / "data.csv").exists()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dispersion_lab.cli_runner", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "strichartz-inhom" in proc.stdout


class TestImportBudget:
    def test_lab_import_leaves_heavy_scipy_modules_unloaded(self):
        # a Born series call runs on numpy.fft, so scipy.fft stays unloaded too;
        # the eigensolve and the resolvent solve load LAPACK without scipy.linalg
        code = (
            "import sys, numpy as np, dispersion_lab.cli_runner; "
            "from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential; "
            "from dispersion_lab.spectral_operator import ("
            "_stencil, born_series_terms, build_hamiltonian, tridiagonal_resolvent_solve); "
            "V = sample_potential(PotentialSpec('gaussian', amplitude=0.5, width=1.0), "
            "Grid(l_box=5.0, n_points=63)); "
            "born_series_terms(V, 4.0 * V.l1_norm() ** 2, np.ones(63), 2); "
            "H = build_hamiltonian(V); "
            "tridiagonal_resolvent_solve(V.grid, V.values, 1.0 + 0.1j, np.ones(63)); "
            "print(' '.join(m for m in ('scipy.integrate', 'scipy.signal', "
            "'scipy.special', 'scipy.optimize', 'scipy.fft', 'scipy.linalg', "
            "'numpy.f2py') if m in sys.modules)); "
            # importing scipy.linalg afterwards still works and agrees
            "from scipy.linalg import eigh_tridiagonal; "
            "w, v = eigh_tridiagonal(*_stencil(H.grid, V.values)); "
            "assert np.array_equal(w, H.eigenvalues) and np.array_equal(v, H.eigenvectors)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


    def test_runs_leave_numpy_ma_unloaded(self, tmp_path):
        # np.unique, np.percentile and np.median import numpy.ma on first use, 12-18 ms
        stone = tmp_path / "stone.json"
        stone.write_text(
            json.dumps(
                {
                    "experiment": "stone-density",
                    "grid": {"n_points": 128, "l_box": 8.0},
                    "output_dir": str(tmp_path / "stone"),
                }
            )
        )
        code = (
            "import sys; from dispersion_lab.cli_runner import load_config, run; "
            f"assert run(load_config({str(small_dispersive_config(tmp_path))!r})) == 0; "
            f"assert run(load_config({str(stone)!r})) == 0; "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


class TestManifest:
    def test_records_blas_threads_cores_and_cost(self, tmp_path, monkeypatch):
        from dispersion_lab.cli_runner import THREAD_VARS

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = load_config(small_dispersive_config(tmp_path))
        for tag in ("a", "b"):
            assert run(cfg, out_dir=tmp_path / tag) == 0
        man = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        assert all(isinstance(man["blas"][k], str) for k in ("name", "version"))
        # the thread count numpy's BLAS started with, and whether it is now pinned to one
        assert isinstance(man["blas"]["threads_found"], int) and man["blas"]["threads_found"] >= 1
        assert isinstance(man["blas"]["pinned"], bool)
        if not man["blas"]["pinned"]:
            assert man["blas"]["threads_found"] == 1
        assert set(man["thread_env"]) == set(THREAD_VARS)
        assert man["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert man["thread_env"]["MKL_NUM_THREADS"] is None
        assert isinstance(man["usable_cores"], int) and man["usable_cores"] >= 1
        assert isinstance(man["peak_rss_mb"], float) and man["peak_rss_mb"] > 0
        assert isinstance(man["wall_s"], float) and man["wall_s"] > 0
        # the zero potential's even packet: one half-size eigensolve
        assert man["eigensolves"] == [256]
        # where the run ran and what it cost stay out of the reproducible bytes
        for name in ("report.json", "data.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        report = (tmp_path / "a" / "report.json").read_text()
        assert "wall_s" not in report and "peak_rss_mb" not in report

    @pytest.mark.parametrize(
        "potential, n_points, params, want",
        [
            (None, 161, {}, [81]),  # zero potential, the even half with the middle node
            (None, 161, {"u0_shape": "odd"}, [80]),  # the odd half
            # no palindrome on this grid: one dstevd
            ({"family": "gaussian", "amplitude": 1.0, "width": 1.0}, 200, {}, [200]),
        ],
    )
    def test_eigensolves_lists_the_tridiagonals_solved(self, tmp_path, potential, n_points, params, want):
        path = small_dispersive_config(
            tmp_path, potential, grid={"n_points": n_points, "l_box": 20.0}, params=params
        )
        assert run(load_config(path), out_dir=tmp_path / "a") in (0, 2)
        assert json.loads((tmp_path / "a" / "run_manifest.json").read_text())["eigensolves"] == want

    @pytest.mark.parametrize("name, want", [("dispersive_free", [1024]), ("strichartz_inhom_244", [512])])
    def test_shipped_free_configs_solve_one_half(self, tmp_path, name, want):
        # an even packet and an odd forcing on the zero potential
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
        assert run(cfg, out_dir=tmp_path) == 0
        assert json.loads((tmp_path / "run_manifest.json").read_text())["eigensolves"] == want

    def test_eigensolves_empty_without_a_hamiltonian(self, tmp_path):
        path = small_dispersive_config(
            tmp_path, experiment="convolution-lemma", params={"horizons": [0.5, 1.0]},
            stochastic={"n_steps": 16, "n_paths": 4, "seed": 1},
        )
        assert run(load_config(path), out_dir=tmp_path / "a") == 0
        assert json.loads((tmp_path / "a" / "run_manifest.json").read_text())["eigensolves"] == []


class TestReproducibility:
    def test_same_seed_same_bytes_across_worker_counts(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(spectral_operator, "_TAU_CHUNK", 16)  # 10 blocks, not one
        path = small_dispersive_config(tmp_path)
        cfg = load_config(path)
        blobs = {}
        for n in (1, 8):
            with workers(n):
                for attempt in ("a", "b"):
                    out = tmp_path / f"run{n}{attempt}"
                    run(cfg, out_dir=out)
                    blobs[(n, attempt)] = (out / "data.csv").read_bytes()
        assert blobs[(1, "a")] == blobs[(1, "b")]
        assert blobs[(1, "a")] == blobs[(8, "a")] == blobs[(8, "b")]

    def test_parity_split_on_odd_grid_same_bytes_across_worker_counts(self, tmp_path, monkeypatch, workers):
        # the zero potential on 161 points is solved one reflection parity at
        # a time, with a middle node that only the even modes see
        from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential
        from dispersion_lab.spectral_operator import build_hamiltonian

        grid = {"n_points": 161, "l_box": 20.0}
        V = sample_potential(PotentialSpec("zero"), Grid(**grid))
        assert build_hamiltonian(V).basis.mirror_rows == 80
        cfg = load_config(small_dispersive_config(tmp_path, grid=grid))
        monkeypatch.setattr(spectral_operator, "_TAU_CHUNK", 16)  # 10 blocks, not one
        blobs = []
        for n in (1, 2):
            with workers(n):
                assert run(cfg, out_dir=tmp_path / str(n)) == 0
            blobs.append((tmp_path / str(n) / "data.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_same_bytes_across_blas_thread_counts(self, tmp_path):
        # the criterion-3 kernel at a shape whose 2-thread dgemm rounds
        # differently from the 1-thread one, run in fresh processes because
        # OpenBLAS reads its thread count when it loads; the threads it
        # grants become the lab's workers
        doc = {
            "experiment": "expectation-decay",
            "potential": {"family": "zero"},
            "grid": {"n_points": 1024, "l_box": 40.0},
            "stochastic": {"horizon": 16.0, "n_steps": 256, "n_paths": 64, "seed": 7},
            "params": {"n_time_samples": 16, "u0_width": 0.18},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        blobs = []
        for blas in (1, 2):
            out = tmp_path / f"blas{blas}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas))
            cmd = [sys.executable, "-m", "dispersion_lab.cli_runner", "run", str(path), "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            man = json.loads((out / "run_manifest.json").read_text())
            assert man["workers"] == blas
            blobs.append((out / "data.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_half_eigensolve_same_bytes_across_blas_thread_counts(self):
        # dstevd runs on scipy's own OpenBLAS, which the lab does not pin and
        # which reads OPENBLAS_NUM_THREADS when it loads: the even half of
        # criterion 3's H (1536 rows) solves to the same bytes at 1 and 2
        # threads, in fresh processes
        code = (
            "import hashlib; "
            "from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential; "
            "from dispersion_lab.spectral_operator import build_hamiltonian; "
            "V = sample_potential(PotentialSpec('zero'), Grid(l_box=100.0, n_points=3072)); "
            "w, v = build_hamiltonian(V).half(0); "
            "assert v.shape == (1536, 1536); "
            "print(hashlib.sha256(w.tobytes() + v.tobytes()).hexdigest())"
        )
        digests = []
        for blas in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    def test_different_seed_changes_bytes(self, tmp_path):
        path = small_dispersive_config(tmp_path)
        cfg = load_config(path)
        run(cfg, out_dir=tmp_path / "s1")
        doc = cfg.to_canonical_dict()
        doc["stochastic"]["seed"] = 12
        run(ExperimentConfig.from_dict(doc), out_dir=tmp_path / "s2")
        assert (tmp_path / "s1" / "data.csv").read_bytes() != (
            tmp_path / "s2" / "data.csv"
        ).read_bytes()


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "dispersive_free.json",
            "scatter_sweep_gaussian.json",
            "strichartz_hom_44.json",
            "strichartz_inhom_244.json",
        ],
    )
    def test_sample_configs_validate(self, name):
        from pathlib import Path

        cfg_dir = Path(__file__).resolve().parent.parent / "configs"
        cfg = load_config(cfg_dir / name)
        assert cfg.experiment in EXPERIMENTS


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictArtifacts:
    def test_degenerate_fit_writes_strict_json(self, tmp_path):
        # three windows are too few for a fit: the slope is null, not NaN
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "strichartz-hom",
                "grid": {"n_points": 128, "l_box": 30.0},
                "stochastic": {"horizon": 4.0, "n_steps": 16, "n_paths": 2},
                "norms": {"r": 2.0, "p": 2.0},
                "params": {"horizons": [0.25, 1.0, 4.0]},
            }
        )
        assert run(cfg, out_dir=tmp_path) == 0
        for name in ("report.json", "run_manifest.json"):
            json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)
        metrics = json.loads((tmp_path / "report.json").read_text())["metrics"]
        assert metrics["fitted_slope"] is None
        assert metrics["slope_ci_95"] == [None, None]
        assert metrics["extras"]["degenerate"] is True
        assert "need at least 8 pairs, got 3" in metrics["extras"]["degenerate_reason"]


def _write(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


# configs whose numbers pass the schema but that no run can finish, each with
# the words its error line must carry
RUN_ONLY_FAILURES = {
    "stone-epsilon-underflows": (
        {"experiment": "stone-density", "params": {"epsilon_factor": 5e-324}},
        "params.epsilon_factor",
    ),
    "stone-lambda-count-overflows": (
        {"experiment": "stone-density", "params": {"margin_factor": 1e308}},
        "params.margin_factor",
    ),
    "grid-step-squares-to-zero": (
        {"experiment": "dispersive", "grid": {"l_box": 1e-200, "n_points": 64}},
        "h^2 underflows to 0",
    ),
    "oracle-step-squares-to-zero": (
        {
            "experiment": "resolvent-check",
            "potential": {"family": "gaussian", "amplitude": 3, "width": 1},
            "grid": {"l_box": 20, "n_points": 4001},
            "params": {
                "oracle_l_box": 1e-200,
                "oracle_h": 1e-201,
                "probe_half_width": 0,
                "n_probes": 1,
            },
        },
        "h^2 underflows to 0",
    ),
}


@pytest.mark.parametrize("raw, words", RUN_ONLY_FAILURES.values(), ids=list(RUN_ONLY_FAILURES))
def test_run_that_cannot_finish_ends_in_one_error_line(tmp_path, capsys, raw, words):
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, raw)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and words in last
    assert not out.exists()


def test_stone_narrow_interval_samples_two_lambdas(tmp_path, capsys):
    # an interval narrower than the eps / 4 step still gets both ends sampled,
    # so the run reports the mass under them, not the 0 of a single sample
    out = tmp_path / "out"
    raw = {"experiment": "stone-density", "params": {"margin_factor": 0.1}}
    assert main(["run", str(_write(tmp_path, raw)), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [r for r in (out / "data.csv").read_text().splitlines() if not r.startswith("#")][1:]
    assert len(rows) == 2
    report = json.loads((out / "report.json").read_text())["metrics"]
    assert [float(r.split(",")[0]) for r in rows] == report["interval"]
    assert report["mass"] > 0


@pytest.mark.parametrize("override", [True, False], ids=["out", "output_dir"])
def test_output_path_that_is_a_file_ends_in_one_error_line(tmp_path, capsys, override):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    raw = {"experiment": "resonance", "grid": {"n_points": 64, "l_box": 4.0}}
    if override:
        argv = ["run", str(_write(tmp_path, raw)), "--out", str(afile)]
    else:
        argv = ["run", str(_write(tmp_path, dict(raw, output_dir=str(afile))))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: ") and "File exists" in err
    assert afile.read_text() == "keep"


# params that no run set, now constants: a config that still sets one is rejected
REMOVED_PARAMS = [
    ("resonance", "tol"),
    ("dispersive", "beta_min"),
    *((e, k) for e in ("dispersive", "expectation-decay", "strichartz-hom") for k in ("u0_center", "u0_momentum")),
]


@pytest.mark.parametrize("experiment, key", REMOVED_PARAMS)
def test_removed_param_fails_validate(tmp_path, capsys, experiment, key):
    path = _write(tmp_path, {"experiment": experiment, "params": {key: 0.5}})
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and f"params.{key}: unknown key" in err


# born-check configs with Born terms that are exactly 0, each with whether
# a term ratio is left to check
BORN_ZERO_TERMS = {
    # every term from n = 259 on underflows to 0
    "late-terms-underflow": (
        {
            "potential": {"family": "gaussian", "amplitude": 3, "width": 1},
            "grid": {"n_points": 257, "l_box": 15},
            "params": {"n_terms": 1200},
        },
        True,
    ),
    # the datum exp(-x^2) samples to 0 on this grid, and so does every term
    "zero-datum": (
        {
            "potential": {"family": "gaussian", "amplitude": 3, "width": 100},
            "grid": {"n_points": 16, "l_box": 1000},
            "params": {"n_terms": 5},
        },
        False,
    ),
}


@pytest.mark.parametrize("raw, defined", BORN_ZERO_TERMS.values(), ids=list(BORN_ZERO_TERMS))
def test_born_check_with_zero_terms_runs_cleanly(tmp_path, capsys, raw, defined):
    out = tmp_path / "out"
    path = _write(tmp_path, dict(raw, experiment="born-check"))
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert metrics["ratios_ok"] is defined
    if defined:
        assert 0.0 < metrics["max_ratio"] <= 1.1 * metrics["ratio_bound"]
    else:
        assert metrics["max_ratio"] is None


class TestRangeValidation:
    @pytest.mark.parametrize("field", ["n_paths", "n_steps"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_stochastic_counts_below_one_rejected(self, tmp_path, capsys, field, value):
        raw = {"experiment": "dispersive", "stochastic": {field: value}}
        with pytest.raises(ValidationError, match=rf"stochastic.{field}: must be an integer in \[1, inf\)"):
            ExperimentConfig.from_dict(raw)
        assert main(["validate", str(_write(tmp_path, raw))]) == 1
        err = capsys.readouterr().err
        assert f"stochastic.{field}" in err and "Traceback" not in err

    @pytest.mark.parametrize("k", [0, -1, 127, 500, 2.5, "3", True])
    def test_stone_eigenindex_outside_range_rejected(self, tmp_path, capsys, k):
        raw = {
            "experiment": "stone-density",
            "grid": {"n_points": 128, "l_box": 40.0},
            "params": {"eigenindex": k},
        }
        with pytest.raises(ValidationError, match=r"params.eigenindex: must be an integer in \[1, 126\]"):
            ExperimentConfig.from_dict(raw)
        assert main(["run", str(_write(tmp_path, raw))]) == 1
        assert "params.eigenindex" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [1, 126, 12.0])
    def test_stone_eigenindex_edges_run(self, tmp_path, k):
        raw = {
            "experiment": "stone-density",
            "potential": {"family": "gaussian", "amplitude": 3.0, "width": 1.0},
            "grid": {"n_points": 128, "l_box": 40.0},
            "params": {"eigenindex": k},
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert run(cfg, out_dir=tmp_path / "out") == 0
