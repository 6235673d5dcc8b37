import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispersion_lab import _parallel, cli_runner, estimates, spectral_operator, stochastic
from dispersion_lab.cli_runner import (
    EXPERIMENTS,
    ExperimentConfig,
    load_config,
    main,
    run,
)
from dispersion_lab.errors import ValidationError
from dispersion_lab.grid_model import PotentialSpec, sample_potential

from conftest import LOPSIDED


# an expectation-decay run small enough for a test, whose 1600 taus form
# Chebyshev windows
SMALL_WINDOWED_DECAY = {
    "experiment": "expectation-decay",
    "grid": {"n_points": 512, "l_box": 40.0},
    "stochastic": {"horizon": 8.0, "n_steps": 64, "n_paths": 100, "seed": 5},
    "params": {"n_time_samples": 16},
}


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
        metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
        assert (metrics["n_paths"], metrics["seed"]) == (20, 99)

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
        # the eigensolve, the Born series' banded solves and the resolvent
        # solve load LAPACK without scipy.linalg; no FFT module is needed.  An
        # asymmetric well keeps H one dstevd, which scipy's driver reproduces;
        # a tenth of its depth keeps the Born energy 4 ||V||_1^2 in the band
        shallow = PotentialSpec("custom_table", table=tuple((x, v / 10) for x, v in LOPSIDED.table))
        code = (
            "import sys, numpy as np, dispersion_lab.cli_runner; "
            "from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential; "
            "from dispersion_lab.spectral_operator import ("
            "_stencil, born_series_terms, build_hamiltonian, tridiagonal_resolvent_solve); "
            f"V = sample_potential({shallow!r}, Grid(l_box=5.0, n_points=63)); "
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
        # np.unique, np.percentile and np.median import numpy.ma on first use,
        # 12-18 ms.  The expectation-decay run forms Chebyshev windows
        stone, decay = tmp_path / "stone.json", tmp_path / "decay.json"
        stone.write_text(
            json.dumps(
                {
                    "experiment": "stone-density",
                    "grid": {"n_points": 128, "l_box": 8.0},
                    "output_dir": str(tmp_path / "stone"),
                }
            )
        )
        decay.write_text(json.dumps(SMALL_WINDOWED_DECAY | {"output_dir": str(tmp_path / "decay")}))
        code = (
            "import sys; from dispersion_lab import spectral_operator as so; "
            "from dispersion_lab.cli_runner import load_config, run; "
            "plan = so.ChebyshevWindows.plan.__func__; plans = []; "
            "so.ChebyshevWindows.plan = "
            "classmethod(lambda *a: plans.append(plan(*a)) or plans[-1]); "
            f"assert run(load_config({str(small_dispersive_config(tmp_path))!r})) == 0; "
            f"assert run(load_config({str(stone)!r})) == 0; "
            f"assert run(load_config({str(decay)!r})) == 0; "
            "assert plans[-1] is not None and plans[-1].windows; "
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
        # each OpenBLAS copy's pin record, as pin_blas returned it
        assert man["blas"].items() >= _parallel.BLAS.items()
        # the thread count numpy's BLAS started with, and whether it is now pinned to one
        assert isinstance(man["blas"]["threads_found"], int) and man["blas"]["threads_found"] >= 1
        assert isinstance(man["blas"]["pinned"], bool)
        if man["blas"]["pinned"]:
            # the kernel OpenBLAS picked at load: data.csv bytes are equal per kernel
            assert isinstance(man["blas"]["corename"], str) and man["blas"]["corename"]
        else:
            assert man["blas"]["threads_found"] == 1
        # scipy's own OpenBLAS, which dstevd runs on, is pinned the same way
        lapack = man["lapack"]
        assert set(lapack) == {"threads_found", "pinned", "corename"}
        assert isinstance(lapack["threads_found"], int) and lapack["threads_found"] >= 1
        assert lapack == spectral_operator.LAPACK
        if lapack["pinned"]:
            assert isinstance(lapack["corename"], str) and lapack["corename"]
        else:
            assert (lapack["threads_found"], lapack["corename"]) == (1, None)
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
            # an even family is a palindrome on every grid: the even half
            ({"family": "gaussian", "amplitude": 1.0, "width": 1.0}, 200, {}, [100]),
            # an asymmetric well is none: one dstevd
            ({"family": "custom_table", "table": [list(p) for p in LOPSIDED.table]}, 200, {}, [200]),
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
        assert build_hamiltonian(V).mirror_rows == 80
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
        # dstevd runs on scipy's own OpenBLAS, which reads OPENBLAS_NUM_THREADS
        # when it loads and which the lab then pins to one thread: the odd
        # half of criterion 2's H, gaussian(3,1) on 2048 nodes (1024 rows),
        # solves to the same bytes at 1 and 2 threads, in fresh processes,
        # and at 2 that OpenBLAS reports the one thread
        # (a second pin_blas reads the count that the first one left)
        code = (
            "import hashlib, scipy; "
            "from dispersion_lab import _parallel, spectral_operator; "
            "from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential; "
            "spec = PotentialSpec('gaussian', amplitude=3.0, width=1.0); "
            "V = sample_potential(spec, Grid(l_box=40.0, n_points=2048)); "
            "w, v = spectral_operator.build_hamiltonian(V).half(1); "
            "assert v.shape == (1024, 1024); "
            "print(hashlib.sha256(w.tobytes() + v.tobytes()).hexdigest(), "
            "spectral_operator.LAPACK['threads_found'], spectral_operator.LAPACK['pinned'], "
            "_parallel.pin_blas(_parallel.bundled_libs(scipy))['threads_found'])"
        )
        records = []
        for blas in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            records.append(proc.stdout.split())
        (digest, *_), (other, *at_two) = records
        assert len(digest) == 64 and digest == other
        if spectral_operator.LAPACK["pinned"]:
            assert at_two == ["2", "True", "1"]
        else:  # scipy's LAPACK is no OpenBLAS of its wheel: nothing to pin
            assert at_two == ["1", "False", "1"]

    def test_blas_kernels_agree_within_rounding(self, tmp_path):
        # data.csv bytes are equal per BLAS kernel only.  OpenBLAS picks its
        # kernel when it loads, so the run goes in fresh processes, at the
        # default kernel and at OPENBLAS_CORETYPE=Prescott.  Measured on this
        # config, against the default SkylakeX: Prescott (reported as Katmai)
        # moved 144 of 318 cells, by at most 1.2e-15 relative, and Haswell
        # 115, by at most 1.0e-15.  The tolerance, 1e-12, leaves a margin of
        # about 800 over that and still fails on anything above rounding
        stochastic = {"horizon": 8.0, "n_steps": 64, "n_paths": 40, "seed": 11}
        path = small_dispersive_config(tmp_path, stochastic=stochastic)
        cells, kernels = [], []
        for coretype in (None, "Prescott"):
            out = tmp_path / f"kernel-{coretype}"
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env.update({"OPENBLAS_CORETYPE": coretype} if coretype else {})
            cmd = [sys.executable, "-m", "dispersion_lab.cli_runner", "run", str(path), "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((out / "run_manifest.json").read_text())
            kernels.append(manifest["blas"].get("corename"))
            cells.append(np.loadtxt(out / "data.csv", delimiter=",", skiprows=2))
        if kernels[0] == kernels[1]:
            pytest.skip(f"OPENBLAS_CORETYPE=Prescott left numpy's BLAS at {kernels[0]}: one kernel only")
        np.testing.assert_allclose(cells[1], cells[0], rtol=1e-12, atol=0.0)

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
    "oracle-step-squares-to-zero": (
        {
            "experiment": "resolvent-check",
            "potential": {"family": "gaussian", "amplitude": 3, "width": 1},
            "grid": {"l_box": 1e-200, "n_points": 4001},
            "params": {"oracle_h": 1e-201, "probe_half_width": 0, "n_probes": 1},
        },
        "params.oracle_h: grid step h=1e-201 is too small: h^2 underflows to 0",
    ),
    # E h^2 = 6.25 on the oracle grid, beyond the lattice band's 4
    "oracle-step-outside-the-band": (
        {
            "experiment": "resolvent-check",
            "grid": {"l_box": 4, "n_points": 161},
            "params": {"lambdas": [5], "oracle_h": 0.5},
        },
        "params.oracle_h: the outgoing closure needs 0 < E h^2 < 4",
    ),
    # an energy cut below the lowest mode the Gaussian occupies (E = 0.006
    # here): this used to divide 0 by 0 and write a degenerate fit on 0 errors
    "sde-energy-cut-below-every-mode": (
        {
            "experiment": "sde-convergence",
            "grid": {"n_points": 128, "l_box": 20},
            "stochastic": {"horizon": 1, "n_paths": 4},
            "params": {"level_min": 4, "level_max": 8, "energy_cut": 0.0},
        },
        "params.energy_cut: 0.0 is below the datum's lowest mode, 0.00597842",
    ),
    # norms that validate takes but no window bound covers
    "strichartz-hom-r-inf": (
        {"experiment": "strichartz-hom", "norms": {"r": "inf"}},
        "norms.r: (inf, 4.0) is not an admissible pair",
    ),
    "strichartz-hom-r-inf-p-2": (
        {"experiment": "strichartz-hom", "norms": {"r": "inf", "p": 2}},
        "norms.r: r = inf windows are out of scope for the Monte Carlo",
    ),
    "strichartz-inhom-r-inf-p-2": (
        {"experiment": "strichartz-inhom", "norms": {"rho": 2, "r": "inf", "p": 2}},
        "norms.r: r = inf windows are out of scope for the Monte Carlo",
    ),
    "strichartz-hom-r-below-2": (
        {"experiment": "strichartz-hom", "norms": {"r": 1.5}},
        "norms.r: (1.5, 4.0) is not an admissible pair",
    ),
    "strichartz-inhom-rho-above-r": (
        {"experiment": "strichartz-inhom", "norms": {"rho": 8}},
        "norms.rho: rho must lie in [r', r]",
    ),
    # E = energy_factor * ||V||_1^2 is the threshold itself when V = 0
    "born-check-zero-potential": (
        {"experiment": "born-check", "potential": {"family": "zero"}},
        "error: potential: energy 0.0 is not above the series threshold",
    ),
    "born-check-zero-amplitude": (
        {"experiment": "born-check", "potential": {"family": "gaussian", "amplitude": 0}},
        "error: potential: energy 0.0 is not above the series threshold",
    ),
    # a V that is not 0, on a box whose samples give ||V||_1^2 = 0: at 1e-200
    # it underflows, at 1e200 every node lies where V is 0 in floats
    **{
        f"born-check-box-{l_box:g}-samples-no-potential": (
            {
                "experiment": "born-check",
                "potential": {"family": "gaussian", "amplitude": 3, "width": 1},
                "grid": {"n_points": 64, "l_box": l_box},
            },
            "error: grid.l_box: energy 0.0 is not above the series threshold",
        )
        for l_box in (1e-200, 1e200)
    },
    # E h^2 = 45.6 and 1.98e10, beyond the lattice band's 4, where the free
    # resolvent's kernel is not resolved (the second grid also samples the
    # datum exp(-x^2) to 0)
    "born-check-grid-too-coarse": (
        {
            "experiment": "born-check",
            "potential": {"family": "gaussian", "amplitude": 3, "width": 1},
            "grid": {"n_points": 64, "l_box": 20},
        },
        "error: grid.n_points: the outgoing closure needs 0 < E h^2 < 4, got 45.59",
    ),
    # E = energy_factor * ||V||_1^2 = 1e308 * 28.3 overflows to inf
    "born-check-energy-overflows": (
        {
            "experiment": "born-check",
            "potential": {"family": "gaussian", "amplitude": 3, "width": 1},
            "params": {"energy_factor": 1e308},
        },
        "error: params.energy_factor: E = energy_factor * ||V||_1^2 overflows",
    ),
    "born-check-zero-datum-grid-too-coarse": (
        {
            "experiment": "born-check",
            "potential": {"family": "gaussian", "amplitude": 3, "width": 100},
            "grid": {"n_points": 16, "l_box": 1000},
            "params": {"n_terms": 5},
        },
        "error: grid.n_points: the outgoing closure needs 0 < E h^2 < 4, got 1.98e+10",
    ),
    # probes -1.5, -0.5, 0.5, 1.5 against the oracle's step 0.008
    "resolvent-probes-off-oracle-grid": (
        {"experiment": "resolvent-check", "params": {"probe_half_width": 1.5, "n_probes": 4}},
        "params.probe_half_width: probe y=-1.5 is not a grid node",
    ),
    # a grid too coarse for the Jost march (h = 40 / 63 against sqrt(3) at
    # lam = 0), which no experiment's schema sees: its step names the field
    **{
        f"{experiment}-grid-too-coarse-for-jost": (
            {
                "experiment": experiment,
                "potential": {"family": "gaussian", "amplitude": 3, "width": 1},
                "grid": {"n_points": 64, "l_box": 20},
            },
            "error: grid.n_points: step h=0.6349 too coarse for lam=",
        )
        for experiment in ("resonance", "scatter-sweep", "dispersive", "resolvent-check")
    },
    # a potential that outgrows every grid the run takes: at amplitude 1e308
    # the Jost march needs 4 l_box sqrt(max V) + 1 = 7.6e155 nodes on this box,
    # beyond dispersive's 8192 and beyond what numpy can size for resonance
    **{
        f"{experiment}-potential-outgrows-every-grid": (
            {
                "experiment": experiment,
                "potential": {"family": "gaussian", "amplitude": 1e308, "width": 1},
                "grid": {"n_points": 64, "l_box": 20},
            },
            "error: potential.amplitude: step h=0.6349 too coarse for lam=0.0 and this potential, "
            "which alone needs 7.61e+155 nodes on this box",
        )
        for experiment in ("resonance", "dispersive")
    },
    # ||V||_1^2, the Born series threshold, overflows a float
    **{
        f"{experiment}-born-threshold-overflows": (
            {
                "experiment": experiment,
                "potential": {"family": "gaussian", "amplitude": 1e308, "width": 1},
                "grid": {"n_points": 64, "l_box": 20},
            },
            "error: potential.amplitude: the Born series threshold ||V||_1^2 overflows",
        )
        for experiment in ("scatter-sweep", "born-check")
    },
    # counts that numpy refuses to size ("Maximum allowed size exceeded") name
    # their field
    "n-lambdas-too-large-for-numpy": (
        {"experiment": "scatter-sweep", "params": {"n_lambdas": 2**70}},
        "error: params.n_lambdas: the 1180591620717411303424 momenta do not fit in memory",
    ),
    "n-probes-too-large-for-numpy": (
        {"experiment": "resolvent-check", "params": {"n_probes": 2**70}},
        "error: params.n_probes: the 1180591620717411303424 probes do not fit in memory",
    ),
    # Brownian ensembles that numpy cannot size name the counts that size them
    "n-steps-too-large-for-numpy": (
        {"experiment": "dispersive", "stochastic": {"n_steps": 2**70}},
        "error: stochastic.n_paths, stochastic.n_steps: the 200 x 1180591620717411303424 "
        "Brownian increments do not fit in memory",
    ),
    **{
        f"convolution-lemma-{name}-too-large-for-numpy": (
            {"experiment": "convolution-lemma", "stochastic": {"n_steps": 16, **counts}},
            "error: stochastic.n_paths, stochastic.n_steps: ",
        )
        for name, counts in (("n-paths", {"n_paths": 2**70}), ("n-steps", {"n_steps": 2**70}))
    },
    "sde-convergence-level-max-too-large-for-numpy": (
        {"experiment": "sde-convergence", "params": {"level_max": 70}},
        "error: stochastic.n_paths, params.level_max: ",
    ),
    # grids whose nodes do not fit in memory (8 TiB at 2**40) or that numpy
    # cannot size (2**70), where no eigenpairs are solved, so validate takes them
    **{
        f"{experiment}-grid-of-2**{power}-nodes": (
            {"experiment": experiment, "grid": {"n_points": 2**power}},
            f"error: grid.n_points: the {2**power} grid nodes do not fit in memory",
        )
        for experiment in ("scatter-sweep", "born-check", "resolvent-check")
        for power in (40, 70)
    },
}


@pytest.mark.parametrize("raw, words", RUN_ONLY_FAILURES.values(), ids=list(RUN_ONLY_FAILURES))
def test_run_that_cannot_finish_ends_in_one_error_line(tmp_path, capsys, raw, words):
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, raw)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [ln.startswith("error: ") for ln in err.splitlines()].count(True) == 1
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and words in last
    assert "Warning" not in err
    assert not out.exists()


# the experiments that build H, and stone-density, which solves selected
# eigenpairs of it: the eigensolvers take at most DENSE_SOLVER_CAP nodes
EIGENPAIR_EXPERIMENTS = (
    "dispersive",
    "expectation-decay",
    "sde-convergence",
    "stone-density",
    "strichartz-hom",
    "strichartz-inhom",
)


@pytest.mark.parametrize("n_points", [8193, 10**6])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_grid_above_the_solver_cap_fails_validate(tmp_path, capsys, experiment, n_points):
    # more nodes than the eigensolvers take fail at validate, and so at run
    # before any solve, naming the field; an experiment that solves no
    # eigenpair takes them
    path = _write(tmp_path, {"experiment": experiment, "grid": {"n_points": n_points}})
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    if experiment not in EIGENPAIR_EXPERIMENTS:
        assert code == 0 and err == ""
        return
    want = (
        f"error: grid.n_points: must be an integer in [16, {spectral_operator.DENSE_SOLVER_CAP}] "
        f"(at most {spectral_operator.DENSE_SOLVER_CAP} where eigenpairs of H are solved), "
        f"got {n_points}\n"
    )
    assert code == 1 and err == want
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == want and not out.exists()


def test_resolvent_check_on_sech2_lists_no_warnings(tmp_path, capsys):
    # the oracle samples V on the run's box only, where cosh(x)^2 is finite
    out = tmp_path / "out"
    raw = {"experiment": "resolvent-check", "potential": {"family": "sech_squared", "amplitude": -2}}
    assert main(["run", str(_write(tmp_path, raw)), "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err
    assert json.loads((out / "run_manifest.json").read_text())["warnings"] == []


def test_resolvent_check_off_node_probes_meet_criterion_5(tmp_path):
    # no default probe is a node of the default grid (h = 80 / 2047), so the
    # kernel reads every probe between nodes: the bound needs the march's O(h^4)
    # there, which linear interpolation of m does not keep
    out = tmp_path / "out"
    raw = {"experiment": "resolvent-check", "potential": {"family": "gaussian", "amplitude": 3}}
    assert main(["run", str(_write(tmp_path, raw)), "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert metrics["max_rel_err"] < 1e-3 and metrics["max_rel_err_ok"] is True


def test_resolvent_check_above_criterion_5_is_flagged(tmp_path):
    # a square well's jumps fall at different places on the run grid and on
    # the oracle's, so the kernel misses the bound: a verdict, not a silent number
    out = tmp_path / "out"
    raw = {"experiment": "resolvent-check", "potential": {"family": "square_well", "amplitude": -2}}
    assert main(["run", str(_write(tmp_path, raw)), "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert metrics["max_rel_err"] > 1e-3 and metrics["max_rel_err_ok"] is False


def test_stone_density_solves_only_the_eigenpairs_it_reads(tmp_path, monkeypatch):
    # the benchmark case runs no dense eigensolve, and its mass is the dense route's
    solved = []
    dstevd = spectral_operator._dstevd
    monkeypatch.setattr(
        spectral_operator, "_dstevd", lambda d, e: solved.append(len(d)) or dstevd(d, e)
    )
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "stone-density",
            "potential": {"family": "gaussian", "amplitude": 3.0, "width": 1.0},
            "grid": {"n_points": 1024, "l_box": 40.0},
        }
    )
    assert run(cfg, out_dir=tmp_path) == 0
    assert solved == []
    assert json.loads((tmp_path / "run_manifest.json").read_text())["eigensolves"] == []
    mass = json.loads((tmp_path / "report.json").read_text())["metrics"]["mass"]
    H = spectral_operator.build_hamiltonian(sample_potential(cfg.potential, cfg.grid))
    k, w = cfg.params["eigenindex"], H.eigenvalues
    eps = cfg.params["epsilon_factor"] * min(w[k] - w[k - 1], w[k + 1] - w[k])
    margin = cfg.params["margin_factor"] * eps
    dense = spectral_operator.stone_spectral_density(
        H.potential, w[k] - margin, w[k] + margin, eps, H.eigenvectors[:, k]
    )
    assert abs(mass - dense.integral()) <= 1e-9


@pytest.mark.parametrize("n_points", [256, 257])
def test_sde_convergence_enters_through_the_occupied_half(tmp_path, monkeypatch, n_points):
    # the centred Gaussian datum is even: one projection and one half-size
    # eigensolve.  Euler-Maruyama at every level and the exact flow get the
    # one OccupiedModes: a view of the even half's columns with E <= 2.5 and
    # their coefficients, normalized, bit for bit; its state matches that of
    # the dense assembled view (all coefficients, the cut, the whole basis)
    # to round-off
    seen = {"projections": [], "em": [], "exact": []}
    project, em, evolve = (
        spectral_operator.occupied_modes,
        stochastic.euler_maruyama_ito,
        spectral_operator.evolve,
    )

    def project_spy(H, u, *args, **kwargs):
        seen["projections"].append(H)
        return project(H, u, *args, **kwargs)

    def em_spy(modes, *args):
        seen["em"].append(modes)
        return em(modes, *args)

    def evolve_spy(modes, *args):
        seen["exact"].append(modes)
        return evolve(modes, *args)

    monkeypatch.setattr(spectral_operator, "occupied_modes", project_spy)
    monkeypatch.setattr(stochastic, "euler_maruyama_ito", em_spy)
    monkeypatch.setattr(spectral_operator, "evolve", evolve_spy)
    raw = {
        "experiment": "sde-convergence",
        "potential": {"family": "gaussian", "amplitude": 3.0, "width": 1.0},
        "grid": {"n_points": n_points, "l_box": 20.0},
        "stochastic": {"horizon": 1.0, "n_paths": 4, "seed": 2},
        "params": {"level_min": 4, "level_max": 8, "energy_cut": 2.5},
    }
    assert run(load_config(_write(tmp_path, raw)), out_dir=tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["eigensolves"] == [n_points - n_points // 2]
    [H] = seen["projections"]
    [modes] = seen["exact"]
    assert len(seen["em"]) == 5 and all(m is modes for m in seen["em"])
    assert modes.basis.sign == 1 and np.shares_memory(modes.basis.half, H.half(0)[1])
    dense = spectral_operator.build_hamiltonian(H.potential)
    u = estimates.gaussian_packet(dense.grid, width=2.0).astype(complex)
    w, v = dense.half(0)
    c = spectral_operator.real_basis_product(v.T, dense.folds(u)[0])
    keep = w <= 2.5
    assert np.array_equal(modes.energies, w[keep])
    assert np.array_equal(modes.coef, c[keep] / np.linalg.norm(c[keep]))
    assert np.array_equal(modes.basis.half, v[:, keep])
    c = dense.to_eigenbasis(u)
    c[dense.eigenvalues > 2.5] = 0.0
    c /= np.linalg.norm(c)
    u0 = modes.basis.product(modes.coef)
    # measured 2.7e-16 of the largest entry at both sizes
    assert np.abs(u0 - dense.from_eigenbasis(c)).max() <= 1e-14 * np.abs(u0).max()


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


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# config files that the lab cannot read as JSON text, each with the words of its
# one error line; None stands for a document too large to parse
NOT_JSON_TEXT = {
    "utf-16-mark-before-utf-8": (
        b'\xff\xfe{"experiment": "resonance"}',
        "error: config is not valid JSON: 'utf-16-le' codec can't decode",
    ),
    "integer-of-5000-digits": (
        b'{"experiment": "resonance", "grid": {"n_points": ' + b"9" * 5000 + b"}}",
        "error: config is not valid JSON: Exceeds the limit (4300 digits)",
    ),
    "nesting-past-the-recursion-limit": (
        b"[" * 100000,
        "error: config is not valid JSON: maximum recursion depth exceeded",
    ),
    "experiment-name-not-a-string": (b'{"experiment": []}', "error: experiment: unknown name []"),
    "out-of-memory": (None, "error: cannot read config: out of memory"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text, words", NOT_JSON_TEXT.values(), ids=list(NOT_JSON_TEXT))
def test_config_that_is_not_json_text_ends_in_one_error_line(
    tmp_path, capsys, monkeypatch, command, text, words
):
    path = tmp_path / "config.json"
    if text is None:
        path.write_text('{"experiment": "resonance"}')
        monkeypatch.setattr(cli_runner.json, "loads", _out_of_memory)
    else:
        path.write_bytes(text)
    argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(words)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_config_is_read_as_bytes_whatever_the_locale(tmp_path):
    # valid UTF-8 with a non-ASCII output_dir, under a locale whose text
    # encoding is ASCII: it validates, to the hash it has here
    path = tmp_path / "config.json"
    path.write_bytes('{"experiment": "resonance", "output_dir": "café"}'.encode())
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-m", "dispersion_lab.cli_runner", "validate", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"ok: resonance (hash {load_config(path).config_hash()[:12]})\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "CONFIG", "--seed", "abc"], 1),
        ([], 1),
        (["run"], 1),
        (["--help"], 0),
        (["run", "--help"], 0),
    ],
    ids=["seed-not-an-integer", "no-command", "no-config", "help", "run-help"],
)
def test_usage_error_exits_one_and_help_zero(tmp_path, capsys, argv, code):
    # exit 2 means a completed run whose hypothesis was violated, never a bad command line
    config = str(small_dispersive_config(tmp_path))
    assert main([config if a == "CONFIG" else a for a in argv]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code:
        assert out == "" and "usage: dispersion-lab" in err and "error: " in err
    else:
        assert "usage: dispersion-lab" in out and err == ""
    assert not (tmp_path / "out").exists()


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
    ("resolvent-check", "oracle_l_box"),
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
    # the datum exp(-x^2) samples to 0 on this grid (h = 54.9, E h^2 = 0.95),
    # and so does every term
    "zero-datum": (
        {
            "potential": {"family": "gaussian", "amplitude": 5e-5, "width": 100},
            "grid": {"n_points": 16, "l_box": 412},
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


def test_born_check_leaves_subnormal_terms_out_of_max_ratio(tmp_path):
    # near the threshold on sech^2(-2, 1) the term sups are subnormal from
    # n = 334 on and exactly 0 later.  A subnormal keeps ever fewer digits:
    # the ratios between them read up to 0.5 (measured), so a ratio with a
    # term below the normal range is nan and left out, as one with a 0 term
    raw = {
        "experiment": "born-check",
        "potential": {"family": "sech_squared", "amplitude": -2, "width": 1},
        "params": {"energy_factor": 1.01, "n_terms": 2433},
    }
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, raw)), "--out", str(out)]) == 0
    sups, ratios = np.loadtxt(out / "data.csv", delimiter=",", skiprows=2, usecols=(1, 2)).T
    normal = sups >= np.finfo(float).tiny
    assert np.argmin(normal) == 334 and not np.any(normal[334:])
    assert np.array_equal(np.isnan(ratios[1:]), ~normal[1:])
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    assert metrics["max_ratio"] == np.nanmax(ratios) == max(sups[1:334] / sups[:333])
    assert abs(metrics["max_ratio"] - 0.1653) < 1e-4 and metrics["ratios_ok"] is True


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
