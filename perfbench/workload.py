"""One workload process: one pass over a workload's experiments.

Started by run.py with the thread variables already set.  It imports the lab
from ``--src``, writes and loads each config through
``cli_runner.load_config``, then calls ``cli_runner.run`` for one experiment
at a time (a closed loop with a single caller).  Results are verified after
the pass, outside the timed region.  In ``setup`` mode it stops just before
the first experiment.  Everything it measured goes to the ``--result`` file.

    python3 perfbench/workload.py --workload sde-order --seed 0 --mode untraced \
        --src src --out DIR --result FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cases import WORKLOADS, Result, verify  # noqa: E402


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "untraced", "traced"])
    ap.add_argument("--src", required=True, help="directory holding the dispersion_lab package")
    ap.add_argument("--out", required=True, help="scratch directory for configs and artifacts")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from dispersion_lab import cli_runner

    out = Path(args.out)
    cases = WORKLOADS[args.workload]
    configs = []
    for case in cases:
        path = out / "configs" / f"{case.name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(case.config_for(args.seed)))
        configs.append(cli_runner.load_config(path))
    ready = time.monotonic()
    doc = {"ready": ready, "machine": machine_info()}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(doc))
        return 0

    runs = []
    t_first = time.perf_counter()
    for case, cfg in zip(cases, configs):
        t0 = time.perf_counter()
        try:
            code, error = cli_runner.run(cfg, out_dir=out / case.name), None
        except Exception as exc:  # a failed experiment is counted, not fatal
            traceback.print_exc()
            code, error = None, f"{type(exc).__name__}: {exc}"
        runs.append({"case": case.name, "s": time.perf_counter() - t0, "code": code, "error": error})
    doc["wall_s"] = time.perf_counter() - t_first
    for case, rec in zip(cases, runs):
        run_dir = out / case.name
        if rec["error"] is None:
            try:
                rec["sha256"] = hashlib.sha256((run_dir / "data.csv").read_bytes()).hexdigest()
                result = Result.read(run_dir, rec["code"])
            except (OSError, ValueError) as exc:
                rec["error"] = f"unreadable artifacts: {exc}"
            else:
                rec["error"] = verify(case, result)
        shutil.rmtree(run_dir, ignore_errors=True)
    doc["runs"] = runs
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
        from dispersion_lab import _parallel

        doc["layers"] = tracer.layer_table()
        doc["counts"] = dict(tracer.counts)
        doc["workers"] = _parallel.worker_count()
        (out / "spans.json").write_text(json.dumps(tracer.span_records()))
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
