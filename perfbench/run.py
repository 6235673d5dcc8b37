"""Benchmark of dispersion-lab: three workloads at acceptance size.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-propagate --seed 0 --seconds 10 --trace 0

A workload pass runs in a fresh process (perfbench/workload.py), as a CLI
user's run does, started with the thread variables set so that lab workers x
BLAS threads <= nproc.  That process calls ``cli_runner.run`` for one
experiment at a time: a closed loop with a single caller.  Every result is
checked against the tolerance of its acceptance criterion (perfbench/cases.py),
and the sha256 of every ``data.csv`` must agree across the processes of a run
and with earlier runs of the same source, workload and seed.

``--trace 0`` starts pass processes one after another until ``--seconds`` are
spent (at least one) and prints end-to-end metrics as medians over them;
set-up time is the median over at least five processes.  ``--trace 1`` runs
one untraced and one traced pass and prints the per-layer table of the traced
one, its work counts, and the tracing overhead.  Artifacts, spans and a run
summary go to ``.perfbench_out/`` in the checkout.  The last line of stdout is
the result object; the lines before it give the machine block and the
per-experiment times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cases import DEFAULT_SEED, LONG_CASES, WORKLOADS  # noqa: E402
from tracer import COUNT_NAMES, SPAN_NAMES  # noqa: E402

SETUP_SAMPLES = 5  # at least this many processes give the setup_s median
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
LAB_WORKERS = 1  # the lab's thread pool; BLAS gets the remaining cores
# Workloads whose hot loop is Python around small BLAS calls, banded solves and
# RK4 steps get one BLAS thread.  A second OpenBLAS thread spins between calls
# and competes with the interpreter thread: on a 2-core VM it made sde-order
# 7% faster but its wall_s spread (IQR/median over five seeds) 0.18, not 0.09.
SERIAL_BLAS = {"sde-order", "spectral-oracles"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "long_cases_s": "s"}
COUNT_UNITS = {
    "spectral_operator.basis.gflop": "Gflop",
    "spectral_operator.basis.gbytes": "GB",
    "cli_runner.write_csv.bytes": "bytes",
}


class BenchError(Exception):
    pass


def cpu_count() -> int:
    n = len(os.sched_getaffinity(0))
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if quota != "max":
            n = min(n, max(1, int(int(quota) // int(period))))
    except (OSError, ValueError):
        pass
    return n


def llc_bytes() -> int | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for idx in sorted(caches.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024**2}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_hash(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(str(path.relative_to(d)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def layer_metrics(base: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced pass, against an untraced pass."""
    metrics = {}
    for name in SPAN_NAMES:
        row = traced["layers"][name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.s"] = (row["s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    counts = traced["counts"]
    for name in COUNT_NAMES:
        if not name.startswith("estimates.dispersive."):
            metrics[name] = (counts[name], COUNT_UNITS.get(name, "count"))
    taus = counts["estimates.dispersive.taus"]
    kept = counts["estimates.dispersive.kept"] / taus if taus else 0.0
    metrics["estimates.dispersive.kept_frac"] = (kept, "fraction")
    metrics["parallel.workers"] = (traced["workers"], "count")
    metrics["trace_overhead_frac"] = (traced["wall_s"] / base["wall_s"] - 1.0, "fraction")
    run_s = traced["layers"]["cli_runner.run"]["s"]
    metrics["cli_runner.run.wall_share"] = (run_s / traced["wall_s"], "fraction")
    return metrics


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: int):
        self.root = root
        self.src = root / "src"
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.out = root / ".perfbench_out"
        self.run_dir = self.out / f"{workload}-seed{seed}-trace{trace}"
        self.deadline = time.monotonic() + DEADLINE_S
        nproc = cpu_count()
        self.env = dict(os.environ)
        blas = 1 if workload in SERIAL_BLAS else max(1, nproc // LAB_WORKERS)
        self.threads = {var: str(blas) for var in THREAD_VARS}
        self.threads["DISPERSION_LAB_THREADS"] = str(LAB_WORKERS)
        self.env.update(self.threads)
        self.machine = {"nproc": nproc, "llc_bytes": llc_bytes(), "git_commit": git_commit(root)}

    def spawn(self, mode: str, tag: str) -> dict:
        result = self.run_dir / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--src", str(self.src),
            "--out", str(self.run_dir / tag), "--result", str(result),
        ]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=sys.stderr)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{tag}: workload process passed the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"{tag}: workload process exited with code {proc.returncode}")
        doc = json.loads(result.read_text())
        doc["setup_s"] = doc["ready"] - t0
        return doc

    def check(self, docs: list[dict]) -> tuple[int, list[str]]:
        """Runs attempted, and one failure message per failed run or mismatch.

        A run fails when it raises, exits non-zero or misses its criterion.
        data.csv digests must agree across every process here and with earlier
        runs; work counts must equal those of earlier traced runs.
        """
        attempted, failures = 0, []
        digests: dict[str, set] = {}
        for doc in docs:
            for rec in doc["runs"]:
                attempted += 1
                if rec["error"] is None and rec["code"] != 0:
                    rec["error"] = f"unexpected exit code {rec['code']}"
                if rec["error"] is not None:
                    failures.append(f"{rec['case']}: {rec['error']}")
                if "sha256" in rec:
                    digests.setdefault(rec["case"], set()).add(rec["sha256"])
        known = self._record("digests.json", {c: sorted(d)[0] for c, d in digests.items()})
        for case, seen in digests.items():
            if case in known:
                seen.add(known[case])
            if len(seen) > 1:
                failures.append(f"{case}: data.csv digest differs between runs")
        counts = [doc["counts"] for doc in docs if "counts" in doc]
        if counts and self._record("counts.json", counts[0]) != counts[0]:
            failures.append("work counts differ from an earlier traced run")
        return attempted, failures

    def _record(self, name: str, value: dict) -> dict:
        """What an earlier run of this code, workload and seed stored; else store value."""
        key = f"{self.workload}/{self.seed}/{source_hash(self.src, HERE)}"
        path = self.out / name
        try:
            book = json.loads(path.read_text())
        except (OSError, ValueError):
            book = {}
        if key not in book:
            book[key] = value
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
            os.replace(tmp, path)
        return book[key]

    def end_to_end(self) -> tuple[dict, list[dict]]:
        start = time.monotonic()
        passes = [self.spawn("untraced", "untraced0")]
        while time.monotonic() - start < self.seconds:
            passes.append(self.spawn("untraced", f"untraced{len(passes)}"))
        setups = [self.spawn("setup", f"setup{i}") for i in range(SETUP_SAMPLES - len(passes))]
        long_cases = LONG_CASES[self.workload]
        values = {
            "wall_s": statistics.median(d["wall_s"] for d in passes),
            "setup_s": statistics.median(d["setup_s"] for d in passes + setups),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in passes),
            "long_cases_s": statistics.median(
                sum(r["s"] for r in d["runs"] if r["case"] in long_cases) for d in passes
            ),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        return metrics, passes

    def per_layer(self) -> tuple[dict, list[dict]]:
        base = self.spawn("untraced", "untraced0")
        traced = self.spawn("traced", "traced")
        return layer_metrics(base, traced), [base, traced]

    def execute(self) -> dict:
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        self.run_dir.mkdir(parents=True)
        metrics, docs = self.per_layer() if self.trace else self.end_to_end()
        attempted, failures = self.check(docs)
        machine = dict(self.machine, **docs[0]["machine"], threads=self.threads)
        summary = {
            "workload": self.workload,
            "seed": self.seed,
            "machine": machine,
            "case_s": [{r["case"]: r["s"] for r in d["runs"]} for d in docs],
            "failures": failures,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
        (self.run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
        print("machine: " + json.dumps(machine, sort_keys=True))
        print("case_s: " + json.dumps(summary["case_s"]))
        for msg in failures:
            print(f"FAILED {msg}", file=sys.stderr)
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="offset added to the acceptance seeds of cases whose check holds at every "
                         "seed (default 0: the acceptance seeds)")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time; whole passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dispersion_lab" / "__init__.py").is_file():
        print(f"error: no dispersion_lab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds, args.trace)
    try:
        result = bench.execute()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
