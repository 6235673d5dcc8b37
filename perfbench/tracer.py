"""Span tracing of the lab's public functions, installed from outside the package.

``Tracer.install`` replaces every module attribute (and class attribute, for
methods) bound to a traced function with a wrapper that records a span: name,
parent span id, start and end on the monotonic clock.  ``from .x import f``
binds a second name to the same function object, so the tracer scans every
``dispersion_lab`` module for attributes that *are* the original and wraps
each one.  ``restore`` puts every original back.  Spans stay in memory until
the caller writes them out.

Work counts are recorded at the same boundaries by per-function hooks that see
the call's bound arguments, its result and the names of the enclosing spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass

PACKAGE = "dispersion_lab"

# module -> public functions whose spans make up the per-layer table
TRACED = {
    "cli_runner": ["run", "load_config", "write_csv"],
    "grid_model": ["sample_potential", "PotentialGrid.l1_norm"],
    "spectral_operator": [
        "build_hamiltonian",
        "DiscreteHamiltonian.to_eigenbasis",
        "DiscreteHamiltonian.from_eigenbasis",
        "propagate_batch",
        "tridiagonal_resolvent_solve",
        "born_series_terms",
        "stone_spectral_density",
    ],
    "scattering": [
        "jost_solution",
        "detect_resonance",
        "scattering_coefficients",
        "resolvent_kernel_jost_table",
    ],
    "stochastic": ["sample_brownian", "euler_maruyama_ito"],
    "estimates": [
        "dispersive_experiment",
        "expectation_decay_experiment",
        "convolution_lemma_experiment",
        "strichartz_homogeneous_experiment",
        "strichartz_inhomogeneous_experiment",
        "lp_norms_columns",
        "mixed_norm",
        "fit_decay_exponent",
    ],
    "_parallel": ["ordered_map"],
}

# ordered_map's only callers are the experiments in estimates; the per-block
# and per-path closures they hand it get their own span, so that the basis
# products inside them count as estimates time, not as ordered_map self time
WORK_ITEM = "estimates.work_item"

def span_name(module: str, qualname: str) -> str:
    # metric names start with a letter, so _parallel reports as parallel
    return f"{module.lstrip('_')}.{qualname}"


SPAN_NAMES = [span_name(mod, fn) for mod, fns in TRACED.items() for fn in fns] + [WORK_ITEM]


# -- work counts: hook(counts, bound arguments, result, enclosing span names)

def _basis_work(counts, a, result, outer):
    # real n x m eigenbasis times a real or complex operand: 2 flops per
    # multiply-add per real component; bytes are the operands read plus the
    # product written, computed from array sizes (cache misses not counted)
    basis = a["self"].eigenvectors
    x = a["u"] if "u" in a else a["c"]
    k = x.size // x.shape[0]
    parts = 2 if x.dtype.kind == "c" else 1
    counts["spectral_operator.basis.gflop"] += 2.0 * basis.shape[0] * basis.shape[1] * k * parts / 1e9
    counts["spectral_operator.basis.gbytes"] += (basis.nbytes + x.nbytes + result.nbytes) / 1e9


def _grid_nodes(counter, arg):
    def hook(counts, a, result, outer):
        grid = a[arg].grid if arg == "V" else a[arg]
        counts[counter] += grid.n_points

    return hook


def _taus(counts, a, result, outer):
    # columns normed inside the dispersive experiment = taus it propagated
    if "estimates.dispersive_experiment" in outer:
        states = a["states"]
        counts["estimates.dispersive.taus"] += states.shape[1] if states.ndim == 2 else 1


COUNT_HOOKS = {
    "spectral_operator.build_hamiltonian": _grid_nodes("spectral_operator.build_hamiltonian.n_sum", "V"),
    "spectral_operator.DiscreteHamiltonian.to_eigenbasis": _basis_work,
    "spectral_operator.DiscreteHamiltonian.from_eigenbasis": _basis_work,
    "spectral_operator.tridiagonal_resolvent_solve": _grid_nodes(
        "spectral_operator.tridiagonal_resolvent_solve.unknowns", "grid"
    ),
    "scattering.jost_solution": _grid_nodes("scattering.jost_solution.nodes", "V"),
    "spectral_operator.born_series_terms": lambda c, a, r, o: c.update(
        {"spectral_operator.born_series_terms.terms": len(r)}
    ),
    "stochastic.sample_brownian": lambda c, a, r, o: c.update(
        {"stochastic.sample_brownian.increments": r.increments.size}
    ),
    "stochastic.euler_maruyama_ito": lambda c, a, r, o: c.update(
        {"stochastic.euler_maruyama_ito.steps": a["n_steps"]}
    ),
    "estimates.fit_decay_exponent": lambda c, a, r, o: c.update(
        {"estimates.fit_decay_exponent.resamples": a["n_boot"]}
    ),
    "estimates.dispersive_experiment": lambda c, a, r, o: c.update(
        {"estimates.dispersive.kept": r.extras.get("n_samples", 0)}
    ),
    "estimates.lp_norms_columns": _taus,
    "parallel.ordered_map": lambda c, a, r, o: c.update({"parallel.ordered_map.items": len(r)}),
    "cli_runner.write_csv": lambda c, a, r, o: c.update(
        {"cli_runner.write_csv.bytes": a["path"].stat().st_size}
    ),
}

COUNT_NAMES = [
    "spectral_operator.build_hamiltonian.n_sum",
    "spectral_operator.basis.gflop",
    "spectral_operator.basis.gbytes",
    "spectral_operator.tridiagonal_resolvent_solve.unknowns",
    "spectral_operator.born_series_terms.terms",
    "scattering.jost_solution.nodes",
    "stochastic.sample_brownian.increments",
    "stochastic.euler_maruyama_ito.steps",
    "estimates.fit_decay_exponent.resamples",
    "estimates.dispersive.taus",
    "estimates.dispersive.kept",
    "parallel.ordered_map.items",
    "cli_runner.write_csv.bytes",
]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Wraps the traced functions of the imported ``dispersion_lab`` package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter({name: 0 for name in COUNT_NAMES})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        for mod_name, names in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for qual in names:
                if "." in qual:  # a method: one binding, on its class
                    cls_name, attr = qual.split(".")
                    owner = getattr(home, cls_name)
                    original = vars(owner)[attr]
                    bindings = [(owner, attr)]
                else:
                    original = getattr(home, qual)
                    bindings = [
                        (mod, attr) for mod in modules for attr, val in vars(mod).items() if val is original
                    ]
                wrapper = self._wrap(original, span_name(mod_name, qual))
                for owner, attr in bindings:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name: str):
        hook = COUNT_HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None
        local, lock, spans, counts = self._local, self._lock, self.spans, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "parallel.ordered_map":
                args = (self._wrap(args[0], WORK_ITEM),) + args[1:]
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                span = Span(len(spans), stack[-1].id if stack else None, name, 0.0)
                spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                outer = {s.name for s in stack}
                with lock:
                    hook(counts, bound.arguments, result, outer)
            return result

        return wrapper

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name.

        Self time subtracts the direct children's durations; with one lab
        worker the children of a span run one after another inside it.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for span, inner in zip(self.spans, child_time):
            row = table[span.name]
            dur = span.end - span.start
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += max(dur - inner, 0.0)
        return table

    def span_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
