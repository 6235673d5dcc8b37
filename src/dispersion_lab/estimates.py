"""Mixed norms, decay-exponent fits and the Monte Carlo experiments.

The decay statements under test are asymptotic inequalities with
non-constructive constants, so every experiment verifies an exponent
(log-log fit) and/or boundedness of a scaling ratio, never a constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# unused here: perfbench/tests/test_tracer.py asserts that this copy is the
# _parallel function, which exercises the tracer's wrapping of copies
from ._parallel import ordered_map  # noqa: F401
from .errors import (
    ConditioningError,
    ContractViolationError,
    DomainError,
    HypothesisViolationWarning,
)
from .grid_model import Grid, simpson_weights, sorted_unique
from .scattering import detect_resonance
from .spectral_operator import DiscreteHamiltonian, RowPanels, duhamel, evolve, occupied_modes
from .stochastic import BrownianEnsemble, sample_brownian

INF = math.inf
N_BOOT = 400  # bootstrap resamples behind every experiment's slope CI


# ---------------------------------------------------------------------------
# norms

def lp_norm_x(u: np.ndarray, p: float, grid: Grid) -> float:
    """Grid L^p norm (h Sum |u_i|^p)^(1/p); max for p = inf."""
    if p != INF and p < 1:
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    a = np.abs(np.asarray(u))
    if p == INF:
        return float(a.max())
    return float((grid.h * np.sum(a**p)) ** (1.0 / p))


def lp_norms_columns(states: np.ndarray | RowPanels, p: float, grid: Grid) -> np.ndarray:
    """L^p norm of every column of a (n_points, n_times) state matrix.

    states may also be RowPanels, whose |u|^p blocks (RowPanels.abs_blocks)
    are folded in row order: a running maximum for p = inf, and for finite
    p the running sum rides along as row 0 of the next block.  numpy adds
    the rows of a C-ordered array with more than one column strictly in
    order, so the fold equals the sum of the stacked blocks bit for bit.
    """
    g = (lambda a: a) if p == INF else (lambda a: a**p)
    blocks = states.abs_blocks(g) if isinstance(states, RowPanels) else [g(np.abs(states))]
    acc = None
    for a in blocks:
        if p == INF:
            acc = a.max(axis=0) if acc is None else np.maximum(acc, a.max(axis=0))
        else:
            acc = np.sum(a if acc is None else np.vstack([acc, a]), axis=0)
    if p == INF:
        return acc
    return (grid.h * acc) ** (1.0 / p)


def holder_conjugate(q: float) -> float:
    """q' with 1/q + 1/q' = 1; conjugate of 1 is inf and vice versa."""
    if q == 1:
        return INF
    if q == INF:
        return 1.0
    if q < 1:
        raise DomainError(f"exponent must be >= 1, got {q}")
    return q / (q - 1.0)


def mixed_norm(space_norms: np.ndarray, times: np.ndarray, rho: float, r: float) -> float:
    """Path/time mixed norm of per-path, per-time space norms on [0, times[-1]].

    Composite quadrature in t inside (exponent r), power mean over paths
    outside (exponent rho); inf-exponents become maxima.
    """
    for q in (rho, r):
        if q != INF and q < 1:
            raise DomainError(f"exponents must be >= 1 or inf, got {q}")
    space_norms = np.atleast_2d(np.asarray(space_norms, dtype=float))
    times = np.asarray(times, dtype=float)
    if space_norms.shape[1] != len(times) or len(times) < 1:
        raise DomainError("time grid does not match the sample matrix")
    if times[0] != 0:
        raise DomainError(f"sample times must start at 0, got {times[0]}")
    if len(times) == 1:
        per_path = space_norms[:, 0]
    elif r == INF:
        per_path = space_norms.max(axis=1)
    else:
        wq = simpson_weights(len(times), float(times[1] - times[0]))
        per_path = (space_norms**r @ wq) ** (1.0 / r)
    if rho == INF:
        return float(per_path.max())
    return float(np.mean(per_path**rho) ** (1.0 / rho))


# ---------------------------------------------------------------------------
# admissibility and scaling exponents

def admissible_pair(r: float, p: float) -> bool:
    """Exponent pairs covered by the window-scaling bounds.

    (r, p) qualifies when 2 <= r < inf, 2 <= p <= inf and
    2/r > 1/2 - 1/p (strict), or at the endpoint r = inf, p = 2.
    """
    if r == INF:
        return p == 2
    if r < 2 or p < 2:
        return False
    inv_p = 0.0 if p == INF else 1.0 / p
    return 2.0 / r > 0.5 - inv_p


def mu_inhomogeneous(r: float, p: float) -> float:
    """Window exponent 2/r + 1/(2p) - 1/4 of the forced evolution bound."""
    if not admissible_pair(r, p):
        raise DomainError(f"({r}, {p}) is not an admissible pair")
    inv_r = 0.0 if r == INF else 1.0 / r
    inv_p = 0.0 if p == INF else 1.0 / p
    return 2.0 * inv_r + 0.5 * inv_p - 0.25


def mu_homogeneous(r: float, p: float) -> float:
    """Window exponent 2/r - (1/2)(1/2 - 1/p) of the free evolution bound."""
    if not admissible_pair(r, p):
        raise DomainError(f"({r}, {p}) is not an admissible pair")
    inv_r = 0.0 if r == INF else 1.0 / r
    inv_p = 0.0 if p == INF else 1.0 / p
    return 2.0 * inv_r - 0.5 * (0.5 - inv_p)


# ---------------------------------------------------------------------------
# exponent fitting

@dataclass
class EstimateReport:
    """Raw samples and the fitted power law value ~ C * abscissa^slope."""

    abscissa: np.ndarray
    values: np.ndarray
    fitted_slope: float
    fitted_intercept: float
    slope_ci_95: tuple[float, float]
    n_paths: int = 0
    seed: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.asarray(self.abscissa) <= 0):
            raise DomainError("abscissa values must be positive")
        lo, hi = self.slope_ci_95
        if np.isfinite(self.fitted_slope) and not (lo <= self.fitted_slope <= hi):
            raise DomainError("confidence interval must contain the fitted slope")


def percentile(x, q: float) -> float:
    """np.percentile(x, q) by its default linear rule, bit for bit but for
    the sign of a zero where x holds both 0.0 and -0.0.

    np.percentile imports numpy.ma on first use, 12-18 ms per process.  The
    q-th percentile of the n sorted values sits at position (n - 1) q / 100;
    between two order statistics a and b it is interpolated from the nearer
    one, as numpy does.
    """
    s = np.sort(np.asarray(x, dtype=float))
    pos = (len(s) - 1) * (q / 100)
    if pos >= len(s) - 1:
        return float(s[-1])
    i = math.floor(pos)
    g = pos - i
    a, b = float(s[i]), float(s[i + 1])
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def fit_decay_exponent(
    abscissa,
    values,
    n_boot: int = 1000,
    min_points: int = 8,
) -> EstimateReport:
    """Ordinary least squares on (log a, log v) with a bootstrap CI.

    The abscissa must span at least one decade for the slope to be
    well-conditioned.  The bootstrap resamples are drawn from one fixed
    Philox key, so a fit is the same on every run.
    """
    a = np.asarray(abscissa, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(a) != len(v):
        raise DomainError("abscissa and values must have equal length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(v))):
        raise DomainError("log-log fit needs finite abscissa and values")
    if not (np.all(a > 0) and np.all(v > 0)):
        raise DomainError("log-log fit needs positive abscissa and values")
    if len(a) < min_points:
        raise ConditioningError(f"need at least {min_points} pairs, got {len(a)}")
    span = math.log10(a.max() / a.min())
    if span < 1.0:
        raise ConditioningError(
            f"abscissa spans {span:.2f} decades, below the required 1.0"
        )
    la, lv = np.log(a), np.log(v)
    slope, intercept = np.polyfit(la, lv, 1)
    rng = np.random.Generator(np.random.Philox(key=[1234, 0]))
    boots = []
    for _ in range(n_boot):
        idx = rng.integers(0, len(a), len(a))
        if np.ptp(la[idx]) == 0:
            continue
        boots.append(np.polyfit(la[idx], lv[idx], 1)[0])
    lo, hi = (percentile(boots, q) for q in (2.5, 97.5))
    lo, hi = min(lo, slope), max(hi, slope)
    return EstimateReport(
        abscissa=a,
        values=v,
        fitted_slope=float(slope),
        fitted_intercept=float(intercept),
        slope_ci_95=(float(lo), float(hi)),
    )


def fit_report(
    abscissa,
    values,
    n_paths: int,
    seed: int,
    n_boot: int = N_BOOT,
    min_points: int = 8,
    reason: str | None = None,
    **extras,
) -> EstimateReport:
    """The finished report of an experiment: its fit over at least a decade,
    the run's path count and seed, and extras.

    A fit the samples cannot support, or a reason passed by the caller,
    gives a nan fit flagged degenerate with that reason.
    """
    a = np.asarray(abscissa, dtype=float)
    v = np.asarray(values, dtype=float)
    if reason is None:
        try:
            rep = fit_decay_exponent(a, v, n_boot=n_boot, min_points=min_points)
        except (DomainError, ConditioningError) as exc:
            reason = str(exc)
    if reason is not None:
        nan = float("nan")
        flags = {"degenerate": True, "degenerate_reason": reason}
        rep = EstimateReport(a, v, nan, nan, (nan, nan), extras=flags)
    rep.n_paths, rep.seed = n_paths, seed
    rep.extras.update(extras)
    return rep


# ---------------------------------------------------------------------------
# initial data helpers

def gaussian_packet(grid: Grid, width: float = 0.5) -> np.ndarray:
    """exp(-(x/w)^2) as a complex array."""
    x = grid.x
    return np.exp(-((x / width) ** 2)).astype(complex)


def odd_packet(grid: Grid, width: float = 0.8) -> np.ndarray:
    """x exp(-(x/w)^2); vanishing mean kills the zero-energy component."""
    x = grid.x
    return (x * np.exp(-((x / width) ** 2))).astype(complex)


def _select_time_indices(
    ensemble: BrownianEnsemble, t_min: float, n_samples: int, spacing: str = "linear"
) -> np.ndarray:
    if not 0 <= t_min < ensemble.horizon:
        raise DomainError("t_min must lie inside the path horizon")
    if spacing == "geometric":
        ts = np.geomspace(max(t_min, ensemble.dt), ensemble.horizon, n_samples)
    else:
        ts = np.linspace(max(t_min, ensemble.dt), ensemble.horizon, n_samples)
    return sorted_unique(np.round(ts / ensemble.dt).astype(int))


def _space_norms_at_taus(
    H: DiscreteHamiltonian,
    u0: np.ndarray,
    taus: np.ndarray,
    p: float,
    project: bool,
    mode_tol: float,
) -> np.ndarray:
    """L^p norms of e^{-i tau H} (P_ac) u0 for a flat list of phases."""
    modes = occupied_modes(H, u0, project, mode_tol)
    return evolve(modes, taus, reduce=lambda states: lp_norms_columns(states, p, H.grid))


# ---------------------------------------------------------------------------
# experiments

def dispersive_experiment(
    H: DiscreteHamiltonian,
    ensemble: BrownianEnsemble,
    u0: np.ndarray,
    t_min: float = 0.5,
    n_time_samples: int = 16,
    beta_min: float | None = None,
) -> EstimateReport:
    """Sup-norm decay against |beta(t)| for L1 initial data.

    For every sampled (path, t) pair records x = |beta(t)| and
    v = ||e^{-i beta(t) H} P_ac u0||_inf, censoring |beta(t)| below the
    grid resolution, then fits the decay exponent (target -1/2).
    """
    grid = H.grid
    u0 = np.asarray(u0, dtype=complex)
    u0 = u0 / lp_norm_x(u0, 1.0, grid)
    if beta_min is None:  # the grid's dispersive resolution h^2 * (2 pi / h)
        beta_min = 2.0 * np.pi * grid.h
    resonant = False
    if not H.potential.is_zero and detect_resonance(H.potential):
        resonant = True
        warnings.warn(
            "zero-energy resonance detected: the decay hypothesis is violated; "
            "the experiment still runs, flagged",
            HypothesisViolationWarning,
            stacklevel=2,
        )
    ksel = _select_time_indices(ensemble, t_min, n_time_samples)
    taus = ensemble.values[:, ksel].ravel()
    xs = np.abs(taus)
    vs = _space_norms_at_taus(H, u0, taus, INF, project=True, mode_tol=1e-12)
    keep = xs >= beta_min
    xs, vs = xs[keep], vs[keep]
    n, seed = ensemble.n_paths, ensemble.seed
    if len(vs) == 0 or vs.max() < 1e-8:
        # nothing left to fit (e.g. the projection annihilated u0)
        reason = "no sample left above beta_min with a sup norm of at least 1e-8"
        return fit_report(
            np.ones(1), np.ones(1), n, seed, reason=reason, resonant=resonant, beta_min=beta_min
        )
    return fit_report(xs, vs, n, seed, resonant=resonant, beta_min=beta_min, n_samples=len(xs))


def expectation_decay_experiment(
    H: DiscreteHamiltonian,
    ensemble: BrownianEnsemble,
    u0: np.ndarray,
    p: float = 1.0,
    t_min: float = 0.5,
    n_time_samples: int = 24,
) -> EstimateReport:
    """Path-averaged sup-norm decay (E ||u(t)||_inf^p)^(1/p) against t.

    Only p < 2 is accepted: the Gaussian average of |beta|^{-p/2}
    diverges at p = 2, and so does the estimand's continuum limit.
    """
    if not 1 <= p < 2:
        raise DomainError(f"p must lie in [1, 2), got {p}")
    u0 = np.asarray(u0, dtype=complex)
    u0 = u0 / lp_norm_x(u0, 1.0, H.grid)
    ksel = _select_time_indices(ensemble, t_min, n_time_samples, spacing="geometric")
    ts = ensemble.times[ksel]
    sup = _space_norms_at_taus(
        H, u0, ensemble.values[:, ksel], INF, project=True, mode_tol=1e-6
    ).reshape(ensemble.n_paths, len(ksel))
    vals = np.mean(sup**p, axis=0) ** (1.0 / p)
    return fit_report(ts, vals, ensemble.n_paths, ensemble.seed, p=p)


def _sub_seed(seed: int, index: int) -> int:
    # distinct substream family per window; Philox keys are 64-bit
    return (seed + 1000003 * (index + 1)) % (2**63)


def _windows(horizons: np.ndarray, n_steps: int, n_paths: int, seed: int):
    """(i, ensemble) per window length T, each ensemble on its own substream.

    A fresh ensemble per window keeps the time discretization self-similar
    across T.
    """
    for i, T in enumerate(horizons):
        yield i, sample_brownian(float(T), n_steps, n_paths, _sub_seed(seed, i))


def _window_report(horizons, lhs, scale, n_paths: int, seed: int, **extras) -> EstimateReport:
    """fit_report of a window scaling, with the ratios lhs / scale that the
    bound keeps bounded (0 where scale is 0) and their max / min spread."""
    ratios = np.where(scale > 0, lhs / np.where(scale > 0, scale, 1.0), 0.0)
    spread = float(ratios.max() / ratios.min()) if np.all(ratios > 0) else float("nan")
    return fit_report(horizons, lhs, n_paths, seed, ratios=ratios, ratio_max_min=spread, **extras)


def convolution_lemma_experiment(
    alpha: float,
    horizons,
    n_steps: int = 128,
    n_paths: int = 500,
    seed: int = 0,
) -> EstimateReport:
    """Scaling in T of E int_0^T (int_0^t |beta(t)-beta(s)|^-alpha ds)^2 dt.

    The inner integral uses the left-endpoint rule (strictly s < t),
    which also sidesteps the singular diagonal; the outer integral uses
    composite Simpson, exact at alpha = 0 where the answer is T^3/3.
    """
    if not 0 <= alpha < 1:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    horizons = np.asarray(horizons, dtype=float)
    lhs = np.empty(len(horizons))
    lower = np.tri(n_steps + 1, k=-1, dtype=bool)  # strictly s < t
    for i, ens in _windows(horizons, n_steps, n_paths, seed):
        wq = simpson_weights(n_steps + 1, ens.dt)
        kern = np.zeros((n_steps + 1, n_steps + 1))
        per_path = np.empty(n_paths)
        for pi, b in enumerate(ens.values):
            with np.errstate(divide="ignore"):
                np.power(np.abs(np.subtract.outer(b, b)), -alpha, out=kern, where=lower)
            g = kern.sum(axis=1) * ens.dt
            per_path[pi] = np.sum(wq * g**2)
        lhs[i] = float(np.mean(per_path))
    return _window_report(horizons, lhs, horizons ** (3.0 - alpha), n_paths, seed, alpha=alpha)


def strichartz_homogeneous_experiment(
    H: DiscreteHamiltonian,
    u0: np.ndarray,
    r: float,
    p: float,
    horizons,
    n_steps: int = 128,
    n_paths: int = 64,
    seed: int = 0,
    project: bool = False,
) -> EstimateReport:
    """Window scaling of || e^{-i beta H} P_ac u0 || in L^r(Omega; L^r L^p).

    Reports the fitted T-exponent of the left side and the ratio
    LHS / T^(mu/2) over the window grid; the bound predicts the ratio
    stays bounded, not any particular constant.
    """
    mu = mu_homogeneous(r, p)
    if r == INF:
        raise DomainError("r = inf windows are out of scope for the Monte Carlo")
    u0 = np.asarray(u0, dtype=complex)
    u0 = u0 / lp_norm_x(u0, 2.0, H.grid)
    modes = occupied_modes(H, u0, project, mode_tol=1e-12)
    horizons = np.asarray(horizons, dtype=float)
    lhs = np.empty(len(horizons))
    for i, ens in _windows(horizons, n_steps, n_paths, seed):
        norms = evolve(modes, ens.values, reduce=lambda st: lp_norms_columns(st, p, H.grid))
        lhs[i] = mixed_norm(norms.reshape(n_paths, n_steps + 1), ens.times, r, r)
    return _window_report(
        horizons, lhs, horizons ** (mu / 2.0), n_paths, seed, mu=mu, target_exponent=mu / 2.0
    )


def strichartz_inhomogeneous_experiment(
    H: DiscreteHamiltonian,
    forcing: np.ndarray,
    rho: float,
    r: float,
    p: float,
    horizons,
    n_steps: int = 128,
    n_paths: int = 64,
    seed: int = 0,
    project: bool = False,
) -> EstimateReport:
    """Window scaling of the forced term int_0^t S(t, s) P_ac f ds.

    The forcing f is a fixed profile (n,), so it is deterministic and
    trivially adapted to the driving noise.  The time integral uses the
    left-endpoint rule on the path's own increments, and the reported
    ratio is LHS / (T^mu * ||f||-side) with the dual-exponent norm of f.
    """
    mu = mu_inhomogeneous(r, p)
    if r == INF or rho == INF:
        raise DomainError("infinite path/time exponents are out of scope here")
    rp = holder_conjugate(r)
    if not (rp <= rho <= r):
        raise DomainError(f"rho must lie in [r', r] = [{rp}, {r}], got {rho}")
    if not isinstance(forcing, np.ndarray):
        raise ContractViolationError(
            "forcing must be a deterministic ndarray; path-dependent forcing "
            "cannot be checked for adaptedness"
        )
    grid = H.grid
    if forcing.shape != (grid.n_points,):
        raise DomainError(
            f"forcing must be a profile of shape ({grid.n_points},), got {forcing.shape}"
        )
    pp = holder_conjugate(p)
    modes = occupied_modes(H, forcing, project, mode_tol=1e-12)
    f_norms = np.full((1, n_steps + 1), lp_norm_x(forcing, pp, grid))
    horizons = np.asarray(horizons, dtype=float)
    lhs = np.empty(len(horizons))
    rhs = np.empty(len(horizons))
    for i, ens in _windows(horizons, n_steps, n_paths, seed):
        norms = duhamel(modes, ens.values, ens.dt, lambda st: lp_norms_columns(st, p, grid))
        lhs[i] = mixed_norm(norms, ens.times, rho, r)
        rhs[i] = mixed_norm(f_norms, ens.times, rho, rp)
    return _window_report(
        horizons,
        lhs,
        horizons**mu * rhs,
        n_paths,
        seed,
        mu=mu,
        n_modes=len(modes.energies),
        rhs_norms=rhs,
    )
