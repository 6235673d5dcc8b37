"""Brownian ensembles and the noise-driven solution flow.

The solution operator of the white-noise-dispersion equation is the
time-changed propagator S(t, s) = e^{-i (beta(t) - beta(s)) H}.  An
explicit Euler-Maruyama integrator for the equivalent Ito form
du = -(1/2) H^2 u dt - i H u dbeta, on the OccupiedModes that evolve
propagates exactly, checks that the time change solves the equation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityWarning, fits_in_memory
from .spectral_operator import OccupiedModes

# unused here: perfbench/tests/test_tracer.py asserts that this copy is the
# spectral_operator function, which exercises the tracer's wrapping of copies
from .spectral_operator import propagate_batch  # noqa: F401


@dataclass(frozen=True)
class BrownianEnsemble:
    """Seeded set of discrete Brownian paths on [0, horizon].

    Each path draws from its own counter-based substream keyed by
    (seed, path index), so regeneration is bit-identical under any
    worker schedule.
    """

    horizon: float
    n_steps: int
    n_paths: int
    seed: int
    increments: np.ndarray  # (n_paths, n_steps)
    values: np.ndarray  # (n_paths, n_steps + 1), values[:, 0] = 0

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based substream for one path."""
    return np.random.Generator(np.random.Philox(key=[seed, path_index]))


def sample_brownian(
    horizon: float, n_steps: int, n_paths: int, seed: int
) -> BrownianEnsemble:
    """Generate i.i.d. N(0, dt) increments per path and their cumsums."""
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if n_steps < 1 or n_paths < 1:
        raise DomainError("n_steps and n_paths must be >= 1")
    dt = horizon / n_steps
    with fits_in_memory(f"the {n_paths} x {n_steps} Brownian increments"):
        inc = np.empty((n_paths, n_steps))
        values = np.zeros((n_paths, n_steps + 1))
    # path_rng(seed, p) for every p from one generator: resetting the key
    # and counter gives the same stream as a fresh Philox, without the
    # SeedSequence each construction draws and a keyed stream never reads
    bitgen = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    key, scale = fresh["state"]["key"], np.sqrt(dt)
    for p in range(n_paths):
        key[1] = p
        bitgen.state = fresh
        inc[p] = rng.normal(0.0, scale, n_steps)
    np.cumsum(inc, axis=1, out=values[:, 1:])
    inc.setflags(write=False)
    values.setflags(write=False)
    return BrownianEnsemble(
        horizon=horizon,
        n_steps=n_steps,
        n_paths=n_paths,
        seed=seed,
        increments=inc,
        values=values,
    )


def euler_maruyama_ito(
    modes: OccupiedModes, increments: np.ndarray, horizon: float, n_steps: int
) -> np.ndarray:
    """Explicit Euler-Maruyama for du = -(1/2) H^2 u dt - i H u dbeta.

    Steps every coefficient of modes: the caller chooses the modes, since
    the explicit step amplifies a stiff mode's round-off occupation
    without bound.  increments holds one path per row, (n_paths, n_fine);
    n_steps must divide n_fine, and coarser steps sum consecutive fine
    increments so every refinement level sees the same path.  Returns
    u(T), one column per path (n, n_paths).  u(t_k) is the k-step run on
    the path's first k steps, with horizon k dt.

    The step factor 1 - lam^2 dt / 2 - i lam dbeta lives in one complex
    (n_paths, m) buffer: its real part is set once, and each step writes
    dbeta (-lam) into its imaginary view.  Those are the values the complex
    expression drift - 1j lam dbeta rounds to (its real part subtracts a
    zero, its imaginary part negates one rounded product), so c *= step
    is that expression's product bit for bit, with no real-to-complex casts.
    """
    n_paths, n_fine = np.shape(increments)
    if n_steps < 1 or n_fine % n_steps != 0:
        raise DomainError(f"n_steps={n_steps} must divide the path's {n_fine} increments")
    dbeta = np.reshape(increments, (n_paths, n_steps, n_fine // n_steps)).sum(axis=2)
    dt = horizon / n_steps
    lam = modes.energies
    lam_max2 = float(np.max(lam**2)) if len(lam) else 0.0
    if dt * lam_max2 > 1.0:
        warnings.warn(
            f"dt * max occupied eigenvalue^2 = {dt * lam_max2:.3g} > 1; "
            "the explicit step amplifies those modes",
            StabilityWarning,
            stacklevel=2,
        )
    step = np.empty((n_paths, len(lam)), dtype=complex)
    step.real = 1.0 - 0.5 * lam**2 * dt
    neg_lam = -lam
    c = np.tile(modes.coef, (n_paths, 1))  # (n_paths, n_modes)
    # an amplifying step may overflow the state to inf/nan; the
    # StabilityWarning above already flags that, numpy need not repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            np.multiply(dbeta[:, k, None], neg_lam, out=step.imag)
            c *= step
        return modes.basis.product(c.T)
