"""Brownian ensembles and the noise-driven solution flow.

The solution operator of the white-noise-dispersion equation is the
time-changed propagator S(t, s) = e^{-i (beta(t) - beta(s)) H}.  An
explicit Euler-Maruyama integrator for the equivalent Ito form
du = -(1/2) H^2 u dt - i H u dbeta serves as an independent check that
the time change really solves the equation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityWarning
from .spectral_operator import DiscreteHamiltonian, occupied_modes, real_basis_product

# unused here: perfbench/tests/test_tracer.py asserts that this copy is the
# spectral_operator function, which exercises the tracer's wrapping of copies
from .spectral_operator import propagate_batch  # noqa: F401


# the integrator's mode cut: round-off occupation of stiff modes would be
# amplified without bound by the explicit step
EM_MODE_TOL = 1e-12


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
    inc = np.empty((n_paths, n_steps))
    for p in range(n_paths):
        inc[p] = path_rng(seed, p).normal(0.0, np.sqrt(dt), n_steps)
    values = np.zeros((n_paths, n_steps + 1))
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
    H: DiscreteHamiltonian,
    increments: np.ndarray,
    horizon: float,
    u0: np.ndarray,
    n_steps: int,
    return_trajectory: bool = False,
) -> np.ndarray:
    """Explicit Euler-Maruyama for du = -(1/2) H^2 u dt - i H u dbeta.

    Runs in the eigenbasis on the occupied modes of u0, for one path of
    increments (n_fine,) or a batch (n_paths, n_fine) at once.  n_steps
    must divide n_fine; coarser steps sum consecutive fine increments so
    every refinement level sees the same path.  Returns u(T) as (n,) for
    one path and as one column per path, (n, n_paths), for a batch; the
    trajectory stacks u(t_k) for k = 0..n_steps along a leading axis.
    """
    increments = np.asarray(increments, dtype=float)
    paths = np.atleast_2d(increments)
    n_fine = paths.shape[1]
    if n_steps < 1 or n_fine % n_steps != 0:
        raise DomainError(
            f"n_steps={n_steps} must divide the path's {n_fine} increments"
        )
    if len(u0) != H.n:
        raise DomainError("u0 length does not match the Hamiltonian grid")
    dbeta = paths.reshape(len(paths), n_steps, n_fine // n_steps).sum(axis=2)
    dt = horizon / n_steps
    modes = occupied_modes(H, u0, mode_tol=EM_MODE_TOL)
    lam = modes.energies
    lam_max2 = float(np.max(lam**2)) if len(lam) else 0.0
    if dt * lam_max2 > 1.0:
        warnings.warn(
            f"dt * max occupied eigenvalue^2 = {dt * lam_max2:.3g} > 1; "
            "the explicit step amplifies those modes",
            StabilityWarning,
            stacklevel=2,
        )
    drift = 1.0 - 0.5 * lam**2 * dt
    ilam = 1j * lam
    c = np.tile(modes.coef, (len(paths), 1))  # (n_paths, n_modes)
    traj = [real_basis_product(modes.basis, c.T)] if return_trajectory else None
    for k in range(n_steps):
        c = c * (drift - ilam * dbeta[:, k, None])
        if return_trajectory:
            traj.append(real_basis_product(modes.basis, c.T))
    out = np.stack(traj) if return_trajectory else real_basis_product(modes.basis, c.T)
    return out if increments.ndim == 2 else out[..., 0]
