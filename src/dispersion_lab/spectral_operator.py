"""Discrete Hamiltonian -Delta + V: eigenbasis, propagation, resolvents.

Conventions fixed across the package: the Hamiltonian eigenvalue is the
energy E; where a scattering momentum lam appears, E = lam^2.  The
Laplacian is the 3-point stencil with Dirichlet walls just outside the
grid, which keeps H exactly symmetric and e^{-i tau H} exactly unitary
in its eigenbasis.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from ._parallel import ordered_map
from .errors import AliasingWarning, ConvergenceRegionError, DomainError, SizeError
from .grid_model import Grid, PotentialGrid

DENSE_SOLVER_CAP = 8192


def _load_flapack():
    """scipy's f2py LAPACK wrappers, without the scipy.linalg package init.

    That init builds scipy's array-API clone of the numpy namespace, which
    imports numpy.f2py, numpy.testing and numpy.ma: ~0.29 s and ~20 MB per
    process, none of it used here.  Importing scipy.linalg later still works.
    """
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = FileFinder(path, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        "scipy.linalg._flapack"
    )
    if spec is None:
        raise ImportError(f"no scipy LAPACK extension _flapack in {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal -Delta + V with its full eigendecomposition.

    Eigenvectors are orthonormal in the plain euclidean inner product;
    L2(grid) norms differ by a factor sqrt(h).
    """

    grid: Grid
    potential: PotentialGrid
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns
    bound_state_indices: np.ndarray = field(default=None)

    @property
    def n(self) -> int:
        return self.grid.n_points

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diagonal * u
        out[:-1] += self.off_diagonal * u[1:]
        out[1:] += self.off_diagonal * u[:-1]
        return out

    def to_eigenbasis(self, u: np.ndarray) -> np.ndarray:
        return real_basis_product(self.eigenvectors.T, u)

    def from_eigenbasis(self, c: np.ndarray) -> np.ndarray:
        return real_basis_product(self.eigenvectors, c)


def real_basis_product(basis: np.ndarray, data: np.ndarray) -> np.ndarray:
    """basis @ data for a real basis and real or complex data.

    numpy would first copy the real basis to complex; viewing C-contiguous
    complex data as interleaved (re, im) float64 pairs keeps the product a
    single real GEMM.
    """
    data = np.asarray(data)
    if data.dtype.kind != "c":
        return basis @ data
    data = np.ascontiguousarray(data, dtype=np.complex128)
    pairs = data.reshape(len(data), int(np.prod(data.shape[1:]))).view(np.float64)
    out = (basis @ pairs).view(np.complex128)
    return out.reshape((basis.shape[0],) + data.shape[1:])


def build_hamiltonian(V: PotentialGrid) -> DiscreteHamiltonian:
    """Assemble and diagonalize the grid Hamiltonian.

    Diagonal 2/h^2 + V(x_i), off-diagonal -1/h^2; LAPACK dstevd (the
    driver scipy's eigh_tridiagonal picks for all eigenpairs) returns the
    full orthonormal eigenbasis.
    """
    grid = V.grid
    if grid.n_points > DENSE_SOLVER_CAP:
        raise SizeError(
            f"n_points={grid.n_points} exceeds the dense eigensolver cap {DENSE_SOLVER_CAP}"
        )
    h = grid.h
    diag = 2.0 / h**2 + V.values
    off = np.full(grid.n_points - 1, -1.0 / h**2)
    if not np.isfinite(diag).all():  # dstevd would return NaNs with info 0
        raise DomainError(f"the Hamiltonian overflows at grid step h={h:.3g}")
    w, v, info = _flapack.dstevd(diag, off, compute_v=1)
    if info != 0:
        raise LinAlgError(f"dstevd did not converge (LAPACK info={info})")
    bound = np.flatnonzero(w < 0)
    return DiscreteHamiltonian(
        grid=grid,
        potential=V,
        diagonal=diag,
        off_diagonal=off,
        eigenvalues=w,
        eigenvectors=v,
        bound_state_indices=bound,
    )


# ---------------------------------------------------------------------------
# propagation kernel: occupied modes -> phases -> one real GEMM per tau block

_TAU_CHUNK = 1024  # fixed so results never depend on the worker count
_ROW_PANEL = 256  # rows of a reduced block's states held at a time


@dataclass(frozen=True)
class OccupiedModes:
    """Eigenbasis data of a datum restricted to its occupied modes.

    coef is (m,) for one vector; an (m, k) table gives every tau its own
    coefficient column.
    """

    basis: np.ndarray  # (n, m) real eigenvector columns
    energies: np.ndarray  # (m,)
    coef: np.ndarray  # (m,) or (m, k), complex


def occupied_modes(
    H: DiscreteHamiltonian, u: np.ndarray, project: bool = False, mode_tol: float = 0.0
) -> OccupiedModes:
    """Eigen coefficients of u, a vector (n,) or columns (n, k).

    project zeroes the bound-state coefficients.  mode_tol > 0 keeps only
    the eigenmodes whose amplitude exceeds mode_tol times the largest one
    of the same column, in at least one column (the union of the columns'
    occupied modes), trading a bounded truncation error for a smaller
    basis product.
    """
    c = H.to_eigenbasis(np.asarray(u, dtype=complex))
    if project and len(H.bound_state_indices):
        c[H.bound_state_indices] = 0.0
    if mode_tol > 0.0:
        a = np.abs(c).reshape(len(c), -1)
        keep = np.any(a > mode_tol * a.max(axis=0), axis=1)
        return OccupiedModes(H.eigenvectors[:, keep], H.eigenvalues[keep], c[keep])
    return OccupiedModes(H.eigenvectors, H.eigenvalues, c)


@dataclass(frozen=True)
class RowPanels:
    """The states basis @ data of one tau block, produced in row panels.

    Iterating yields real_basis_product(basis[r:r+_ROW_PANEL], data) in row
    order, so a column reduction holds one panel of the (n, b) states, not
    all of them.  A single column comes as one panel: it is only n values,
    and numpy sums a single column pairwise rather than row by row.
    """

    basis: np.ndarray  # (n, m)
    data: np.ndarray  # (m, b), complex
    ndim = 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.basis.shape[0], self.data.shape[1])

    def __iter__(self):
        n, b = self.shape
        rows = _ROW_PANEL if b > 1 else n
        for r in range(0, n, rows):
            yield real_basis_product(self.basis[r : r + rows], self.data)


def evolve(modes: OccupiedModes, taus: np.ndarray, reduce=None) -> np.ndarray:
    """Columns e^{-i tau_k H} u for a flat list of phases tau_k.

    The phases are applied in fixed blocks of _TAU_CHUNK columns, which are
    independent work units for the thread pool.  reduce, if given, maps
    each block's states, handed over as RowPanels, to b per-column values,
    so only those are kept.
    """
    taus = np.asarray(taus, dtype=float).ravel()
    table = modes.coef.ndim == 2
    if table and modes.coef.shape[1] != len(taus):
        raise DomainError("a coefficient table needs one column per tau")

    def one_block(start: int) -> np.ndarray:
        sl = slice(start, start + _TAU_CHUNK)
        # phases and coefficients share one buffer
        z = -1j * np.outer(modes.energies, taus[sl])
        np.exp(z, out=z)
        z *= modes.coef[:, sl] if table else modes.coef[:, None]
        if reduce is None:
            return real_basis_product(modes.basis, z)
        return reduce(RowPanels(modes.basis, z))

    # an empty tau list still yields one (empty) block of the right shape
    parts = ordered_map(one_block, range(0, max(len(taus), 1), _TAU_CHUNK))
    return np.concatenate(parts, axis=-1)


def propagate(
    H: DiscreteHamiltonian, tau: float, u: np.ndarray, project: bool = False
) -> np.ndarray:
    """e^{-i tau H} u through the eigenbasis (exactly unitary)."""
    return propagate_batch(H, np.array([tau]), u, project=project)[:, 0]


def propagate_batch(
    H: DiscreteHamiltonian,
    taus: np.ndarray,
    u: np.ndarray,
    project: bool = False,
    mode_tol: float = 0.0,
) -> np.ndarray:
    """Columns e^{-i tau_k H} u for many phases tau_k at once."""
    return evolve(occupied_modes(H, u, project, mode_tol), taus)


def _branch_sign(branch: str) -> float:
    if branch == "plus":
        return 1.0
    if branch == "minus":
        return -1.0
    raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    if n % 2 == 0:  # even point count: trapezoid correction on the last panel
        w[-2:] = np.array([2.5, 1.5])
        w[-3] = 3.5
    return w * h / 3.0


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth length >= target, scipy.fft.next_fast_len(target, real=False)."""
    n = max(target, 1)
    while True:
        m = n
        for f in (2, 3, 5, 7, 11):
            while m % f == 0:
                m //= f
        if m == 1:
            return n
        n += 1


class _FreeResolventApply:
    """R0 at fixed energy as a fast convolution against grid quadrature.

    The full linear convolution is computed exactly as
    scipy.signal.fftconvolve does for complex 1-D input (complex FFTs of
    the next fast length, product, inverse, crop), so the terms match it
    bit for bit; numpy.fft runs the same pocketfft transforms without
    importing scipy.fft.  The kernel's transform is taken once.
    """

    def __init__(self, grid: Grid, lam: float, branch: str):
        s = _branch_sign(branch)
        k = np.sqrt(lam)
        n = grid.n_points
        offsets = grid.h * np.arange(-(n - 1), n)
        kernel = s * 1j / (2.0 * k) * np.exp(s * 1j * k * np.abs(offsets))
        self.weights = _simpson_weights(n, grid.h)
        self.n = n
        self.size = _next_fast_len(3 * n - 2)
        self.kernel_hat = np.fft.fft(kernel, self.size)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        full = np.fft.ifft(np.fft.fft(self.weights * f, self.size) * self.kernel_hat, self.size)
        return full[self.n - 1 : 2 * self.n - 1]


def born_series_terms(
    V: PotentialGrid, lam: float, branch: str, f: np.ndarray, n_max: int
) -> list[np.ndarray]:
    """Terms R0 (-V R0)^n f of the resolvent expansion, n = 0..n_max.

    Requires an energy above ||V||_1^2 so the term ratio stays below
    ||V||_1 / (2 sqrt(lam)) < 1.
    """
    lam_threshold = V.l1_norm() ** 2
    if lam <= lam_threshold:
        raise ConvergenceRegionError(
            f"energy {lam} is not above the series threshold {lam_threshold:.4g}"
        )
    r0 = _FreeResolventApply(V.grid, lam, branch)
    terms = [r0(np.asarray(f, dtype=complex))]
    for _ in range(n_max):
        terms.append(r0(-V.values * terms[-1]))
    return terms


def born_series_apply(
    V: PotentialGrid, lam: float, branch: str, f: np.ndarray, n_max: int
) -> np.ndarray:
    """Partial sum of the resolvent expansion applied to f."""
    return np.sum(born_series_terms(V, lam, branch, f, n_max), axis=0)


def _shifted_factor(grid: Grid, values: np.ndarray, z: complex) -> tuple:
    """LU factors of the tridiagonal H - z (LAPACK gttrf, partial pivoting).

    The factorization overwrites the diagonals it is handed, so one shift
    holds four n-vectors and the pivots, nothing more.
    """
    h = grid.h
    off = np.full(grid.n_points - 1, -1.0 / h**2, dtype=complex)
    *factors, info = _flapack.zgttrf(
        off, 2.0 / h**2 + values - z, off.copy(),
        overwrite_dl=1, overwrite_d=1, overwrite_du=1,
    )
    if info > 0:
        raise LinAlgError("singular matrix")
    return tuple(factors)


def _shifted_solve(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve against gttrf factors in place: rhs (complex, contiguous) is the result."""
    x, _ = _flapack.zgttrs(*factors, rhs, overwrite_b=1)
    return x


def tridiagonal_resolvent_solve(
    grid: Grid, values: np.ndarray, z: complex, rhs: np.ndarray
) -> np.ndarray:
    """Solve (H - z) u = rhs for the tridiagonal H, any grid size.

    Tridiagonal LU, independent of the eigendecomposition; this is the dense
    oracle route paired with Jost/Born constructions elsewhere.
    """
    return _shifted_solve(_shifted_factor(grid, values, z), np.array(rhs, dtype=complex))


def _node_index(grid: Grid, y: float) -> int:
    iy = int(round((y + grid.l_box) / grid.h))
    if not (0 <= iy < grid.n_points) or abs(grid.x[iy] - y) > 1e-9 * max(1.0, grid.h):
        raise DomainError(f"probe y={y} is not a grid node")
    return iy


def _delta(grid: Grid, iy: int, out: np.ndarray) -> np.ndarray:
    """Grid delta at node iy (unit mass), written into out."""
    out[:] = 0.0
    out[iy] = 1.0 / grid.h
    return out


def dense_resolvent_column(
    grid: Grid, values: np.ndarray, z: complex, y: float
) -> np.ndarray:
    """Kernel column R(z)(., y): solve against a grid delta at y."""
    rhs = _delta(grid, _node_index(grid, y), np.empty(grid.n_points, dtype=complex))
    return _shifted_solve(_shifted_factor(grid, values, z), rhs)


def _richardson(cols) -> np.ndarray:
    # cancels the O(eps) and O(eps^2) terms of the shifts eps, eps/2, eps/4
    c1, c2, c4 = cols
    return (c1 - 6.0 * c2 + 8.0 * c4) / 3.0


def richardson_resolvent_column(
    grid: Grid, values: np.ndarray, energy: float, eps: float, y: float
) -> np.ndarray:
    """Boundary value R(energy + i0)(., y) by 3-point extrapolation in eps.

    Combines eps, eps/2, eps/4 to cancel the first- and second-order
    smoothing error of the Lorentzian regularization.
    """
    return _richardson(
        dense_resolvent_column(grid, values, energy + 1j * eps / d, y)
        for d in (1.0, 2.0, 4.0)
    )


def richardson_resolvent_table(
    grid: Grid, values: np.ndarray, energy: float, eps: float, xs, ys
) -> np.ndarray:
    """R(energy + i0)(x_i, y_j) on a probe set, linear in x between nodes.

    Equals richardson_resolvent_column(..., y_j) interpolated at the xs as
    np.interp does, but each shift is factored once for all ys, and each
    y's column is solved into one reused buffer of which only the rows
    bracketing the xs are kept.

    Each solve runs on the trailing block from row a on, one row above the
    lower of y_j's node and the first kept row (a >= 0).  Above row a the
    forward sweep of the delta only carries zeros, and the back sweep never
    reads those rows when it fills rows >= a, so the kept rows are the full
    solve's bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    iys = [_node_index(grid, float(y)) for y in ys]
    lo = np.clip(np.searchsorted(grid.x, xs, side="right") - 1, 0, grid.n_points - 2)
    rows = np.unique(np.concatenate([lo, lo + 1]))
    buf = np.empty(grid.n_points, dtype=complex)

    def solve_rows(factors: tuple, iy: int) -> np.ndarray:
        a = max(min(iy, int(rows[0])) - 1, 0)
        dl, d, du, du2, ipiv = factors
        trailing = (dl[a:], d[a:], du[a:], du2[a:], ipiv[a:] - a)
        return _shifted_solve(trailing, _delta(grid, iy - a, buf[a:]))[rows - a]

    def probe_rows(z: complex) -> np.ndarray:
        # the factors are freed on return: one factorization in memory at a time
        factors = _shifted_factor(grid, values, z)
        return np.stack([solve_rows(factors, iy) for iy in iys], axis=1)

    cols = _richardson([probe_rows(energy + 1j * eps / d) for d in (1.0, 2.0, 4.0)])
    xr = grid.x[rows]
    return np.stack(
        [np.interp(xs, xr, c.real) + 1j * np.interp(xs, xr, c.imag) for c in cols.T], axis=1
    )


@dataclass(frozen=True)
class SpectralDensityEstimate:
    """Smoothed spectral density <dE f, f> on a lam grid."""

    lambda_grid: np.ndarray
    density: np.ndarray
    epsilon: float

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.lambda_grid))


def stone_spectral_density(
    H: DiscreteHamiltonian,
    a: float,
    b: float,
    epsilon: float,
    n_lambda: int,
    f: np.ndarray,
) -> SpectralDensityEstimate:
    """Spectral density from the resolvent jump across the real axis.

    density(lam) = Im <(H - lam - i eps)^{-1} f, f> / pi on n_lambda
    points; its integral over [a, b] approximates the spectral mass of
    f on the interval as eps -> 0.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    lams = np.linspace(a, b, n_lambda)
    inside = H.eigenvalues[(H.eigenvalues >= a) & (H.eigenvalues <= b)]
    if len(inside) > 1:
        spacing = float(np.median(np.diff(inside)))
        if epsilon < spacing / 10.0 and (b - a) / (n_lambda - 1) > epsilon:
            warnings.warn(
                "lambda grid coarser than the smoothing width; the density "
                "will alias between samples",
                AliasingWarning,
                stacklevel=2,
            )
    f = np.asarray(f, dtype=complex)
    dens = np.empty(len(lams))
    for i, lam in enumerate(lams):
        u = tridiagonal_resolvent_solve(
            H.grid, H.potential.values, lam + 1j * epsilon, f
        )
        dens[i] = np.imag(np.vdot(f, u)) / np.pi
    return SpectralDensityEstimate(lambda_grid=lams, density=dens, epsilon=epsilon)
