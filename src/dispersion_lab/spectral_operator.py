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
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from ._parallel import ordered_map
from .errors import AliasingWarning, DomainError
from .grid_model import Grid, PotentialGrid, simpson_weights

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
class Eigenbasis:
    """Eigenvectors of H as half vectors, even columns first, then odd ones.

    Column j is eigenpair order[j].  The last k = n - len(even) grid rows
    mirror the first k: even column j is (even[:, j], even[:k, j] reversed),
    odd column j is (odd[:, j], -odd[:k, j] reversed).  A reflection-symmetric
    H has k = n // 2; on an odd n the halves end at the middle node, where an
    odd vector is 0.  Any other H has k = 0, every column in even and none odd.
    """

    n: int
    even: np.ndarray  # (n - k, m_even)
    odd: np.ndarray  # (n - k, m_odd)
    order: np.ndarray  # (m_even + m_odd,)

    @property
    def mirror_rows(self) -> int:
        return self.n - len(self.even)

    def columns(self, keep: np.ndarray) -> Eigenbasis:
        """The columns a boolean mask keeps."""
        me = self.even.shape[1]
        return Eigenbasis(
            self.n, self.even[:, keep[:me]], self.odd[:, keep[me:]], self.order[keep]
        )

    def product(self, data: np.ndarray, rows: slice = slice(None)) -> tuple[np.ndarray, ...]:
        """Row blocks of self @ data: every product with an eigenbasis runs here.

        For the half-vector rows i in rows: the product's rows i, then, if
        any i < k, the mirror rows n-1-i of those, i ascending.  One GEMM per
        occupied parity yields both: the even part plus and minus the odd part.
        """
        me, m = self.even.shape[1], len(data)
        k = len(range(self.mirror_rows)[rows])
        # a parity with no occupied mode is skipped; with no mode at all, the
        # even GEMM makes the zeros
        even = real_basis_product(self.even[rows], data[:me]) if me or not m else None
        odd = real_basis_product(self.odd[rows], data[me:]) if m > me else None
        if odd is None:
            top, mirror = even, even[:k]
        elif even is None:
            top, mirror = odd, -odd[:k]
        else:
            top, mirror = even + odd, even[:k] - odd[:k]
        return (top, mirror) if k else (top,)

    def full_product(self, data: np.ndarray) -> np.ndarray:
        """self @ data with its rows in grid order."""
        blocks = self.product(data)
        return np.concatenate([blocks[0], blocks[1][::-1]]) if len(blocks) == 2 else blocks[0]


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal -Delta + V with its full eigendecomposition.

    Eigenvectors are orthonormal in the plain euclidean inner product;
    L2(grid) norms differ by a factor sqrt(h).  eigenvalues ascend; the
    basis maps its columns to them (order).
    """

    potential: PotentialGrid
    eigenvalues: np.ndarray
    basis: Eigenbasis  # columns

    @property
    def grid(self) -> Grid:
        return self.potential.grid

    @property
    def bound_state_indices(self) -> np.ndarray:
        return np.flatnonzero(self.eigenvalues < 0)

    @property
    def n(self) -> int:
        return self.grid.n_points

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Dense (n, n) eigenvector columns in eigenvalue order, assembled once."""
        even, odd, k = self.basis.even, self.basis.odd, self.basis.mirror_rows
        if not k:
            return even
        mirror = np.hstack([even, -odd])[:k]
        v = np.empty((self.n, self.n))
        v[:, self.basis.order] = np.vstack([np.hstack([even, odd]), mirror[::-1]])
        return v

    def apply(self, u: np.ndarray) -> np.ndarray:
        diag, off = _stencil(self.grid, self.potential.values)
        out = diag * u
        out[:-1] += off * u[1:]
        out[1:] += off * u[:-1]
        return out

    def to_eigenbasis(self, u: np.ndarray) -> np.ndarray:
        # fold u onto the half grid: mirror sums for the even modes, mirror
        # differences for the odd ones; a row without a mirror counts once
        u, k = np.asarray(u), self.basis.mirror_rows
        top, mirror = u[: len(self.basis.even)], u[::-1][: len(self.basis.even)]
        folded = top.copy()
        folded[:k] += mirror[:k]
        c = np.concatenate(
            [
                real_basis_product(self.basis.even.T, folded),
                real_basis_product(self.basis.odd.T, top - mirror),
            ]
        )
        out = np.empty_like(c)
        out[self.basis.order] = c
        return out

    def from_eigenbasis(self, c: np.ndarray) -> np.ndarray:
        return self.basis.full_product(np.asarray(c)[self.basis.order])


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


def _stencil(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal 2/h^2 + V and off-diagonal -1/h^2 of the 3-point -Delta + V.

    The only division by h^2 in the package; a step whose square underflows
    to 0, or a diagonal that overflows, is a DomainError (dstevd would
    return NaNs with info 0 on an infinite diagonal).
    """
    h2 = grid.h**2
    if h2 == 0.0:
        raise DomainError(f"grid step h={grid.h:.3g} is too small: h^2 underflows to 0")
    diag = 2.0 / h2 + values
    if not np.isfinite(diag).all():
        raise DomainError(f"the Hamiltonian overflows at grid step h={grid.h:.3g}")
    return diag, np.full(grid.n_points - 1, -1.0 / h2)


def _dstevd(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v, info = _flapack.dstevd(diag, off, compute_v=1)
    if info != 0:
        raise LinAlgError(f"dstevd did not converge (LAPACK info={info})")
    return w, v


def _parity_eigensystem(diag: np.ndarray, off: np.ndarray):
    """Ascending eigenvalues and half-vector Eigenbasis of a tridiagonal
    with a palindromic diagonal and a constant off-diagonal.

    With k = n // 2, an even vector (x, x[::-1]) on an even n sees its
    mirror as the neighbour of node k-1, which adds off to that diagonal
    entry; an odd vector subtracts it.  On an odd n, scaling x by sqrt(2)
    off the middle node makes the even block symmetric, with last
    off-diagonal sqrt(2) off; an odd vector is 0 at the middle.
    """
    n, k = len(diag), len(diag) // 2
    d_even, off_even = diag[: n - k].copy(), off[: n - k - 1].copy()
    d_odd = diag[:k].copy()
    if n % 2:
        off_even[-1] *= np.sqrt(2.0)
    else:
        d_even[-1] += off[0]
        d_odd[-1] -= off[0]
    w_even, v_even = _dstevd(d_even, off_even)
    w_odd, v_odd = _dstevd(d_odd, off[: k - 1])
    v_even[:k] *= np.sqrt(0.5)
    v_odd *= np.sqrt(0.5)
    if n % 2:
        v_odd = np.vstack([v_odd, np.zeros(k)])
    w = np.concatenate([w_even, w_odd])
    ascending = np.argsort(w, kind="stable")
    order = np.empty_like(ascending)
    order[ascending] = np.arange(n)
    return w[ascending], Eigenbasis(n, v_even, v_odd, order)


def build_hamiltonian(V: PotentialGrid) -> DiscreteHamiltonian:
    """Assemble and diagonalize the grid Hamiltonian.

    LAPACK dstevd (the driver scipy's eigh_tridiagonal picks for all
    eigenpairs) returns the full orthonormal eigenbasis of the stencil.
    When the sampled potential is an exact palindrome, so is the diagonal,
    and H is solved as two half-size problems, one per reflection parity,
    kept as half vectors: half the eigensolve and half the flops of every
    product with the basis.  The zero potential, a square well and a
    symmetric table are palindromes on almost every grid.  A linspace grid
    is not bit-symmetric, so a gaussian or sech^2 sample keeps one dstevd,
    whose matrix is a basis without mirror rows, even where 2/h^2 + V
    rounds its asymmetry away.
    """
    grid = V.grid
    if grid.n_points > DENSE_SOLVER_CAP:
        raise DomainError(
            f"n_points={grid.n_points} exceeds the dense eigensolver cap {DENSE_SOLVER_CAP}"
        )
    diag, off = _stencil(grid, V.values)
    if np.array_equal(V.values, V.values[::-1]):
        w, basis = _parity_eigensystem(diag, off)
    else:
        w, v = _dstevd(diag, off)
        basis = Eigenbasis(grid.n_points, v, v[:, :0], np.arange(grid.n_points))
    return DiscreteHamiltonian(potential=V, eigenvalues=w, basis=basis)


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

    basis: Eigenbasis  # (n, m) real eigenvector columns
    energies: np.ndarray  # (m,)
    coef: np.ndarray  # (m,) or (m, k), complex


def occupied_modes(
    H: DiscreteHamiltonian, u: np.ndarray, project: bool = False, mode_tol: float = 0.0
) -> OccupiedModes:
    """Eigen coefficients of u, a vector (n,) or columns (n, k).

    project zeroes the bound-state coefficients.  mode_tol > 0, for a
    vector u, keeps only the eigenmodes whose amplitude exceeds mode_tol
    times the largest one, trading a bounded truncation error for a
    smaller basis product.  The modes come in the order of H.basis.
    """
    if mode_tol > 0.0 and np.ndim(u) != 1:
        raise DomainError(f"a mode cut needs one datum vector, got shape {np.shape(u)}")
    c = H.to_eigenbasis(np.asarray(u, dtype=complex))
    if project:
        c[H.bound_state_indices] = 0.0
    c, energies = c[H.basis.order], H.eigenvalues[H.basis.order]
    if mode_tol > 0.0:
        a = np.abs(c)
        keep = a > mode_tol * a.max()
        return OccupiedModes(H.basis.columns(keep), energies[keep], c[keep])
    return OccupiedModes(H.basis, energies, c)


@dataclass(frozen=True)
class RowPanels:
    """The states basis @ data of one tau block, produced in row panels.

    Iterating yields the row blocks of basis.product(data, rows) for
    panels of _ROW_PANEL rows of the half vectors, so a column reduction
    holds one panel of the (n, b) states, not all of them.  Together the
    blocks hold every row once, in grid order for a basis without mirror
    rows.  A single column comes as one panel: it is only n values, and
    numpy sums a single column pairwise rather than row by row.
    """

    basis: Eigenbasis  # (n, m)
    data: np.ndarray  # (m, b), complex
    ndim = 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.basis.n, self.data.shape[1])

    def __iter__(self):
        height = len(self.basis.even)
        rows = _ROW_PANEL if self.data.shape[1] > 1 else height
        for r in range(0, height, rows):
            yield from self.basis.product(self.data, slice(r, r + rows))


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
            return modes.basis.full_product(z)
        return reduce(RowPanels(modes.basis, z))

    # an empty tau list still yields one (empty) block of the right shape
    parts = ordered_map(one_block, range(0, max(len(taus), 1), _TAU_CHUNK))
    return np.concatenate(parts, axis=-1)


def propagate_batch(
    H: DiscreteHamiltonian,
    taus: np.ndarray,
    u: np.ndarray,
    project: bool = False,
    mode_tol: float = 0.0,
) -> np.ndarray:
    """Columns e^{-i tau_k H} u for many phases tau_k at once."""
    return evolve(occupied_modes(H, u, project, mode_tol), taus)


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
    """Outgoing R0(energy + i0) as a fast convolution against grid quadrature.

    The full linear convolution is computed exactly as
    scipy.signal.fftconvolve does for complex 1-D input (complex FFTs of
    the next fast length, product, inverse, crop), so the terms match it
    bit for bit; numpy.fft runs the same pocketfft transforms without
    importing scipy.fft.  The kernel's transform is taken once.
    """

    def __init__(self, grid: Grid, energy: float):
        k = np.sqrt(energy)
        n = grid.n_points
        offsets = grid.h * np.arange(-(n - 1), n)
        kernel = 1j / (2.0 * k) * np.exp(1j * k * np.abs(offsets))
        self.weights = simpson_weights(n, grid.h)
        self.n = n
        self.size = _next_fast_len(3 * n - 2)
        self.kernel_hat = np.fft.fft(kernel, self.size)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        full = np.fft.ifft(np.fft.fft(self.weights * f, self.size) * self.kernel_hat, self.size)
        return full[self.n - 1 : 2 * self.n - 1]


def born_series_terms(
    V: PotentialGrid, energy: float, f: np.ndarray, n_max: int
) -> list[np.ndarray]:
    """Terms R0 (-V R0)^n f of the outgoing resolvent expansion, n = 0..n_max.

    R0 is the free resolvent at energy + i0.  Requires an energy above
    ||V||_1^2 so the term ratio stays below ||V||_1 / (2 sqrt(energy)) < 1.
    """
    threshold = V.l1_norm() ** 2
    if energy <= threshold:
        raise DomainError(
            f"energy {energy} is not above the series threshold {threshold:.4g}"
        )
    r0 = _FreeResolventApply(V.grid, energy)
    terms = [r0(np.asarray(f, dtype=complex))]
    for _ in range(n_max):
        terms.append(r0(-V.values * terms[-1]))
    return terms


def _shifted_factor(grid: Grid, values: np.ndarray, z: complex) -> tuple:
    """LU factors of the tridiagonal H - z (LAPACK gttrf, partial pivoting).

    The factorization overwrites the diagonals it is handed, so one shift
    holds four n-vectors and the pivots, nothing more.
    """
    diag, off = _stencil(grid, values)
    # rebound one at a time, so no real copy is held during the factorization
    diag = diag - z
    off = off.astype(complex)
    *factors, info = _flapack.zgttrf(
        off, diag, off.copy(),
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


def _richardson(cols) -> np.ndarray:
    # cancels the O(eps) and O(eps^2) terms of the shifts eps, eps/2, eps/4
    c1, c2, c4 = cols
    return (c1 - 6.0 * c2 + 8.0 * c4) / 3.0


def richardson_resolvent_table(
    grid: Grid, values: np.ndarray, energy: float, eps: float, xs, ys
) -> np.ndarray:
    """R(energy + i0)(x_i, y_j) on a probe set, linear in x between nodes.

    Column j extrapolates (_richardson) the solves of H - energy - i eps/d,
    d = 1, 2, 4, against a grid delta at y_j, interpolated at the xs as
    np.interp does.  Each shift is factored once for all ys, and each y's
    column is solved into one reused buffer of which only the rows
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
    return SpectralDensityEstimate(lambda_grid=lams, density=dens)
