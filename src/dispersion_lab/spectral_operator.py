"""Discrete Hamiltonian -Delta + V: eigenbasis, propagation, resolvents.

Conventions fixed across the package: the Hamiltonian eigenvalue is the
energy E; where a scattering momentum lam appears, E = lam^2.  The
Laplacian is the 3-point stencil with Dirichlet walls just outside the
grid, which keeps H exactly symmetric and e^{-i tau H} exactly unitary
in its eigenbasis.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from ._parallel import ordered_map
from .errors import DomainError
from .grid_model import Grid, PotentialGrid, simpson_weights, sorted_unique

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

    The last k = n - len(even) grid rows mirror the first k: even column j
    is (even[:, j], even[:k, j] reversed), odd column j is (odd[:, j],
    -odd[:k, j] reversed).  A reflection-symmetric H has k = n // 2; on an
    odd n the halves end at the middle node, where an odd vector is 0.  Any
    other H has k = 0, every column in even and none odd.
    """

    n: int
    even: np.ndarray  # (n - k, m_even)
    odd: np.ndarray  # (n - k, m_odd)

    @property
    def mirror_rows(self) -> int:
        return self.n - len(self.even)

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


class DiscreteHamiltonian:
    """Symmetric tridiagonal -Delta + V, diagonalized one reflection parity at a time.

    half(0) and half(1) are the even and odd eigenpairs: ascending energies
    and their half-vector columns (see Eigenbasis).  Each half is solved on
    first use, by one dstevd on its half tridiagonal, and kept; eigensolves
    lists the rows of each tridiagonal solved, in order.  A potential that
    is an exact palindrome gives mirror_rows = n // 2; any other has none,
    and its even half is the whole dstevd, its odd half empty.

    eigenvalues, basis, order and eigenvectors assemble both halves:
    eigenvalues ascend, and basis column j is eigenpair order[j].
    Eigenvectors are orthonormal in the plain euclidean inner product;
    L2(grid) norms differ by a factor sqrt(h).
    """

    def __init__(self, potential: PotentialGrid, eigenvalues=None, basis: Eigenbasis | None = None):
        """The H of potential; or, given eigenvalues and a basis without mirror
        rows whose column j is eigenpair j, an H with that eigen data."""
        self.potential = potential
        self.eigensolves: list[int] = []
        if basis is None:
            self._tridiagonal = _stencil(potential.grid, potential.values)
            palindrome = np.array_equal(potential.values, potential.values[::-1])
            self.mirror_rows = self.n // 2 if palindrome else 0
            self._halves = [None, None]
        else:
            self.mirror_rows = basis.mirror_rows
            self._halves = [(eigenvalues, basis.even), (eigenvalues[:0], basis.odd)]

    @property
    def grid(self) -> Grid:
        return self.potential.grid

    @property
    def n(self) -> int:
        return self.grid.n_points

    def half(self, parity: int) -> tuple[np.ndarray, np.ndarray]:
        """Energies and half-vector columns of the even (0) or odd (1) modes."""
        if self._halves[parity] is None:
            self._halves[parity] = self._solve(parity)
        return self._halves[parity]

    def _solve(self, parity: int) -> tuple[np.ndarray, np.ndarray]:
        """One dstevd on the half tridiagonal of one parity.

        With k = n // 2, an even vector (x, x[::-1]) on an even n sees its
        mirror as the neighbour of node k-1, which adds off to that diagonal
        entry; an odd vector subtracts it.  On an odd n, scaling x by
        sqrt(2) off the middle node makes the even block symmetric, with
        last off-diagonal sqrt(2) off; an odd vector is 0 at the middle.
        """
        (diag, off), n, k = self._tridiagonal, self.n, self.mirror_rows
        if not k:  # one dstevd holds every mode
            if parity:
                return diag[:0], np.zeros((n, 0))
            d, e = diag, off
        elif parity == 0:
            d, e = diag[: n - k].copy(), off[: n - k - 1].copy()
            if n % 2:
                e[-1] *= np.sqrt(2.0)
            else:
                d[-1] += off[0]
        else:
            d, e = diag[:k].copy(), off[: k - 1]
            if not n % 2:
                d[-1] -= off[0]
        self.eigensolves.append(len(d))
        w, v = _dstevd(d, e)
        v[:k] *= np.sqrt(0.5)
        if len(v) < n - k:
            v = np.vstack([v, np.zeros(len(w))])
        return w, v

    @cached_property
    def _assembled(self) -> tuple[np.ndarray, Eigenbasis, np.ndarray]:
        (w_even, v_even), (w_odd, v_odd) = self.half(0), self.half(1)
        w = np.concatenate([w_even, w_odd])
        ascending = np.argsort(w, kind="stable")
        order = np.empty_like(ascending)
        order[ascending] = np.arange(len(w))
        return w[ascending], Eigenbasis(self.n, v_even, v_odd), order

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._assembled[0]

    @property
    def basis(self) -> Eigenbasis:
        return self._assembled[1]

    @property
    def order(self) -> np.ndarray:
        return self._assembled[2]

    @property
    def bound_state_indices(self) -> np.ndarray:
        return np.flatnonzero(self.eigenvalues < 0)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Dense (n, n) eigenvector columns in eigenvalue order, assembled once."""
        even, odd, k = self.basis.even, self.basis.odd, self.mirror_rows
        if not k:
            return even
        mirror = np.hstack([even, -odd])[:k]
        v = np.empty((self.n, self.n))
        v[:, self.order] = np.vstack([np.hstack([even, odd]), mirror[::-1]])
        return v

    def apply(self, u: np.ndarray) -> np.ndarray:
        diag, off = _stencil(self.grid, self.potential.values)
        out = diag * u
        out[:-1] += off * u[1:]
        out[1:] += off * u[:-1]
        return out

    def folds(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u folded onto the half grid: mirror sums, whose products with the
        even half vectors are u's even coefficients, and mirror differences
        for the odd ones; a row without a mirror counts once."""
        u, k = np.asarray(u), self.mirror_rows
        rows = self.n - k
        top, mirror = u[:rows], u[::-1][:rows]
        folded = top.copy()
        folded[:k] += mirror[:k]
        return folded, top - mirror

    def to_eigenbasis(self, u: np.ndarray) -> np.ndarray:
        folds = self.folds(u)
        c = np.concatenate([real_basis_product(self.half(p)[1].T, folds[p]) for p in (0, 1)])
        out = np.empty_like(c)
        out[self.order] = c
        return out

    def from_eigenbasis(self, c: np.ndarray) -> np.ndarray:
        return self.basis.full_product(np.asarray(c)[self.order])


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


def build_hamiltonian(V: PotentialGrid) -> DiscreteHamiltonian:
    """The grid Hamiltonian of V, diagonalized on first use.

    LAPACK dstevd (the driver scipy's eigh_tridiagonal picks for all
    eigenpairs) returns the full orthonormal eigenbasis of the stencil.
    When the sampled potential is an exact palindrome, so is the diagonal,
    and H is solved as two half-size problems, one per reflection parity,
    kept as half vectors: half the eigensolve and half the flops of every
    product with the basis, and a datum of one parity needs one half only
    (occupied_modes).  The zero potential, a square well and a symmetric
    table are palindromes on almost every grid.  A linspace grid is not
    bit-symmetric, so a gaussian or sech^2 sample keeps one dstevd, whose
    matrix is a basis without mirror rows, even where 2/h^2 + V rounds its
    asymmetry away.
    """
    if V.grid.n_points > DENSE_SOLVER_CAP:
        raise DomainError(
            f"n_points={V.grid.n_points} exceeds the dense eigensolver cap {DENSE_SOLVER_CAP}"
        )
    return DiscreteHamiltonian(V)


# ---------------------------------------------------------------------------
# propagation kernel: occupied modes -> phases -> one real GEMM per tau block

_TAU_CHUNK = 512  # fixed so results never depend on the worker count
_ROW_PANEL = 256  # rows of a reduced block's states held at a time


@dataclass(frozen=True)
class OccupiedModes:
    """Eigenbasis data of a datum restricted to its occupied modes."""

    basis: Eigenbasis  # (n, m) real eigenvector columns
    energies: np.ndarray  # (m,)
    coef: np.ndarray  # (m,), complex


def occupied_modes(
    H: DiscreteHamiltonian, u: np.ndarray, project: bool = False, mode_tol: float = 0.0
) -> OccupiedModes:
    """Eigen coefficients of one datum vector u (n,).

    project zeroes the bound-state coefficients.  mode_tol > 0 keeps only
    the eigenmodes whose amplitude exceeds mode_tol times the largest one,
    trading a bounded truncation error for a smaller basis product.  The
    modes come in the order of H.basis.

    Only what the datum occupies is solved.  The parity with the larger
    fold goes first.  A parity's coefficient 2-norm is its fold's, with
    mirrored rows weighted by 1/2, so under a cut the second parity is not
    solved when twice that norm is at most mode_tol times the largest
    coefficient of the first: each of its coefficients would be cut.  Kept
    modes that are one run of a half's columns are a view of it, not a copy.
    """
    if np.ndim(u) != 1:
        raise DomainError(f"occupied modes need one datum vector, got shape {np.shape(u)}")
    folds, k = H.folds(np.asarray(u, dtype=complex)), H.mirror_rows
    norms = [np.sqrt(0.5 * np.vdot(f[:k], f[:k]).real + np.vdot(f[k:], f[k:]).real) for f in folds]
    first = int(norms[1] > norms[0])
    solved, amax = {}, 0.0
    for parity in (first, 1 - first):
        if parity != first and mode_tol > 0.0 and 2.0 * norms[parity] <= mode_tol * amax:
            break
        w, v = H.half(parity)
        c = real_basis_product(v.T, folds[parity])
        if project:
            c[w < 0] = 0.0
        solved[parity] = w, v, c
        amax = np.abs(c).max(initial=amax)
    columns, energies, coef = [np.zeros((H.n - k, 0))] * 2, [], []
    for parity, (w, v, c) in sorted(solved.items()):
        if mode_tol > 0.0:
            keep = np.abs(c) > mode_tol * amax
            v, w, c = _kept_columns(v, keep), w[keep], c[keep]
        columns[parity] = v
        energies.append(w)
        coef.append(c)
    return OccupiedModes(Eigenbasis(H.n, *columns), np.concatenate(energies), np.concatenate(coef))


def _kept_columns(v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """v[:, keep], a view where the kept columns are one run."""
    i = np.flatnonzero(keep)
    if len(i) and i[-1] - i[0] >= len(i):  # a hole
        return v[:, keep]
    start = i[0] if len(i) else 0
    return v[:, start : start + len(i)]


@dataclass(frozen=True)
class RowPanels:
    """The states basis @ data of one tau block or Duhamel path group,
    produced in row panels.

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

    def _panels(self):
        height = len(self.basis.even)
        rows = _ROW_PANEL if self.data.shape[1] > 1 else height
        return (slice(r, r + rows) for r in range(0, height, rows))

    def __iter__(self):
        for rows in self._panels():
            yield from self.basis.product(self.data, rows)

    def abs_blocks(self, g):
        """g(|block|) for the blocks of iter(self), in the same order.

        Where one parity holds every mode, a mirror block is its top rows
        up to sign, so its g(|.|) is a view of theirs: no second product
        slice, negation, abs or g.  The two share memory; write to neither.
        """
        if 0 < self.basis.even.shape[1] < len(self.data):
            for block in self:
                yield g(np.abs(block))
            return
        top_rows = replace(self.basis, n=len(self.basis.even))  # no mirror rows
        for rows in self._panels():
            # the product is freed before the block is handed on
            a = g(np.abs(top_rows.product(self.data, rows)[0]))
            yield a
            if mirror := len(range(self.basis.mirror_rows)[rows]):
                yield a[:mirror]


def _phases(energies: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(-1j * outer(E, tau)) bit for bit, built in one zeroed complex
    buffer: no real (m, b) temporary."""
    z = np.zeros((len(energies), len(taus)), dtype=complex)
    np.multiply.outer(energies, -taus, out=z.imag)
    return np.exp(z, out=z)


def evolve(modes: OccupiedModes, taus: np.ndarray, reduce=None) -> np.ndarray:
    """Columns e^{-i tau_k H} u for a flat list of phases tau_k.

    The phases are applied in fixed blocks of _TAU_CHUNK columns, which are
    independent work units for the thread pool.  reduce, if given, maps
    each block's states, handed over as RowPanels, to b per-column values,
    so only those are kept.
    """
    taus = np.asarray(taus, dtype=float).ravel()

    def one_block(start: int) -> np.ndarray:
        z = _phases(modes.energies, taus[start : start + _TAU_CHUNK])
        z *= modes.coef[:, None]
        if reduce is None:
            return modes.basis.full_product(z)
        return reduce(RowPanels(modes.basis, z))

    # an empty tau list still yields one (empty) block of the right shape
    parts = ordered_map(one_block, range(0, max(len(taus), 1), _TAU_CHUNK))
    return np.concatenate(parts, axis=-1)


def duhamel(modes: OccupiedModes, paths: np.ndarray, dt: float, reduce) -> np.ndarray:
    """reduce of the forced states dt * sum_{j < k} e^{-i (b_k - b_j) H} f.

    paths holds one path b per row, and modes are those of f; the result
    has the shape of paths.  The work items are groups of
    max(1, _TAU_CHUNK // steps) whole paths, fixed by the path length and
    never by the worker count.  A group builds its phases P = exp(-i E b)
    once.  The coefficients exp(+i E b_j) f_E are conj(P) f_E bit for bit:
    E * (-b) = -(E * b) exactly, libm's sin is odd and its cos even.  Their
    running sum over each path, shifted so that s_j < t_k strictly, times
    dt, multiplies P in place, and reduce gets the group's states as
    RowPanels.
    """
    paths = np.asarray(paths, dtype=float)
    n_paths, steps = paths.shape
    group = max(1, _TAU_CHUNK // steps)

    def one_group(start: int) -> np.ndarray:
        b = paths[start : start + group]
        z = _phases(modes.energies, b.ravel())
        csum = np.conjugate(z)
        csum *= modes.coef[:, None]
        csum = csum.reshape(len(z), len(b), steps)
        np.cumsum(csum, axis=2, out=csum)
        csum *= dt
        z3 = z.reshape(csum.shape)
        z3[:, :, 1:] *= csum[:, :, :-1]
        z3[:, :, 0] = 0.0
        del csum  # the reduction holds one table
        return reduce(RowPanels(modes.basis, z)).reshape(len(b), steps)

    return np.concatenate(ordered_map(one_group, range(0, n_paths, group)))


def propagate_batch(
    H: DiscreteHamiltonian, taus: np.ndarray, u: np.ndarray, mode_tol: float = 0.0
) -> np.ndarray:
    """Columns e^{-i tau_k H} u for many phases tau_k at once."""
    return evolve(occupied_modes(H, u, mode_tol=mode_tol), taus)


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
    rows = sorted_unique(np.concatenate([lo, lo + 1]))
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
    f: np.ndarray,
) -> SpectralDensityEstimate:
    """Spectral density from the resolvent jump across the real axis.

    density(lam) = Im <(H - lam - i eps)^{-1} f, f> / pi on an even lam
    grid over [a, b] of max(2, ceil((b - a) / (eps / 4))) points, so its
    step is about eps / 4 and never above eps / 2; its integral over
    [a, b] approximates the spectral mass of f on the interval as
    eps -> 0.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    # float division: an overflow is inf, with no numpy RuntimeWarning
    n_lambda = float(b - a) / float(epsilon / 4.0)
    if not math.isfinite(n_lambda):
        raise DomainError(
            f"the interval [{a:.3g}, {b:.3g}] holds more lambda samples "
            f"{epsilon / 4.0:.3g} apart than a float can count"
        )
    lams = np.linspace(a, b, max(2, math.ceil(n_lambda)))
    f = np.asarray(f, dtype=complex)
    dens = np.empty(len(lams))
    for i, lam in enumerate(lams):
        u = tridiagonal_resolvent_solve(
            H.grid, H.potential.values, lam + 1j * epsilon, f
        )
        dens[i] = np.imag(np.vdot(f, u)) / np.pi
    return SpectralDensityEstimate(lambda_grid=lams, density=dens)
