"""Discrete Hamiltonian -Delta + V: eigenbasis, propagation, resolvents.

Conventions fixed across the package: the Hamiltonian eigenvalue is the
energy E; where a scattering momentum lam appears, E = lam^2.  The
Laplacian is the 3-point stencil with Dirichlet walls just outside the
grid, which keeps H exactly symmetric and e^{-i tau H} unitary in its
eigenbasis, to the round-off of its phases: each is exp(-i tau E), or,
in a dense window of taus, a Chebyshev expansion of it whose dropped
tail is below eps (ChebyshevWindows).
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from ._parallel import bundled_libs, ordered_map, pin_blas
from .errors import DomainError
from .grid_model import Grid, PotentialGrid

DENSE_SOLVER_CAP = 8192
# the grid steps h whose h^2 and 2 / h^2 are both finite and nonzero, each
# with a factor 2 to spare: _stencil takes every one of them
STENCIL_STEPS = (math.sqrt(np.finfo(float).tiny), math.sqrt(2.0 / np.finfo(float).tiny))


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
# the OpenBLAS copy of scipy's wheel, which that load brought in and dstevd
# runs on, pinned to one thread as numpy's is: idle, its threads spin on the
# cores of the lab's workers.  1 thread, unpinned, where scipy's LAPACK is no such copy
LAPACK = pin_blas(bundled_libs(scipy))


@dataclass(frozen=True)
class Eigenbasis:
    """Eigenvector columns of one reflection parity, as half vectors.

    The last k = n - len(half) grid rows mirror the first k times sign:
    column j is (half[:, j], sign * half[:k, j] reversed), sign +1 for even
    modes and -1 for odd ones.  A reflection-symmetric H has k = n // 2; on
    an odd n the halves end at the middle node, where an odd vector is 0.
    Any other H, and a datum of both parities, has k = 0: whole columns.
    """

    n: int
    half: np.ndarray  # (n - k, m)
    sign: int = 1

    @property
    def mirror_rows(self) -> int:
        return self.n - len(self.half)

    def unfold(self, top: np.ndarray) -> np.ndarray:
        """Rows of a product with the half vectors extended to the grid: the
        first k rows, reversed and times sign, follow as the mirror rows."""
        if not (k := self.mirror_rows):
            return top
        mirror = top[:k][::-1]
        return np.concatenate([top, mirror if self.sign > 0 else -mirror])

    def product(self, data: np.ndarray) -> np.ndarray:
        """self @ data with its rows in grid order: one GEMM on the half vectors."""
        return self.unfold(real_basis_product(self.half, data))

    @classmethod
    def whole(cls, parts: list[Eigenbasis]) -> Eigenbasis:
        """The columns of parts side by side, unfolded: a basis with k = 0."""
        return cls(parts[0].n, np.hstack([p.unfold(p.half) for p in parts]))


class DiscreteHamiltonian:
    """Symmetric tridiagonal -Delta + V, diagonalized one reflection parity at a time.

    half(0) and half(1) are the even and odd eigenpairs: ascending energies
    and their half-vector columns, whose Eigenbasis has sign +1 and -1.
    Each half is solved on first use, by one dstevd on its half
    tridiagonal or, for V = 0, in closed form (_sine_half), and kept;
    eigensolves lists the rows of each half solved, in order.  A potential
    that is an exact palindrome gives mirror_rows = n // 2; any other has
    none, and its even half is the whole dstevd, its odd half empty.

    The dense reference (eigenvalues, order, eigenvectors and the
    transforms with them), read by tests and the bench tracer only,
    assembles both halves: eigenvalues ascend and eigenvector column j is
    eigenpair order[j].  Eigenvectors are orthonormal; L2(grid) norms
    differ from euclidean ones by sqrt(h).
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
            self.mirror_rows = 0
            self._halves = [(eigenvalues, basis.half), (eigenvalues[:0], basis.half[:, :0])]

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
        """The eigenpairs of one parity: discrete sines where V = 0, else
        one dstevd on the half tridiagonal.

        The half tridiagonal holds the first n - k rows of H for the even
        modes and the first k for the odd ones, so an H without mirror rows
        (k = 0) has every mode even and an empty odd half.  Where k > 0,
        the rows carry the mirror coupling: an even vector (x, x[::-1]) on
        an even n sees its mirror as the neighbour of node k-1, which adds
        off to that diagonal entry, and an odd vector subtracts it.  On an
        odd n, scaling x by sqrt(2) off the middle node makes the even
        block symmetric, with last off-diagonal sqrt(2) off; an odd vector
        is 0 at the middle.
        """
        (diag, off), n, k = self._tridiagonal, self.n, self.mirror_rows
        rows = k if parity else n - k
        if not rows:
            return diag[:0], np.zeros((n - k, 0))
        self.eigensolves.append(rows)
        if self.potential.is_zero:  # a palindrome, so k = n // 2
            return _sine_half(n, -off[0], parity)
        d, e = diag[:rows].copy(), off[: rows - 1].copy()
        if k and not n % 2:
            d[-1] += -off[0] if parity else off[0]
        elif k and not parity:
            e[-1] *= np.sqrt(2.0)
        w, v = _dstevd(d, e)
        v[:k] *= np.sqrt(0.5)
        if len(v) < n - k:
            v = np.vstack([v, np.zeros(len(w))])
        return w, v

    @cached_property
    def _assembled(self) -> tuple[np.ndarray, np.ndarray]:
        w = np.concatenate([self.half(0)[0], self.half(1)[0]])
        ascending = np.argsort(w, kind="stable")
        order = np.empty_like(ascending)
        order[ascending] = np.arange(len(w))
        return w[ascending], order

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._assembled[0]

    @property
    def order(self) -> np.ndarray:
        return self._assembled[1]

    @property
    def bound_state_indices(self) -> np.ndarray:
        return np.flatnonzero(self.eigenvalues < 0)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Dense (n, n) eigenvector columns in eigenvalue order, assembled
        once; without mirror rows, the dstevd matrix itself."""
        if not self.mirror_rows:
            return self.half(0)[1]
        v = np.empty((self.n, self.n))
        v[:, self.order] = Eigenbasis.whole(
            [Eigenbasis(self.n, self.half(p)[1], 1 - 2 * p) for p in (0, 1)]
        ).half
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
        return real_basis_product(self.eigenvectors.T, u)

    def from_eigenbasis(self, c: np.ndarray) -> np.ndarray:
        return real_basis_product(self.eigenvectors, c)


def real_basis_product(basis: np.ndarray, data: np.ndarray) -> np.ndarray:
    """basis @ data for a real basis and real or complex data, or for a
    complex basis and real data.

    numpy would first copy the real operand to complex; viewing complex
    data, whose last axis is contiguous, as interleaved (re, im) float64
    pairs keeps the product a single real GEMM.  A complex basis takes the
    transposed product, data.T @ basis.T, the same way.
    """
    data = np.asarray(data)
    if basis.dtype.kind == "c":
        return real_basis_product(data.T, basis.T).T
    if data.dtype.kind != "c":
        return basis @ data
    if data.dtype != np.complex128 or data.ndim != 2 or data.strides[-1] != data.itemsize:
        data = np.ascontiguousarray(data, dtype=np.complex128)
    pairs = data.reshape(len(data), int(np.prod(data.shape[1:]))).view(np.float64)
    out = (basis @ pairs).view(np.complex128)
    return out.reshape((basis.shape[0],) + data.shape[1:])


def _stencil(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal 2/h^2 + V and off-diagonal -1/h^2 of the 3-point -Delta + V.

    The only division by h^2 in the package; a step whose square underflows
    to 0 or overflows, or a diagonal that overflows, is a DomainError
    (dstevd would return NaNs with info 0 on an infinite diagonal).
    """
    try:
        h2 = grid.h**2
    except OverflowError:  # the float power raises; an inf h^2 would drop -Delta
        raise DomainError(f"grid step h={grid.h:.3g} is too large: h^2 overflows") from None
    if h2 == 0.0:
        raise DomainError(f"grid step h={grid.h:.3g} is too small: h^2 underflows to 0")
    diag = 2.0 / h2 + values
    if not np.isfinite(diag).all():
        raise DomainError(f"the Hamiltonian overflows at grid step h={grid.h:.3g}")
    return diag, np.full(grid.n_points - 1, -1.0 / h2)


def _sine_half(n: int, c: float, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """The even (0) or odd (1) eigenpairs of c tridiag(-1, 2, -1) on n
    nodes, in closed form, as DiscreteHamiltonian.half lays them out.

    Eigenpair q = 1..n is the discrete sine: energy c (2 sin(q pi / (2(n+1))))^2
    and vector sqrt(2 / (n+1)) sin(j q pi / (n+1)) at node j = 1..n.  It
    mirrors times (-1)^(q+1), so odd q are the even modes and even q the
    odd ones, both ascending in q.  The sines are read from one table at
    (j q) mod 2(n+1), exactly 0 where a vector vanishes (the middle node
    of an odd mode on an odd n).  The columns are contiguous, as dstevd's.
    """
    q = np.arange(1 + parity, n + 1, 2)
    w = c * (2.0 * np.sin(q * (np.pi / (2 * (n + 1))))) ** 2
    period = 2 * (n + 1)
    table = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * (np.pi / (n + 1)))
    table[[0, n + 1]] = 0.0
    phase = np.multiply.outer(q, np.arange(1, n - n // 2 + 1))
    phase %= period
    return w, table[phase].T


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
    (occupied_modes).  Grid.x is mirror-exact, so every even family (zero,
    gaussian, sech^2, square well) samples to a palindrome on every grid,
    and a symmetric table on almost every grid.  Any other potential keeps
    one dstevd, whose matrix is a basis without mirror rows, even where
    2/h^2 + V rounds its asymmetry away.  V = 0 needs no dstevd: its
    halves are discrete sines.
    """
    _check_solver_cap(V.grid)
    return DiscreteHamiltonian(V)


def _check_solver_cap(grid: Grid) -> None:
    if grid.n_points > DENSE_SOLVER_CAP:
        raise DomainError(
            f"grid.n_points: {grid.n_points} exceeds the dense eigensolver cap {DENSE_SOLVER_CAP}"
        )


def eigenpair_with_neighbours(V: PotentialGrid, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues k-1, k, k+1 (ascending, 1 <= k <= n-2) of the grid
    Hamiltonian of V, and the eigenvector of eigenvalue k.

    Solves only these: LAPACK dstebz bisects for the three eigenvalues by
    index and dstein finds the one eigenvector by inverse iteration, O(n)
    work each and no n x n matrix.  The vector has unit euclidean norm and
    an arbitrary sign; its error is about eps ||H|| / gap, gap the distance
    from eigenvalue k to the nearest other one.  The grid is held to the
    dense eigensolver's cap, which bounds every solve on it.
    """
    _check_solver_cap(V.grid)
    diag, off = _stencil(V.grid, V.values)
    # range 2 selects by index, 1-based.  The absolute tolerance 2 * tiny is
    # LAPACK's advice for the most accurate eigenvalues; 0 would stop at
    # eps * ||H||_1, which a large barrier in V makes larger than the
    # eigenvalues themselves
    tol = 2.0 * np.finfo(float).tiny
    m, w, iblock, isplit, info = _flapack.dstebz(diag, off, 2, 0.0, 1.0, k, k + 2, tol, "B")
    if info != 0:
        raise LinAlgError(f"dstebz did not converge (LAPACK info={info})")
    # order "B", which dstein needs, ascends within each block that the
    # stencil splits into; a barrier in V above ~1e31 / h^2 splits it
    ascending = np.argsort(w[:m], kind="stable")
    j = ascending[1]
    v, info = _flapack.dstein(diag, off, w[j : j + 1], np.roll(iblock, -j), isplit)
    if info != 0:
        raise LinAlgError(f"dstein did not converge (LAPACK info={info})")
    return w[ascending], v[:, 0]


# ---------------------------------------------------------------------------
# propagation kernel: occupied modes -> phases -> one real GEMM per tau block,
# or per Chebyshev window of taus

_TAU_CHUNK = 512  # fixed so results never depend on the worker count
_ROW_PANEL = 256  # rows of a reduced block's states held at a time


@dataclass(frozen=True)
class OccupiedModes:
    """Eigenbasis data of a datum restricted to its occupied modes."""

    basis: Eigenbasis  # (n, m) real eigenvector columns, as half vectors
    energies: np.ndarray  # (m,)
    coef: np.ndarray  # (m,), complex

    def restricted(self, keep: np.ndarray) -> OccupiedModes:
        """The modes where the mask keep (m,) is True, their columns a view
        of the basis's where the kept ones are one run."""
        i, half = np.flatnonzero(keep), self.basis.half
        half = half[:, i[0] : i[-1] + 1] if len(i) and i[-1] - i[0] < len(i) else half[:, keep]
        basis = Eigenbasis(self.basis.n, half, self.basis.sign)
        return OccupiedModes(basis, self.energies[keep], self.coef[keep])


def occupied_modes(
    H: DiscreteHamiltonian, u: np.ndarray, project: bool = False, mode_tol: float = 0.0
) -> OccupiedModes:
    """Eigen coefficients of one datum vector u (n,).

    project zeroes the bound-state coefficients.  mode_tol > 0 keeps only
    the eigenmodes whose amplitude exceeds mode_tol times the largest one,
    trading a bounded truncation error for a smaller basis product.  The
    modes come even first, then odd, each parity in ascending energy.

    Only what the datum occupies is solved: a parity is solved iff its
    fold has a nonzero entry, and a zero datum keeps the even half.  Kept
    modes of one parity are its half vectors, a view where they are one
    run of the half's columns; modes of both parities, which no packet of
    the lab has but a library caller's datum may, are whole columns
    (Eigenbasis.whole).
    """
    if np.ndim(u) != 1:
        raise DomainError(f"occupied modes need one datum vector, got shape {np.shape(u)}")
    folds = H.folds(np.asarray(u, dtype=complex))
    solved = []
    for parity in [p for p in (0, 1) if folds[p].any()] or [0]:
        w, v = H.half(parity)
        c = real_basis_product(v.T, folds[parity])
        if project:
            c[w < 0] = 0.0
        solved.append(OccupiedModes(Eigenbasis(H.n, v, 1 - 2 * parity), w, c))
    if mode_tol > 0.0:
        amax = max(np.abs(m.coef).max(initial=0.0) for m in solved)
        solved = [m.restricted(np.abs(m.coef) > mode_tol * amax) for m in solved]
    # a parity left without modes drops out; the first one solved stays
    parts = [m for m in solved if len(m.energies)] or solved[:1]
    if len(parts) == 1:
        return parts[0]
    even, odd = parts
    basis = Eigenbasis.whole([even.basis, odd.basis])
    energies = np.concatenate([even.energies, odd.energies])
    return OccupiedModes(basis, energies, np.concatenate([even.coef, odd.coef]))


@dataclass(frozen=True)
class RowPanels:
    """The states (basis @ data) * phase of one tau block, tau window or
    Duhamel path group, handed to a column reduction.

    phase holds one unit-modulus factor per column (none where phase is
    None).  states() forms them whole, rows in grid order; abs_blocks
    forms them _ROW_PANEL rows of the half vectors at a time, so a
    reduction holds one panel of the (n, b) states, not all of them.
    """

    basis: Eigenbasis  # (n, m)
    data: np.ndarray  # (m, b)
    phase: np.ndarray | None = None  # (b,), complex
    ndim = 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.basis.n, self.data.shape[1])

    def states(self) -> np.ndarray:
        """The whole (n, b) states, rows in grid order."""
        states = self.basis.product(self.data)
        return states if self.phase is None else states * self.phase

    def abs_blocks(self, g):
        """g(|block|) for row blocks that together hold every row of the
        states once.

        Per panel of half-vector rows: its block, then, if it holds any of
        the first k rows, their mirror rows' block.  Those are the same rows
        up to sign, so their g(|.|) is a view of the panel's: no second
        product, negation, phase, abs or g.  The two share memory; write to
        neither.
        """
        half, k = self.basis.half, self.basis.mirror_rows
        for r in range(0, len(half), _ROW_PANEL):
            top = real_basis_product(half[r : r + _ROW_PANEL], self.data)
            if self.phase is not None:
                top *= self.phase
            a = g(np.abs(top))
            del top  # the product is freed before the block is handed on
            yield a
            if mirror := len(range(k)[r : r + _ROW_PANEL]):
                yield a[:mirror]


def _phases(energies: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(-1j * outer(E, tau)) bit for bit, built in one zeroed complex
    buffer: no real (m, b) temporary."""
    z = np.zeros((len(energies), len(taus)), dtype=complex)
    np.multiply.outer(energies, -taus, out=z.imag)
    return np.exp(z, out=z)


def evolve(modes: OccupiedModes, taus: np.ndarray, reduce=None) -> np.ndarray:
    """Columns e^{-i tau_k H} u for a flat list of phases tau_k.

    The taus that ChebyshevWindows.plan groups into windows are expanded
    there; the phases of every other tau are applied in fixed blocks of
    _TAU_CHUNK columns, in their given order.  Blocks and windows are
    independent work units for the thread pool.  reduce maps the states
    of each block, and of each window's runs of at most _TAU_CHUNK taus,
    handed over as RowPanels, to b per-column values, so only those are
    kept; None keeps the states themselves (RowPanels.states).
    """
    taus = np.asarray(taus, dtype=float).ravel()
    plan = ChebyshevWindows.plan(modes, taus)
    direct = taus if plan is None else taus[plan.direct]
    reduce = RowPanels.states if reduce is None else reduce

    def one_block(start: int) -> np.ndarray:
        z = _phases(modes.energies, direct[start : start + _TAU_CHUNK])
        z *= modes.coef[:, None]
        return reduce(RowPanels(modes.basis, z))

    def one_window(window: tuple[float, np.ndarray]) -> np.ndarray:
        centre, index = window
        basis = plan.window_basis(modes, centre)
        return np.concatenate(
            [
                reduce(plan.panels(basis, centre, taus[index[i : i + _TAU_CHUNK]]))
                for i in range(0, len(index), _TAU_CHUNK)
            ],
            axis=-1,
        )

    # an empty tau list still yields one (empty) block of the right shape
    blocks = [partial(one_block, i) for i in range(0, max(len(direct), 1), _TAU_CHUNK)]
    windows = [] if plan is None else [partial(one_window, w) for w in plan.windows]
    parts = np.concatenate(ordered_map(lambda work: work(), blocks + windows), axis=-1)
    if plan is None:
        return parts
    out = np.empty_like(parts)
    out[..., np.concatenate([plan.direct, *(index for _, index in plan.windows)])] = parts
    return out


# half-widths a_max = R delta of the expansions that ChebyshevWindows.plan
# tries, from 8 to 512 in steps of sqrt(2)
_WINDOW_RANGES = 2.0 ** np.arange(3.0, 9.5, 0.5)


def chebyshev_degree(a_max: float) -> int:
    """The smallest degree N whose dropped tail 2 sum_{n > N} |J_n(a)| is
    at most eps = 2.2e-16 for every |a| <= a_max.

    The tail bound is |J_n(a)| <= (|a|/2)^n / n! (DLMF 10.14.4).  Past
    n > a_max / 2 these bounds t_n shrink by at least q = a_max / (2 (N + 2))
    per step, so the tail is at most 2 t_{N+1} / (1 - q).
    """
    log_eps = math.log(np.finfo(float).eps)
    log_half = math.log(a_max / 2.0) if a_max > 0 else -math.inf
    degree = 0
    while True:
        q = a_max / (2.0 * (degree + 2))
        tail = math.log(2.0) + (degree + 1) * log_half - math.lgamma(degree + 2)
        if q < 1.0 and tail - math.log1p(-q) <= log_eps:
            return degree
        degree += 1


def chebyshev_coefficients(a: np.ndarray, degree: int) -> np.ndarray:
    """c_n(a_j) = eps_n (-i)^n J_n(a_j), n = 0..degree, as a (degree + 1, m)
    array: the Chebyshev coefficients of e^{-i a s} on [-1, 1], eps_0 = 1
    and eps_n = 2 (Jacobi-Anger).

    They are the cosine coefficients of e^{-i a cos(theta)}, here by the
    Gauss-Chebyshev rule on Q = degree + 1 nodes, exact for every cosine
    below 2Q.  A coefficient c_n picks up the aliases +-c_{2lQ +- n}, l >= 1,
    all of degree at least degree + 2, so within the tail that
    chebyshev_degree bounds.
    """
    q = degree + 1
    theta = np.pi * (np.arange(q) + 0.5) / q
    weights = np.cos(np.outer(np.arange(q), theta)) * (2.0 / q)
    weights[0] *= 0.5
    return real_basis_product(weights, _phases(np.cos(theta), a))


def chebyshev_table(s: np.ndarray, degree: int) -> np.ndarray:
    """T_n(s_k), n = 0..degree, as a (degree + 1, len(s)) array, by the
    three-term recurrence T_{n+1} = 2 s T_n - T_{n-1}."""
    t = np.empty((degree + 1, len(s)))
    t[0] = 1.0
    if degree:
        t[1] = s
    for n in range(2, degree + 1):
        np.multiply(2.0 * s, t[n - 1], out=t[n])
        t[n] -= t[n - 2]
    return t


@dataclass(frozen=True)
class ChebyshevWindows:
    """Dense windows of tau whose phases are expanded in Chebyshev polynomials.

    With Ebar and R the centre and half-width of the occupied energies, a
    window of half-width delta around its centre tau0 holds taus with
    |tau - tau0| <= delta, and for each of them

        e^{-i E tau} = e^{-i Ebar tau} e^{-i (E - Ebar) tau0}
                       sum_{n <= N} c_n((E - Ebar) delta) T_n((tau - tau0) / delta),

    with |(E - Ebar) delta| <= a_max = R delta, N = chebyshev_degree(a_max)
    and c_n from chebyshev_coefficients; each phase is off by at most eps
    from the dropped tail.  The window's m x b phase matrix thus has rank
    N + 1: its states are the N + 1 columns of the window basis
    G = basis @ diag(coef e^{-i (E - Ebar) tau0}) C, combined by T_n and
    times e^{-i Ebar tau}.  That is N + 1 GEMM columns against the m modes
    per window, plus one against the N + 1 terms per tau, in place of one
    against the m modes per tau.
    """

    energies: np.ndarray  # (m,): E - Ebar
    centre: float  # Ebar
    half_width: float  # delta
    coefficients: np.ndarray  # (N + 1, m), complex: C
    windows: list  # (tau0, indices of its taus, ascending)
    direct: np.ndarray  # indices of the taus in no window, ascending

    @classmethod
    def plan(cls, modes: OccupiedModes, taus: np.ndarray):
        """The windows that save the most GEMM columns, None if none saves any.

        For each a_max in _WINDOW_RANGES, delta = a_max / R and the centres
        are the multiples of 2 delta: a tau joins the window of the nearest
        one, if it lies within delta of it.  A window of b taus is kept
        where its N + 1 columns against the m modes and b columns against
        the N + 1 terms are fewer than the b columns of its taus against
        the m modes.  The a_max whose kept windows save the most columns
        wins.  All of it comes from the modes and the taus.
        """
        energies, m = modes.energies, len(modes.energies)
        if not m or energies.min() == energies.max():
            return None
        lo, hi = float(energies.min()), float(energies.max())
        finite = np.flatnonzero(np.isfinite(taus))
        finite = finite[np.argsort(taus[finite], kind="stable")]
        t = taus[finite]
        best, chosen = 0, None
        for a_max in _WINDOW_RANGES:
            terms = chebyshev_degree(a_max) + 1
            if terms >= m:
                break
            delta = float(a_max) / ((hi - lo) / 2.0)
            centres = 2.0 * delta * np.rint(t / (2.0 * delta))  # ascending, as t
            inside = np.abs(t - centres) <= delta
            centres = centres[inside]
            first = np.flatnonzero(np.diff(centres, prepend=np.nan) != 0)
            counts = np.diff(first, append=len(centres))
            saving = m * counts - terms * (m + counts)
            if (total := saving[saving > 0].sum()) > best:
                best = total
                chosen = terms - 1, delta, centres, finite[inside], first, counts, saving
        if chosen is None:
            return None
        degree, delta, centres, index, first, counts, saving = chosen
        windows = [
            (centres[i], np.sort(index[i : i + b]))
            for i, b, gain in zip(first, counts, saving)
            if gain > 0
        ]
        direct = np.ones(len(taus), dtype=bool)
        for _, window in windows:
            direct[window] = False
        centre = (lo + hi) / 2.0
        shifted = energies - centre
        return cls(
            shifted, centre, delta, chebyshev_coefficients(shifted * delta, degree),
            windows, np.flatnonzero(direct),
        )

    def window_basis(self, modes: OccupiedModes, tau0: float) -> Eigenbasis:
        """G = basis @ diag(coef e^{-i (E - Ebar) tau0}) C as complex half
        vectors (n - k, N + 1) of the modes' sign, whose rows are contiguous
        in memory: the layout the transposed product of real_basis_product
        reads without a copy."""
        d = self.coefficients * (_phases(self.energies, np.array([tau0]))[:, 0] * modes.coef)
        y = np.concatenate([d.real, d.imag]) @ modes.basis.half.T
        g = np.empty((len(d), len(modes.basis.half)), dtype=complex)
        g.real, g.imag = y[: len(d)], y[len(d) :]
        return replace(modes.basis, half=g.T)

    def panels(self, basis: Eigenbasis, tau0: float, taus: np.ndarray) -> RowPanels:
        """RowPanels of the states of taus in the window of tau0, whose basis is G."""
        t = chebyshev_table((taus - tau0) / self.half_width, len(self.coefficients) - 1)
        return RowPanels(basis, t, _phases(np.array([self.centre]), taus)[0])


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


def born_series_terms(
    V: PotentialGrid, energy: float, f: np.ndarray, n_max: int
) -> list[np.ndarray]:
    """Terms R0 (-V R0)^n f of the outgoing resolvent expansion, n = 0..n_max.

    R0 is the lattice's free resolvent at energy + i0, the box closed by
    outgoing_closure: H0 - E is factored once and each term is one banded
    solve.  Requires an energy above ||V||_1^2, so the term ratio stays below
    ||V||_1 / (2 sqrt(energy)) < 1, and 0 < E h^2 < 4.  f is not modified.
    """
    threshold = V.born_threshold()
    if energy <= threshold:
        raise DomainError(
            f"energy {energy} is not above the series threshold {threshold:.4g}"
        )
    grid = V.grid
    closed = outgoing_closure(grid, np.zeros(grid.n_points), energy)
    factors = _shifted_factor(grid, closed, energy)
    # each solve overwrites its right-hand side, so the first one gets a copy of f
    terms = [_shifted_solve(factors, np.array(f, dtype=complex))]
    for _ in range(n_max):
        terms.append(_shifted_solve(factors, -V.values * terms[-1]))
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
    """Solve against gttrf factors in place: rhs (complex; a vector, or a
    Fortran-ordered block of columns) is the result."""
    x, _ = _flapack.zgttrs(*factors, rhs, overwrite_b=1)
    return x


def tridiagonal_resolvent_solve(
    grid: Grid, values: np.ndarray, z: complex, rhs: np.ndarray
) -> np.ndarray:
    """Solve (H - z) u = rhs for the tridiagonal H, any grid size.

    Tridiagonal LU, independent of the eigendecomposition; this is the dense
    oracle route paired with the Jost constructions elsewhere.
    """
    return _shifted_solve(_shifted_factor(grid, values, z), np.array(rhs, dtype=complex))


def node_index(grid: Grid, y: float) -> int:
    """Index of the grid node at y; a DomainError if y is not one."""
    iy = int(round((y + grid.l_box) / grid.h))
    if not (0 <= iy < grid.n_points) or abs(grid.x[iy] - y) > 1e-9 * max(1.0, grid.h):
        raise DomainError(f"probe y={y} is not a grid node")
    return iy


def outgoing_closure(grid: Grid, values: np.ndarray, energy: float) -> np.ndarray:
    """values with the lattice's exact outgoing boundary at energy + i0 folded in.

    Beyond the box, V taken as 0, (H - E) u = 0 is solved by u_j = zeta^j,
    zeta = c + i sqrt(1 - c^2), c = 1 - E h^2 / 2, the root of R(E + i0).  A
    ghost node zeta times its neighbour closes each wall exactly: zeta / h^2
    comes off the first and last diagonal entries, and the tridiagonal solve
    of the result at z = energy is R(E + i0).  It needs 0 < E h^2 < 4.
    """
    _, off = _stencil(grid, values)  # its h^2 and overflow checks come first
    c = 1.0 - 0.5 * energy * grid.h**2
    if not -1.0 < c < 1.0:
        raise DomainError(f"the outgoing closure needs 0 < E h^2 < 4, got {energy * grid.h**2:.4g}")
    closed = np.array(values, dtype=complex)
    closed[[0, -1]] += complex(c, math.sqrt(1.0 - c * c)) * off[0]
    return closed


def outgoing_resolvent_table(grid: Grid, values: np.ndarray, energy: float, probes) -> np.ndarray:
    """R(energy + i0)(probes[i], probes[j]) on grid nodes, the box closed by
    outgoing_closure: one factorization and one solve against the block of
    grid deltas (unit mass), a column per probe.  A probe that is not a grid
    node is a DomainError."""
    nodes = [node_index(grid, float(y)) for y in probes]
    factors = _shifted_factor(grid, outgoing_closure(grid, values, energy), energy)
    deltas = np.zeros((grid.n_points, len(nodes)), dtype=complex, order="F")
    deltas[nodes, range(len(nodes))] = 1.0 / grid.h
    return _shifted_solve(factors, deltas)[nodes]


@dataclass(frozen=True)
class SpectralDensityEstimate:
    """Smoothed spectral density <dE f, f> on a lam grid."""

    lambda_grid: np.ndarray
    density: np.ndarray

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.lambda_grid))


def stone_spectral_density(
    V: PotentialGrid,
    a: float,
    b: float,
    epsilon: float,
    f: np.ndarray,
) -> SpectralDensityEstimate:
    """Spectral density from the resolvent jump across the real axis.

    density(lam) = Im <(H - lam - i eps)^{-1} f, f> / pi for the grid
    Hamiltonian H of V, one banded solve per lam, on an even lam grid over
    [a, b] of max(2, ceil((b - a) / (eps / 4))) points, so its step is
    about eps / 4 and never above eps / 2; its integral over [a, b]
    approximates the spectral mass of f on the interval as eps -> 0.
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
        u = tridiagonal_resolvent_solve(V.grid, V.values, lam + 1j * epsilon, f)
        dens[i] = np.imag(np.vdot(f, u)) / np.pi
    return SpectralDensityEstimate(lambda_grid=lams, density=dens)
