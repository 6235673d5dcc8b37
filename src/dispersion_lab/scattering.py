"""Jost solutions, Wronskian, zero-energy resonance and scattering data.

The Jost solutions f+-(lam, x) of -f'' + V f = lam^2 f behave like
e^{+-i lam x} at the respective infinities.  Everything here works with
the reduced functions m defined by f = e^{+-i lam x} m(lam, x), which
satisfy m'' +- 2 i lam m' = V m with flat boundary data m = 1, m' = 0.
Integrating m instead of f keeps the boundary condition exact and avoids
oscillatory blow-up at large |x| lam.

The resolvent kernel reads the whole table of jost_solution, once per sign
and energy: every probe at once through f_at, and W at the table's midpoint
node.  The Wronskian, resonance test and scattering data read one node,
which jost_at_node marches to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoarseStepError,
    ConditioningError,
    ContractViolationError,
    DomainError,
    fits_in_memory,
)
from .grid_model import Grid, PotentialGrid

SIGNS = ("plus", "minus")
RESONANCE_TOL = 1e-4  # of |W(0)|, relative to max(1, ||V||_1)
KERNEL_W_TOL = 1e-10  # of |W(lam)|, relative to max(1, 2 |lam|): below it, no kernel


@dataclass(frozen=True)
class JostFunction:
    """Reduced Jost solution m(lam, .) with its first derivative."""

    lam: float
    sign: str
    grid: Grid
    m_values: np.ndarray
    m_prime: np.ndarray

    @property
    def _s(self) -> float:
        return 1.0 if self.sign == "plus" else -1.0

    def f_values(self) -> np.ndarray:
        """f = e^{+-i lam x} m on the grid."""
        return np.exp(1j * self._s * self.lam * self.grid.x) * self.m_values

    def f_prime_values(self) -> np.ndarray:
        """f' reconstructed from the integrated m and m'."""
        phase = np.exp(1j * self._s * self.lam * self.grid.x)
        return phase * (self.m_prime + 1j * self._s * self.lam * self.m_values)

    def at_node(self, i: int) -> tuple[complex, complex]:
        """(f, f') at grid node i alone, equal to f_values()[i], f_prime_values()[i]."""
        sl = slice(i, i + 1)
        return _node_pair(self.lam, self._s, self.grid.x[sl], self.m_values[sl], self.m_prime[sl])

    def f_at(self, x) -> np.ndarray:
        """f at points of the box, any shape, m interpolated by cubic Hermite.

        Hermite on the table's own m and m' keeps the march's O(h^4); at a
        node t = 0, so the node's m comes back exactly.
        """
        xs = self.grid.x
        x = np.asarray(x, dtype=float)
        outside = (x < xs[0]) | (x > xs[-1])
        if outside.any():
            raise DomainError(f"x={x[outside][0]} lies outside the box [{xs[0]}, {xs[-1]}]")
        i = np.minimum(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2)
        dx = xs[i + 1] - xs[i]
        t = (x - xs[i]) / dx
        u = 1.0 - t
        m = (
            (1.0 + 2.0 * t) * u * u * self.m_values[i]
            + t * u * u * dx * self.m_prime[i]
            + t * t * (3.0 - 2.0 * t) * self.m_values[i + 1]
            - t * t * u * dx * self.m_prime[i + 1]
        )
        return np.exp(1j * self._s * self.lam * x) * m


@dataclass(frozen=True)
class ScatteringData:
    """Wronskian, matching coefficients and S-matrix entries at one lam."""

    lam: float
    w: complex
    alpha: complex
    beta_coeff: complex
    transmission: complex
    reflection: complex


def _midpoint_values(v: np.ndarray) -> np.ndarray:
    """4-point interpolation of V at cell midpoints, O(h^4) inside."""
    mid = np.empty(len(v) - 1)
    mid[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
    mid[0] = 0.5 * (v[0] + v[1])
    mid[-1] = 0.5 * (v[-2] + v[-1])
    return mid


def _node_pair(lam: float, s: float, x, m, mp) -> tuple[complex, complex]:
    """(f, f') from length-1 slices: numpy's complex scalar product rounds differently."""
    phase = np.exp(1j * s * lam * x)
    return (phase * m)[0], (phase * (mp + 1j * s * lam * m))[0]


def _step_matrices(V: PotentialGrid, lam: float, sign: str, n_steps: int) -> list:
    """Entries [p00, p01, p10, p11] of the first n_steps RK4 step matrices.

    Fixed-step classical RK4 on (m, m'), linear so one 2x2 matrix a step,
    marching inward from the `sign` wall, where m = 1, m' = 0.
    """
    if sign not in SIGNS:
        raise ContractViolationError(f"sign must be 'plus' or 'minus', got {sign!r}")
    h = V.grid.h
    v = V.values
    vmax = float(np.max(np.abs(v))) if len(v) else 0.0
    if h * (abs(lam) + np.sqrt(vmax)) > 0.5:
        nodes = 4.0 * V.grid.l_box * np.sqrt(vmax) + 1.0
        raise CoarseStepError(
            f"step h={h:.4g} too coarse for lam={lam} and this potential, "
            f"which alone needs {nodes:.3g} nodes on this box",
            potential_nodes=nodes,
        )
    vm = _midpoint_values(v)
    s = 1.0 if sign == "plus" else -1.0
    c = -s * 2j * lam  # m'' = V m + c m'
    if sign == "plus":  # marching order
        v, vm = v[::-1], vm[::-1]
    # V at the start, midpoint and end of every step
    va, vb, vc = v[:n_steps], vm[:n_steps], v[1 : n_steps + 1]
    step = -s * h
    half = 0.5 * step
    sixth = step / 6.0

    def rk4(y0, y1):
        k1m = y1
        k1p = va * y0 + c * y1
        a0 = y0 + half * k1m
        a1 = y1 + half * k1p
        k2m = a1
        k2p = vb * a0 + c * a1
        b0 = y0 + half * k2m
        b1 = y1 + half * k2p
        k3m = b1
        k3p = vb * b0 + c * b1
        c0 = y0 + step * k3m
        c1 = y1 + step * k3p
        k4m = c1
        k4p = vc * c0 + c * c1
        return (
            y0 + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m),
            y1 + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
        )

    # one flat array per entry (np.matmul on stacked 2x2 matrices is far
    # slower); the images of the unit vectors are the columns
    (p00, p10), (p01, p11) = rk4(1.0, 0.0), rk4(0.0, 1.0)
    return [p00, p01, p10, p11]


def _matmul(a, b):
    """Entrywise products a @ b of stacked 2x2 matrices, each as [p00, p01, p10, p11]."""
    (a00, a01, a10, a11), (b00, b01, b10, b11) = a, b
    return [
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    ]


def jost_solution(V: PotentialGrid, lam: float, sign: str) -> JostFunction:
    """Integrate the reduced Jost equation across the full grid.

    The step matrices are composed by a log-depth inclusive prefix product
    P[t] = steps[t] @ ... @ steps[0]: O(n log n) work for the whole table.
    """
    n = V.grid.n_points
    p = _step_matrices(V, lam, sign, n - 1)
    # by doubling, P[t] <- P[t] @ P[t - k] for k = 1, 2, 4, ...
    k = 1
    while k < n - 1:
        for q, r in zip(p, _matmul([q[k:] for q in p], [q[:-k] for q in p])):
            q[k:] = r
        k *= 2
    m = np.ones(n, dtype=complex)
    mp = np.zeros(n, dtype=complex)
    inner = slice(-2, None, -1) if sign == "plus" else slice(1, None)
    m[inner], mp[inner] = p[0], p[2]
    return JostFunction(lam=lam, sign=sign, grid=V.grid, m_values=m, m_prime=mp)


def jost_at_node(V: PotentialGrid, lam: float, sign: str, i: int) -> tuple[complex, complex]:
    """(f, f') at node i alone, bit for bit jost_solution(V, lam, sign).at_node(i).

    Builds only the steps from the wall to node i and multiplies them pairwise
    in descending order, level by level, an odd one left over carried up as is.
    The scan's round k = 2^(j-1) pairs P[t] with P[t - k], so at level j P[t]
    rests on t, t - 2^j, t - 2 * 2^j, ...: the same tree and formulas, in linear work.
    """
    n = V.grid.n_points
    if not 0 <= i < n:
        raise ContractViolationError(f"node {i} is not on a grid of {n} points")
    p = [q[::-1] for q in _step_matrices(V, lam, sign, n - 1 - i if sign == "plus" else i)]
    while len(p[0]) > 1:
        even = len(p[0]) // 2 * 2
        pairs = _matmul([q[0:even:2] for q in p], [q[1:even:2] for q in p])
        p = [np.concatenate((r, q[even:])) for r, q in zip(pairs, p)]
    m, mp = (p[0], p[2]) if len(p[0]) else (np.ones(1, dtype=complex), np.zeros(1, dtype=complex))
    return _node_pair(lam, 1.0 if sign == "plus" else -1.0, V.grid.x[i : i + 1], m, mp)


def _wronskian_at(plus: tuple[complex, complex], minus: tuple[complex, complex]) -> complex:
    (fp, fpd), (fm, fmd) = plus, minus
    return complex(fp * fmd - fpd * fm)


def midpoint_wronskian(V: PotentialGrid, lam: float) -> complex:
    """W = f+ f-' - f+' f- at the grid midpoint, from two node marches.

    Derivatives come from the integrated m', not finite differences, so
    the free case reproduces W = -2 i lam to round-off.
    """
    i0 = V.grid.n_points // 2
    return _wronskian_at(jost_at_node(V, lam, "plus", i0), jost_at_node(V, lam, "minus", i0))


def zero_energy_test(V: PotentialGrid) -> tuple[bool, complex]:
    """(resonant, W(0)): the verdict of detect_resonance and its Wronskian."""
    w0 = midpoint_wronskian(V, 0.0)
    return abs(w0) < RESONANCE_TOL * max(1.0, V.l1_norm()), w0


def detect_resonance(V: PotentialGrid) -> bool:
    """True iff the zero-energy Wronskian is (numerically) zero.

    The threshold scales with max(1, ||V||_1) because the discretized
    W(0) never vanishes exactly.
    """
    return zero_energy_test(V)[0]


def scattering_coefficients(V: PotentialGrid, lam: float) -> ScatteringData:
    """Match f- against f+(lam), f+(-lam) at node n // 2 (x = h/2 on an even grid).

    Solves the 2x2 system f- = alpha f+(lam, .) + beta f+(-lam, .) from
    values and derivatives at the matching point, then fills the
    transmission -2 i lam / W and reflection alpha / beta.  Two node marches
    do: for real V and lam, (f, f') of f+(-lam) is the conjugate of f+(lam)'s
    bit for bit: the march commutes with conjugation, and libm's sin is odd.
    """
    if lam == 0:
        raise DomainError("scattering coefficients are singular at lam = 0")
    i0 = V.grid.n_points // 2
    a11, a21 = plus = jost_at_node(V, lam, "plus", i0)
    b1, b2 = minus = jost_at_node(V, lam, "minus", i0)
    a12, a22 = a11.conjugate(), a21.conjugate()
    det = a11 * a22 - a12 * a21
    scale = max(abs(a11) * abs(a22), abs(a12) * abs(a21), 1e-300)
    if abs(det) < 1e-10 * scale:
        raise ConditioningError(
            f"matching system nearly singular at lam={lam} (det={abs(det):.2e})"
        )
    alpha = (b1 * a22 - a12 * b2) / det
    beta = (a11 * b2 - b1 * a21) / det
    w = _wronskian_at(plus, minus)
    transmission = -2j * lam / w
    reflection = alpha / beta
    return ScatteringData(
        lam=lam,
        w=w,
        alpha=complex(alpha),
        beta_coeff=complex(beta),
        transmission=complex(transmission),
        reflection=complex(reflection),
    )


def resolvent_kernel_jost_table(V: PotentialGrid, lam: float, probes) -> np.ndarray:
    """Kernel f+(max(x, y)) f-(min(x, y)) / W(lam) at every pair of probes,
    entry [i, j] at (x, y) = (probes[i], probes[j]).

    One table per sign, each read once for every probe; W comes from the
    same tables' midpoint node, equal to midpoint_wronskian(V, lam).
    """
    if lam == 0:
        raise DomainError("kernel formula divides by W(lam); lam = 0 not allowed")
    fp = jost_solution(V, lam, "plus")
    fm = jost_solution(V, lam, "minus")
    i0 = V.grid.n_points // 2
    w = _wronskian_at(fp.at_node(i0), fm.at_node(i0))
    if abs(w) < KERNEL_W_TOL * max(1.0, 2.0 * abs(lam)):
        raise ConditioningError(f"|W({lam})| = {abs(w):.2e} below tolerance")
    upper, lower = np.maximum.outer(probes, probes), np.minimum.outer(probes, probes)
    return fp.f_at(upper) * fm.f_at(lower) / w


def lambda_sweep_grid(lam0: float, n: int = 48) -> np.ndarray:
    """Geometric lam grid covering the low- and high-energy regimes; a
    SizeError where its n momenta do not fit in memory."""
    top = 4.0 * np.sqrt(max(lam0, 0.0)) + 1.0
    with fits_in_memory(f"the {n} momenta"):
        return np.geomspace(0.05, top, n)
