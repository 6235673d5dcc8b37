"""Jost solutions, Wronskian, zero-energy resonance and scattering data.

The Jost solutions f+-(lam, x) of -f'' + V f = lam^2 f behave like
e^{+-i lam x} at the respective infinities.  Everything here works with
the reduced functions m defined by f = e^{+-i lam x} m(lam, x), which
satisfy m'' +- 2 i lam m' = V m with flat boundary data m = 1, m' = 0.
Integrating m instead of f keeps the boundary condition exact and avoids
oscillatory blow-up at large |x| lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ContractViolationError, DomainError
from .grid_model import Grid, PotentialGrid

SIGNS = ("plus", "minus")


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
        """(f, f') at grid node i alone, equal to f_values()[i], f_prime_values()[i].

        Works on length-1 slices: numpy's complex scalar product rounds
        differently from its array loop.
        """
        sl = slice(i, i + 1)
        phase = np.exp(1j * self._s * self.lam * self.grid.x[sl])
        m = self.m_values[sl]
        f = phase * m
        fd = phase * (self.m_prime[sl] + 1j * self._s * self.lam * m)
        return f[0], fd[0]

    def f_at(self, x: float) -> complex:
        """f at an off-grid point, m interpolated linearly."""
        xs = self.grid.x
        mr = np.interp(x, xs, self.m_values.real)
        mi = np.interp(x, xs, self.m_values.imag)
        return np.exp(1j * self._s * self.lam * x) * (mr + 1j * mi)


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


def jost_solution(V: PotentialGrid, lam: float, sign: str) -> JostFunction:
    """Integrate the reduced Jost equation across the full grid.

    Fixed-step classical RK4 on (m, m'), marching inward from the
    boundary on the `sign` side where m = 1, m' = 0.  The equation is
    linear, so each step is a 2x2 matrix; all step matrices are built at
    once and composed by a log-depth prefix product.
    """
    if sign not in SIGNS:
        raise ContractViolationError(f"sign must be 'plus' or 'minus', got {sign!r}")
    grid = V.grid
    h = grid.h
    v = V.values
    vmax = float(np.max(np.abs(v))) if len(v) else 0.0
    if h * (abs(lam) + np.sqrt(vmax)) > 0.5:
        raise DomainError(
            f"step h={h:.4g} too coarse for lam={lam} and this potential; "
            "refine the grid"
        )
    vm = _midpoint_values(v)
    s = 1.0 if sign == "plus" else -1.0
    c = -s * 2j * lam  # m'' = V m + c m'
    # V at the start, midpoint and end of every step, in marching order
    if sign == "plus":
        va, vb, vc = v[:0:-1], vm[::-1], v[-2::-1]
        step = -h
    else:
        va, vb, vc = v[:-1], vm, v[1:]
        step = h
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

    # entries of the 2x2 step matrices, one flat array each (np.matmul on
    # stacked 2x2 matrices is far slower); the images of the unit vectors
    # are their columns
    p00, p10 = rk4(1.0, 0.0)
    p01, p11 = rk4(0.0, 1.0)
    # inclusive prefix product P[i] = steps[i] @ ... @ steps[0] by doubling,
    # P[i] <- P[i] @ P[i - k] for k = 1, 2, 4, ...
    k = 1
    while k < len(p00):
        a00, a01, a10, a11 = p00[k:], p01[k:], p10[k:], p11[k:]
        b00, b01, b10, b11 = p00[:-k], p01[:-k], p10[:-k], p11[:-k]
        p00[k:], p01[k:], p10[k:], p11[k:] = (
            a00 * b00 + a01 * b10,
            a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10,
            a10 * b01 + a11 * b11,
        )
        k *= 2
    m = np.ones(grid.n_points, dtype=complex)
    mp = np.zeros(grid.n_points, dtype=complex)
    if sign == "plus":
        m[-2::-1], mp[-2::-1] = p00, p10
    else:
        m[1:], mp[1:] = p00, p10
    return JostFunction(lam=lam, sign=sign, grid=grid, m_values=m, m_prime=mp)


def _check_pair(f_plus: JostFunction, f_minus: JostFunction) -> None:
    if f_plus.sign != "plus" or f_minus.sign != "minus":
        raise ContractViolationError("wronskian expects a (plus, minus) pair")
    if f_plus.lam != f_minus.lam:
        raise ContractViolationError(
            f"mismatched spectral parameters {f_plus.lam} vs {f_minus.lam}"
        )
    if f_plus.grid is not f_minus.grid and not (
        f_plus.grid.l_box == f_minus.grid.l_box
        and f_plus.grid.n_points == f_minus.grid.n_points
    ):
        raise ContractViolationError("Jost pair must share one grid")


def wronskian(f_plus: JostFunction, f_minus: JostFunction) -> complex:
    """W = f+ f-' - f+' f- at the grid midpoint.

    Derivatives come from the integrated m', not finite differences, so
    the free case reproduces W = -2 i lam to round-off.
    """
    _check_pair(f_plus, f_minus)
    i0 = f_plus.grid.n_points // 2
    fp, fpd = f_plus.at_node(i0)
    fm, fmd = f_minus.at_node(i0)
    return complex(fp * fmd - fpd * fm)


def zero_energy_test(V: PotentialGrid, tol: float = 1e-4) -> tuple[bool, complex]:
    """(resonant, W(0)): the verdict of detect_resonance and its Wronskian."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    w0 = wronskian(jost_solution(V, 0.0, "plus"), jost_solution(V, 0.0, "minus"))
    return abs(w0) < tol * max(1.0, V.l1_norm()), w0


def detect_resonance(V: PotentialGrid, tol: float = 1e-4) -> bool:
    """True iff the zero-energy Wronskian is (numerically) zero.

    The threshold scales with max(1, ||V||_1) because the discretized
    W(0) never vanishes exactly.
    """
    return zero_energy_test(V, tol)[0]


def scattering_coefficients(V: PotentialGrid, lam: float) -> ScatteringData:
    """Match f- against f+(lam), f+(-lam) at x = 0.

    Solves the 2x2 system f- = alpha f+(lam, .) + beta f+(-lam, .) from
    values and derivatives at the matching point, then fills the
    transmission -2 i lam / W and reflection alpha / beta.
    """
    if lam == 0:
        raise DomainError("scattering coefficients are singular at lam = 0")
    fp = jost_solution(V, lam, "plus")
    fp_neg = jost_solution(V, -lam, "plus")
    fm = jost_solution(V, lam, "minus")
    i0 = V.grid.n_points // 2
    a11, a21 = fp.at_node(i0)
    a12, a22 = fp_neg.at_node(i0)
    det = a11 * a22 - a12 * a21
    scale = max(abs(a11) * abs(a22), abs(a12) * abs(a21), 1e-300)
    if abs(det) < 1e-10 * scale:
        raise ConditioningError(
            f"matching system nearly singular at lam={lam} (det={abs(det):.2e})"
        )
    b1, b2 = fm.at_node(i0)
    alpha = (b1 * a22 - a12 * b2) / det
    beta = (a11 * b2 - b1 * a21) / det
    w = wronskian(fp, fm)
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


def resolvent_kernel_jost_table(
    V: PotentialGrid,
    lam: float,
    xs,
    ys,
    w_tol: float = 1e-10,
) -> np.ndarray:
    """Kernel values on a probe set, one Jost pair for all entries."""
    if lam == 0:
        raise DomainError("kernel formula divides by W(lam); lam = 0 not allowed")
    fp = jost_solution(V, lam, "plus")
    fm = jost_solution(V, lam, "minus")
    w = wronskian(fp, fm)
    if abs(w) < w_tol * max(1.0, 2.0 * abs(lam)):
        raise ConditioningError(f"|W({lam})| = {abs(w):.2e} below tolerance")
    out = np.empty((len(xs), len(ys)), dtype=complex)
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            hi, lo = (xv, yv) if xv >= yv else (yv, xv)
            out[i, j] = fp.f_at(hi) * fm.f_at(lo) / w
    return out


def lambda_sweep_grid(lam0: float, n: int = 48) -> np.ndarray:
    """Geometric lam grid covering the low- and high-energy regimes."""
    top = 4.0 * np.sqrt(max(lam0, 0.0)) + 1.0
    return np.geomspace(0.05, top, n)
