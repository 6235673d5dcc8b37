"""Spatial grid, potential families, the grid L1 norm of a sampled potential
and the composite Simpson weights of the Born series and the time quadratures.

Every family lies in each weighted class ``int |V(x)| (1+|x|)^j dx < infty``
by construction: a Gaussian, sech^2 and a square well decay fast, and a
custom table is extended by zero, so truncating the line to a finite box
converges.  ``PotentialGrid.l1_norm()`` gives the ||V||_1 behind the
high-energy threshold ||V||_1^2 of the Born series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError

FAMILIES = ("zero", "gaussian", "sech_squared", "square_well", "custom_table")


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n_points on [-l_box, l_box], symmetric about 0."""

    l_box: float
    n_points: int

    def __post_init__(self):
        if not np.isfinite(self.l_box) or self.l_box <= 0:
            raise ValidationError(f"l_box must be positive and finite, got {self.l_box}")
        if self.n_points < 16:
            raise ValidationError(f"n_points must be >= 16, got {self.n_points}")

    @property
    def h(self) -> float:
        return 2.0 * self.l_box / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(-self.l_box, self.l_box, self.n_points)


@dataclass(frozen=True)
class PotentialSpec:
    """Analytic potential family.

    family       one of FAMILIES
    amplitude    overall prefactor (sign included)
    width        length scale; for square_well the half-width of the well
    table        (x, V) pairs for family "custom_table", linearly
                 interpolated between nodes and zero outside
    """

    family: str
    amplitude: float = 0.0
    width: float = 1.0
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown potential family {self.family!r}")
        if self.family == "custom_table":
            if not self.table:
                raise ValidationError("custom_table requires a non-empty table")
            xs = [p[0] for p in self.table]
            if sorted(xs) != xs:
                raise ValidationError("custom_table abscissae must be sorted")
            if not all(np.isfinite(p[0]) and np.isfinite(p[1]) for p in self.table):
                raise ValidationError("custom_table entries must be finite")
        else:
            if not np.isfinite(self.amplitude):
                raise ValidationError("amplitude must be finite")
            if self.family != "zero" and (not np.isfinite(self.width) or self.width <= 0):
                raise ValidationError("width must be positive and finite")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate V pointwise (zero extension outside a custom table)."""
        x = np.asarray(x, dtype=float)
        if self.family == "zero":
            return np.zeros_like(x)
        if self.family == "gaussian":
            return self.amplitude * np.exp(-((x / self.width) ** 2))
        if self.family == "sech_squared":
            return self.amplitude / np.cosh(x / self.width) ** 2
        if self.family == "square_well":
            return np.where(np.abs(x) <= self.width, self.amplitude, 0.0)
        tx = np.array([p[0] for p in self.table])
        tv = np.array([p[1] for p in self.table])
        return np.interp(x, tx, tv, left=0.0, right=0.0)


@dataclass(frozen=True)
class PotentialGrid:
    """A potential sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n_points:
            raise ValidationError("values length does not match grid")
        self.values.setflags(write=False)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.values)

    def l1_norm(self) -> float:
        """h-weighted Simpson estimate of int |V| over the box."""
        return float(_simpson(np.abs(self.values), self.grid.h))


def _simpson(y: np.ndarray, dx: float) -> np.float64:
    """Composite Simpson of equally spaced samples y (at least 3) at step dx.

    Repeats the arithmetic of scipy.integrate.simpson(y, dx=dx) operation
    for operation, so the value is the same to the last bit without
    importing scipy.integrate.  An even point count integrates the last
    interval with Cartwright's correction.
    """
    n = len(y)
    stop = n - 2 if n % 2 else n - 3
    result = np.sum(y[0:stop:2] + 4.0 * y[1 : stop + 1 : 2] + y[2 : stop + 2 : 2])
    result *= dx / 3.0
    if n % 2 == 0:
        h0 = h1 = np.float64(dx)
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = (1 * h1**3) / (6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite Simpson weights of n_points (at least 2) samples at step h.

    An even point count leaves one trailing panel, which gets the
    trapezoid rule; two points get the trapezoid rule alone.
    """
    if n_points < 3:
        return np.array([h / 2.0, h / 2.0])
    odd_panel = n_points % 2 == 0
    w = np.ones(n_points - 1 if odd_panel else n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w = w * h / 3.0
    if odd_panel:
        w = np.append(w, h / 2.0)
        w[-2] += h / 2.0
    return w


def sample_potential(spec: PotentialSpec, grid: Grid) -> PotentialGrid:
    """Sample the family pointwise on the grid.

    For custom tables the table must cover the whole box; interpolation
    never silently zero-extends inside a sampling request.
    """
    if spec.family == "custom_table":
        lo, hi = spec.table[0][0], spec.table[-1][0]
        if lo > -grid.l_box or hi < grid.l_box:
            raise DomainError(
                f"custom table covers [{lo}, {hi}] but the grid needs "
                f"[-{grid.l_box}, {grid.l_box}]"
            )
    values = spec(grid.x)
    if not np.all(np.isfinite(values)):
        raise ValidationError("potential evaluated to a non-finite value")
    return PotentialGrid(grid=grid, values=values)

