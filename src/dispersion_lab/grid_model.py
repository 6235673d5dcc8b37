"""Spatial grid, potential families, the grid L1 norm of a sampled potential
and the composite Simpson weights of ||V||_1 and the time quadratures.

Every family lies in each weighted class ``int |V(x)| (1+|x|)^j dx < infty``
by construction: a Gaussian, sech^2 and a square well decay fast, and a
custom table is extended by zero, so truncating the line to a finite box
converges.  ``PotentialGrid.born_threshold()`` gives the high-energy
threshold ||V||_1^2 of the Born series.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError, fits_in_memory

FAMILIES = ("zero", "gaussian", "sech_squared", "square_well", "custom_table")
L_BOX_MAX = sys.float_info.max / 2  # the largest l_box whose box length 2 l_box is finite


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n_points on [-l_box, l_box], mirror-exact about 0.

    x[i] == -x[n-1-i] bit for bit, x[0] == -l_box, x[-1] == l_box, and the
    middle node of an odd n is exactly 0.0, so an even potential family
    samples to a palindrome and its H splits by reflection parity
    (build_hamiltonian).  The nodes are the linspace's, mirrored: each is
    within two ulps of l_box (at most 2 l_box eps) of
    np.linspace(-l_box, l_box, n_points).
    """

    l_box: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.l_box <= L_BOX_MAX:
            raise ValidationError(f"l_box must lie in (0, {L_BOX_MAX}], got {self.l_box}")
        if self.n_points < 16:
            raise ValidationError(f"n_points must be >= 16, got {self.n_points}")

    @property
    def h(self) -> float:
        return 2.0 * self.l_box / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """The nodes; a SizeError where n_points of them do not fit in memory."""
        with fits_in_memory(f"the {self.n_points} grid nodes"):
            x = np.linspace(-self.l_box, self.l_box, self.n_points)
            # a - b == -(b - a) in IEEE arithmetic, and halving is exact
            return 0.5 * (x - x[::-1])


@dataclass(frozen=True)
class PotentialSpec:
    """Analytic potential family; each ValidationError leads with the field at fault.

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
            raise ValidationError(f"family: unknown potential family {self.family!r}")
        if self.family == "custom_table":
            if not self.table:
                raise ValidationError("table: custom_table requires a non-empty table")
            xs = [p[0] for p in self.table]
            if sorted(xs) != xs:
                raise ValidationError("table: custom_table abscissae must be sorted")
            if not all(np.isfinite(p[0]) and np.isfinite(p[1]) for p in self.table):
                raise ValidationError("table: custom_table entries must be finite")
        else:
            if not np.isfinite(self.amplitude):
                raise ValidationError("amplitude: must be finite")
            if self.family != "zero" and (not np.isfinite(self.width) or self.width <= 0):
                raise ValidationError("width: must be positive and finite")

    @property
    def vanishes(self) -> bool:
        """Whether V is 0 everywhere, on every grid."""
        if self.family == "custom_table":
            return not any(v for _, v in self.table)
        return self.family == "zero" or self.amplitude == 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate V pointwise (zero extension outside a custom table)."""
        x = np.asarray(x, dtype=float)
        if self.family == "zero":
            return np.zeros_like(x)
        if self.family == "gaussian":
            return self.amplitude * gaussian_profile(x, self.width)
        if self.family == "sech_squared":  # cosh^2 overflows past |x|/w ~ 355, to V = 0 exactly
            with np.errstate(over="ignore"):
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
        """Composite Simpson estimate of int |V| over the box: simpson_weights
        applied with a numpy sum, so no BLAS kernel enters the value."""
        w = simpson_weights(self.grid.n_points, self.grid.h)
        return float(np.sum(w * np.abs(self.values)))

    def born_threshold(self) -> float:
        """||V||_1^2, the energy above which the Born series converges; a
        DomainError where it overflows."""
        with np.errstate(over="ignore"):
            l1 = self.l1_norm()
        try:
            threshold = l1**2
        except OverflowError:  # a float power raises where numpy would give inf
            threshold = math.inf
        if threshold == math.inf:
            raise DomainError(f"the Born series threshold ||V||_1^2 overflows (||V||_1 = {l1:.3g})")
        return threshold


def gaussian_profile(x: np.ndarray, width: float) -> np.ndarray:
    """exp(-(x/w)^2): where (x/w)^2 overflows, past |x|/w ~ 1e154, exactly 0."""
    with np.errstate(over="ignore"):
        return np.exp(-((x / width) ** 2))


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


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of an integer array, or of floats without NaN: its distinct
    values in ascending order.

    np.unique imports numpy.ma on first use, 12-18 ms per process; a sort
    and a neighbour-difference mask give the same array.
    """
    s = np.sort(np.ravel(a))
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


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

