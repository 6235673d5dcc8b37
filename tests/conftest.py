import contextlib
import math

import numpy as np
import pytest

from dispersion_lab import _parallel, spectral_operator
from dispersion_lab.estimates import fit_report
from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential
from dispersion_lab.spectral_operator import build_hamiltonian, real_basis_product

GAUSS31 = PotentialSpec("gaussian", amplitude=3.0, width=1.0)
SECH21 = PotentialSpec("sech_squared", amplitude=-2.0, width=1.0)
ZERO = PotentialSpec("zero")
# an asymmetric well with two bound states: no grid samples it to a
# palindrome, so its H is one dstevd without mirror rows, where every even
# family splits by reflection parity.  The table covers boxes up to 1000
LOPSIDED = PotentialSpec(
    "custom_table",
    table=((-1e3, 0.0), (-2.0, 0.0), (-1.0, -3.0), (0.5, -3.0), (1.5, -1.0), (3.0, 0.0), (1e3, 0.0)),
)

# E|Z|^(-1/2) = 2^(-1/4) Gamma(1/4) / sqrt(pi) for standard normal Z
HALF_INVERSE_MOMENT = 2**-0.25 * math.gamma(0.25) / math.sqrt(math.pi)


def half_inverse_moment_report(ens, times):
    """fit_report of the path mean of |beta(t)|^(-1/2) at the given sample times.

    Its estimand is HALF_INVERSE_MOMENT * t^(-1/4), so it checks the Monte
    Carlo layer of a decay fit without the propagator.
    """
    ksel = np.round(np.asarray(times) / ens.dt).astype(int)
    vals = np.mean(np.abs(ens.values[:, ksel]) ** -0.5, axis=0)
    return fit_report(times, vals)


# streamed finite-p norms against the norms of the whole states: the partial
# sums per row panel round differently from one sum over all rows.  The
# largest relative difference measured over the streamed-norm tests (n up
# to 1024) was 5.3e-15
WHOLE_STATE_RTOL = 1e-14


def panel_blocks(panels):
    """The row blocks of RowPanels written out: per panel of _ROW_PANEL
    half-vector rows, its product slice times phase, then, if it holds any
    of the first k rows, their mirror rows as a block of its own, negated
    for an odd basis and times phase."""
    basis, k, rows = panels.basis, panels.basis.mirror_rows, spectral_operator._ROW_PANEL
    for r in range(0, len(basis.half), rows):
        top = real_basis_product(basis.half[r : r + rows], panels.data)
        mirror = top[: len(range(k)[r : r + rows])]
        blocks = [top, mirror if basis.sign > 0 else -mirror] if len(mirror) else [top]
        for block in blocks:
            yield block if panels.phase is None else block * panels.phase


def panel_sum_norms(panels, p, grid):
    """lp_norms_columns of RowPanels written out: |u| of each of its
    panel_blocks, each mirror block from its own product slice, then per
    block the column maxima (p = inf) or the row sums of |u|^p, folded in
    block order; |u|^4 is (|u|^2)^2, as estimates.abs_power squares it."""
    acc = None
    for a in map(np.abs, panel_blocks(panels)):
        if p == math.inf:
            part = a.max(axis=0)
            acc = part if acc is None else np.maximum(acc, part)
        else:
            part = (np.square(np.square(a)) if p == 4 else a**p).sum(axis=0)
            acc = part if acc is None else acc + part
    return acc if p == math.inf else (grid.h * acc) ** (1.0 / p)


def column_signs(basis):
    """Per whole column of basis: +1 where it is even, -1 where it is odd,
    0 where it is neither, by exact comparison with its mirror image."""
    v = basis.unfold(basis.half)
    even, odd = (np.all(v == s * v[::-1], axis=0) for s in (1, -1))
    return np.where(even, 1, np.where(odd, -1, 0))


@pytest.fixture(scope="session")
def scatter_grid():
    # h = 0.01, x = 0 and integer probes are exact nodes
    return Grid(l_box=20.0, n_points=4001)


@pytest.fixture(scope="session")
def zero_pot(scatter_grid):
    return sample_potential(ZERO, scatter_grid)


@pytest.fixture(scope="session")
def gauss_pot(scatter_grid):
    return sample_potential(GAUSS31, scatter_grid)


@pytest.fixture(scope="session")
def sech_pot(scatter_grid):
    return sample_potential(SECH21, scatter_grid)


@pytest.fixture(scope="session")
def grid40_2048():
    return Grid(l_box=40.0, n_points=2048)


@pytest.fixture(scope="session")
def ham_free_2048(grid40_2048):
    return build_hamiltonian(sample_potential(ZERO, grid40_2048))


@pytest.fixture(scope="session")
def ham_gauss_2048(grid40_2048):
    return build_hamiltonian(sample_potential(GAUSS31, grid40_2048))


@pytest.fixture(scope="session")
def ham_free_4096():
    grid = Grid(l_box=40.0, n_points=4096)
    return build_hamiltonian(sample_potential(ZERO, grid))


@pytest.fixture(scope="session")
def ham_sech_4096():
    grid = Grid(l_box=20.0, n_points=4096)
    return build_hamiltonian(sample_potential(SECH21, grid))


@pytest.fixture(scope="session")
def ham_gauss_1024():
    grid = Grid(l_box=40.0, n_points=1024)
    return build_hamiltonian(sample_potential(GAUSS31, grid))


@pytest.fixture(scope="session")
def ham_lopsided_1024_l30():
    grid = Grid(l_box=30.0, n_points=1024)
    return build_hamiltonian(sample_potential(LOPSIDED, grid))


@pytest.fixture(scope="session")
def ham_free_1024_l30():
    grid = Grid(l_box=30.0, n_points=1024)
    return build_hamiltonian(sample_potential(ZERO, grid))


@pytest.fixture(scope="session")
def ham_sech_1024_l30():
    grid = Grid(l_box=30.0, n_points=1024)
    return build_hamiltonian(sample_potential(SECH21, grid))


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(key=[2718, 0]))


@pytest.fixture(scope="session")
def workers():
    """workers(n): a context in which the lab runs exactly n workers.

    It pretends numpy's BLAS started with n threads and that the process
    may run on n cores.  A context rather than a function-scoped patch, so
    hypothesis examples can enter it too.
    """

    @contextlib.contextmanager
    def at(n: int):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(_parallel.BLAS, "threads_found", n)
            mp.setattr(_parallel.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
            assert _parallel.worker_count() == n
            yield

    return at
