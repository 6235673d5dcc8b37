import math

import numpy as np
import pytest

from dispersion_lab.estimates import fit_report
from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential
from dispersion_lab.spectral_operator import build_hamiltonian, tridiagonal_resolvent_solve

GAUSS31 = PotentialSpec("gaussian", amplitude=3.0, width=1.0)
SECH21 = PotentialSpec("sech_squared", amplitude=-2.0, width=1.0)
ZERO = PotentialSpec("zero")

# E|Z|^(-1/2) = 2^(-1/4) Gamma(1/4) / sqrt(pi) for standard normal Z
HALF_INVERSE_MOMENT = 2**-0.25 * math.gamma(0.25) / math.sqrt(math.pi)


def half_inverse_moment_report(ens, times):
    """fit_report of the path mean of |beta(t)|^(-1/2) at the given sample times.

    Its estimand is HALF_INVERSE_MOMENT * t^(-1/4), so it checks the Monte
    Carlo layer of a decay fit without the propagator.
    """
    ksel = np.round(np.asarray(times) / ens.dt).astype(int)
    vals = np.mean(np.abs(ens.values[:, ksel]) ** -0.5, axis=0)
    return fit_report(times, vals, ens.n_paths, ens.seed)


def richardson_resolvent_column(grid, values, energy, eps, y):
    """Reference R(energy + i0)(., y): whole-grid solves against a grid delta at
    the node y for the shifts eps, eps/2 and eps/4, extrapolated in eps."""
    delta = np.zeros(grid.n_points, dtype=complex)
    delta[int(round((y + grid.l_box) / grid.h))] = 1.0 / grid.h
    c1, c2, c4 = (
        tridiagonal_resolvent_solve(grid, values, energy + 1j * eps / d, delta) for d in (1.0, 2.0, 4.0)
    )
    return (c1 - 6.0 * c2 + 8.0 * c4) / 3.0


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
