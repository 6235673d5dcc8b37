"""Numerical laboratory for 1-D Schrodinger evolution with potential and
white-noise dispersion: scattering data, spectral calculus, Brownian
ensembles and decay/mixed-norm experiments."""

__version__ = "0.1.0"

from .grid_model import Grid, PotentialGrid, PotentialSpec, sample_potential
from .scattering import (
    JostFunction,
    ScatteringData,
    detect_resonance,
    jost_solution,
    midpoint_wronskian,
    scattering_coefficients,
)
from .spectral_operator import (
    DiscreteHamiltonian,
    SpectralDensityEstimate,
    build_hamiltonian,
    stone_spectral_density,
)
from .stochastic import (
    BrownianEnsemble,
    euler_maruyama_ito,
    sample_brownian,
)
from .estimates import (
    EstimateReport,
    admissible_pair,
    fit_decay_exponent,
    lp_norm_x,
    mixed_norm,
    mu_homogeneous,
    mu_inhomogeneous,
)

__all__ = [
    "Grid",
    "PotentialGrid",
    "PotentialSpec",
    "sample_potential",
    "JostFunction",
    "ScatteringData",
    "detect_resonance",
    "jost_solution",
    "midpoint_wronskian",
    "scattering_coefficients",
    "DiscreteHamiltonian",
    "SpectralDensityEstimate",
    "build_hamiltonian",
    "stone_spectral_density",
    "BrownianEnsemble",
    "euler_maruyama_ito",
    "sample_brownian",
    "EstimateReport",
    "admissible_pair",
    "fit_decay_exponent",
    "lp_norm_x",
    "mixed_norm",
    "mu_homogeneous",
    "mu_inhomogeneous",
]
