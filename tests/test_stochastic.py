import numpy as np
import pytest

from dispersion_lab.errors import DomainError, StabilityWarning
from dispersion_lab.grid_model import Grid, PotentialGrid
from dispersion_lab.spectral_operator import DiscreteHamiltonian, propagate_batch
from dispersion_lab.stochastic import euler_maruyama_ito, path_rng, sample_brownian


class TestSampleBrownian:
    def test_starts_at_zero(self):
        ens = sample_brownian(2.0, 64, 10, seed=3)
        assert np.all(ens.values[:, 0] == 0.0)

    def test_terminal_variance(self):
        # n_steps = 1: beta(T) ~ N(0, T); 1e5 draws pin the variance
        T = 3.0
        ens = sample_brownian(T, 1, 100_000, seed=5)
        var = np.var(ens.values[:, -1])
        assert 0.97 * T < var < 1.03 * T

    def test_covariance_structure(self):
        # Cov(beta_s, beta_t) = min(s, t); 4 standard errors of slack
        T = 2.0
        ens = sample_brownian(T, 2, 100_000, seed=8)
        prod = ens.values[:, 1] * ens.values[:, 2]
        se = np.std(prod) / np.sqrt(ens.n_paths)
        assert abs(np.mean(prod) - T / 2.0) < 4.0 * se

    def test_bit_reproducible(self):
        a = sample_brownian(1.0, 128, 8, seed=42)
        b = sample_brownian(1.0, 128, 8, seed=42)
        assert np.array_equal(a.increments, b.increments)
        # per-path substreams do not depend on generation order
        lone = path_rng(42, 5).normal(0.0, np.sqrt(1.0 / 128), 128)
        assert np.array_equal(a.increments[5], lone)

    def test_first_increment_stable(self):
        a = sample_brownian(1.0, 16, 1, seed=42).increments[0, 0]
        b = sample_brownian(1.0, 16, 1, seed=42).increments[0, 0]
        assert a == b

    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            sample_brownian(0.0, 4, 4, 0)
        with pytest.raises(DomainError):
            sample_brownian(1.0, 0, 4, 0)


class TestTimeChangedPropagate:
    """u(t_k) = e^{-i beta(t_k) H} u0 along each path: one propagate_batch call.

    The path values flatten path-major, so path p owns columns p*k..(p+1)*k.
    """

    @staticmethod
    def path_states(H, ens, u0):
        states = propagate_batch(H, ens.values, u0)
        k = ens.n_steps + 1
        return [states[:, p * k : (p + 1) * k] for p in range(ens.n_paths)]

    def test_time_zero_state(self, ham_gauss_1024, rng):
        H = ham_gauss_1024
        u0 = rng.normal(size=H.n) + 1j * rng.normal(size=H.n)
        ens = sample_brownian(1.0, 8, 2, seed=1)
        for states in self.path_states(H, ens, u0):
            assert np.max(np.abs(states[:, 0] - u0)) < 1e-12

    def test_norm_constant_along_paths(self, ham_gauss_1024, rng):
        H = ham_gauss_1024
        u0 = rng.normal(size=H.n) + 1j * rng.normal(size=H.n)
        ens = sample_brownian(2.0, 32, 3, seed=7)
        for states in self.path_states(H, ens, u0):
            norms = np.linalg.norm(states, axis=0)
            assert np.max(np.abs(norms - norms[0])) < 1e-9 * norms[0]

    def test_single_mode_diagonal_action(self, ham_free_1024_l30):
        H = ham_free_1024_l30
        k = 17
        u0 = H.eigenvectors[:, k].astype(complex)
        ens = sample_brownian(1.5, 16, 2, seed=11)
        for p, states in enumerate(self.path_states(H, ens, u0)):
            expect = np.exp(-1j * H.eigenvalues[k] * ens.values[p])[None, :] * u0[:, None]
            assert np.max(np.abs(states - expect)) < 1e-10

    def test_projected_flag(self, ham_sech_4096, rng):
        # the projected flow keeps every path state off the bound state
        H = ham_sech_4096
        u0 = rng.normal(size=H.n).astype(complex)
        ens = sample_brownian(1.0, 4, 2, seed=2)
        states = propagate_batch(H, ens.values, u0, project=True)
        vb = H.eigenvectors[:, H.bound_state_indices]
        assert np.max(np.abs(vb.T @ states)) < 1e-10 * np.linalg.norm(u0)

    def test_composition_of_flows(self, ham_gauss_1024, rng):
        # S(t, s) S(s, r) = S(t, r): phases add along the path
        H = ham_gauss_1024
        u0 = rng.normal(size=H.n) + 1j * rng.normal(size=H.n)
        bt, bs, br = 0.9, -0.4, 0.2
        via = propagate_batch(H, [bt - bs], propagate_batch(H, [bs - br], u0)[:, 0])
        direct = propagate_batch(H, [bt - br], u0)
        assert np.linalg.norm(via - direct) / np.linalg.norm(direct) < 1e-10


def single_mode_hamiltonian(eigenvalue: float) -> DiscreteHamiltonian:
    """Hand-built 16-point operator: identity eigenbasis, one eigenvalue."""
    grid = Grid(l_box=1.0, n_points=16)
    lam = np.zeros(16)
    lam[0] = eigenvalue
    return DiscreteHamiltonian(
        grid=grid,
        potential=PotentialGrid(grid=grid, values=np.zeros(16)),
        diagonal=lam.copy(),
        off_diagonal=np.zeros(15),
        eigenvalues=lam,
        eigenvectors=np.eye(16),
        bound_state_indices=np.array([], dtype=int),
    )


class TestEulerMaruyama:
    def test_zero_eigenvalue_constant(self):
        H = single_mode_hamiltonian(0.0)
        u0 = np.zeros(16, complex)
        u0[0] = 1.0
        inc = path_rng(1, 0).normal(0.0, 0.1, 64)
        out = euler_maruyama_ito(H, inc, 1.0, u0, 64)
        assert np.array_equal(out, u0)

    def test_single_mode_strong_order(self):
        # oracle: the exact mode solution e^{-i lam beta(T)}; EM converges
        # with strong order ~ 1/2
        lam = 2.0
        H = single_mode_hamiltonian(lam)
        u0 = np.zeros(16, complex)
        u0[0] = 1.0
        T, n_fine, n_paths = 1.0, 512, 200
        levels = [2**k for k in range(4, 10)]
        errs = np.zeros(len(levels))
        for p in range(n_paths):
            inc = path_rng(33, p).normal(0.0, np.sqrt(T / n_fine), n_fine)
            exact = np.exp(-1j * lam * inc.sum())
            for li, nst in enumerate(levels):
                out = euler_maruyama_ito(H, inc, T, u0, nst)
                errs[li] += abs(out[0] - exact)
        errs /= n_paths
        dts = np.array([T / n for n in levels])
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.35 <= slope <= 0.65

    def test_full_hamiltonian_converges_to_time_change(self, ham_gauss_1024):
        # the time-changed propagator is the oracle for the Ito form
        H = ham_gauss_1024
        c = np.zeros(H.n, complex)
        sel = H.eigenvalues <= 2.0
        c[sel] = np.exp(-np.arange(sel.sum()))
        c /= np.linalg.norm(c)
        u0 = H.from_eigenbasis(c)
        inc = path_rng(7, 0).normal(0.0, np.sqrt(1.0 / 1024), 1024)
        exact = propagate_batch(H, [inc.sum()], u0)[:, 0]
        errs = []
        for nst in (16, 64, 256, 1024):
            em = euler_maruyama_ito(H, inc, 1.0, u0, nst)
            errs.append(np.linalg.norm(em - exact))
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.1 * np.linalg.norm(u0)

    def test_adapted_prefix(self):
        # u(t_k) depends only on increments before k
        lam = 1.0
        H = single_mode_hamiltonian(lam)
        u0 = np.zeros(16, complex)
        u0[0] = 1.0
        inc = path_rng(4, 0).normal(0.0, 0.05, 32)
        traj = euler_maruyama_ito(H, inc, 1.0, u0, 32, return_trajectory=True)
        tampered = inc.copy()
        tampered[20:] = 99.0
        traj2 = euler_maruyama_ito(H, tampered, 1.0, u0, 32, return_trajectory=True)
        assert np.array_equal(traj[:21], traj2[:21])
        assert not np.allclose(traj[21:], traj2[21:])

    def test_stability_warning(self, ham_gauss_1024):
        H = ham_gauss_1024
        u0 = np.ones(H.n, complex)  # occupies every mode
        inc = path_rng(5, 0).normal(0.0, np.sqrt(1.0 / 64), 64)
        with pytest.warns(StabilityWarning):
            euler_maruyama_ito(H, inc, 1.0, u0, 64)

    def test_steps_must_divide(self, ham_gauss_1024):
        inc = np.zeros(100)
        with pytest.raises(DomainError):
            euler_maruyama_ito(ham_gauss_1024, inc, 1.0, np.ones(1024, complex), 64)


def euler_maruyama_reference(H, increments, horizon, u0, n_steps):
    """The full-mode, one-path step loop the batched integrator replaced."""
    n_fine = len(increments)
    dbeta = increments.reshape(n_steps, n_fine // n_steps).sum(axis=1)
    dt = horizon / n_steps
    lam = H.eigenvalues
    c = H.eigenvectors.T @ np.asarray(u0, dtype=complex)
    amax = np.max(np.abs(c))
    active = np.abs(c) > 1e-12 * amax if amax > 0 else np.zeros_like(lam, bool)
    c = np.where(active, c, 0.0)
    drift = 1.0 - 0.5 * lam**2 * dt
    for k in range(n_steps):
        c = c * (drift - 1j * lam * dbeta[k])
    return H.eigenvectors @ c


class TestBatchedEulerMaruyama:
    @pytest.fixture(scope="class")
    def setup(self, ham_gauss_1024):
        H = ham_gauss_1024
        c = H.to_eigenbasis(np.exp(-(H.grid.x**2) / 4.0).astype(complex))
        c[H.eigenvalues > 2.5] = 0.0
        u0 = H.from_eigenbasis(c / np.linalg.norm(c))
        ens = sample_brownian(1.0, 256, 6, seed=9)
        return H, u0, ens

    @pytest.mark.parametrize("n_steps", [16, 64, 256])
    def test_matches_per_path_and_reference(self, setup, n_steps):
        H, u0, ens = setup
        batch = euler_maruyama_ito(H, ens.increments, 1.0, u0, n_steps)
        assert batch.shape == (H.n, ens.n_paths)
        for p in range(ens.n_paths):
            one = euler_maruyama_ito(H, ens.increments[p], 1.0, u0, n_steps)
            ref = euler_maruyama_reference(H, ens.increments[p], 1.0, u0, n_steps)
            scale = np.linalg.norm(ref)
            assert np.linalg.norm(batch[:, p] - one) <= 1e-13 * scale
            assert np.linalg.norm(batch[:, p] - ref) <= 1e-13 * scale

    def test_batched_trajectory(self, setup):
        H, u0, ens = setup
        traj = euler_maruyama_ito(H, ens.increments, 1.0, u0, 32, return_trajectory=True)
        assert traj.shape == (33, H.n, ens.n_paths)
        one = euler_maruyama_ito(H, ens.increments[2], 1.0, u0, 32, return_trajectory=True)
        assert np.max(np.abs(traj[:, :, 2] - one)) <= 1e-13 * np.linalg.norm(u0)
        final = euler_maruyama_ito(H, ens.increments, 1.0, u0, 32)
        assert np.array_equal(traj[-1], final)
