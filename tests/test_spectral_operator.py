import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_lab import spectral_operator
from dispersion_lab.errors import DomainError
from dispersion_lab.estimates import lp_norms_columns
from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential
from dispersion_lab.spectral_operator import (
    RowPanels,
    born_series_terms,
    build_hamiltonian,
    evolve,
    occupied_modes,
    propagate_batch,
    real_basis_product,
    richardson_resolvent_table,
    stone_spectral_density,
    tridiagonal_resolvent_solve,
)

from conftest import GAUSS31, SECH21, ZERO, richardson_resolvent_column


def dirichlet_eigenvalues(n, h):
    # closed form for the 3-point Laplacian with zero walls one step outside
    k = np.arange(1, n + 1)
    return (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2


class TestBuildHamiltonian:
    def test_free_spectrum_closed_form(self, ham_free_2048):
        h = ham_free_2048.grid.h
        exact = dirichlet_eigenvalues(ham_free_2048.n, h)
        rel = np.abs(ham_free_2048.eigenvalues - exact) / exact
        assert rel.max() < 1e-8

    def test_free_lowest_eigenvalue(self, ham_free_2048):
        L, h = ham_free_2048.grid.l_box, ham_free_2048.grid.h
        assert ham_free_2048.eigenvalues[0] == pytest.approx(
            (np.pi / (2 * L + 2 * h)) ** 2, rel=1e-6
        )

    def test_sech_single_bound_state(self, ham_sech_4096):
        w = ham_sech_4096.eigenvalues
        assert len(ham_sech_4096.bound_state_indices) == 1
        assert abs(w[0] + 1.0) < 1e-3

    def test_gaussian_no_bound_states(self, ham_gauss_2048):
        assert len(ham_gauss_2048.bound_state_indices) == 0

    def test_orthonormal_eigenvectors(self, ham_gauss_1024):
        v = ham_gauss_1024.eigenvectors
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    def test_eigen_reconstruction(self, ham_gauss_1024):
        H = ham_gauss_1024
        for k in (0, 100, 500, 1023):
            res = H.apply(H.eigenvectors[:, k]) - H.eigenvalues[k] * H.eigenvectors[:, k]
            assert np.linalg.norm(res) < 1e-8 * max(1.0, abs(H.eigenvalues[k]))

    def test_equals_scipy_eigh_tridiagonal(self, ham_gauss_1024):
        # the lab calls LAPACK dstevd directly; scipy.linalg is the reference
        from scipy.linalg import eigh_tridiagonal

        H = ham_gauss_1024
        w, v = eigh_tridiagonal(*spectral_operator._stencil(H.grid, H.potential.values))
        assert np.array_equal(H.eigenvalues, w)
        assert np.array_equal(H.eigenvectors, v)

    def test_overflowing_step_is_a_domain_error(self):
        # 2/h^2 overflows to inf at l_box 1e-160, on which dstevd would return
        # NaNs, and h^2 underflows to 0 at 1e-200; the resolvent solves build
        # the same stencil
        for l_box, words in ((1e-160, "overflows"), (1e-200, "underflows to 0")):
            V = sample_potential(ZERO, Grid(l_box=l_box, n_points=16))
            with pytest.raises(DomainError, match=words):
                build_hamiltonian(V)
            with pytest.raises(DomainError, match=words):
                tridiagonal_resolvent_solve(V.grid, V.values, 1j, np.ones(16))

    def test_missing_lapack_extension_names_its_directory(self, tmp_path, monkeypatch):
        fake = type("scipy", (), {"__file__": str(tmp_path / "__init__.py")})
        monkeypatch.setattr(spectral_operator, "scipy", fake)
        with pytest.raises(ImportError) as exc:
            spectral_operator._load_flapack()
        assert str(tmp_path / "linalg") in str(exc.value)

    def test_size_cap(self):
        grid = Grid(l_box=10.0, n_points=9000)
        V = sample_potential(ZERO, grid)
        with pytest.raises(DomainError, match="exceeds the dense eigensolver cap"):
            build_hamiltonian(V)


class TestProjectAc:
    """The bound-state projection that occupied_modes(project=True) applies."""

    def test_free_identity(self, ham_free_2048, rng):
        u = rng.normal(size=ham_free_2048.n) + 1j * rng.normal(size=ham_free_2048.n)
        projected = occupied_modes(ham_free_2048, u, project=True).coef
        assert np.array_equal(projected, occupied_modes(ham_free_2048, u).coef)

    def test_annihilates_bound_state(self, ham_sech_4096):
        vb = ham_sech_4096.eigenvectors[:, ham_sech_4096.bound_state_indices[0]]
        assert np.linalg.norm(evolve(occupied_modes(ham_sech_4096, vb, project=True), [0.0])) < 1e-8

    def test_leaves_orthogonal_part(self, ham_sech_4096):
        H = ham_sech_4096
        vb = H.eigenvectors[:, H.bound_state_indices[0]]
        w = H.eigenvectors[:, 100]
        out = evolve(occupied_modes(H, vb + w, project=True), [0.0])[:, 0]
        assert np.linalg.norm(out - w) < 1e-8


class TestPropagate:
    def test_zero_time_identity(self, ham_gauss_1024, rng):
        u = rng.normal(size=ham_gauss_1024.n) + 1j * rng.normal(size=ham_gauss_1024.n)
        assert np.max(np.abs(propagate_batch(ham_gauss_1024, [0.0], u)[:, 0] - u)) < 1e-12

    def test_unitary(self, ham_gauss_1024, rng):
        u = rng.normal(size=ham_gauss_1024.n) + 1j * rng.normal(size=ham_gauss_1024.n)
        for tau in (0.3, 2.0, -5.0):
            out = propagate_batch(ham_gauss_1024, [tau], u)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(u), rel=1e-10)

    def test_free_gaussian_width_law(self, ham_free_4096):
        # closed form: |u(x, tau)|^2 stays Gaussian with width^2 -> 1 + 4 tau^2
        H = ham_free_4096
        x = H.grid.x
        tau = 2.0
        u0 = np.exp(-(x**2) / 2.0).astype(complex)
        out = propagate_batch(H, [tau], u0)[:, 0]
        sigma2 = 1.0 + 4.0 * tau**2
        exact = (1.0 + 2j * tau) ** -0.5 * np.exp(-(x**2) / (2.0 * (1.0 + 4.0 * tau**2)))
        exact *= np.exp(1j * x**2 * tau / (1.0 + 4.0 * tau**2))
        err = np.linalg.norm(out - exact) / np.linalg.norm(exact)
        assert err < 1e-3
        # and the realized width follows the law
        w2 = np.sum(x**2 * np.abs(out) ** 2) / np.sum(np.abs(out) ** 2)
        assert w2 == pytest.approx(sigma2 / 2.0, rel=1e-3)

    def test_group_law(self, ham_gauss_1024, rng):
        u = rng.normal(size=ham_gauss_1024.n) + 1j * rng.normal(size=ham_gauss_1024.n)
        a = propagate_batch(ham_gauss_1024, [0.7], propagate_batch(ham_gauss_1024, [1.9], u)[:, 0])
        b = propagate_batch(ham_gauss_1024, [2.6], u)
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9

    def test_commutes_with_projection(self, ham_sech_4096, rng):
        H = ham_sech_4096
        u = rng.normal(size=H.n) + 1j * rng.normal(size=H.n)
        a = evolve(occupied_modes(H, u, project=True), [1.1])
        b = evolve(occupied_modes(H, propagate_batch(H, [1.1], u)[:, 0], project=True), [0.0])
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-9

    def test_batch_matches_scalar(self, ham_gauss_1024, rng):
        u = rng.normal(size=ham_gauss_1024.n) + 1j * rng.normal(size=ham_gauss_1024.n)
        taus = np.array([0.0, 0.5, -1.2])
        batch = propagate_batch(ham_gauss_1024, taus, u)
        for i, tau in enumerate(taus):
            assert np.allclose(batch[:, i], propagate_batch(ham_gauss_1024, [tau], u)[:, 0])


def smooth_datum(H, seed: int) -> np.ndarray:
    """A random complex packet, so the mode cut has a tail to drop."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    x = H.grid.x
    center = rng.uniform(-5.0, 5.0)
    width = rng.uniform(0.3, 2.0)
    return np.exp(-(((x - center) / width) ** 2) + 1j * rng.uniform(-3.0, 3.0) * x)


TAUS = st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=40)
KERNEL_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


class TestPropagationKernel:
    @KERNEL_SETTINGS
    @given(taus=TAUS, seed=st.integers(0, 2**16), mode_tol=st.sampled_from([0.0, 1e-12]))
    def test_unitary(self, ham_gauss_1024, taus, seed, mode_tol):
        H = ham_gauss_1024
        modes = occupied_modes(H, smooth_datum(H, seed), mode_tol=mode_tol)
        norms = np.linalg.norm(evolve(modes, taus), axis=0)
        assert np.allclose(norms, np.linalg.norm(modes.coef), rtol=1e-12, atol=0.0)

    @KERNEL_SETTINGS
    @given(a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0), seed=st.integers(0, 2**16))
    def test_flow_composition(self, ham_gauss_1024, a, b, seed):
        # S(a) S(b) = S(a + b)
        H = ham_gauss_1024
        u = smooth_datum(H, seed)
        via = propagate_batch(H, [a], propagate_batch(H, [b], u)[:, 0])
        direct = propagate_batch(H, [a + b], u)
        assert np.linalg.norm(via - direct) <= 1e-10 * np.linalg.norm(u)

    @KERNEL_SETTINGS
    @given(
        n=st.integers(1, 40),
        m=st.integers(0, 40),
        cols=st.one_of(st.none(), st.integers(0, 6)),
        fortran=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_real_gemm_matches_complex_product(self, n, m, cols, fortran, seed):
        rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
        basis = rng.normal(size=(n, m))
        shape = (m,) if cols is None else (m, cols)
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if fortran:
            basis, data = np.asfortranarray(basis), np.asfortranarray(data)
        got = real_basis_product(basis, data)
        want = basis.astype(complex) @ data
        assert got.shape == want.shape and got.dtype == np.complex128
        scale = np.linalg.norm(basis) * np.linalg.norm(data) + 1e-300
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale
        # real data takes the plain real product
        assert np.array_equal(real_basis_product(basis, data.real), basis @ data.real)

    @KERNEL_SETTINGS
    @given(
        n_taus=st.integers(1, 60),
        chunk=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_block_split_and_worker_count(self, ham_gauss_1024, workers, n_taus, chunk, seed):
        # for every block size the thread pool returns the serial bytes;
        # across block sizes only round-off differs, because a GEMM's column
        # results depend on how many columns it is given
        H = ham_gauss_1024
        rng = np.random.Generator(np.random.Philox(key=[seed, 3]))
        taus = rng.uniform(-4.0, 4.0, n_taus)
        modes = occupied_modes(H, smooth_datum(H, seed), mode_tol=1e-12)
        whole = evolve(modes, taus)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral_operator, "_TAU_CHUNK", chunk)
            runs = []
            for n in (1, 2):
                with workers(n):
                    runs.append(evolve(modes, taus))
        assert np.array_equal(runs[0], runs[1])
        assert np.max(np.abs(runs[0] - whole)) <= 1e-13 * np.linalg.norm(modes.coef)

    def test_projection_zeroes_bound_states(self, ham_sech_4096, rng):
        H = ham_sech_4096
        u = rng.normal(size=H.n).astype(complex)
        modes = occupied_modes(H, u, project=True)
        assert np.all(modes.coef[H.bound_state_indices] == 0.0)

    def test_empty_inputs(self, ham_gauss_1024):
        H = ham_gauss_1024
        assert propagate_batch(H, np.zeros(0), smooth_datum(H, 5)).shape == (H.n, 0)
        zero = occupied_modes(H, np.zeros(H.n), mode_tol=1e-12)
        assert len(zero.energies) == 0
        assert np.array_equal(evolve(zero, [0.5, 1.0]), np.zeros((H.n, 2)))


P_EXPONENTS = [1.0, 2.0, 4.0, math.inf]


def reduced(modes, taus, p, grid):
    return evolve(modes, taus, reduce=lambda states: lp_norms_columns(states, p, grid))


class TestStreamedReduction:
    """A reduced block hands its states over as RowPanels.

    For the block widths used here (1024 taus, one tau) OpenBLAS gives the
    panel GEMMs the rows of the whole product bit for bit, and the fold adds
    the rows in the order numpy's axis-0 sum does, so the streamed norms
    equal the norms of the whole states exactly.
    """

    @pytest.mark.parametrize("n", [200, 300, 1024])  # one panel, ragged last panel, exact
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_panels_equal_whole_states(self, n, order):
        grid = Grid(l_box=20.0, n_points=n)
        H = build_hamiltonian(sample_potential(GAUSS31, grid))
        rng = np.random.Generator(np.random.Philox(key=[n, 4]))
        taus = rng.uniform(-4.0, 4.0, 1024)
        layout = np.asfortranarray if order == "F" else np.ascontiguousarray
        modes = occupied_modes(H, smooth_datum(H, n))  # all n modes
        modes = replace(modes, basis=replace(modes.basis, even=layout(modes.basis.even)))
        whole = evolve(modes, taus)
        for p in P_EXPONENTS:
            want = lp_norms_columns(whole, p, grid)
            assert np.array_equal(reduced(modes, taus, p, grid), want)

    def test_single_column_comes_as_one_panel(self, ham_gauss_1024):
        # numpy sums a single column pairwise, so it is not split into panels
        H = ham_gauss_1024
        modes = occupied_modes(H, smooth_datum(H, 9))
        panels = RowPanels(modes.basis, modes.coef[:, None])
        assert panels.shape == (H.n, 1) and panels.ndim == 2
        assert len(list(panels)) == 1
        for p in P_EXPONENTS:
            want = lp_norms_columns(evolve(modes, [0.7]), p, H.grid)
            assert np.array_equal(reduced(modes, [0.7], p, H.grid), want)

    @pytest.mark.parametrize("p", P_EXPONENTS)
    def test_empty_taus_and_zero_modes(self, ham_gauss_1024, p):
        H = ham_gauss_1024
        modes = occupied_modes(H, smooth_datum(H, 10), mode_tol=1e-12)
        assert reduced(modes, [], p, H.grid).shape == (0,)
        zero = occupied_modes(H, np.zeros(H.n), mode_tol=1e-12)
        assert len(zero.energies) == 0
        assert np.array_equal(reduced(zero, np.linspace(0.1, 1.0, 300), p, H.grid), np.zeros(300))

    @KERNEL_SETTINGS
    @given(
        n_taus=st.integers(0, 60),
        chunk=st.integers(1, 16),
        panel=st.integers(1, 300),
        p=st.sampled_from(P_EXPONENTS),
        seed=st.integers(0, 2**16),
    )
    def test_worker_count(self, ham_gauss_1024, workers, n_taus, chunk, panel, p, seed):
        H = ham_gauss_1024
        rng = np.random.Generator(np.random.Philox(key=[seed, 5]))
        taus = rng.uniform(-4.0, 4.0, n_taus)
        modes = occupied_modes(H, smooth_datum(H, seed), mode_tol=1e-12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral_operator, "_TAU_CHUNK", chunk)
            mp.setattr(spectral_operator, "_ROW_PANEL", panel)
            runs = []
            for n in (1, 2):
                with workers(n):
                    runs.append(reduced(modes, taus, p, H.grid))
        assert np.array_equal(runs[0], runs[1])


# a palindrome on every grid below, with four bound states
WELL = PotentialSpec("square_well", amplitude=-4.0, width=2.5)


def split_and_dense(spec: PotentialSpec, n: int):
    """The H of spec on n points and the same H from one dstevd."""
    H = build_hamiltonian(sample_potential(spec, Grid(l_box=40.0, n_points=n)))
    w, v = spectral_operator._dstevd(*spectral_operator._stencil(H.grid, H.potential.values))
    dense = spectral_operator.DiscreteHamiltonian(
        potential=H.potential,
        eigenvalues=w,
        basis=spectral_operator.Eigenbasis(n, v, v[:, :0]),
    )
    return H, dense


def mixed_parity_data(n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[seed, 5]))
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# even; odd with a middle node; odd whose last 256-row panel is the middle
# node alone; even
@pytest.mark.parametrize("n", [160, 161, 513, 1024])
@pytest.mark.parametrize("spec", [ZERO, WELL], ids=["zero", "well"])
class TestParitySplit:
    """A palindromic potential is solved and applied one reflection parity at a time."""

    def test_eigenpairs_match_one_dstevd(self, spec, n):
        H, dense = split_and_dense(spec, n)
        assert H.basis.mirror_rows == n // 2 and dense.basis.mirror_rows == 0
        assert np.array_equal(H.bound_state_indices, dense.bound_state_indices)
        assert len(H.bound_state_indices) == (4 if spec is WELL else 0)
        lam_max = np.abs(dense.eigenvalues).max()
        assert np.all(np.diff(H.eigenvalues) >= 0)
        assert np.max(np.abs(H.eigenvalues - dense.eigenvalues)) <= 1e-13 * lam_max
        v = H.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
        res = np.stack([H.apply(v[:, j]) for j in range(n)], axis=1) - v * H.eigenvalues
        assert np.max(np.abs(res)) <= 1e-12 * lam_max

    def test_round_trip_and_coefficients(self, spec, n):
        H, _ = split_and_dense(spec, n)
        u = mixed_parity_data(n, 1)
        columns = np.stack([u, mixed_parity_data(n, 2)], axis=1)
        for data in (u, u.real, columns):
            c = H.to_eigenbasis(data)
            scale = 1e-12 * np.abs(data).max()
            assert np.max(np.abs(H.from_eigenbasis(c) - data)) <= scale
            # the folded product gives the coefficients in eigenvalue order
            assert np.max(np.abs(c - H.eigenvectors.T @ data)) <= scale
        # stone-density's datum: one eigenvector without the dense matrix
        for k in (0, n // 2, n - 1):
            assert np.array_equal(H.from_eigenbasis(np.eye(1, n, k)[0]), H.eigenvectors[:, k])

    @pytest.mark.parametrize("p", [None, 4.0, math.inf])
    def test_evolve_matches_single_block(self, spec, n, p):
        H, dense = split_and_dense(spec, n)
        taus = np.random.Generator(np.random.Philox(key=[n, 6])).uniform(-1.0, 1.0, 40)
        reduce = None if p is None else (lambda states: lp_norms_columns(states, p, H.grid))
        u = mixed_parity_data(n, 3)
        # mixed parity; and with mode_tol, a datum of one parity leaves the
        # other parity's half basis empty
        for datum, mode_tol in ((u, 0.0), (u + u[::-1], 1e-12), (u - u[::-1], 1e-12)):
            got = evolve(occupied_modes(H, datum, mode_tol=mode_tol), taus, reduce)
            want = evolve(occupied_modes(dense, datum, mode_tol=mode_tol), taus, reduce)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()
        split = occupied_modes(H, u + u[::-1], mode_tol=1e-12).basis
        assert split.odd.shape[1] == 0 and split.even.shape[1] == (n + 1) // 2

    def test_projection_matches_single_block(self, spec, n):
        # bound_state_indices count in eigenvalue order, the split basis's
        # columns in parity order
        H, dense = split_and_dense(spec, n)
        taus = np.random.Generator(np.random.Philox(key=[n, 8])).uniform(-1.0, 1.0, 40)
        u = mixed_parity_data(n, 4)
        got = evolve(occupied_modes(H, u, project=True), taus)
        want = evolve(occupied_modes(dense, u, project=True), taus)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()
        for p in (4.0, math.inf):
            got = reduced(occupied_modes(H, u, True, 1e-12), taus, p, H.grid)
            want = reduced(occupied_modes(dense, u, True, 1e-12), taus, p, H.grid)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()
        # the projection removes every bound state's weight
        if len(H.bound_state_indices):
            c = H.to_eigenbasis(evolve(occupied_modes(H, u, project=True), [0.0])[:, 0])
            assert np.max(np.abs(c[H.bound_state_indices])) <= 1e-12 * np.abs(u).max()

    def test_propagation_never_forms_the_dense_basis(self, spec, n):
        from dispersion_lab.stochastic import euler_maruyama_ito

        H, dense = split_and_dense(spec, n)
        u = H.from_eigenbasis(np.exp(-np.arange(n, dtype=float)))
        inc = np.random.Generator(np.random.Philox(key=[n, 7])).normal(0.0, 0.01, (3, 16))
        em = euler_maruyama_ito(H, inc, 1.0, u, 16)
        assert np.max(np.abs(em - euler_maruyama_ito(dense, inc, 1.0, u, 16))) <= 1e-12
        propagate_batch(H, [0.3, -0.2], u, mode_tol=1e-12)
        assert "eigenvectors" not in vars(H)


def cut_after_all_coefficients(H, u, project, mode_tol):
    """occupied_modes as one dense cut: every coefficient of a fully solved
    H, the bound states zeroed, then the mode cut, its columns copied."""
    c = H.to_eigenbasis(np.asarray(u, dtype=complex))
    if project:
        c[H.bound_state_indices] = 0.0
    c, energies = c[H.order], H.eigenvalues[H.order]
    a = np.abs(c)
    keep = a > mode_tol * a.max() if mode_tol > 0.0 else np.ones(len(c), dtype=bool)
    me = H.basis.even.shape[1]
    basis = spectral_operator.Eigenbasis(H.n, H.basis.even[:, keep[:me]], H.basis.odd[:, keep[me:]])
    return spectral_operator.OccupiedModes(basis, energies[keep], c[keep])


def assert_same_modes(got, want, taus, grid):
    assert np.array_equal(got.energies, want.energies)
    assert np.array_equal(got.coef, want.coef)
    assert np.array_equal(got.basis.even, want.basis.even)
    assert np.array_equal(got.basis.odd, want.basis.odd)
    for p in (2.0, 4.0, math.inf):
        assert np.array_equal(reduced(got, taus, p, grid), reduced(want, taus, p, grid))


@pytest.mark.parametrize("n", [160, 161, 513, 1024])
@pytest.mark.parametrize("spec", [ZERO, WELL], ids=["zero", "well"])
class TestOneParitySolve:
    """occupied_modes solves only the parity halves a datum occupies."""

    def test_same_modes_as_one_dense_cut(self, spec, n, monkeypatch):
        V = sample_potential(spec, Grid(l_box=40.0, n_points=n))
        eager = build_hamiltonian(V)
        assert eager.basis.odd.shape[1] == n // 2  # both halves solved
        solved = []
        dstevd = spectral_operator._dstevd
        monkeypatch.setattr(
            spectral_operator, "_dstevd", lambda d, e: solved.append(len(d)) or dstevd(d, e)
        )
        u = smooth_datum(eager, n)
        taus = np.random.Generator(np.random.Philox(key=[n, 15])).uniform(-1.0, 1.0, 64)
        for name, datum in (("even", u + u[::-1]), ("odd", u - u[::-1]), ("mixed", u)):
            for mode_tol in (0.0, 1e-12, 1e-6):
                for project in (False, True):
                    solved.clear()
                    H = build_hamiltonian(V)
                    got = occupied_modes(H, datum, project, mode_tol)
                    want = cut_after_all_coefficients(eager, datum, project, mode_tol)
                    assert_same_modes(got, want, taus, H.grid)
                    assert H.eigensolves == solved
                    if name == "mixed" or mode_tol == 0.0:
                        assert sorted(solved) == sorted([n - n // 2, n // 2])
                    else:
                        assert solved == [n - n // 2 if name == "even" else n // 2]

    def test_second_parity_next_to_the_cut(self, spec, n):
        # three even modes and one odd mode at 1.5 or 0.4 times the cut: at
        # 1.5 the odd mode is kept, so its half must be solved, though half
        # its norm is below the cut; at 0.4 twice its norm is below the cut
        eager = build_hamiltonian(sample_potential(spec, Grid(l_box=40.0, n_points=n)))
        even, odd = eager.half(0)[1], eager.half(1)[1]
        taus = np.linspace(-1.0, 1.0, 50)
        for scale, kept_odd in ((1.5, 1), (0.4, 0)):
            c = np.zeros(n)
            c[:3] = [1.0, 0.5, 0.25]
            c[even.shape[1] + 2] = scale * 1e-6
            u = spectral_operator.Eigenbasis(n, even, odd).full_product(c)
            H = build_hamiltonian(eager.potential)
            got = occupied_modes(H, u, mode_tol=1e-6)
            assert_same_modes(got, cut_after_all_coefficients(eager, u, False, 1e-6), taus, H.grid)
            assert got.basis.odd.shape[1] == kept_odd
            assert len(H.eigensolves) == 1 + kept_odd

    def test_kept_run_is_a_view_and_a_hole_copies(self, spec, n):
        H = build_hamiltonian(sample_potential(spec, Grid(l_box=40.0, n_points=n)))
        eager = build_hamiltonian(H.potential)
        taus = np.linspace(-1.0, 1.0, 50)
        even = H.half(0)[1]
        no_odd = spectral_operator.Eigenbasis(n, even, even[:, :0])
        for modes, run in (([0, 1, 2, 3], True), ([0, 1, 3], False), ([5, 6, 7], True)):
            c = np.zeros(even.shape[1])
            c[modes] = [1.0, 0.5, 0.25, 0.125][: len(modes)]
            u = no_odd.full_product(c)
            got = occupied_modes(H, u, mode_tol=1e-6)
            assert got.basis.even.shape == (len(even), len(modes)) and got.basis.odd.shape[1] == 0
            assert np.shares_memory(got.basis.even, even) is run
            assert_same_modes(got, cut_after_all_coefficients(eager, u, False, 1e-6), taus, H.grid)
        assert H.eigensolves == [len(even)]


# even; odd whose last 256-row panel is the middle node alone; even
@pytest.mark.parametrize("n", [512, 513, 1024])
@pytest.mark.parametrize("parity", [1.0, -1.0], ids=["even", "odd"])
class TestOneParityMirrorReuse:
    """With one parity occupied, a mirror block's |u|^p is a view of its top rows'."""

    def panels(self, n, parity):
        H = build_hamiltonian(sample_potential(ZERO, Grid(l_box=20.0, n_points=n)))
        u = mixed_parity_data(n, 12)
        modes = occupied_modes(H, u + parity * u[::-1], mode_tol=1e-12)
        occupied = modes.basis.even if parity > 0 else modes.basis.odd
        assert occupied.shape[1] == len(modes.energies) > 0
        taus = np.random.Generator(np.random.Philox(key=[n, 13])).uniform(-1.0, 1.0, 300)
        z = np.exp(-1j * np.outer(modes.energies, taus)) * modes.coef[:, None]
        return H, RowPanels(modes.basis, z)

    def test_reuse_equals_the_whole_states(self, n, parity):
        # the whole states are the product's blocks stacked in fold order,
        # each mirror block from its own GEMM slice (negated when odd)
        H, panels = self.panels(n, parity)
        blocks = list(panels)
        if n == 513:
            assert [len(b) for b in blocks] == [256, 256, 1]
        whole = np.vstack(blocks)
        assert whole.shape == panels.shape
        for p in P_EXPONENTS:
            want = lp_norms_columns(whole, p, H.grid)
            assert np.array_equal(lp_norms_columns(panels, p, H.grid), want)

    def test_g_runs_once_per_top_block(self, n, parity):
        _, panels = self.panels(n, parity)
        rows = []

        def g(a):
            rows.append(len(a))
            return a**4.0

        blocks = list(panels.abs_blocks(g))
        half = len(panels.basis.even)
        assert len(rows) == math.ceil(half / spectral_operator._ROW_PANEL)
        assert sum(rows) == half and len(blocks) == len(list(panels))


def test_gaussian_potential_keeps_one_dense_eigensolve(ham_gauss_1024):
    # 2/h^2 + V rounds this sample's asymmetry away, but V itself is not a
    # palindrome, so H stays one dstevd (pinned against scipy above)
    H = ham_gauss_1024
    diag, _ = spectral_operator._stencil(H.grid, H.potential.values)
    assert np.array_equal(diag, diag[::-1])
    assert H.basis.mirror_rows == 0 and H.eigenvectors is H.basis.even


def test_basis_without_mirror_rows_keeps_the_dense_bytes(ham_gauss_1024):
    # k = 0: every transform and the tau block are the plain products with
    # the dstevd matrix, bit for bit
    H = ham_gauss_1024
    v = H.eigenvectors
    u = smooth_datum(H, 11)
    columns = np.stack([smooth_datum(H, k) for k in range(3)], axis=1)
    for data in (u, columns):
        c = H.to_eigenbasis(data)
        assert np.array_equal(c, real_basis_product(v.T, data))
        assert np.array_equal(H.from_eigenbasis(c), real_basis_product(v, c))
    taus = np.random.Generator(np.random.Philox(key=[1024, 9])).uniform(-4.0, 4.0, 1024)
    c = real_basis_product(v.T, u)
    keep = np.abs(c) > 1e-12 * np.abs(c).max()
    z = -1j * np.outer(H.eigenvalues[keep], taus)
    np.exp(z, out=z)
    z *= c[keep][:, None]
    got = propagate_batch(H, taus, u, mode_tol=1e-12)
    assert np.array_equal(got, real_basis_product(v[:, keep], z))


@pytest.mark.parametrize("spec", [GAUSS31, ZERO], ids=["gaussian", "zero"])
def test_mode_cut_needs_one_datum_vector(spec):
    # on both forms of the basis: one dstevd, and two parity halves; with or
    # without a cut, columns are no datum
    H = build_hamiltonian(sample_potential(spec, Grid(l_box=20.0, n_points=200)))
    assert H.basis.mirror_rows == (100 if spec is ZERO else 0)
    U = np.stack([smooth_datum(H, 1), smooth_datum(H, 2)], axis=1)
    for mode_tol in (1e-12, 0.0):
        with pytest.raises(DomainError, match="one datum vector"):
            occupied_modes(H, U, mode_tol=mode_tol)
        with pytest.raises(DomainError, match="one datum vector"):
            propagate_batch(H, [0.1, 0.2], U, mode_tol=mode_tol)


@pytest.fixture(scope="module")
def born_setup():
    grid = Grid(l_box=15.0, n_points=4097)
    V = sample_potential(GAUSS31, grid)
    lam0 = V.l1_norm() ** 2
    f = np.exp(-(grid.x**2)).astype(complex)
    return grid, V, lam0, f


class TestBornSeries:
    def test_zero_potential_single_term(self, born_setup):
        grid, _, _, f = born_setup
        V0 = sample_potential(ZERO, grid)
        total = np.sum(born_series_terms(V0, 5.0, f, n_max=5), axis=0)
        only = born_series_terms(V0, 5.0, f, n_max=0)[0]
        assert np.allclose(total, only)

    def test_term_ratios_bounded(self, born_setup):
        _, V, lam0, f = born_setup
        energy = 4.0 * lam0
        terms = born_series_terms(V, energy, f, n_max=8)
        sups = [np.max(np.abs(t)) for t in terms]
        bound = V.l1_norm() / (2.0 * np.sqrt(energy))
        assert bound == pytest.approx(0.25, rel=1e-6)
        ratios = [sups[i + 1] / sups[i] for i in range(len(sups) - 1)]
        assert max(ratios) <= 1.1 * bound

    def test_matches_dense_resolvent(self, born_setup):
        grid, V, lam0, f = born_setup
        energy = 4.0 * lam0
        born = np.sum(born_series_terms(V, energy, f, n_max=20), axis=0)
        l_or, h_or = 1000.0, 0.0032
        grid_or = Grid(l_box=l_or, n_points=int(round(2 * l_or / h_or)) + 1)
        rhs = GAUSS31.__call__  # noqa: F841 - clarity only
        f_or = np.exp(-(grid_or.x**2)).astype(complex)
        vals_or = GAUSS31(grid_or.x)
        k = np.sqrt(energy)
        eps = 2.0 * k * 11.5 / (2.0 * (l_or - 8.0)) * 4.0
        sols = []
        for e in (eps, eps / 2.0, eps / 4.0):
            from dispersion_lab.spectral_operator import tridiagonal_resolvent_solve

            sols.append(tridiagonal_resolvent_solve(grid_or, vals_or, energy + 1j * e, f_or))
        oracle = (sols[0] - 6.0 * sols[1] + 8.0 * sols[2]) / 3.0
        mask = np.abs(grid.x) <= 3.0
        xs = grid.x[mask]
        oi = np.interp(xs, grid_or.x, oracle.real) + 1j * np.interp(xs, grid_or.x, oracle.imag)
        rel = np.max(np.abs(born[mask] - oi)) / np.max(np.abs(oi))
        assert rel < 1e-2

    def test_below_threshold_rejected(self, born_setup):
        _, V, lam0, f = born_setup
        with pytest.raises(DomainError, match="is not above the series threshold"):
            born_series_terms(V, 0.5 * lam0, f, n_max=3)


class TestStoneDensity:
    def test_eigenvector_point_mass(self, ham_gauss_1024):
        H = ham_gauss_1024
        k = 12
        w = H.eigenvalues
        spacing = min(w[k] - w[k - 1], w[k + 1] - w[k])
        eps = spacing / 10.0
        margin = 80.0 * eps
        est = stone_spectral_density(H, w[k] - margin, w[k] + margin, eps, f=H.eigenvectors[:, k])
        assert est.integral() == pytest.approx(1.0, abs=1e-2)
        assert est.density.min() > -1e-10

    def test_boundary_point_half_mass(self, ham_gauss_1024):
        H = ham_gauss_1024
        k = 12
        w = H.eigenvalues
        spacing = min(w[k] - w[k - 1], w[k + 1] - w[k])
        eps = spacing / 10.0
        margin = 80.0 * eps
        est = stone_spectral_density(H, w[k], w[k] + margin, eps, f=H.eigenvectors[:, k])
        assert est.integral() == pytest.approx(0.5, abs=2e-2)

    def test_random_vector_total_mass(self, ham_gauss_1024, rng):
        H = ham_gauss_1024
        f = rng.normal(size=H.n)
        f /= np.linalg.norm(f)
        w = H.eigenvalues
        span = w[-1] - w[0]
        eps = 1e-3 * span
        a, b = w[0] - 300 * eps, w[-1] + 300 * eps
        est = stone_spectral_density(H, a, b, eps, f=f)
        assert est.integral() == pytest.approx(1.0, abs=1e-2)

    def test_additive_over_subintervals(self, ham_gauss_1024):
        H = ham_gauss_1024
        k = 20
        w = H.eigenvalues
        eps = (w[k + 1] - w[k]) / 10.0
        a, c, b = w[k] - 60 * eps, w[k] + 10 * eps, w[k] + 60 * eps
        f = H.eigenvectors[:, k]
        m_full = stone_spectral_density(H, a, b, eps, f=f).integral()
        m1 = stone_spectral_density(H, a, c, eps, f=f).integral()
        m2 = stone_spectral_density(H, c, b, eps, f=f).integral()
        assert m1 + m2 == pytest.approx(m_full, abs=1e-3)

    def test_matches_lorentzian_histogram(self, ham_gauss_1024, rng):
        # dual route: banded solves vs eigenvalue histogram smoothing
        H = ham_gauss_1024
        f = rng.normal(size=H.n)
        f /= np.linalg.norm(f)
        w = H.eigenvalues
        a, b = w[0], w[40]
        eps = (b - a) / 50.0
        est = stone_spectral_density(H, a, b, eps, f=f)
        coef2 = (H.eigenvectors.T @ f) ** 2
        hist = np.zeros_like(est.lambda_grid)
        for lam_k, c2 in zip(w, coef2):
            hist += c2 * eps / np.pi / ((est.lambda_grid - lam_k) ** 2 + eps**2)
        rel_l1 = np.trapezoid(np.abs(est.density - hist), est.lambda_grid) / np.trapezoid(
            np.abs(hist), est.lambda_grid
        )
        assert rel_l1 < 0.05

    def test_interval_order_enforced(self, ham_gauss_1024):
        f = ham_gauss_1024.eigenvectors[:, 12]
        with pytest.raises(DomainError):
            stone_spectral_density(ham_gauss_1024, 2.0, 1.0, 0.1, f=f)

    @pytest.mark.parametrize("width", [0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0, 1000.0])
    def test_lambda_grid_follows_epsilon(self, width):
        # at least both ends, and a step of about eps / 4 that never exceeds eps / 2
        H = build_hamiltonian(sample_potential(ZERO, Grid(l_box=4.0, n_points=16)))
        eps, a = 0.1, 3.0
        est = stone_spectral_density(H, a, a + width * eps, eps, f=np.ones(16))
        lams, step = est.lambda_grid, np.diff(est.lambda_grid)
        assert len(lams) >= 2 and lams[0] == a and lams[-1] == a + width * eps
        assert min(width * eps, eps / 4) * (1 - 1e-9) <= step.min()
        assert step.max() <= eps / 2 * (1 + 1e-12)

    def test_uncountable_lambda_grid_rejected(self, ham_gauss_1024):
        f = ham_gauss_1024.eigenvectors[:, 12]
        with pytest.raises(DomainError, match="than a float can count"):
            stone_spectral_density(ham_gauss_1024, 0.0, 1e300, 1e-10, f=f)


def free_resolvent_kernel(energy: float, x: float, y: float) -> complex:
    """Closed-form free-line kernel (-d2/dx2 - energy - i0)^{-1}(x, y)."""
    k = np.sqrt(energy)
    return 1j / (2.0 * k) * np.exp(1j * abs(x - y) * k)


class TestDenseResolventHelpers:
    def test_column_is_kernel_row(self):
        # free case: R(z)(x, y) from the solver matches the closed form;
        # eps/4 must still damp the walls, hence eps ~ 4 * 11.5 k / (2 L)
        grid = Grid(l_box=1000.0, n_points=250001)
        vals = np.zeros(grid.n_points)
        energy, eps = 1.0, 0.046
        col = richardson_resolvent_column(grid, vals, energy, eps, 0.0)
        ix = int(round((1.0 + grid.l_box) / grid.h))
        assert col[ix] == pytest.approx(free_resolvent_kernel(1.0, 1.0, 0.0), rel=5e-3)


class TestFreeResolventApply:
    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        from dispersion_lab.spectral_operator import _next_fast_len

        targets = range(1, 20001)
        assert [_next_fast_len(t) for t in targets] == [next_fast_len(t, real=False) for t in targets]

    @pytest.mark.parametrize(
        "grid", [Grid(l_box=15.0, n_points=4097), Grid(l_box=5.0, n_points=63), Grid(l_box=5.0, n_points=64)]
    )
    def test_equals_fftconvolve_exactly(self, grid):
        from scipy.signal import fftconvolve

        from dispersion_lab.spectral_operator import _FreeResolventApply

        rng = np.random.default_rng(grid.n_points)
        f = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
        n = grid.n_points
        k = np.sqrt(37.0)
        r0 = _FreeResolventApply(grid, 37.0)
        offsets = grid.h * np.arange(-(n - 1), n)
        kernel = 1j / (2.0 * k) * np.exp(1j * k * np.abs(offsets))
        expected = fftconvolve(r0.weights * f, kernel)[n - 1 : 2 * n - 1]
        assert np.array_equal(r0(f), expected)

    def test_born_check_terms_equal_fftconvolve_series(self):
        from scipy.signal import fftconvolve

        from dispersion_lab.spectral_operator import _FreeResolventApply

        V = sample_potential(GAUSS31, Grid(l_box=15.0, n_points=4097))
        energy = 4.0 * V.l1_norm() ** 2
        f = np.exp(-V.grid.x**2).astype(complex)
        r0 = _FreeResolventApply(V.grid, energy)
        n, k = V.grid.n_points, np.sqrt(energy)
        kernel = 1j / (2.0 * k) * np.exp(1j * k * np.abs(V.grid.h * np.arange(-(n - 1), n)))
        expected = [fftconvolve(r0.weights * f, kernel)[n - 1 : 2 * n - 1]]
        for _ in range(20):
            expected.append(fftconvolve(r0.weights * (-V.values * expected[-1]), kernel)[n - 1 : 2 * n - 1])
        got = born_series_terms(V, energy, f, 20)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


class TestFactorOnceSolves:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(16, 400),
        re_z=st.floats(-50.0, 50.0),
        im_z=st.floats(1e-4, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_solve_banded(self, n, re_z, im_z, seed):
        from scipy.linalg import solve_banded

        rng = np.random.default_rng(seed)
        grid = Grid(l_box=10.0, n_points=n)
        vals = rng.normal(size=n) * 5.0
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
        z = complex(re_z, im_z)
        h = grid.h
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = -1.0 / h**2
        ab[1] = 2.0 / h**2 + vals - z
        ab[2, :-1] = -1.0 / h**2
        expected = solve_banded((1, 1), ab, rhs)
        rhs_before = rhs.copy()
        got = tridiagonal_resolvent_solve(grid, vals, z, rhs)
        assert np.array_equal(got, expected)
        assert np.array_equal(rhs, rhs_before)  # solved in a copy, not in place

    def test_equals_scipy_lapack_gttrf_gttrs(self, ham_gauss_1024):
        from scipy.linalg.lapack import zgttrf, zgttrs

        grid, vals = ham_gauss_1024.grid, ham_gauss_1024.potential.values
        z = complex(1.5, 0.05)
        rhs = np.random.default_rng(7).normal(size=(grid.n_points, 2)) @ [1.0, 1j]
        off = np.full(grid.n_points - 1, -1.0 / grid.h**2, dtype=complex)
        *factors, info = zgttrf(off, 2.0 / grid.h**2 + vals - z, off)
        assert info == 0
        expected, info = zgttrs(*factors, rhs)
        assert info == 0
        assert np.array_equal(tridiagonal_resolvent_solve(grid, vals, z, rhs), expected)

    def test_probe_table_matches_columns(self):
        grid = Grid(l_box=50.0, n_points=5001)
        vals = sample_potential(GAUSS31, grid).values
        probes = np.linspace(-2.0, 2.0, 5)
        xs = np.append(probes, [0.123, -1.77])  # off-node rows interpolate
        tab = richardson_resolvent_table(grid, vals, 1.0, 0.05, xs, probes)
        assert tab.shape == (len(xs), len(probes))
        for j, y in enumerate(probes):
            col = richardson_resolvent_column(grid, vals, 1.0, 0.05, float(y))
            iy = np.round((probes + grid.l_box) / grid.h).astype(int)
            assert np.max(np.abs(tab[:5, j] - col[iy]) / np.abs(col[iy])) <= 1e-14
            interp = np.interp(xs, grid.x, col.real) + 1j * np.interp(xs, grid.x, col.imag)
            assert np.array_equal(tab[:, j], interp)

    def test_sliced_solves_equal_full_columns(self):
        # y on nodes 0 and 1 clamps the trailing block to the whole system;
        # x rows below y set its first row elsewhere
        from dispersion_lab.spectral_operator import (
            _delta,
            _richardson,
            _shifted_factor,
            _shifted_solve,
        )

        grid = Grid(l_box=10.0, n_points=201)
        vals = np.random.default_rng(3).normal(size=grid.n_points)
        ys = grid.x[[0, 1, 2, 60, 100, 140, 200]]
        for xs in (grid.x[[0, 5, 100, 199]], grid.x[[1, 99, 101]], grid.x[[120, 130]]):
            tab = richardson_resolvent_table(grid, vals, 1.0, 0.05, xs, ys)
            ix = np.round((xs + grid.l_box) / grid.h).astype(int)
            for j, y in enumerate(ys):
                iy = int(round((y + grid.l_box) / grid.h))
                cols = []
                for d in (1.0, 2.0, 4.0):
                    factors = _shifted_factor(grid, vals, 1.0 + 0.05j / d)
                    rhs = _delta(grid, iy, np.empty(grid.n_points, dtype=complex))
                    cols.append(_shifted_solve(factors, rhs))
                col = _richardson(cols)
                assert np.array_equal(tab[:, j], col[ix])

    def test_probe_table_rejects_off_grid_y(self):
        grid = Grid(l_box=10.0, n_points=101)
        with pytest.raises(DomainError):
            richardson_resolvent_table(grid, np.zeros(101), 1.0, 0.1, [0.0], [0.05])
