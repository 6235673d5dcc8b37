import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_lab import spectral_operator
from dispersion_lab.errors import DomainError
from dispersion_lab.estimates import lp_norms_columns
from dispersion_lab.grid_model import Grid, PotentialGrid, PotentialSpec, sample_potential
from dispersion_lab.spectral_operator import (
    ChebyshevWindows,
    Eigenbasis,
    RowPanels,
    born_series_terms,
    build_hamiltonian,
    chebyshev_coefficients,
    chebyshev_degree,
    chebyshev_table,
    eigenpair_with_neighbours,
    evolve,
    occupied_modes,
    propagate_batch,
    outgoing_closure,
    outgoing_resolvent_table,
    real_basis_product,
    stone_spectral_density,
    tridiagonal_resolvent_solve,
)

from conftest import (
    GAUSS31,
    LOPSIDED,
    SECH21,
    WHOLE_STATE_RTOL,
    ZERO,
    column_signs,
    panel_blocks,
    panel_sum_norms,
)


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

    def test_equals_scipy_eigh_tridiagonal(self, ham_lopsided_1024_l30):
        # the lab calls LAPACK dstevd directly; scipy.linalg is the reference.
        # An asymmetric well keeps the one dstevd that scipy's driver runs
        from scipy.linalg import eigh_tridiagonal

        H = ham_lopsided_1024_l30
        w, v = eigh_tridiagonal(*spectral_operator._stencil(H.grid, H.potential.values))
        assert np.array_equal(H.eigenvalues, w)
        assert np.array_equal(H.eigenvectors, v)

    # Tolerances from measurement: over gaussian(3, 1) on n = 512, 513, 1023,
    # 1024 and 2048 and sech^2(-2, 1) on 1024 nodes, the eigenvalues differed
    # from scipy's by at most 2.7e-15 of the largest, and the propagated sup
    # norms (an odd, an even and a mixed packet, projected or not, 300 taus
    # in [-4, 4]) by at most 5.9e-13 relative; the bounds are 3-4x those
    @pytest.mark.parametrize(
        "spec, n, l_box",
        [(GAUSS31, 512, 40.0), (GAUSS31, 513, 40.0), (GAUSS31, 1024, 40.0), (SECH21, 1024, 30.0)],
        ids=["gauss-512", "gauss-513", "gauss-1024", "sech-1024"],
    )
    def test_split_even_family_matches_scipy_on_the_full_stencil(self, spec, n, l_box):
        from scipy.linalg import eigh_tridiagonal

        H = build_hamiltonian(sample_potential(spec, Grid(l_box=l_box, n_points=n)))
        assert H.mirror_rows == n // 2
        w, v = eigh_tridiagonal(*spectral_operator._stencil(H.grid, H.potential.values))
        assert np.max(np.abs(H.eigenvalues - w)) <= 1e-14 * np.abs(w).max()
        assert_sup_norms_match_dense(H, w, v)

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
        # stone-density's selected solve holds the grid to the same cap
        for solve in (build_hamiltonian, lambda V: eigenpair_with_neighbours(V, 12)):
            with pytest.raises(DomainError, match="^grid.n_points: 9000 exceeds the dense"):
                solve(V)


def assert_sup_norms_match_dense(H, w, v):
    """The propagated sup norms of split H against those of the dense
    eigenpairs (w, v) of its full stencil, within 2e-12 relative: an odd,
    an even and a mixed packet, projected or not, 300 taus in [-4, 4]."""
    from dispersion_lab.estimates import gaussian_packet, odd_packet

    dense = spectral_operator.DiscreteHamiltonian(H.potential, w, Eigenbasis(H.n, v))
    taus = np.random.Generator(np.random.Philox(key=[H.n, 6])).uniform(-4.0, 4.0, 300)
    odd, even = odd_packet(H.grid, width=0.8), gaussian_packet(H.grid, width=0.5)
    for u in (odd, even, odd + 0.3 * even):
        for project in (False, True):
            got = reduced(occupied_modes(H, u, project, 1e-12), taus, math.inf, H.grid)
            want = reduced(occupied_modes(dense, u, project, 1e-12), taus, math.inf, H.grid)
            np.testing.assert_allclose(got, want, rtol=2e-12, atol=0.0)


def no_dstevd(*args):
    raise AssertionError("dstevd was called")


# even; odd with a middle node; odd whose last 256-row panel is the middle
# node alone; even; criterion 3's size
@pytest.mark.parametrize("n", [160, 161, 513, 1024, 3072])
class TestSineHalves:
    """V = 0 takes each parity half in closed form, the discrete sines, with no dstevd."""

    # Tolerances from measurement: over these n, the energies differed from
    # dstevd's on the full stencil by at most 7.7e-16 of the largest, and the
    # vectors by at most 1.1e-12 (n = 3072, odd modes), up to sign, with
    # gram deviations of at most 2.7e-15; the bounds are 2.5-4x those
    def test_matches_dstevd_on_the_full_stencil(self, n, monkeypatch):
        H = build_hamiltonian(sample_potential(ZERO, Grid(l_box=40.0, n_points=n)))
        w, v = spectral_operator._dstevd(*spectral_operator._stencil(H.grid, H.potential.values))
        monkeypatch.setattr(spectral_operator, "_dstevd", no_dstevd)
        for parity in (0, 1):
            energies, half = H.half(parity)
            # the full stencil's eigenpairs alternate in parity, even first
            want_w, want_v = w[parity::2], v[:, parity::2]
            assert np.all(np.diff(energies) > 0)
            assert np.max(np.abs(energies - want_w)) <= 2e-15 * w.max()
            got = Eigenbasis(n, half, 1 - 2 * parity).unfold(half)
            assert np.max(np.abs(got.T @ got - np.eye(len(energies)))) <= 1e-14
            signs = np.sign(np.sum(got * want_v, axis=0))
            assert np.max(np.abs(got * signs - want_v)) <= 3e-12
        assert H.eigensolves == [n - n // 2, n // 2]
        monkeypatch.undo()
        assert_sup_norms_match_dense(H, w, v)

    def test_odd_modes_vanish_exactly_at_the_middle_node(self, n):
        H = build_hamiltonian(sample_potential(ZERO, Grid(l_box=40.0, n_points=n)))
        half = H.half(1)[1]
        assert half.shape == (n - n // 2, n // 2)
        if n % 2:
            assert not np.any(half[n // 2])
            assert not np.any(Eigenbasis(n, half, -1).unfold(half)[n // 2])
            # and no even mode does
            assert np.all(H.half(0)[1][n // 2])


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
        windowed=st.booleans(),
    )
    def test_block_split_and_worker_count(
        self, ham_gauss_1024, workers, n_taus, chunk, seed, windowed
    ):
        # for every block size the thread pool returns the serial bytes;
        # across block sizes only round-off differs, because a GEMM's column
        # results depend on how many columns it is given.  A windowed tau
        # list adds 400 equal taus, which form a Chebyshev window whose runs
        # of taus take the block size too
        H = ham_gauss_1024
        rng = np.random.Generator(np.random.Philox(key=[seed, 3]))
        taus = rng.uniform(-4.0, 4.0, n_taus)
        modes = occupied_modes(H, smooth_datum(H, seed), mode_tol=1e-12)
        if windowed:
            taus = np.concatenate([taus, np.full(400, 0.7)])
            plan = ChebyshevWindows.plan(modes, taus)
            assert plan is not None and len(plan.windows) > 0
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

    The streamed norms equal panel_sum_norms of the same panels exactly.
    For the block widths used here (1024 taus) OpenBLAS gives the panel
    GEMMs the rows of the whole product bit for bit, so the sup norms equal
    those of the whole states exactly, and the finite-p norms, summed per
    panel, agree with them within WHOLE_STATE_RTOL.
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
        modes = replace(modes, basis=replace(modes.basis, half=layout(modes.basis.half)))
        whole = evolve(modes, taus)
        for p in P_EXPONENTS:
            got = reduced(modes, taus, p, grid)
            ref = evolve(modes, taus, reduce=lambda states: panel_sum_norms(states, p, grid))
            assert np.array_equal(got, ref)
            want = lp_norms_columns(whole, p, grid)
            np.testing.assert_allclose(got, want, rtol=0 if p == math.inf else WHOLE_STATE_RTOL)

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


def blocked_phases_only(mp):
    """Patch evolve to the blocked phases for every tau: no Chebyshev window."""
    mp.setattr(spectral_operator.ChebyshevWindows, "plan", classmethod(lambda cls, *args: None))


def geometric_tail_bound(degree: int, a_max: float) -> float:
    """2 sum_{n > degree} (a_max/2)^n / n! by its geometric majorant; inf
    where the terms do not yet shrink."""
    q = a_max / (2.0 * (degree + 2))
    if q >= 1.0:
        return math.inf
    if a_max == 0.0:
        return 0.0
    log_term = (degree + 1) * math.log(a_max / 2.0) - math.lgamma(degree + 2)
    return 2.0 * math.exp(log_term) / (1.0 - q)


class TestChebyshevExpansion:
    """e^{-i a s} on [-1, 1] as sum_{n <= N} eps_n (-i)^n J_n(a) T_n(s)."""

    @pytest.mark.parametrize("a_max", [0.0, 1.0, 8.0, 45.25, 362.0, 1024.0])
    def test_degree_is_the_least_meeting_its_tail_bound(self, a_max):
        from scipy.special import jv

        eps = np.finfo(float).eps
        degree = chebyshev_degree(a_max)
        assert geometric_tail_bound(degree, a_max) <= eps
        assert degree == 0 or geometric_tail_bound(degree - 1, a_max) > eps
        # the bound bounds: the exact tail, at a_max and inside it
        n = np.arange(degree + 1, degree + 400)
        for a in (a_max, 0.5 * a_max, 0.9 * a_max):
            assert 2.0 * np.abs(jv(n, a)).sum() <= geometric_tail_bound(degree, a_max)

    @pytest.mark.parametrize("a_max", [1.0, 8.0, 45.25, 362.0])
    def test_coefficients_are_bessel_values(self, a_max):
        from scipy.special import jv

        degree = chebyshev_degree(a_max)
        a = np.linspace(-a_max, a_max, 41)
        n = np.arange(degree + 1)[:, None]
        want = np.where(n == 0, 1.0, 2.0) * (-1j) ** n * jv(n, a)
        got = chebyshev_coefficients(a, degree)
        assert got.shape == (degree + 1, len(a))
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, math.sqrt(a_max))

    @pytest.mark.parametrize("a_max", [8.0, 45.25, 362.0, 512.0])
    def test_expansion_is_the_phase(self, a_max):
        # the dropped tail is below eps; what is left is the rounding of the
        # ~a_max terms of size ~a_max^(-1/2), measured at 5-8e-16 a_max
        degree = chebyshev_degree(a_max)
        a = np.linspace(-a_max, a_max, 101)
        s = np.concatenate([np.linspace(-1.0, 1.0, 201), [0.0, -1.0, 1.0]])
        series = chebyshev_coefficients(a, degree).T @ chebyshev_table(s, degree)
        assert np.abs(series - np.exp(-1j * np.outer(a, s))).max() <= 2e-15 * a_max

    def test_table_is_cos_n_arccos(self):
        s = np.linspace(-1.0, 1.0, 57)
        want = np.cos(np.outer(np.arange(31), np.arccos(s)))
        np.testing.assert_allclose(chebyshev_table(s, 30), want, rtol=0, atol=1e-13)


def dense_taus(name: str) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[len(name), 17]))
    if name == "one-window":  # inside the window of centre 0, whatever its width
        return np.concatenate([rng.uniform(-0.004, 0.004, 700), [0.0]])
    if name == "near-13":
        return np.concatenate([rng.uniform(12.8, 13.0, 600), rng.uniform(-13.0, -12.8, 600)])
    if name == "equal":
        return np.full(700, -2.3)
    # "mixed": a dense cluster among sparse taus that no window takes
    return rng.permutation(np.concatenate([rng.uniform(1.0, 1.1, 900), rng.uniform(-6.0, 6.0, 40)]))


WINDOW_CASES = {
    # zero potential, an off-centre datum: both reflection parities
    "zero-both-parities": (ZERO, Grid(l_box=20.0, n_points=512), 1.3, False, 0),
    # the odd part of that datum: the odd half alone
    "zero-odd": (ZERO, Grid(l_box=20.0, n_points=512), 1.3, False, -1),
    # an asymmetric well: one dstevd, whole columns
    "well-unsplit": (LOPSIDED, Grid(l_box=40.0, n_points=1024), 0.0, False, 0),
    # sech^2 splits; an off-centre datum occupies both parities
    "sech2-projected": (SECH21, Grid(l_box=30.0, n_points=1024), 0.4, True, 0),
    # its even part: the even half alone
    "sech2-even-projected": (SECH21, Grid(l_box=30.0, n_points=1024), 0.4, True, 1),
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
@pytest.mark.parametrize("taus_name", ["one-window", "near-13", "equal", "mixed"])
def test_window_route_matches_blocked_phases(case, taus_name):
    """The windows agree with the blocked phases to 1e-12: states relative
    to ||coef||, norms relative at p = 1, 2, 4 and inf."""
    spec, grid, centre, project, sign = WINDOW_CASES[case]
    H = build_hamiltonian(sample_potential(spec, grid))
    u = np.exp(-(((grid.x - centre) / 0.5) ** 2)).astype(complex)
    if sign:
        u += sign * u[::-1]
    modes = occupied_modes(H, u, project=project, mode_tol=1e-12)
    if sign:  # one half: mirror rows and the datum's sign
        assert (modes.basis.mirror_rows, modes.basis.sign) == (grid.n_points // 2, sign)
    else:  # whole columns: those of both parities, or of the unsplit H
        assert modes.basis.mirror_rows == 0
        assert set(column_signs(modes.basis)) == ({0} if spec is LOPSIDED else {1, -1})
    taus = dense_taus(taus_name)
    plan = ChebyshevWindows.plan(modes, taus)
    assert plan is not None and len(plan.windows) > 0
    if taus_name == "one-window":
        assert len(plan.windows) == 1 and len(plan.direct) == 0
    if taus_name == "mixed":
        assert 0 < len(plan.direct) <= 40
    # every window tau lies within the half-width of its centre, and the
    # degree is the one the tail bound asks of the window's widest phase
    for tau0, index in plan.windows:
        assert np.all(np.abs(taus[index] - tau0) <= plan.half_width)
    radius = (modes.energies.max() - modes.energies.min()) / 2.0
    assert len(plan.coefficients) == chebyshev_degree(radius * plan.half_width) + 1
    windowed = evolve(modes, taus)
    with pytest.MonkeyPatch.context() as mp:
        blocked_phases_only(mp)
        blocked = evolve(modes, taus)
        blocked_norms = [reduced(modes, taus, p, grid) for p in P_EXPONENTS]
    scale = np.linalg.norm(modes.coef)
    assert np.abs(windowed - blocked).max() <= 1e-12 * scale
    for p, want in zip(P_EXPONENTS, blocked_norms):
        np.testing.assert_allclose(reduced(modes, taus, p, grid), want, rtol=1e-12, atol=0.0)
        # the streamed norms are those of the whole windowed states
        np.testing.assert_allclose(
            reduced(modes, taus, p, grid), lp_norms_columns(windowed, p, grid),
            rtol=0 if p == math.inf else WHOLE_STATE_RTOL,
        )


def test_windows_only_where_they_save_columns(ham_gauss_1024):
    # sparse taus, or too few modes for any expansion, keep the blocked phases
    H = ham_gauss_1024
    modes = occupied_modes(H, smooth_datum(H, 3), mode_tol=1e-12)
    sparse = np.linspace(-4.0, 4.0, 1024)
    assert ChebyshevWindows.plan(modes, sparse) is None
    few = occupied_modes(H, H.eigenvectors[:, 5] + H.eigenvectors[:, 9], mode_tol=1e-12)
    assert len(few.energies) == 2
    assert ChebyshevWindows.plan(few, np.zeros(5000)) is None
    dense = np.full(5000, 0.25)
    assert ChebyshevWindows.plan(modes, dense) is not None
    # a non-finite tau joins no window
    taus = np.concatenate([dense, [np.nan, np.inf]])
    plan = ChebyshevWindows.plan(modes, taus)
    assert list(plan.direct) == [5000, 5001]


# a palindrome on every grid below, with four bound states
WELL = PotentialSpec("square_well", amplitude=-4.0, width=2.5)


def split_and_dense(spec: PotentialSpec, n: int):
    """The H of spec on n points and the same H from one dstevd."""
    H = build_hamiltonian(sample_potential(spec, Grid(l_box=40.0, n_points=n)))
    w, v = spectral_operator._dstevd(*spectral_operator._stencil(H.grid, H.potential.values))
    dense = spectral_operator.DiscreteHamiltonian(
        potential=H.potential, eigenvalues=w, basis=Eigenbasis(n, v)
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
        assert H.mirror_rows == n // 2 and dense.mirror_rows == 0
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
            if data.ndim == 1:
                # the folded products give the coefficients, in parity order
                folded = np.empty(n, dtype=complex)
                folded[H.order] = occupied_modes(H, data).coef
                assert np.max(np.abs(folded - H.eigenvectors.T @ data)) <= scale
        # one eigenvector in grid order from its half vector, without the
        # dense matrix
        me = len(H.half(0)[0])
        for k in (0, n // 2, n - 1):
            j = int(np.flatnonzero(H.order == k)[0])
            parity = int(j >= me)
            half = H.half(parity)[1]
            basis = Eigenbasis(n, half, 1 - 2 * parity)
            e = np.eye(1, half.shape[1], j - parity * me)[0]
            assert np.array_equal(basis.product(e), H.eigenvectors[:, k])

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
        assert split.sign == 1 and split.half.shape == (n - n // 2, (n + 1) // 2)

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
        u = dense.from_eigenbasis(np.exp(-np.arange(n, dtype=float)))
        inc = np.random.Generator(np.random.Philox(key=[n, 7])).normal(0.0, 0.01, (3, 16))
        em = euler_maruyama_ito(occupied_modes(H, u, mode_tol=1e-12), inc, 1.0, 16)
        want = euler_maruyama_ito(occupied_modes(dense, u, mode_tol=1e-12), inc, 1.0, 16)
        assert np.max(np.abs(em - want)) <= 1e-12
        propagate_batch(H, [0.3, -0.2], u, mode_tol=1e-12)
        assert "eigenvectors" not in vars(H)


def cut_after_all_coefficients(H, u, project, mode_tol):
    """occupied_modes as one dense cut: every coefficient of a fully solved
    H by the folded products, even then odd, the bound states zeroed, then
    the mode cut, its columns copied.  The cut at mode_tol = 0 drops a
    parity whose coefficients are all exactly 0; modes of both parities
    are whole columns."""
    halves = [H.half(p) for p in (0, 1)]
    folds = H.folds(np.asarray(u, dtype=complex))
    c = np.concatenate([real_basis_product(v.T, f) for (_, v), f in zip(halves, folds)])
    energies, me = np.concatenate([w for w, _ in halves]), len(halves[0][0])
    occupied = np.repeat([np.any(c[:me]), np.any(c[me:])], [me, len(c) - me])
    if project:
        c[energies < 0] = 0.0
    a = np.abs(c)
    keep = a > mode_tol * a.max() if mode_tol > 0.0 else occupied
    parts = [
        Eigenbasis(H.n, v[:, kept], 1 - 2 * p)
        for p, ((_, v), kept) in enumerate(zip(halves, (keep[:me], keep[me:])))
        if kept.any()
    ]
    basis = parts[0] if len(parts) == 1 else Eigenbasis.whole(parts)
    return spectral_operator.OccupiedModes(basis, energies[keep], c[keep])


def assert_same_modes(got, want, taus, grid):
    assert np.array_equal(got.energies, want.energies)
    assert np.array_equal(got.coef, want.coef)
    assert (got.basis.n, got.basis.sign) == (want.basis.n, want.basis.sign)
    assert np.array_equal(got.basis.half, want.basis.half)
    for p in (2.0, 4.0, math.inf):
        assert np.array_equal(reduced(got, taus, p, grid), reduced(want, taus, p, grid))


def count_half_solves(monkeypatch) -> list[int]:
    """A list that the eigenpair count of every dstevd and every V = 0 sine
    half appends to, in order: both routes a half is solved by."""
    solved = []
    for name in ("_dstevd", "_sine_half"):

        def counted(*args, solve=getattr(spectral_operator, name)):
            w, v = solve(*args)
            solved.append(len(w))
            return w, v

        monkeypatch.setattr(spectral_operator, name, counted)
    return solved


@pytest.mark.parametrize("n", [160, 161, 513, 1024])
@pytest.mark.parametrize("spec", [ZERO, WELL], ids=["zero", "well"])
class TestOneParitySolve:
    """occupied_modes solves only the parity halves a datum occupies."""

    def test_same_modes_as_one_dense_cut(self, spec, n, monkeypatch):
        V = sample_potential(spec, Grid(l_box=40.0, n_points=n))
        eager = build_hamiltonian(V)
        # both halves solved
        assert [eager.half(p)[1].shape[1] for p in (0, 1)] == [n - n // 2, n // 2]
        solved = count_half_solves(monkeypatch)
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
                    if mode_tol == 0.0:  # exactly the halves with a nonzero fold
                        sizes = (n - n // 2, n // 2)
                        folds = H.folds(datum)
                        assert sorted(solved) == sorted(sizes[p] for p in (0, 1) if np.any(folds[p]))
                    if name == "mixed":
                        assert sorted(solved) == sorted([n - n // 2, n // 2])
                    else:
                        assert solved == [n - n // 2 if name == "even" else n // 2]

    def test_second_parity_next_to_the_cut(self, spec, n):
        # three even modes and one odd mode at 1.5 or 0.4 times the cut: the
        # odd fold is nonzero at both, so both halves are solved, and the
        # odd mode is kept at 1.5 and cut at 0.4
        eager = build_hamiltonian(sample_potential(spec, Grid(l_box=40.0, n_points=n)))
        even, odd = eager.half(0)[1], eager.half(1)[1]
        taus = np.linspace(-1.0, 1.0, 50)
        for scale, kept_odd in ((1.5, 1), (0.4, 0)):
            c = np.zeros(n)
            c[:3] = [1.0, 0.5, 0.25]
            c[even.shape[1] + 2] = scale * 1e-6
            u = Eigenbasis.whole([Eigenbasis(n, even), Eigenbasis(n, odd, -1)]).product(c)
            H = build_hamiltonian(eager.potential)
            got = occupied_modes(H, u, mode_tol=1e-6)
            assert_same_modes(got, cut_after_all_coefficients(eager, u, False, 1e-6), taus, H.grid)
            # a kept odd mode makes whole columns of both parities
            assert len(got.energies) == 3 + kept_odd
            assert got.basis.mirror_rows == (0 if kept_odd else n // 2)
            assert len(H.eigensolves) == 2

    def test_kept_run_is_a_view_and_a_hole_copies(self, spec, n):
        H = build_hamiltonian(sample_potential(spec, Grid(l_box=40.0, n_points=n)))
        eager = build_hamiltonian(H.potential)
        taus = np.linspace(-1.0, 1.0, 50)
        even = H.half(0)[1]
        for modes, run in (([0, 1, 2, 3], True), ([0, 1, 3], False), ([5, 6, 7], True)):
            c = np.zeros(even.shape[1])
            c[modes] = [1.0, 0.5, 0.25, 0.125][: len(modes)]
            u = Eigenbasis(n, even).product(c)
            got = occupied_modes(H, u, mode_tol=1e-6)
            assert got.basis.half.shape == (len(even), len(modes)) and got.basis.sign == 1
            assert np.shares_memory(got.basis.half, even) is run
            assert_same_modes(got, cut_after_all_coefficients(eager, u, False, 1e-6), taus, H.grid)
        assert H.eigensolves == [len(even)]


def lab_packet(H, shape):
    """A datum as the CLI builds it: the gaussian or odd packet, or
    sde-convergence's Gaussian cut to energies below 2.5."""
    from dispersion_lab.estimates import gaussian_packet, odd_packet

    if shape == "odd":
        return odd_packet(H.grid, width=0.8)
    if shape == "gaussian":
        return gaussian_packet(H.grid, width=0.5)
    modes = occupied_modes(H, gaussian_packet(H.grid, width=2.0))
    return modes.basis.product(np.where(modes.energies > 2.5, 0.0, modes.coef))


@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize(
    "spec", [ZERO, GAUSS31, SECH21, WELL], ids=["zero", "gaussian", "sech2", "well"]
)
@pytest.mark.parametrize("shape", ["gaussian", "odd", "energy-cut"])
def test_every_lab_packet_occupies_one_half(spec, n, shape):
    # every even family samples to a palindrome on the mirror-exact grid,
    # and every packet of the lab is exactly even or odd on it: its modes
    # are one half with k = n // 2 and the packet's sign, from one eigensolve
    V = sample_potential(spec, Grid(l_box=20.0, n_points=n))
    u = lab_packet(build_hamiltonian(V), shape)
    sign = -1 if shape == "odd" else 1
    for project, mode_tol in ((False, 0.0), (True, 1e-12), (True, 1e-6)):
        H = build_hamiltonian(V)
        modes = occupied_modes(H, u, project, mode_tol)
        assert (modes.basis.mirror_rows, modes.basis.sign) == (n // 2, sign)
        assert H.eigensolves == [n // 2 if sign < 0 else n - n // 2]


# even; odd whose last 256-row panel is the middle node alone; even
@pytest.mark.parametrize("n", [512, 513, 1024])
@pytest.mark.parametrize("parity", [1.0, -1.0], ids=["even", "odd"])
class TestOneParityMirrorReuse:
    """With one parity occupied, a mirror block's |u|^p is a view of its top rows'."""

    def panels(self, n, parity):
        H = build_hamiltonian(sample_potential(ZERO, Grid(l_box=20.0, n_points=n)))
        u = mixed_parity_data(n, 12)
        modes = occupied_modes(H, u + parity * u[::-1], mode_tol=1e-12)
        assert modes.basis.sign == parity and modes.basis.mirror_rows == n // 2
        assert modes.basis.half.shape[1] == len(modes.energies) > 0
        taus = np.random.Generator(np.random.Philox(key=[n, 13])).uniform(-1.0, 1.0, 300)
        z = np.exp(-1j * np.outer(modes.energies, taus)) * modes.coef[:, None]
        return H, RowPanels(modes.basis, z)

    def test_reuse_equals_the_whole_states(self, n, parity):
        # panel_sum_norms reads each mirror block from its own GEMM slice
        # (negated when odd); the whole states are those blocks stacked
        H, panels = self.panels(n, parity)
        blocks = list(panel_blocks(panels))
        if n == 513:
            assert [len(b) for b in blocks] == [256, 256, 1]
        whole = np.vstack(blocks)
        assert whole.shape == panels.shape
        for p in P_EXPONENTS:
            got = lp_norms_columns(panels, p, H.grid)
            assert np.array_equal(got, panel_sum_norms(panels, p, H.grid))
            want = lp_norms_columns(whole, p, H.grid)
            np.testing.assert_allclose(got, want, rtol=0 if p == math.inf else WHOLE_STATE_RTOL)

    def test_g_runs_once_per_top_block(self, n, parity):
        _, panels = self.panels(n, parity)
        rows = []

        def g(a):
            rows.append(len(a))
            return a**4.0

        blocks = list(panels.abs_blocks(g))
        half = len(panels.basis.half)
        assert len(rows) == math.ceil(half / spectral_operator._ROW_PANEL)
        assert sum(rows) == half and len(blocks) == len(list(panel_blocks(panels)))


def test_potential_off_palindrome_keeps_one_dense_eigensolve(ham_gauss_1024):
    # the gaussian sample with one node moved by one ulp: 2/h^2 + V rounds
    # that asymmetry away, but V itself is not a palindrome, so H stays one
    # dstevd
    values = ham_gauss_1024.potential.values.copy()
    values[100] = np.nextafter(values[100], np.inf)
    H = build_hamiltonian(PotentialGrid(ham_gauss_1024.grid, values))
    diag, _ = spectral_operator._stencil(H.grid, H.potential.values)
    assert np.array_equal(diag, diag[::-1])
    assert H.mirror_rows == 0 and H.eigenvectors is H.half(0)[1]


def test_basis_without_mirror_rows_keeps_the_dense_bytes(ham_lopsided_1024_l30):
    # k = 0: every transform and the tau block are the plain products with
    # the dstevd matrix, bit for bit
    H = ham_lopsided_1024_l30
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


@pytest.mark.parametrize("spec", [LOPSIDED, GAUSS31, ZERO], ids=["well", "gaussian", "zero"])
def test_mode_cut_needs_one_datum_vector(spec):
    # on both forms of the basis: one dstevd, and two parity halves; with or
    # without a cut, columns are no datum
    H = build_hamiltonian(sample_potential(spec, Grid(l_box=20.0, n_points=200)))
    assert H.mirror_rows == (0 if spec is LOPSIDED else 100)
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
        # the oracle solves on the same box at a finer step, closed by the
        # outgoing boundary: both take V and f as 0 outside the box
        grid, V, lam0, f = born_setup
        energy = 4.0 * lam0
        born = np.sum(born_series_terms(V, energy, f, n_max=20), axis=0)
        grid_or = Grid(l_box=grid.l_box, n_points=9376)  # h = 0.0032
        closed = outgoing_closure(grid_or, GAUSS31(grid_or.x), energy)
        oracle = tridiagonal_resolvent_solve(grid_or, closed, energy, np.exp(-(grid_or.x**2)))
        mask = np.abs(grid.x) <= 3.0
        xs = grid.x[mask]
        oi = np.interp(xs, grid_or.x, oracle.real) + 1j * np.interp(xs, grid_or.x, oracle.imag)
        rel = np.max(np.abs(born[mask] - oi)) / np.max(np.abs(oi))
        assert rel < 1e-2

    def test_sum_is_the_closed_solve_on_its_grid(self, born_setup):
        # R0 is the lattice's outgoing free resolvent, so the 20-term sum is
        # R(E + i0) f of the same closed lattice, up to the series' tail
        grid, V, lam0, f = born_setup
        energy = 4.0 * lam0
        born = np.sum(born_series_terms(V, energy, f, n_max=20), axis=0)
        closed = outgoing_closure(grid, V.values, energy)
        exact = tridiagonal_resolvent_solve(grid, closed, energy, f)
        assert np.max(np.abs(born - exact)) / np.max(np.abs(exact)) <= 1e-12

    def test_leaves_the_datum_unchanged(self, born_setup):
        _, V, lam0, f = born_setup
        kept = f.copy()
        born_series_terms(V, 4.0 * lam0, f, n_max=2)
        assert np.array_equal(f, kept)

    def test_below_threshold_rejected(self, born_setup):
        _, V, lam0, f = born_setup
        with pytest.raises(DomainError, match="is not above the series threshold"):
            born_series_terms(V, 0.5 * lam0, f, n_max=3)


# at the bottom of the spectrum, stone-density's default index and the top
@pytest.mark.parametrize("k", [1, 12, -2], ids=["1", "12", "n-2"])
@pytest.mark.parametrize("n", [128, 1024])
@pytest.mark.parametrize(
    "spec", [ZERO, GAUSS31, SECH21, WELL], ids=["zero", "gauss31", "sech21", "well"]
)
def test_eigenpair_with_neighbours_matches_dense(spec, n, k):
    H = build_hamiltonian(sample_potential(spec, Grid(l_box=40.0, n_points=n)))
    k %= n
    w, v = eigenpair_with_neighbours(H.potential, k)
    norm, dense_w = 4.0 / H.grid.h**2, H.eigenvalues[k - 1 : k + 2]
    assert np.max(np.abs(w - dense_w)) <= 1e-12 * norm
    # each route's vector is off by about eps ||H|| / gap; that exceeds 1e-9
    # only at the square well's top, whose modes pair up across the well
    # (gap 3e-8, where the routes differ by 1e-9 against a bound of 4e-6)
    gap = min(np.diff(dense_w))
    dense = H.eigenvectors[:, k]
    error = np.max(np.abs(np.sign(v @ dense) * v - dense))
    assert error <= max(1e-9, 2.0 * np.finfo(float).eps * norm / gap)


def test_eigenpair_with_neighbours_on_a_split_stencil():
    # a barrier of 1e33 at node 40 splits the stencil into blocks of 40 and 87
    # rows, which bisection lists block by block; the wider block holds the
    # two lowest eigenvalues, and an absolute tolerance of eps * ||H||_1
    # (1e17) would leave all three unresolved
    grid = Grid(l_box=40.0, n_points=128)
    values = np.zeros(128)
    values[40] = 1e33
    V = PotentialGrid(grid, values)
    diag, off = spectral_operator._stencil(grid, values)
    left = spectral_operator._dstevd(diag[:40], off[:39])
    right = spectral_operator._dstevd(diag[41:], off[41:])
    assert right[0][1] < left[0][0]
    w, v = eigenpair_with_neighbours(V, 1)
    assert np.allclose(w, np.sort(np.concatenate([left[0], right[0]]))[:3], rtol=1e-12, atol=0)
    # eigenvalue 1 is the wider block's second: its vector lives on that block
    assert not np.any(v[:41])
    assert np.max(np.abs(np.sign(v[41:] @ right[1][:, 1]) * v[41:] - right[1][:, 1])) <= 1e-12


class TestStoneDensity:
    def test_eigenvector_point_mass(self, ham_gauss_1024):
        H = ham_gauss_1024
        k = 12
        w = H.eigenvalues
        spacing = min(w[k] - w[k - 1], w[k + 1] - w[k])
        eps = spacing / 10.0
        margin = 80.0 * eps
        f = H.eigenvectors[:, k]
        est = stone_spectral_density(H.potential, w[k] - margin, w[k] + margin, eps, f=f)
        assert est.integral() == pytest.approx(1.0, abs=1e-2)
        assert est.density.min() > -1e-10

    def test_boundary_point_half_mass(self, ham_gauss_1024):
        H = ham_gauss_1024
        k = 12
        w = H.eigenvalues
        spacing = min(w[k] - w[k - 1], w[k + 1] - w[k])
        eps = spacing / 10.0
        margin = 80.0 * eps
        est = stone_spectral_density(H.potential, w[k], w[k] + margin, eps, f=H.eigenvectors[:, k])
        assert est.integral() == pytest.approx(0.5, abs=2e-2)

    def test_random_vector_total_mass(self, ham_gauss_1024, rng):
        H = ham_gauss_1024
        f = rng.normal(size=H.n)
        f /= np.linalg.norm(f)
        w = H.eigenvalues
        span = w[-1] - w[0]
        eps = 1e-3 * span
        a, b = w[0] - 300 * eps, w[-1] + 300 * eps
        est = stone_spectral_density(H.potential, a, b, eps, f=f)
        assert est.integral() == pytest.approx(1.0, abs=1e-2)

    def test_additive_over_subintervals(self, ham_gauss_1024):
        H = ham_gauss_1024
        k = 20
        w = H.eigenvalues
        eps = (w[k + 1] - w[k]) / 10.0
        a, c, b = w[k] - 60 * eps, w[k] + 10 * eps, w[k] + 60 * eps
        f = H.eigenvectors[:, k]
        m_full = stone_spectral_density(H.potential, a, b, eps, f=f).integral()
        m1 = stone_spectral_density(H.potential, a, c, eps, f=f).integral()
        m2 = stone_spectral_density(H.potential, c, b, eps, f=f).integral()
        assert m1 + m2 == pytest.approx(m_full, abs=1e-3)

    def test_matches_lorentzian_histogram(self, ham_gauss_1024, rng):
        # dual route: banded solves vs eigenvalue histogram smoothing
        H = ham_gauss_1024
        f = rng.normal(size=H.n)
        f /= np.linalg.norm(f)
        w = H.eigenvalues
        a, b = w[0], w[40]
        eps = (b - a) / 50.0
        est = stone_spectral_density(H.potential, a, b, eps, f=f)
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
            stone_spectral_density(ham_gauss_1024.potential, 2.0, 1.0, 0.1, f=f)

    @pytest.mark.parametrize("width", [0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0, 1000.0])
    def test_lambda_grid_follows_epsilon(self, width):
        # at least both ends, and a step of about eps / 4 that never exceeds eps / 2
        V = sample_potential(ZERO, Grid(l_box=4.0, n_points=16))
        eps, a = 0.1, 3.0
        est = stone_spectral_density(V, a, a + width * eps, eps, f=np.ones(16))
        lams, step = est.lambda_grid, np.diff(est.lambda_grid)
        assert len(lams) >= 2 and lams[0] == a and lams[-1] == a + width * eps
        assert min(width * eps, eps / 4) * (1 - 1e-9) <= step.min()
        assert step.max() <= eps / 2 * (1 + 1e-12)

    def test_uncountable_lambda_grid_rejected(self, ham_gauss_1024):
        f = ham_gauss_1024.eigenvectors[:, 12]
        with pytest.raises(DomainError, match="than a float can count"):
            stone_spectral_density(ham_gauss_1024.potential, 0.0, 1e300, 1e-10, f=f)


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


def closed_banded_solve(grid, values, energy, rhs):
    """solve_banded of H - energy with outgoing_closure's two corner entries."""
    from scipy.linalg import solve_banded

    h, n = grid.h, grid.n_points
    c = 1.0 - 0.5 * energy * h**2
    zeta = complex(c, math.sqrt(1.0 - c * c))
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = -1.0 / h**2
    ab[1] = 2.0 / h**2 + values - energy
    ab[1, [0, -1]] -= zeta / h**2
    return solve_banded((1, 1), ab, rhs)


class TestOutgoingClosure:
    @pytest.mark.parametrize("n", [200, 201])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_free_lattice_green_function_exact(self, n, lam):
        # V = 0: R(E + i0)(x_j, x_k) = h zeta^|j-k| / (1/zeta - zeta), the
        # lattice's own free kernel, on every node pair of a 12-node sample
        grid = Grid(l_box=10.0, n_points=n)
        energy, h = lam**2, grid.h
        c = 1.0 - 0.5 * energy * h**2
        zeta = complex(c, math.sqrt(1.0 - c * c))
        idx = np.linspace(0, n - 1, 12).round().astype(int)
        tab = outgoing_resolvent_table(grid, np.zeros(n), energy, grid.x[idx])
        exact = h * zeta ** np.abs(idx[:, None] - idx[None, :]) / (1.0 / zeta - zeta)
        assert np.max(np.abs(tab - exact) / np.abs(exact)) <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_free_continuum_kernel(self, scatter_grid, lam):
        # the lattice momentum kappa, cos(kappa h) = 1 - lam^2 h^2 / 2, is
        # lam (1 + (lam h)^2 / 24) and the amplitude h / (2 sin(kappa h)) is
        # (1 + (lam h)^2 / 8) / (2 lam) to leading order, so the relative
        # error is at most (lam h)^2 (1/8 + lam |x - y| / 24), plus 1% for
        # the higher orders.  Measured on criterion 5's probes, h = 0.01:
        # 3.1e-6 to 1.4e-4, at most 1.0001 times the leading-order bound
        h, n, probes = scatter_grid.h, scatter_grid.n_points, np.linspace(-2.0, 2.0, 5)
        tab = outgoing_resolvent_table(scatter_grid, np.zeros(n), lam**2, probes)
        dist = np.abs(probes[:, None] - probes[None, :])
        exact = 1j / (2.0 * lam) * np.exp(1j * lam * dist)
        bound = 1.01 * (lam * h) ** 2 * (1 / 8 + lam * dist / 24)
        assert np.all(np.abs(tab - exact) / np.abs(exact) <= bound)

    @pytest.mark.parametrize("n", [64, 65])
    def test_table_equals_solve_banded_of_closed_system(self, n):
        grid = Grid(l_box=5.0, n_points=n)
        vals = sample_potential(GAUSS31, grid).values
        energy, nodes = 2.25, [0, 7, n // 2, n - 1]
        tab = outgoing_resolvent_table(grid, vals, energy, grid.x[nodes])
        for j, iy in enumerate(nodes):
            delta = np.zeros(n, dtype=complex)
            delta[iy] = 1.0 / grid.h
            col = closed_banded_solve(grid, vals, energy, delta)
            assert np.allclose(tab[:, j], col[nodes], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [64, 65])
    def test_table_columns_equal_single_solves(self, n):
        # the one block solve gives each column the bits of its own solve
        grid = Grid(l_box=5.0, n_points=n)
        vals = sample_potential(GAUSS31, grid).values
        energy, nodes = 2.25, [0, 7, n // 2, n - 1]
        tab = outgoing_resolvent_table(grid, vals, energy, grid.x[nodes])
        closed = outgoing_closure(grid, vals, energy)
        for j, iy in enumerate(nodes):
            delta = np.zeros(n)
            delta[iy] = 1.0 / grid.h
            col = tridiagonal_resolvent_solve(grid, closed, energy, delta)
            assert np.array_equal(tab[:, j], col[nodes])

    def test_off_grid_probe_rejected(self):
        grid = Grid(l_box=10.0, n_points=101)
        with pytest.raises(DomainError, match="probe y=0.05 is not a grid node"):
            outgoing_resolvent_table(grid, np.zeros(101), 1.0, [0.0, 0.05])
        with pytest.raises(DomainError, match="is not a grid node"):
            outgoing_resolvent_table(grid, np.zeros(101), 1.0, [10.2, 0.0])

    @pytest.mark.parametrize("energy", [0.0, -1.0, 4.0 / 0.2**2, 1e6])
    def test_closure_outside_the_band_rejected(self, energy):
        # h = 0.2: the closure needs 0 < E h^2 < 4
        grid = Grid(l_box=10.0, n_points=101)
        with pytest.raises(DomainError, match="needs 0 < E h\\^2 < 4"):
            outgoing_closure(grid, np.zeros(101), energy)
