import numpy as np
import pytest

from dispersion_lab import scattering
from dispersion_lab.errors import ConditioningError, ContractViolationError, DomainError
from dispersion_lab.grid_model import Grid, PotentialSpec, sample_potential
from dispersion_lab.scattering import (
    _midpoint_values,
    _wronskian_at,
    detect_resonance,
    jost_at_node,
    jost_solution,
    lambda_sweep_grid,
    midpoint_wronskian,
    resolvent_kernel_jost_table,
    scattering_coefficients,
    zero_energy_test,
)
from dispersion_lab.spectral_operator import outgoing_resolvent_table

from conftest import GAUSS31, SECH21, ZERO


def reflectionless_transmission(lam):
    # single-well reflectionless family: T = (lam + i)/(lam - i), |T| = 1
    return (lam + 1j) / (lam - 1j)


class TestJostSolution:
    def test_free_m_identically_one(self, zero_pot):
        for lam in (0.0, 1.0):
            f = jost_solution(zero_pot, lam, "plus")
            assert np.max(np.abs(f.m_values - 1.0)) == 0.0
            assert np.max(np.abs(f.m_prime)) == 0.0

    def test_boundary_value_exact(self, gauss_pot):
        fp = jost_solution(gauss_pot, 1.3, "plus")
        fm = jost_solution(gauss_pot, 1.3, "minus")
        assert fp.m_values[-1] == 1.0 and fp.m_prime[-1] == 0.0
        assert fm.m_values[0] == 1.0 and fm.m_prime[0] == 0.0

    def test_box_independence(self):
        # enlarging the box leaves m at the origin essentially unchanged
        vals = []
        for l_box, n in ((20.0, 2001), (30.0, 3001)):
            grid = Grid(l_box=l_box, n_points=n)
            V = sample_potential(GAUSS31, grid)
            m = jost_solution(V, 0.7, "plus").m_values
            vals.append(m[n // 2])
        assert abs(vals[0] - vals[1]) < 1e-7

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_f_at_nodes_returns_the_table(self, gauss_pot, sign):
        # t = 0 at every node but the last, which is t = 1 of the last interval
        f = jost_solution(gauss_pot, 1.3, sign)
        at, table = f.f_at(f.grid.x), f.f_values()
        assert np.array_equal(at[:-1], table[:-1])
        assert abs(at[-1] - table[-1]) <= 1e-14

    def test_coarse_grid_rejected(self):
        grid = Grid(l_box=20.0, n_points=64)
        V = sample_potential(GAUSS31, grid)
        with pytest.raises(DomainError, match="too coarse"):
            jost_solution(V, 5.0, "plus")

    def test_halved_step_agreement(self):
        # independent fine-step integration confirms the coarse solution
        coarse = Grid(l_box=20.0, n_points=2001)
        fine = Grid(l_box=20.0, n_points=4001)
        tc = scattering_coefficients(sample_potential(SECH21, coarse), 1.0).transmission
        tf = scattering_coefficients(sample_potential(SECH21, fine), 1.0).transmission
        assert abs(tc - tf) < 1e-8
        assert tf == pytest.approx(reflectionless_transmission(1.0), abs=1e-8)


class TestWronskian:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 3.0, 10.0])
    def test_free_closed_form(self, zero_pot, lam):
        w = midpoint_wronskian(zero_pot, lam)
        assert abs(w - (-2j * lam)) < 1e-10

    def test_reflectionless_value(self, sech_pot):
        # closed form W = -2 i lam / T with T = (lam+i)/(lam-i): W(1) = -2
        w = midpoint_wronskian(sech_pot, 1.0)
        assert w == pytest.approx(-2.0 + 0j, abs=1e-8)

    def test_x_independence(self, gauss_pot):
        # W = f+ f-' - f+' f- at every grid point: constant in exact arithmetic
        fp, fm = jost_solution(gauss_pot, 1.5, "plus"), jost_solution(gauss_pot, 1.5, "minus")
        prof = fp.f_values() * fm.f_prime_values() - fp.f_prime_values() * fm.f_values()
        interior = prof[50:-50]
        assert np.std(np.abs(interior)) / np.mean(np.abs(interior)) < 1e-6

    def test_conjugation_symmetry(self, gauss_pot):
        for lam in (0.3, 1.1, 2.7):
            wp = midpoint_wronskian(gauss_pot, lam)
            wm = midpoint_wronskian(gauss_pot, -lam)
            assert abs(wm - np.conj(wp)) < 1e-8


class TestResonance:
    def test_zero_potential_resonant(self, zero_pot):
        assert detect_resonance(zero_pot) is True

    def test_gaussian_not_resonant(self, gauss_pot):
        assert detect_resonance(gauss_pot) is False

    def test_sech_squared_resonant(self, sech_pot):
        assert detect_resonance(sech_pot) is True

    def test_classification_stable_in_resolution(self):
        # same verdicts at a coarser grid (tolerance calibration check)
        grid = Grid(l_box=20.0, n_points=1024)
        assert detect_resonance(sample_potential(SECH21, grid)) is True
        assert detect_resonance(sample_potential(GAUSS31, grid)) is False


class TestScatteringCoefficients:
    def test_free_case(self, zero_pot):
        sd = scattering_coefficients(zero_pot, 1.0)
        assert abs(sd.alpha) < 1e-12
        assert sd.beta_coeff == pytest.approx(1.0 + 0j, abs=1e-12)
        assert sd.transmission == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_reflectionless(self, sech_pot):
        sd = scattering_coefficients(sech_pot, 2.0)
        assert abs(abs(sd.transmission) - 1.0) < 1e-6
        assert abs(sd.reflection) < 1e-6
        assert sd.transmission == pytest.approx(reflectionless_transmission(2.0), abs=1e-7)

    def test_unitarity_gaussian(self, gauss_pot):
        sd = scattering_coefficients(gauss_pot, 2.0)
        assert abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_beta_identity_dual_route(self, gauss_pot):
        # beta from the matching system vs W/(-2 i lam) from the Wronskian
        for lam in (0.5, 1.0, 3.0):
            sd = scattering_coefficients(gauss_pot, lam)
            assert abs(sd.beta_coeff - sd.w / (-2j * lam)) < 1e-8

    def test_lambda_zero_rejected(self, gauss_pot):
        with pytest.raises(DomainError):
            scattering_coefficients(gauss_pot, 0.0)

    def test_sweep_unitary_everywhere(self, gauss_pot):
        lams = np.geomspace(0.2, 8.0, 12)
        for lam in lams:
            sd = scattering_coefficients(gauss_pot, lam)
            assert abs(sd.transmission) ** 2 + abs(sd.reflection) ** 2 == pytest.approx(
                1.0, abs=1e-6
            )


def kernel_at(V, lam, x, y):
    """One kernel value, read from the table of the probes [x, y]."""
    return resolvent_kernel_jost_table(V, lam, [x, y])[0, 1]


class TestResolventKernel:
    def test_free_diagonal_value(self, zero_pot):
        # f+ f- / W at x = y = 0 with W = -2i: 1/(-2i) = i/2
        val = kernel_at(zero_pot, 1.0, 0.0, 0.0)
        assert val == pytest.approx(0.5j, abs=1e-10)

    def test_free_offdiagonal_value(self, zero_pot):
        val = kernel_at(zero_pot, 2.0, 0.0, 1.0)
        assert val == pytest.approx(np.exp(2j) / (-4j), abs=1e-10)

    def test_symmetry_in_arguments(self, gauss_pot):
        a = kernel_at(gauss_pot, 1.5, -1.0, 1.0)
        b = kernel_at(gauss_pot, 1.5, 1.0, -1.0)
        assert a == b

    def test_against_dense_solve(self, gauss_pot):
        # oracle: one banded solve on the same box, closed by the lattice's
        # exact outgoing boundary; both take V as 0 outside the box
        lam = 1.5
        grid_or = Grid(l_box=20.0, n_points=5001)
        dense = outgoing_resolvent_table(grid_or, GAUSS31(grid_or.x), lam**2, [-1.0, 1.0])[0, 1]
        jost = kernel_at(gauss_pot, lam, -1.0, 1.0)
        assert abs(jost - dense) / abs(dense) < 1e-3

    def test_lambda_zero_rejected(self, gauss_pot):
        with pytest.raises(DomainError):
            kernel_at(gauss_pot, 0.0, 0.0, 1.0)

    def test_probe_outside_the_box_rejected(self):
        # m is only known on the box; the interval index would clamp at the ends
        V = sample_potential(GAUSS31, Grid(l_box=2.0, n_points=401))
        with pytest.raises(DomainError, match=r"x=3\.0 lies outside the box"):
            resolvent_kernel_jost_table(V, 1.0, [3.0, 0.0])
        with pytest.raises(DomainError, match=r"x=-3\.0 lies outside the box"):
            resolvent_kernel_jost_table(V, 1.0, [0.0, 1.0, -3.0, -4.0])

    def test_near_resonance_guard(self, sech_pot, monkeypatch):
        # resonant family: |W(lam)| ~ 2 lam near zero trips a loose tolerance
        monkeypatch.setattr(scattering, "KERNEL_W_TOL", 0.1)
        with pytest.raises(ConditioningError, match="below tolerance"):
            kernel_at(sech_pot, 0.01, 0.0, 1.0)

    def test_table_matches_scalar(self, gauss_pot):
        # every entry of a probe table equals its own single-point table
        probes = [-1.0, 0.0, 0.5]
        tab = resolvent_kernel_jost_table(gauss_pot, 1.0, probes)
        for i, x in enumerate(probes):
            for j, y in enumerate(probes):
                assert tab[i, j] == pytest.approx(kernel_at(gauss_pot, 1.0, x, y))


def reference_jost(V, lam, sign):
    """The node-by-node RK4 march that jost_solution replaces, kept as an oracle."""
    h = V.grid.h
    v = V.values
    n = V.grid.n_points
    vm = _midpoint_values(v)
    s = 1.0 if sign == "plus" else -1.0
    c = -s * 2j * lam
    m = np.empty(n, dtype=complex)
    mp = np.empty(n, dtype=complex)
    if sign == "plus":
        rng = range(n - 2, -1, -1)
        m[-1], mp[-1] = 1.0, 0.0
        step = -h
        off = 1
    else:
        rng = range(1, n)
        m[0], mp[0] = 1.0, 0.0
        step = h
        off = -1
    half = 0.5 * step
    sixth = step / 6.0
    for i in rng:
        j = i + off
        y0, y1 = m[j], mp[j]
        va, vb, vc = v[j], vm[min(i, j)], v[i]
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
        m[i] = y0 + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        mp[i] = y1 + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return m, mp


def _rel(a, b):
    # relative to the largest reference value: m crosses zero for some lam
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


class TestJostComposition:
    @pytest.mark.parametrize("pot", ["zero_pot", "gauss_pot", "sech_pot"])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("lam", [0.0, 0.05, -0.05, 1.3, "top"])
    def test_matches_sequential_march(self, request, pot, sign, lam):
        V = request.getfixturevalue(pot)
        if lam == "top":
            lam = float(lambda_sweep_grid(V.l1_norm() ** 2)[-1])
        f = jost_solution(V, lam, sign)
        m_ref, mp_ref = reference_jost(V, lam, sign)
        assert _rel(f.m_values, m_ref) <= 1e-12
        assert _rel(f.m_prime, mp_ref) <= 1e-12

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("lam", [0.0, 0.05, -0.05, 1.3, 7.0])
    def test_free_case_exact(self, zero_pot, sign, lam):
        f = jost_solution(zero_pot, lam, sign)
        assert np.all(f.m_values == 1.0)
        assert np.all(f.m_prime == 0.0)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_resolution_check_on_both_sides(self, sign):
        V = sample_potential(GAUSS31, Grid(l_box=20.0, n_points=256))
        with pytest.raises(DomainError, match="too coarse"):
            jost_solution(V, 5.0, sign)
        jost_solution(V, 0.1, sign)  # a fine enough lam still passes

    @pytest.mark.parametrize("spec", [ZERO, GAUSS31, SECH21], ids=["zero", "gauss", "sech"])
    @pytest.mark.parametrize("n", [257, 258])
    def test_node_values_match_full_grid(self, spec, n):
        # the node march builds the scan's product tree for its node, so it
        # gives the table's bits at every node, the empty products at the walls too
        V = sample_potential(spec, Grid(l_box=10.0, n_points=n))
        for sign in ("plus", "minus"):
            for lam in (0.0, 0.05, -0.05, 1.3):
                f = jost_solution(V, lam, sign)
                fv, fd = f.f_values(), f.f_prime_values()
                for i in range(n):
                    assert jost_at_node(V, lam, sign, i) == f.at_node(i) == (fv[i], fd[i])
        for i in (-1, n):
            with pytest.raises(ContractViolationError):
                jost_at_node(V, 1.3, "plus", i)

    @pytest.mark.parametrize(
        "spec",
        [ZERO, GAUSS31, SECH21, PotentialSpec("square_well", amplitude=-1.0, width=1.0)],
        ids=["zero", "gauss", "sech", "well"],
    )
    def test_negative_lambda_is_the_conjugate(self, scatter_grid, spec):
        # scattering_coefficients takes f+(-lam) at the midpoint as conj(f+(lam))
        V = sample_potential(spec, scatter_grid)
        i0 = V.grid.n_points // 2
        for lam in lambda_sweep_grid(V.l1_norm() ** 2):
            f, fd = jost_at_node(V, float(lam), "plus", i0)
            assert jost_at_node(V, -float(lam), "plus", i0) == (f.conjugate(), fd.conjugate())

    @pytest.mark.parametrize("pot", ["zero_pot", "gauss_pot", "sech_pot"])
    def test_zero_energy_test_matches_detect_resonance(self, request, pot):
        V = request.getfixturevalue(pot)
        resonant, w0 = zero_energy_test(V)
        assert resonant is detect_resonance(V)
        i0 = V.grid.n_points // 2
        fp, fm = jost_solution(V, 0.0, "plus"), jost_solution(V, 0.0, "minus")
        assert w0 == _wronskian_at(fp.at_node(i0), fm.at_node(i0))
