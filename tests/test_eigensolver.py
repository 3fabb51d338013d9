import logging
import os
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg

from diracfem import assembly, eigensolver
from diracfem.assembly import (
    SCHEME_HERMITE,
    SCHEME_LINEAR,
    SCHEME_SUPG,
    AssembledSystem,
    assemble,
    part_dofs,
)
from diracfem.discretization import build_exponential_mesh
from diracfem.eigensolver import (
    SPLIT_LEVELS,
    _normalize_vectors,
    bound_window,
    eigenpair_residual,
    solve,
)
from diracfem.errors import (
    ComplexSpectrumError,
    ConfigError,
    SingularSystemError,
    SolverError,
)
from diracfem.physics import (
    OperatorParams,
    reference_binding,
    reference_spectrum,
)

from oracles import (
    GALERKIN_ORACLE_RTOL,
    band_storage,
    component_coefficients,
    dense_bindings,
    dense_bindings_in_workers,
    dense_rayleigh_bindings,
    dense_two_sided_bindings,
    rayleigh_quotients,
    superlu_count,
)

TOY = OperatorParams(Z=1, kappa=-1, c=10.0)  # mc^2 = 100
#: Where the stabilized solve cuts a TOY window of SPLIT_LEVELS levels or more, about -0.0905.
TOY_SPLIT = 0.5 * (reference_binding(TOY, 1).binding + reference_binding(TOY, 2).binding)

# Toy pencils are written in binding form, as ``assemble`` returns them:
# lhs = A - mc^2 * rhs for the Dirac-form matrix A, so raw = mu + mc^2.


def toy_system(lhs, rhs, scheme=SCHEME_LINEAR):
    """A dense pencil stored as a full band."""
    size = len(lhs)
    return AssembledSystem(scheme=scheme, lhs_band=band_storage(lhs, size - 1),
                           rhs_band=band_storage(rhs, size - 1), params=TOY)


def relabelled(system, scheme):
    """The same pencil under another scheme's label, which picks the solve path."""
    return AssembledSystem(scheme=scheme, lhs_band=system.lhs_band, rhs_band=system.rhs_band,
                           params=system.params)


@pytest.fixture(autouse=True)
def accept_attempts(monkeypatch):
    """Every Galerkin accept attempt of a test, each checked against the exact scale.

    ``_accept`` reads the bound ||lhs*y|| + |mu| ||rhs*y|| first. Each attempt
    must decide as the exact scale || |lhs| |y| || + |mu| || |rhs| |y| || does.
    Each one is recorded as (mu, kept, products, formed). ``products`` counts
    the band products the attempt ran: 0 where the bound decided, 2 where it
    formed the exact scale. ``formed`` tells whether the search now holds
    |lhs| and |rhs|.
    """
    attempts = []
    band_product, accept = eigensolver._band_product, eigensolver._LevelSearch._accept
    products = 0

    def counted(band, x):
        nonlocal products
        products += 1
        return band_product(band, x)

    def checked(search, mu, y, rhs_y, lhs_y):
        system = search.system
        scale = (np.linalg.norm(band_product(np.abs(system.lhs_band), np.abs(y)))
                 + abs(mu) * np.linalg.norm(band_product(np.abs(system.rhs_band), np.abs(y))))
        exact = bool(np.linalg.norm(lhs_y - mu * rhs_y) <= eigensolver.BACKWARD_TOL * scale)
        before = products
        kept = accept(search, mu, y, rhs_y, lhs_y)
        attempts.append((mu, kept, products - before, search._abs_bands is not None))
        assert kept == exact, f"mu={mu!r}: kept={kept}, but the exact scale says {exact}"
        return kept

    monkeypatch.setattr(eigensolver, "_band_product", counted)
    monkeypatch.setattr(eigensolver._LevelSearch, "_accept", checked)
    return attempts


#: Stabilized bindings against the two-sided quotients of the dense QZ
#: eigenvectors (measured: at most 5.8e-14 on the cases below, with one BLAS
#: thread or two; the QZ eigenvalues themselves are up to 9.9e-11 off them)
SUPG_ORACLE_RTOL = 1e-12


class TestToyPencils:
    def test_diagonal_pencil(self):
        spectrum = dense_bindings(toy_system(np.diag([2.0, 3.0]) - TOY.rest_energy * np.eye(2),
                                             np.eye(2)))
        np.testing.assert_allclose(np.sort(spectrum.raw), [2.0, 3.0], atol=1e-9)

    def test_reciprocal_scaling(self):
        rhs = np.diag([2.0, 4.0])
        spectrum = dense_bindings(toy_system(np.eye(2) - TOY.rest_energy * rhs, rhs))
        np.testing.assert_allclose(np.sort(spectrum.raw), [0.25, 0.5], atol=1e-12)

    def test_two_by_two_limit_structure(self):
        # pencil [[a, b], [-b, -a]] x = lam [[rho, d], [d, rho]] x has the
        # closed-form roots +-sqrt((a^2-b^2)/(rho^2-d^2))
        a, b, rho, d = -2.5, 1.2, -9.0 / 70.0, 0.04
        expected = np.sqrt((a**2 - b**2) / (rho**2 - d**2))
        rhs = np.array([[rho, d], [d, rho]])
        spectrum = dense_bindings(toy_system(np.array([[a, b], [-b, -a]])
                                             - TOY.rest_energy * rhs, rhs, scheme=SCHEME_SUPG))
        np.testing.assert_allclose(np.sort(spectrum.raw), [-expected, expected],
                                   rtol=1e-12)

    def test_window_filter(self):
        # raw eigenvalues {-c^2 - 1, c^2 - 0.5, c^2 + 5}: one bound state
        mu = [-2.0 * TOY.c**2 - 1.0, -0.5, 5.0]
        spectrum = dense_bindings(toy_system(np.diag(mu), np.eye(3)))
        bs = spectrum.bindings[:2]
        assert len(bs) == 1
        assert bs[0] == pytest.approx(-0.5, abs=1e-10)

    def test_complex_spectrum_rejected(self):
        # rotation block: eigenvalues +-i
        with pytest.raises(ComplexSpectrumError):
            dense_bindings(toy_system([[0.0, 1.0], [-1.0, 0.0]], np.eye(2), scheme=SCHEME_SUPG))

    def test_coarse_supg_mesh_goes_complex(self):
        # on very coarse meshes tau is large enough to push continuum
        # eigenvalues off the real axis; the solve must refuse, not drop them
        params = OperatorParams(Z=2, kappa=1)
        mesh = build_exponential_mesh(1e-5, 30.0, 24, 6.0)
        with pytest.raises(ComplexSpectrumError):
            dense_bindings(assemble(SCHEME_SUPG, params, mesh))

    def test_reality_threshold_is_fixed(self):
        # mu = -0.5 +- i*eps, so |Im lambda| / |lambda| = eps / 99.5 meets
        # REALITY_TOL = 1e-8 at eps ~ 9.95e-7; a 20 % move either way fails
        def rotation(eps):
            lhs = np.diag(np.arange(5.0, 25.0))
            lhs[:2, :2] = [[-0.5, eps], [-eps, -0.5]]
            return toy_system(lhs, np.eye(20), scheme=SCHEME_SUPG)

        with pytest.raises(ComplexSpectrumError):
            solve(rotation(1.15e-6), window=(-1.0, 0.0))
        spectrum = solve(rotation(0.9e-6), window=(-1.0, 0.0))
        np.testing.assert_allclose(spectrum.bindings, [-0.5, -0.5], rtol=1e-12)
        assert spectrum.max_imag == pytest.approx(0.9e-6, abs=1e-12)

    @pytest.mark.parametrize("window", [
        (-np.inf, 0.0), (-1.0, np.inf), (-1.0, -0.5, np.inf), (-1.0, -2.0), (-1.0,),
        (-1.0, -0.5, 0.0)])
    def test_bad_window_rejected_before_any_work(self, window, capfd):
        # an infinite edge used to make an infinite shift, a numpy warning,
        # and a SingularSystemError that blamed the pencil for the window
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 60.0, 50, 6.0)
        system = assemble(SCHEME_HERMITE, params, mesh)
        with pytest.raises(ConfigError, match="window"):
            solve(system, window=window)
        assert capfd.readouterr().err == ""

    def test_solve_needs_a_window(self):
        # the package has one solve path; the dense solve is the tests' oracle
        with pytest.raises(TypeError, match="window"):
            solve(toy_system(np.diag([-0.5, 3.0, 4.0]), np.eye(3)))


@pytest.fixture(scope="module")
def hydrogen_solution():
    params = OperatorParams(Z=1, kappa=-1)
    mesh = build_exponential_mesh(1e-5, 60.0, 60, 6.0)
    system = assemble(SCHEME_HERMITE, params, mesh)
    return params, system, dense_bindings(system)


@pytest.fixture(scope="module")
def hydrogen_windowed(hydrogen_solution):
    """Windowed solve of the same pencil, the one source of its eigenvectors."""
    params, system, _ = hydrogen_solution
    return params, system, solve(system, window=bound_window(params, 6))


class TestRealSystems:
    def test_galerkin_spectrum_real_and_graded(self, hydrogen_solution):
        params, system, spectrum = hydrogen_solution
        assert spectrum.max_imag == 0.0
        assert np.all(np.diff(spectrum.bindings) > 0)
        assert np.all(spectrum.bindings > -2 * params.rest_energy)
        assert np.all(spectrum.bindings < 0)

    def test_ground_state_accuracy(self, hydrogen_solution):
        params, system, spectrum = hydrogen_solution
        assert spectrum.bindings[0] == pytest.approx(-0.5000066566, abs=2e-5)

    def test_eigenpair_residual_bound(self, hydrogen_windowed):
        # the windowed pairs are the six deepest levels of the dense solve,
        # read through its eigenvectors' Rayleigh quotients: the dense eigh
        # value of level 6 is itself 2.9e-9 off with one BLAS thread
        # (measured: bindings within 2.5e-16, residuals at most 3.3e-18)
        params, system, spectrum = hydrogen_windowed
        oracle = dense_rayleigh_bindings(system, -2.0 * params.rest_energy, 0.0)
        np.testing.assert_allclose(spectrum.bindings[:6], oracle[:6], rtol=GALERKIN_ORACLE_RTOL)
        for k in range(min(6, len(spectrum.bindings))):
            res = eigenpair_residual(system, spectrum.bindings[k],
                                     spectrum.eigenvectors[:, k])
            assert res <= 1e-15

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_residual_of_a_zero_or_non_finite_vector_refused(self, hydrogen_windowed, fill):
        # each once gave NaN with a RuntimeWarning
        params, system, spectrum = hydrogen_windowed
        vector = np.full(system.size, fill)
        with pytest.raises(ConfigError, match="vector"):
            eigenpair_residual(system, spectrum.bindings[0], vector)

    @pytest.mark.parametrize("binding", [np.nan, np.inf, -np.inf])
    def test_residual_at_a_non_finite_binding_refused(self, hydrogen_windowed, binding):
        params, system, spectrum = hydrogen_windowed
        with pytest.raises(ConfigError, match="binding"):
            eigenpair_residual(system, binding, spectrum.eigenvectors[:, 0])

    @pytest.mark.parametrize("cut", [1, -1])
    def test_residual_of_a_wrong_length_vector_refused(self, hydrogen_windowed, cut):
        # a short vector once failed inside f2py ("failed for 7th argument x")
        params, system, spectrum = hydrogen_windowed
        vector = np.resize(spectrum.eigenvectors[:, 0], system.size - cut)
        with pytest.raises(ConfigError, match="vector"):
            eigenpair_residual(system, spectrum.bindings[0], vector)

    def test_vectors_rhs_normalized_with_positive_lead(self, hydrogen_windowed):
        params, system, spectrum = hydrogen_windowed
        zeta = part_dofs(system.scheme, system.size, "zeta")
        for k in range(3):
            v = spectrum.eigenvectors[:, k]
            assert v @ system.rhs @ v == pytest.approx(1.0, rel=1e-10)
            assert v[zeta[np.argmax(np.abs(v[zeta]))]] > 0

    def test_windowed_solve_matches_full(self, hydrogen_solution):
        params, system, spectrum = hydrogen_solution
        lo, hi = -1.0, -0.01
        windowed = solve(system, window=(lo, hi))
        full = spectrum.bindings[(spectrum.bindings > lo) & (spectrum.bindings < hi)]
        # oracle: extended-precision Rayleigh quotients of dense eigenvectors,
        # computed independently of the solver, against the binding-form
        # pencil both solvers factor
        oracle = dense_rayleigh_bindings(system, lo, hi)
        assert len(full) == len(oracle)
        assert len(windowed.bindings) == len(full)
        np.testing.assert_allclose(windowed.bindings, oracle, rtol=1e-10, atol=1e-11)
        # the dense eigh values themselves sit farther from that oracle: the
        # digit loss of the full-spectrum driver near the accumulation point
        dense_miss = np.max(np.abs(full - oracle))
        windowed_miss = np.max(np.abs(windowed.bindings - oracle))
        assert dense_miss > 1e-12
        assert dense_miss > 100.0 * windowed_miss

    def test_bindings_keep_their_digits_at_large_c(self):
        # near the nonrelativistic limit the bound levels sit ~0.5 below
        # mc^2 = 1e10: a pencil that carries the rest energy loses them to
        # cancellation; at c = 137 this mesh gives 1.9e-8, 5.2e-9 and 2.8e-9
        params = OperatorParams(Z=1, kappa=-1, c=1e5)
        mesh = build_exponential_mesh(1e-6, 60.0, 200, 8.0)
        system = assemble(SCHEME_HERMITE, params, mesh)
        spectrum = solve(system, window=bound_window(params, 4))
        exact = [level.binding for level in reference_spectrum(params, 3)]
        np.testing.assert_allclose(spectrum.bindings[:3], exact, rtol=3e-8, atol=0.0)

    def test_windowed_supg_matches_dense(self):
        mesh = build_exponential_mesh(1e-6, 40.0, 60, 8.0)
        for kappa in (1, -1):
            params = OperatorParams(Z=1, kappa=kappa)
            system = assemble(SCHEME_SUPG, params, mesh)
            lo, hi = bound_window(params, 3)
            windowed = solve(system, window=(lo, hi))
            full = dense_two_sided_bindings(system, lo, hi).bindings
            assert len(full) >= 2
            assert len(windowed.bindings) == len(full)
            np.testing.assert_allclose(windowed.bindings, full, rtol=SUPG_ORACLE_RTOL, atol=0.0)
            for k in range(len(full)):
                assert eigenpair_residual(system, windowed.bindings[k],
                                          windowed.eigenvectors[:, k]) <= 1e-8

    def test_windowed_complex_pair_rejected(self):
        # a rotation block puts mu = -0.5 +- 0.3i inside the window; the
        # other eigenvalues lie far outside it
        size = 20
        lhs = np.diag(np.arange(5.0, 5.0 + size))
        lhs[:2, :2] = [[-0.5, 0.3], [-0.3, -0.5]]
        system = toy_system(lhs, np.eye(size), scheme=SCHEME_SUPG)
        with pytest.raises(ComplexSpectrumError):
            solve(system, window=(-1.0, 0.0))

    def test_windowed_solve_is_certified_or_refused(self):
        # every eigenvalue lies in the window: no k < N - 1 can certify a disk
        lhs = np.diag(-np.linspace(0.1, 0.9, 10))
        with pytest.raises(SolverError, match="not certified"):
            solve(toy_system(lhs, np.eye(10), scheme=SCHEME_SUPG), window=(-1.0, 0.0))
        # the inertia count certifies the same window of a Galerkin pencil
        windowed = solve(toy_system(lhs, np.eye(10)), window=(-1.0, 0.0))
        np.testing.assert_allclose(windowed.bindings, np.linspace(-0.9, -0.1, 10),
                                   rtol=1e-13)

    def test_windowed_solve_of_an_empty_window(self):
        # every eigenvalue lies above the window: no bindings, no eigenvectors
        windowed = solve(toy_system(np.diag(np.arange(5.0, 25.0)), np.eye(20)), window=(-1.0, 0.0))
        assert windowed.bindings.shape == (0,)
        assert windowed.eigenvectors.shape == (20, 0)

    def test_windowed_singular_shift(self):
        # the window holds 7 TOY levels, so it is one disk; its shift
        # sigma = -0.505 is an eigenvalue: the shifted pencil is exactly singular
        lo, hi = -1.0, -0.01
        lhs = np.diag(np.concatenate([[0.5 * (lo + hi)], np.arange(5.0, 25.0)]))
        with pytest.raises(SingularSystemError):
            solve(toy_system(lhs, np.eye(21), scheme=SCHEME_SUPG), window=(lo, hi))

    @pytest.mark.parametrize("scheme", [SCHEME_LINEAR, SCHEME_SUPG])
    def test_windowed_solve_pivots(self, scheme):
        # sigma = -0.5 leaves the block [[0, 0.3], [0.3, 0]] in lhs - sigma*rhs:
        # nonsingular, but only a pivoting factorization gets past its zero
        # diagonal; its eigenvalues -0.8 and -0.2 are the window's levels
        size = 20
        lhs = np.diag(np.concatenate([[-0.5, -0.5], np.arange(5.0, 5.0 + size - 2)]))
        lhs[0, 1] = lhs[1, 0] = 0.3
        system = toy_system(lhs, np.eye(size), scheme=scheme)
        windowed = solve(system, window=(-1.0, 0.0))
        dense = dense_bindings(system)
        np.testing.assert_allclose(windowed.bindings, [-0.8, -0.2], rtol=1e-12)
        np.testing.assert_allclose(windowed.bindings, dense.bindings[:2], rtol=1e-12)

    def test_windowed_solve_of_a_dense_toy_pencil(self):
        # every dof couples with every other: the band (4, 4) is wider than
        # half the pencil, as in a FEM pencil of at most 3 interior nodes
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        lhs = q @ np.diag([-0.5, 3.0, 4.0, 5.0, 6.0]) @ q.T
        windowed = solve(toy_system(0.5 * (lhs + lhs.T), np.eye(5)), window=(-1.0, 0.0))
        np.testing.assert_allclose(windowed.bindings, [-0.5], rtol=1e-12)

    def test_windowed_non_finite_pencil_raises_quietly(self, capfd):
        # a NaN entry must stop the solve before ARPACK, which would print
        # LAPACK argument errors and fail to converge
        lhs = np.diag(np.concatenate([[-0.2], np.arange(5.0, 24.0)]))
        lhs[3, 4] = lhs[4, 3] = float("nan")
        with pytest.raises(SingularSystemError, match="non-finite"):
            solve(toy_system(lhs, np.eye(20)), window=(-1.0, 0.0))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("scheme, free, width", [
        (SCHEME_LINEAR, False, 3), (SCHEME_HERMITE, False, 7), (SCHEME_SUPG, False, 7),
        (SCHEME_HERMITE, True, 7), (SCHEME_SUPG, True, 7)])
    def test_windowed_solve_factors_a_narrow_band(self, scheme, free, width, caplog):
        # ordered by node, neighbouring nodes couple 2 (linear) or 4 (Hermite)
        # dofs each: a wider band means the reordering regressed
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 40.0, 40, 8.0)
        system = assemble(scheme, params, mesh, free_lower_slope=free)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            solve(system, window=bound_window(params, 3))
        (record,) = [r for r in caplog.records if r.name == "diracfem"]
        assert f"band=({width}, {width})" in record.getMessage()
        # the Galerkin pencils are symmetric-definite and counted by inertia;
        # the SUPG one is not, and goes to the Arnoldi disks
        driver = "nonsymmetric" if scheme == SCHEME_SUPG else "inertia"
        assert f" driver={driver} " in record.getMessage()

    def test_windowed_solve_logs_its_shape(self, hydrogen_solution, caplog):
        # the hydrogen pencil labelled SUPG runs the Arnoldi disk
        params, system, _ = hydrogen_solution
        system = relabelled(system, SCHEME_SUPG)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(system, window=(-1.0, -0.01))
        (record,) = [r for r in caplog.records if r.name == "diracfem"]
        message = record.getMessage()
        for part in (f"N={system.size}", "nnz=", "window=(-1.0, -0.01)", "sigma=-0.505",
                     "driver=nonsymmetric", "k=16", "rounds=1", "ops=", "max_imag=0",
                     f"parity={len(windowed.bindings) % 2}"):
            assert part in message
        # ARPACK applies the operator at least once per Krylov vector
        assert int(re.search(r"ops=(\d+)", message).group(1)) > 16

    def test_split_window_keeps_an_eigenvalue_on_its_edge_once(self, caplog):
        # (-1, 0) holds every TOY level, so the solve cuts it at TOY_SPLIT;
        # an eigenvalue sits exactly on the cut: the lower disk keeps it, and
        # the upper one starts in the empty gap (TOY_SPLIT, -0.05) above it
        size = 20
        levels = [-0.9, -0.6, TOY_SPLIT, -0.05, -0.01]
        lhs = np.diag(np.concatenate([levels, np.arange(5.0, 5.0 + size - 5)]))
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(toy_system(lhs, np.eye(size), scheme=SCHEME_SUPG),
                             window=(-1.0, 0.0))
        lower, _ = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        assert f"window=(-1.0, {TOY_SPLIT!r})" in lower
        np.testing.assert_allclose(windowed.bindings, levels, rtol=1e-12)
        assert windowed.eigenvectors.shape == (size, 5)

    def test_split_window_skips_a_slice_certified_empty(self, caplog):
        # (-1, 0) is cut at TOY_SPLIT, and the lower disk reaches past the
        # window's top edge without finding an eigenvalue above -0.9: no
        # upper disk runs, and none is lost
        size = 20
        lhs = np.diag(np.concatenate([[-0.9], np.arange(5.0, 5.0 + size - 1)]))
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(toy_system(lhs, np.eye(size), scheme=SCHEME_SUPG),
                             window=(-1.0, 0.0))
        np.testing.assert_allclose(windowed.bindings, [-0.9], rtol=1e-12)
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        assert f"window=(-1.0, {TOY_SPLIT!r})" in record

    def test_split_window_logs_one_record_per_disk(self, caplog):
        # the Hermite pencil labelled SUPG runs the Arnoldi disks
        params = OperatorParams(Z=12, kappa=-2)
        mesh = build_exponential_mesh(1e-6, 60.0, 100, 8.5)
        system = relabelled(assemble(SCHEME_HERMITE, params, mesh),
                            SCHEME_SUPG)
        lo, hi = bound_window(params, 12)
        # a window of 12 levels is cut between the reference levels n_r = 1 and 2
        split = 0.5 * (reference_binding(params, 1).binding + reference_binding(params, 2).binding)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            solve(system, window=(lo, hi))
        lower, upper = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        assert f"window=({lo!r}, {split!r})" in lower and "k=3 " in lower
        assert f", {hi!r})" in upper and "k=16 " in upper
        # the upper disk starts in the gap the lower one certified around the split
        cut = float(re.search(r"window=\((\S+),", upper).group(1))
        assert reference_binding(params, 1).binding < cut < reference_binding(params, 2).binding

    @pytest.mark.parametrize("scheme", [SCHEME_LINEAR, SCHEME_HERMITE, SCHEME_SUPG])
    @pytest.mark.parametrize("kappa", [2, -2])
    def test_split_window_matches_dense(self, scheme, kappa, caplog):
        params = OperatorParams(Z=12, kappa=kappa)
        mesh = build_exponential_mesh(1e-6, 60.0, 100, 8.5)
        system = assemble(scheme, params, mesh)
        lo, hi = bound_window(params, 12)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(system, window=(lo, hi))
        records = [r for r in caplog.records if r.name == "diracfem"]
        if scheme == SCHEME_SUPG:
            # the 12-level window is solved as two disks
            assert len(records) == 2
            # the QZ eigenvalues themselves sit up to 2.9e-11 off these quotients
            full = dense_two_sided_bindings(system, lo, hi).bindings
            rtol = SUPG_ORACLE_RTOL
        else:
            assert len(records) == 1
            # the Rayleigh quotients of the dense eigenvectors: the dense eigh
            # values themselves sit up to 2.9e-9 off them
            full = dense_rayleigh_bindings(system, lo, hi)
            rtol = GALERKIN_ORACLE_RTOL
        assert len(full) >= 12
        assert len(windowed.bindings) == len(full)
        np.testing.assert_allclose(windowed.bindings, full, rtol=rtol, atol=0.0)

    def test_bound_window(self):
        neg = OperatorParams(Z=12, kappa=-2)
        for kappa in (2, -2):
            params = OperatorParams(Z=12, kappa=kappa)
            # the kappa > 0 series runs n_r = 1 ... levels, the kappa < 0 one
            # n_r = 0 ... levels - 1: each window ends right past its last level
            last = 12 if kappa > 0 else 11
            window = bound_window(params, 12)
            assert len(window) == 2
            lo, hi = window
            assert lo == 2.0 * reference_binding(neg, 0).binding
            assert hi == 0.5 * (reference_binding(neg, last).binding
                                + reference_binding(neg, last + 1).binding)
            # a window of fewer levels ends right past its own last level
            lo, hi = bound_window(params, SPLIT_LEVELS - 1)
            assert lo == window[0]
            last = SPLIT_LEVELS - 1 if kappa > 0 else SPLIT_LEVELS - 2
            assert (reference_binding(neg, last).binding < hi
                    < reference_binding(neg, last + 1).binding)
        with pytest.raises(ConfigError):
            bound_window(params, 0)

    @pytest.mark.parametrize("levels", [1.5, True])
    def test_bound_window_needs_an_integer_count(self, levels):
        # each once returned a window: 1.5 from the reference levels
        # n_r = 0.5 and 1.5, True the one-level window
        with pytest.raises(ConfigError, match="levels"):
            bound_window(OperatorParams(Z=1, kappa=-1), levels)

    def test_stabilized_solve_cuts_a_bound_window_of_many_levels(self):
        # every bound window is (lo, hi); the stabilized solve cuts it halfway
        # between the kappa = -|kappa| reference levels n_r = 1 and 2 from
        # SPLIT_LEVELS levels on, for either sign of kappa
        bands = np.zeros((1, 1600))  # the edges read the pencil's size and params alone
        for z in (1, 2, 12, 50, 92):
            for kappa in (-3, -2, -1, 1, 2, 3):
                params = OperatorParams(Z=z, kappa=kappa)
                system = AssembledSystem(scheme=SCHEME_SUPG, lhs_band=bands, rhs_band=bands,
                                         params=params)
                neg = replace(params, kappa=-abs(kappa))
                split = 0.5 * (reference_binding(neg, 1).binding
                               + reference_binding(neg, 2).binding)
                for levels in range(1, 41):
                    window = bound_window(params, levels)
                    assert len(window) == 2
                    lo, hi = window
                    edges = [lo, split, hi] if levels >= SPLIT_LEVELS else [lo, hi]
                    assert eigensolver._disk_edges(system, lo, hi) == edges

    def test_many_levels_above_the_cut_stay_one_disk(self, caplog):
        # (lo, hi) holds the 11 levels n_r = 2 ... 12, but the cut between
        # n_r = 1 and 2 lies below lo: one disk, and the levels the two disks
        # of the whole bound window find there
        params = OperatorParams(Z=12, kappa=-2)
        system = assemble(SCHEME_SUPG, params, build_exponential_mesh(1e-6, 60.0, 100, 8.5))
        b1, b2 = (reference_binding(params, n_r).binding for n_r in (1, 2))
        lo = 0.5 * (0.5 * (b1 + b2) + b2)  # between the cut and n_r = 2
        _, hi = window = bound_window(params, 13)
        assert eigensolver._disk_edges(system, lo, hi) == [lo, hi]
        whole = solve(system, window=window)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            upper = solve(system, window=(lo, hi))
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        assert f"window=({lo!r}, {hi!r})" in record
        assert len(upper.bindings) >= SPLIT_LEVELS
        np.testing.assert_allclose(upper.bindings, whole.bindings[whole.bindings > lo],
                                   rtol=1e-12, atol=0.0)

    def test_vanishing_rhs_norm_raises(self):
        # nonsymmetric rhs with v^T rhs v = 0 for v = (1, 1)
        rhs = np.array([[1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(SolverError):
            _normalize_vectors(np.ones((2, 1)), toy_system(np.eye(2), rhs))

    def test_supg_solution_real_here(self):
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 40.0, 100, 8.0)
        system = assemble(SCHEME_SUPG, params, mesh)
        spectrum = dense_bindings(system)
        assert spectrum.max_imag <= 1e-8 * params.rest_energy
        assert spectrum.bindings[0] == pytest.approx(-0.5000066566, abs=1e-4)

    def test_component_coefficients_split(self, hydrogen_windowed):
        params, system, spectrum = hydrogen_windowed
        n = system.size // 4
        values, slopes = component_coefficients(spectrum, 0, "f")
        assert values.shape == (n,) and slopes.shape == (n,)
        gv, gs = component_coefficients(spectrum, 0, "g")
        vec = spectrum.eigenvectors[:, 0]
        # node by node: (f, f', g, g') at each interior node
        np.testing.assert_array_equal(np.stack([values, slopes, gv, gs]), vec.reshape(n, 4).T)
        with pytest.raises(ValueError):
            component_coefficients(spectrum, 0, "h")

    @pytest.mark.parametrize("scheme", [SCHEME_LINEAR, SCHEME_HERMITE, SCHEME_SUPG])
    def test_dense_solve_returns_eigenvalues_only(self, scheme):
        # the windowed solve is the one source of eigenvectors, and every
        # spectrum it returns carries one per binding
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 40.0, 40, 8.0)
        system = assemble(scheme, params, mesh)
        dense = dense_bindings(system)
        assert len(dense.bindings) >= 3
        assert not hasattr(dense, "eigenvectors")
        windowed = solve(system, window=bound_window(params, 3))
        assert windowed.eigenvectors.shape == (system.size, len(windowed.bindings))

    def test_linear_scheme_has_no_slopes(self):
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 40.0, 30, 5.0)
        spectrum = solve(assemble(SCHEME_LINEAR, params, mesh),
                         window=bound_window(params, 3))
        values, slopes = component_coefficients(spectrum, 0, "f")
        assert slopes is None
        assert values.shape == (30,)

    def test_free_lower_slope_solve(self):
        # freeing the slope dof at the lower endpoint (physical for |kappa|=1)
        # sharpens the ground state by orders of magnitude
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 60.0, 60, 6.0)
        window = bound_window(params, 3)
        fixed = solve(assemble(SCHEME_HERMITE, params, mesh), window=window)
        free = solve(assemble(SCHEME_HERMITE, params, mesh, free_lower_slope=True),
                     window=window)
        exact = -0.50000665659
        assert abs(free.bindings[0] - exact) < 0.01 * abs(fixed.bindings[0] - exact)
        values, slopes = component_coefficients(free, 0, "f")
        assert slopes.shape == (61,)

    def test_finite_nucleus_is_less_bound(self):
        # uranium-scale charge: smearing the nucleus over R ~ 1.4e-4 a.u.
        # raises the ground level relative to the point-nucleus one
        from diracfem.physics import reference_binding

        params = OperatorParams(Z=92, kappa=-1)
        mesh = build_exponential_mesh(1e-7, 1.0, 150, 9.0)
        point_spec = dense_bindings(assemble(SCHEME_HERMITE, params, mesh))
        ext_spec = dense_bindings(assemble(SCHEME_HERMITE, replace(params, R=1.4e-4), mesh))
        point_exact = reference_binding(params, 0).binding
        assert point_spec.bindings[0] == pytest.approx(point_exact, rel=1e-4)
        shift = ext_spec.bindings[0] - point_spec.bindings[0]
        assert 0 < shift < 20.0  # a few Hartree for uranium


#: (Z, kappa, mesh) of the CLI's pathology, Z=12 and uranium runs
GALERKIN_CASES = [
    (1, -1, (1e-6, 150.0, 100, 8.0)), (1, 1, (1e-6, 150.0, 100, 8.0)),
    (12, 2, (1e-6, 60.0, 100, 8.5)), (92, -1, (1e-7, 1.0, 150, 9.0))]
GALERKIN_SCHEMES = [(SCHEME_LINEAR, False), (SCHEME_HERMITE, False), (SCHEME_HERMITE, True)]


class TestGalerkinDriver:
    """The inertia-certified solve of the Galerkin pencils, and what it assumes of them."""

    @pytest.mark.parametrize("scheme, free", GALERKIN_SCHEMES)
    @pytest.mark.parametrize("z, kappa, mesh_args", GALERKIN_CASES)
    def test_galerkin_pencil_is_symmetric_definite(self, scheme, free, z, kappa, mesh_args):
        # the inertia count reads the signs of an LDL^T of lhs - s*rhs as the
        # number of levels below s: lhs must be symmetric and rhs must factor
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(scheme, params, build_exponential_mesh(*mesh_args), free_lower_slope=free)
        lhs = system.lhs
        assert np.max(np.abs(lhs - lhs.T)) <= 1e-14 * np.max(np.abs(lhs))
        hb = system.rhs_band.shape[0] // 2
        _, info = scipy.linalg.lapack.dpbtrf(system.rhs_band[hb:], lower=1)
        assert info == 0

    def test_indefinite_galerkin_rhs_raises(self):
        # a Galerkin-labelled pencil whose rhs is not positive definite has
        # no symmetric-definite solve: it is refused, not solved wrongly
        # (its inertia would count the level mu = -0.3 of a vector with
        # negative rhs norm)
        size = 20
        rhs = np.diag(np.where(np.arange(size) == 0, -1.0, 1.0))
        system = toy_system(np.diag(np.concatenate([[0.3], np.arange(5.0, 5.0 + size - 1)])),
                            rhs, scheme=SCHEME_HERMITE)
        with pytest.raises(SolverError, match="positive definite"):
            solve(system, window=(-1.0, 0.0))

    @pytest.mark.parametrize("scheme, z, kappa, n, levels", [
        (SCHEME_HERMITE, 12, 2, 400, 12),
        (SCHEME_LINEAR, 1, -1, 100, 6), (SCHEME_LINEAR, 1, 1, 100, 6),
        (SCHEME_HERMITE, 1, -1, 100, 6), (SCHEME_HERMITE, 1, 1, 100, 6)])
    def test_bindings_are_their_vectors_rayleigh_quotients(self, scheme, z, kappa, n, levels):
        # each binding is the Rayleigh quotient of its converged vector, so
        # its error is quadratic in the residual (measured: at most 6e-16
        # off the extended-precision quotient); a nonsymmetric (Arnoldi)
        # solve leaves the Z=12 kappa=+2 instilled level near -0.8896 6.1e-11 off
        params = OperatorParams(Z=z, kappa=kappa)
        mesh = (1e-6, 60.0, n, 8.5) if z == 12 else (1e-6, 150.0, n, 8.0)
        system = assemble(scheme, params, build_exponential_mesh(*mesh))
        spectrum = solve(system, window=bound_window(params, levels))
        assert len(spectrum.bindings) >= levels
        np.testing.assert_allclose(spectrum.bindings,
                                   rayleigh_quotients(system, spectrum.eigenvectors),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_linear_pathology_windows_hold_every_level(self, kappa):
        # two instilled levels sit next to genuine ones (-0.03147 beside
        # -0.03125, -0.01045 beside -0.01021), each in an interval between
        # reference shifts that holds an even number of levels; the kappa = -1
        # window ends below the second one, the kappa = +1 window (which also
        # holds the copy of the kappa = -1 ground state) above it
        params = OperatorParams(Z=1, kappa=kappa)
        system = assemble(SCHEME_LINEAR, params, build_exponential_mesh(1e-6, 150.0, 100, 8.0))
        lo, hi = bound_window(params, 6)
        windowed = solve(system, window=(lo, hi))
        oracle = dense_rayleigh_bindings(system, lo, hi)
        assert len(oracle) == len(windowed.bindings) == len(windowed.raw) == (7 if kappa < 0 else 9)
        np.testing.assert_allclose(windowed.bindings, oracle, rtol=GALERKIN_ORACLE_RTOL,
                                   atol=0.0)

    def test_level_on_a_shift_is_found(self):
        # the pencil's level is the ground reference level itself, where the
        # search factors lhs - sigma*rhs: an exactly singular factor
        level = reference_binding(TOY, 0).binding
        lhs = np.diag(np.concatenate([[level], np.arange(5.0, 24.0)]))
        windowed = solve(toy_system(lhs, np.eye(20)), window=(-1.0, 0.0))
        assert windowed.bindings.tolist() == [level]
        np.testing.assert_allclose(np.abs(windowed.eigenvectors[:, 0]), np.eye(20)[0],
                                   atol=1e-15)

    @pytest.mark.parametrize("case", ["beside-lower-shift", "above-last-shift"])
    def test_extra_level_the_held_factor_misses(self, case, caplog):
        # genuine levels 1e-4 above the reference shifts s0 < s1 < s2 of the
        # window (-1, -0.04), and an extra level the search on a shift's own
        # factor converges past; count bisection must find it, and the solve
        # must return exactly the window's levels
        shifts = [reference_binding(TOY, n_r).binding for n_r in range(3)]
        levels = [s + 1e-4 for s in shifts]
        if case == "beside-lower-shift":
            # the extra sits just above s1, in the odd interval (s1, s2); from
            # s2 the nearest level not yet found is -0.03, above the window
            extra, others = shifts[1] + 2e-3, [-0.03]
        else:
            # the extra sits between s2 and hi, and two more levels just below
            # s2 leave (s1, s2) with its parity right: from s2 the search on
            # its factor finds one of them, and the count bisection the rest
            extra, others = -0.045, [shifts[2] - 3e-3, shifts[2] - 4e-3]
        lhs = np.diag(np.concatenate([levels, [extra], others, np.arange(5.0, 20.0)]))
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(toy_system(lhs, np.eye(len(lhs))), window=(-1.0, -0.04))
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        np.testing.assert_allclose(windowed.bindings,
                                   sorted(x for x in levels + [extra] + others if x < -0.04),
                                   rtol=1e-13)
        assert f" m={len(windowed.bindings)} " in record
        # hi, lo and at least one bisection cut
        assert int(re.search(r" counts=(\d+)", record).group(1)) >= 3

    @pytest.mark.parametrize("z, kappa, mesh_args, levels", [
        (12, 1, (2.39e-7, 17.38, 29, 4.935), 9),
        (2, 1, (4.17e-6, 217.1, 26, 5.775), 10),
        (12, -1, (4.46e-7, 53.57, 39, 6.139), 13)])
    def test_count_bisection_finds_what_the_searches_miss(self, z, kappa, mesh_args, levels,
                                                          caplog):
        # coarse linear windows whose reference-shift searches miss levels:
        # count bisection must find every one, and nothing else
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(SCHEME_LINEAR, params, build_exponential_mesh(*mesh_args))
        window = bound_window(params, levels)
        lo, hi = window
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(system, window=window)
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        np.testing.assert_allclose(windowed.bindings, dense_rayleigh_bindings(system, lo, hi),
                                   rtol=GALERKIN_ORACLE_RTOL, atol=0.0)
        # lo, hi and at least one bisection cut
        assert int(re.search(r" counts=(\d+)", record).group(1)) > 2

    def test_tiny_pivot_against_its_row_raises(self):
        # lhs - lo*rhs starts with [[1e-14, 0.3], [0.3, 1e-14]]: well
        # conditioned, but an LDL^T without pivoting divides by 1e-14 and its
        # signs no longer count; pivots are compared with their own row, not
        # with the largest pivot, which on graded meshes is 1e15 times the
        # smallest in counts that are right
        size = 20
        lhs = np.diag(np.concatenate([[-1.0 + 1e-14] * 2, np.arange(5.0, 5.0 + size - 2)]))
        lhs[0, 1] = lhs[1, 0] = 0.3
        with pytest.raises(SolverError, match="tiny against its row"):
            solve(toy_system(lhs, np.eye(size)), window=(-1.0, 0.0))

    def test_a_dropped_level_is_refused(self, hydrogen_solution, monkeypatch):
        # a search that loses the n_r = 2 level returns one level fewer than
        # the window's inertia count: the solve must refuse, not return it
        params, system, _ = hydrogen_solution
        accept = eigensolver._LevelSearch._accept

        def drop_one(search, mu, *args):
            return abs(mu + 0.0556) > 1e-3 and accept(search, mu, *args)

        monkeypatch.setattr(eigensolver._LevelSearch, "_accept", drop_one)
        with pytest.raises(SolverError, match="not certified"):
            solve(system, window=bound_window(params, 6))

    def test_debug_record_names_the_count(self, caplog):
        params = OperatorParams(Z=12, kappa=-2)
        system = assemble(SCHEME_HERMITE, params, build_exponential_mesh(1e-6, 60.0, 100, 8.5))
        lo, hi = bound_window(params, 12)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(system, window=(lo, hi))
        # one record for the whole window: the Galerkin solve cuts no disk
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        shifts = [reference_binding(params, n_r).binding for n_r in range(12)]
        for part in (f"N={system.size} ", "band=(7, 7)", f"window=({lo!r}, {hi!r})",
                     "driver=inertia", f"m={len(windowed.raw)} ",
                     "shifts=[" + ", ".join(f"{s:.10g}" for s in shifts) + "]"):
            assert part in record
        factorizations, counts, steps = (int(re.search(rf" {key}=(\d+)", record).group(1))
                                         for key in ("factorizations", "counts", "steps"))
        # one factorization per shift, one count at each edge, at least two
        # steps a shift
        assert factorizations >= 12 and counts == 2 and steps >= 2 * 12
        # the 12 genuine levels and the instilled one
        assert len(windowed.raw) == 13


    @pytest.mark.parametrize("scheme, z, kappa, mesh_args, levels, factorizations, steps", [
        (SCHEME_LINEAR, 1, 1, (1e-6, 150.0, 100, 8.0), 6, 11, 35),
        (SCHEME_LINEAR, 1, -1, (1e-6, 150.0, 100, 8.0), 6, 8, 24),
        (SCHEME_HERMITE, 12, -2, (1e-6, 60.0, 100, 8.5), 12, 14, 39)])
    def test_work_counts(self, scheme, z, kappa, mesh_args, levels, factorizations, steps,
                         caplog):
        # the CLI's pathology windows and the Z=12 convergence window at n=100:
        # each extra level is searched on the factor of the shift beside it,
        # each kappa < 0 window ends at its last level, and the inertia
        # counts are at lo and hi alone. The counts are deterministic, so
        # work that comes back fails here (a search of each extra level on
        # a fresh factor of its own, on windows one level taller, took
        # 16/41, 17/41 and 17/43 factorizations/steps)
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(scheme, params, build_exponential_mesh(*mesh_args))
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            solve(system, window=bound_window(params, levels))
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        assert f" factorizations={factorizations} counts=2 steps={steps} " in record

    @pytest.mark.parametrize("scheme, z, kappa, mesh_args, levels, exact_scales", [
        (SCHEME_LINEAR, 1, 1, (1e-6, 150.0, 100, 8.0), 6, 1),
        (SCHEME_LINEAR, 1, -1, (1e-6, 150.0, 100, 8.0), 6, 0),
        (SCHEME_HERMITE, 1, 1, (1e-6, 150.0, 100, 8.0), 6, 0),
        (SCHEME_HERMITE, 1, -1, (1e-6, 150.0, 100, 8.0), 6, 0),
        (SCHEME_HERMITE, 12, -2, (1e-6, 60.0, 100, 8.5), 12, 0),
        (SCHEME_HERMITE, 12, -2, (1e-6, 60.0, 200, 8.5), 12, 0),
        (SCHEME_HERMITE, 12, -2, (1e-6, 60.0, 400, 8.5), 12, 0)])
    def test_acceptance_reads_the_bound_in_hand(self, scheme, z, kappa, mesh_args, levels,
                                                exact_scales, accept_attempts):
        # the benchmark windows: the bound from the step's own products
        # decides every accept attempt (each as the exact scale does, see
        # ``accept_attempts``) but one, a level of the linear kappa = +1
        # window near -0.01045 whose residual is 1.3e-10 of the bound and
        # 2.3e-14 of the exact scale; there the exact scale is formed once and
        # accepts it, and elsewhere |lhs| and |rhs| are never formed
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(scheme, params, build_exponential_mesh(*mesh_args))
        spectrum = solve(system, window=bound_window(params, levels))
        assert {products for _, _, products, _ in accept_attempts} <= {0, 2}
        exact = [(mu, kept) for mu, kept, products, _ in accept_attempts if products]
        assert len(exact) == exact_scales
        assert all(kept and mu in spectrum.bindings for mu, kept in exact)
        assert any(formed for *_, formed in accept_attempts) == bool(exact_scales)

    @pytest.mark.parametrize("z, kappa, mesh_args, levels", [
        (1, -1, (1e-6, 150.0, 100, 8.0), 6), (12, -2, (1e-6, 60.0, 100, 8.5), 12)])
    @pytest.mark.parametrize("scheme", [SCHEME_LINEAR, SCHEME_HERMITE])
    def test_an_equal_mix_of_neighbouring_levels_is_refused(self, scheme, z, kappa, mesh_args,
                                                            levels, accept_attempts):
        # the rhs-normalized mix of two neighbouring levels has a small
        # residual against its Rayleigh quotient, but not small enough: the
        # bound refuses it, and so does the exact scale it then forms
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(scheme, params, build_exponential_mesh(*mesh_args))
        vectors = solve(system, window=bound_window(params, levels)).eigenvectors
        del accept_attempts[:]
        for i in range(vectors.shape[1] - 1):
            y = (vectors[:, i] + vectors[:, i + 1]) / np.sqrt(2.0)
            rhs_y, lhs_y = (eigensolver._band_product(band, y)
                            for band in (system.rhs_band, system.lhs_band))
            search = eigensolver._LevelSearch(system)
            assert not search._accept(y @ lhs_y, y, rhs_y, lhs_y)
            assert search.mu == []
        assert [(kept, products) for _, kept, products, _ in accept_attempts] == \
            [(False, 2)] * (vectors.shape[1] - 1)

    @pytest.mark.parametrize("scheme, free, z, kappa, mesh_args, levels", [
        (SCHEME_LINEAR, False, 1, -1, (1e-6, 150.0, 100, 8.0), 6),
        (SCHEME_HERMITE, False, 1, -1, (1e-6, 150.0, 100, 8.0), 6),
        (SCHEME_HERMITE, True, 1, -1, (1e-6, 150.0, 100, 8.0), 6),
        (SCHEME_HERMITE, False, 12, -2, (1e-6, 60.0, 400, 8.5), 12),
        (SCHEME_HERMITE, False, 92, -1, (1e-7, 1.0, 150, 9.0), 3)])
    def test_only_the_g_branch_lies_below_lo(self, scheme, free, z, kappa, mesh_args, levels):
        # lo lies below every level of the bound branch, so the levels below
        # it are the N_g of the negative-energy branch, one per g dof
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(scheme, params, build_exponential_mesh(*mesh_args),
                          free_lower_slope=free)
        lo = bound_window(params, levels)[0]
        n_g = sum(len(part_dofs(scheme, system.size, part)) for part in ("xi", "xi_prime"))
        assert eigensolver._inertia_counter(system)(lo) == n_g

    @pytest.mark.parametrize("scheme", [SCHEME_LINEAR, SCHEME_HERMITE])
    def test_levels_above_lo_on_g_dofs(self, scheme, caplog):
        # the diagonal toys put levels above lo on g dofs, so count(lo) is
        # not N_g: the solve counts both edges and finds the one level
        level = reference_binding(TOY, 0).binding
        system = toy_system(np.diag(np.concatenate([[level], np.arange(5.0, 24.0)])),
                            np.eye(20), scheme=scheme)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(system, window=(-1.0, 0.0))
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        assert windowed.bindings.tolist() == [level]
        assert " m=1 " in record and " counts=2 " in record

    def test_level_below_lo_takes_the_exact_count(self, caplog):
        # the g dofs hold levels near -2mc^2, and an f level lies below lo
        # too, so count(lo) = N_g + 1: the window holds count(hi) - N_g - 1
        # levels, and the solve must return exactly those three, with no
        # search of the interval from lo to the first shift (on N_g's
        # parity alone it looked odd, and halving it took 16 more
        # factorizations)
        size = 24
        shifts = [reference_binding(TOY, n_r).binding for n_r in range(3)]
        levels = [s + 1e-4 for s in shifts]
        diagonal = np.empty(size)
        diagonal[0::2] = [-1.5] + levels + list(np.arange(5.0, 5.0 + size // 2 - 4))
        diagonal[1::2] = -200.0 - np.arange(size // 2)
        system = toy_system(np.diag(diagonal), np.eye(size))
        assert eigensolver._inertia_counter(system)(-1.0) == size // 2 + 1
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(system, window=(-1.0, -0.04))
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        np.testing.assert_allclose(windowed.bindings, levels, rtol=1e-13)
        assert " m=3 " in record and " factorizations=3 counts=2 " in record


#: The Galerkin pencils of the benchmark windows (pathology-z1, convergence-z12),
#: the Z=92 pencils and a free-slope Hermite one: (scheme, free, Z, kappa, mesh, levels)
COUNTED_PENCILS = [
    *[(scheme, False, 1, kappa, (1e-6, 150.0, 100, 8.0), 6)
      for scheme in (SCHEME_LINEAR, SCHEME_HERMITE) for kappa in (-1, 1)],
    *[(SCHEME_HERMITE, False, 12, -2, (1e-6, 60.0, n, 8.5), 12) for n in (100, 200, 400)],
    (SCHEME_LINEAR, False, 92, -1, (1e-7, 1.0, 150, 9.0), 3),
    (SCHEME_HERMITE, False, 92, -1, (1e-7, 1.0, 150, 9.0), 3),
    (SCHEME_HERMITE, True, 1, -1, (1e-6, 150.0, 100, 8.0), 6)]


def band_toy(lhs, hb):
    """A symmetric toy pencil (lhs, I) stored with half-bandwidth ``hb``."""
    size = len(lhs)
    return AssembledSystem(scheme=SCHEME_LINEAR, lhs_band=band_storage(lhs, hb),
                           rhs_band=band_storage(np.eye(size), hb), params=TOY)


def random_band(rng, size, hb, diagonal):
    """A symmetric matrix of half-bandwidth ``hb``: entries from U(-1, 1), then ``diagonal``."""
    lhs = np.triu(np.tril(rng.uniform(-1.0, 1.0, (size, size)), hb), 1)
    return lhs + lhs.T + np.diag(diagonal)


class TestInertiaCount:
    """The scaled band-LU inertia count, against SuperLU's LDL^T and the dense spectrum."""

    @pytest.mark.parametrize("scheme, free, z, kappa, mesh_args, levels", COUNTED_PENCILS)
    def test_count_is_superlus_across_the_window(self, scheme, free, z, kappa, mesh_args,
                                                 levels):
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(scheme, params, build_exponential_mesh(*mesh_args),
                          free_lower_slope=free)
        window = bound_window(params, levels)
        count = eigensolver._inertia_counter(system)
        # both edges and 25 shifts between them
        for s in np.linspace(*window, 27):
            assert count(s) == superlu_count(system, s)

    def test_count_is_superlus_in_random_windows(self):
        # within 1e-9 relative of a level either count can be off by one
        # (measured); the solver never counts that close, and from 1e-7 on
        # the two agree at every shift tried. Each window returns as many
        # levels as SuperLU counts between its edges
        rng = np.random.default_rng(25)
        compared = 0
        for _ in range(24):
            abs_kappa, levels = int(rng.integers(1, 4)), int(rng.integers(1, 14))
            z = int(rng.choice([1, 2, 12, 50, 92]))
            params = OperatorParams(Z=z, kappa=int(rng.choice([-1, 1])) * abs_kappa)
            scheme = (SCHEME_LINEAR, SCHEME_HERMITE)[int(rng.integers(2))]
            b = 3.0 * (levels + abs_kappa + 1) ** 2 / z * 2.0 ** rng.uniform(-1.0, 1.0)
            mesh = build_exponential_mesh(10.0 ** rng.uniform(-7.0, -4.0), b,
                                          int(rng.integers(20, 201)), rng.uniform(4.0, 10.0))
            system = assemble(scheme, params, mesh,
                              free_lower_slope=scheme == SCHEME_HERMITE and bool(rng.integers(2)))
            window = bound_window(params, levels)
            found = solve(system, window=window).bindings
            assert len(found) == superlu_count(system, window[1]) - superlu_count(system, window[0])
            count = eigensolver._inertia_counter(system)
            for s in rng.uniform(*window, 8):
                if not np.all(np.abs(found - s) >= 1e-7 * abs(s)):
                    continue
                assert count(s) == superlu_count(system, s)
                compared += 1
        assert compared >= 150

    @pytest.mark.parametrize("hb", [3, 7, 23])
    def test_scaling_keeps_the_unpivoted_pivots(self, hb, monkeypatch):
        # an indefinite, diagonally dominant toy that plain dgbtrf factors
        # without a row interchange: the count's factor of the scaled pencil
        # holds the same pivots, bit for bit
        size, s = 60, 0.5
        rng = np.random.default_rng(hb)
        dominant = (2 * hb + 1 + rng.uniform(0.0, 1.0, size)) * rng.choice([-1.0, 1.0], size)
        system = band_toy(random_band(rng, size, hb, dominant), hb)
        assert np.log2(eigensolver._count_scale(hb)).ravel().tolist() == \
            [-40.0 * d for d in range(-hb, hb + 1)]
        plain = np.zeros((3 * hb + 1, size), order="F")
        plain[hb:] = np.multiply(system.rhs_band, -s) + system.lhs_band
        plain, swaps, info = scipy.linalg.lapack.dgbtrf(plain, hb, hb)
        assert info == 0 and swaps.tolist() == list(range(size))
        factors = []

        def recorded(*args, **kwargs):
            factor, swaps, info = scipy.linalg.lapack.dgbtrf(*args, **kwargs)
            factors.append(factor.copy())
            return factor, swaps, info

        monkeypatch.setattr(eigensolver, "dgbtrf", recorded)
        negative = eigensolver._inertia_counter(system)(s)
        assert factors[0][2 * hb].tobytes() == plain[2 * hb].tobytes()
        assert negative == np.count_nonzero(plain[2 * hb] < 0) == superlu_count(system, s)
        assert 0 < negative < size

    @pytest.mark.parametrize("diagonal, coupling, s, refusal", [
        # at s = 4 the fourth pivot is exactly zero, with nothing under it to swap in
        ([1.0, 2.0], 0.0, 4.0, r"at 4\.0 failed: pivot 3 is exactly zero"),
        # the toy of test_tiny_pivot_against_its_row_raises at lo: the LU
        # swaps rows 0 and 1, and the refusal names the pivot an unpivoted
        # LDL^T would have divided by, not the entry swapped in
        ([-1.0 + 1e-14] * 2, 0.3, -1.0, r"at -1\.0: pivot 0 is 9\.99e-15, tiny"),
        # the second pivot is 1e-14 against its row's 0.5, with nothing
        # larger under it: no row interchange marks it, the row guard must
        ([1.0, 0.25 + 1e-14], 0.5, 0.0, r"at 0\.0: pivot 1 is 9\.99e-15, tiny")])
    def test_refusals_name_the_shift(self, diagonal, coupling, s, refusal):
        # rows 0 and 1 start [[d0, coupling], [coupling, d1]], then 3, 4, 5, ...
        size = 20
        lhs = np.diag(np.concatenate([diagonal, np.arange(3.0, 1.0 + size)]))
        lhs[0, 1] = lhs[1, 0] = coupling
        system = toy_system(lhs, np.eye(size))
        with pytest.raises(SolverError, match=refusal):
            eigensolver._inertia_counter(system)(s)
        with pytest.raises(SolverError):
            superlu_count(system, s)

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_band_counts_right_or_refuses(self, seed):
        # hb = 30 leaves 40*hb past the double range, so the scales span
        # 2^(+-32*30) and pivots below 2^-32 of an entry under them swap and
        # refuse: a count is the dense spectrum's or SolverError, never
        # another count and never an overflow (a RuntimeWarning fails the test)
        size, hb = 64, 30
        rng = np.random.default_rng(seed)
        lhs = random_band(rng, size, hb, rng.uniform(-4.0, 4.0, size))
        system = band_toy(lhs, hb)
        assert np.log2(eigensolver._count_scale(hb)).min() == -32 * hb
        levels = np.linalg.eigvalsh(lhs)
        count = eigensolver._inertia_counter(system)
        counted = 0
        for i, s in enumerate(0.5 * (levels[1:] + levels[:-1])):
            try:
                got = count(s)
            except SolverError:
                continue
            assert got == i + 1
            counted += 1
        assert counted >= size // 2


#: Probe points of one shift sequence and the parity of the levels below each.
PROBES = {-1.0: 1, -0.6: 1, -0.5: 1}
#: A level nearer -0.6 than the parity fuzz, which may sit on either side of it.
NEAR_PROBE = -0.6 * (1.0 - eigensolver.PARITY_FUZZ / 4)


class TestOddInterval:
    """The interval ending at a probe, searched when its found levels miss its parity."""

    @pytest.mark.parametrize("found, top, want", [
        pytest.param([], -0.5, None, id="even-interval"),
        pytest.param([-0.55], -0.5, (-0.6, -0.5), id="one-found-in-an-even-interval"),
        pytest.param([], -0.3, None, id="top-is-no-probe"),
        pytest.param([], -1.0, None, id="no-probe-below-top"),
        pytest.param([-0.5 * (1.0 + eigensolver.PARITY_FUZZ / 4)], -0.5, None,
                     id="top-within-fuzz-of-a-level"),
        pytest.param([NEAR_PROBE], -0.5, (-1.0, -0.5), id="probe-within-fuzz-skipped"),
    ])
    def test_interval_ending_at_top(self, found, top, want):
        assert eigensolver._odd_interval(PROBES, found, top) == want


class TestStabilizedParity:
    """The parity check of the stabilized pencil's Arnoldi disks."""

    def test_dropped_supg_level_fails_its_parity(self, monkeypatch):
        # an Arnoldi solve that loses the eigenpair nearest its shift still
        # covers the disk, but no longer matches the determinant signs
        params = OperatorParams(Z=1, kappa=-1)
        system = assemble(SCHEME_SUPG, params, build_exponential_mesh(1e-6, 40.0, 60, 8.0))
        window = bound_window(params, 3)
        assert len(solve(system, window=window).bindings) >= 3
        eigs = scipy.sparse.linalg.eigs

        def drop_nearest(*args, **kwargs):
            theta, vecs = eigs(*args, **kwargs)
            keep = np.arange(len(theta)) != np.argmax(np.abs(theta))
            return theta[keep], vecs[:, keep]

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", drop_nearest)
        with pytest.raises(SolverError, match="determinant signs"):
            solve(system, window=window)


class TestShapeCache:
    """What is held per shape, assembly's band slots and the start vector, changes no solve."""

    @staticmethod
    def _solved(scheme, n, caplog, free=False, levels=6):
        """(bands, spectrum, DEBUG records) of a fresh assembly and solve of the Z=1 pathology."""
        params = OperatorParams(Z=1, kappa=-1)
        system = assemble(scheme, params, build_exponential_mesh(1e-6, 150.0, n, 8.0),
                          free_lower_slope=free)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            spectrum = solve(system, window=bound_window(params, levels))
        records = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        return (system.lhs_band, system.rhs_band), spectrum, records

    @staticmethod
    def _clear():
        eigensolver._start_vector.cache_clear()
        assembly._band_slots.cache_clear()

    @staticmethod
    def _assert_same(got, want):
        (bands, spectrum, records), (want_bands, want_spectrum, want_records) = got, want
        for a, b in zip(bands, want_bands):
            assert a.tobytes() == b.tobytes()
        for field in ("bindings", "raw", "eigenvectors"):
            assert getattr(spectrum, field).tobytes() == getattr(want_spectrum, field).tobytes()
        assert records == want_records

    def test_shapes_of_one_size_solved_interleaved(self, caplog):
        # linear n=200 and Hermite n=100 both have N=400, with half-bandwidths
        # 3 and 7 and different g dofs
        cases = [(SCHEME_LINEAR, 200), (SCHEME_HERMITE, 100)]
        fresh = {}
        for case in cases:
            self._clear()
            fresh[case] = self._solved(*case, caplog)
        assert [fresh[case][0][0].shape[1] for case in cases] == [400, 400]
        for case in cases + cases:
            self._assert_same(self._solved(*case, caplog), fresh[case])

    @pytest.mark.parametrize("case, after", [
        ((SCHEME_SUPG, 100, False),
         [(SCHEME_LINEAR, 200), (SCHEME_LINEAR, 100), (SCHEME_HERMITE, 100)]),
        ((SCHEME_HERMITE, 100, True), [(SCHEME_LINEAR, 201), (SCHEME_HERMITE, 100)])])
    def test_other_shapes_of_one_size_after_galerkin_solves(self, case, after, caplog):
        # SUPG (N=400) and the free lower slope (N=4n+2=402) after Galerkin
        # solves of the same size, or of the same n
        scheme, n, free = case
        self._clear()
        fresh = self._solved(scheme, n, caplog, free=free, levels=3)
        for other in after:
            self._solved(*other, caplog)
        self._assert_same(self._solved(scheme, n, caplog, free=free, levels=3), fresh)

    def test_cached_arrays_are_read_only(self):
        arrays = [eigensolver._start_vector(400), eigensolver._start_vector(402),
                  assembly._band_slots(100, True, False)[2]]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


class TestDenseOracle:
    def test_worker_returns_the_in_process_bits(self):
        # the acceptance fixtures solve in spawned workers with one BLAS
        # thread each; what comes back must be what an in-process solve gives
        params = OperatorParams(Z=12, kappa=-2)
        mesh = build_exponential_mesh(1e-6, 60.0, 60, 8.5)
        system = assemble(SCHEME_SUPG, params, mesh)
        here = dense_bindings(system)
        environment = dict(os.environ)
        (there,) = dense_bindings_in_workers([system], timeout=120.0)
        assert dict(os.environ) == environment  # the BLAS settings were the workers' only
        assert len(here.bindings) >= 12
        for field in ("bindings", "raw"):
            assert getattr(there, field).tobytes() == getattr(here, field).tobytes()
        assert there.max_imag == here.max_imag and there.params == params
