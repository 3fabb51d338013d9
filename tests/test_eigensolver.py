import logging
import os
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg

from diracfem import eigensolver
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
    bound_states,
    bound_window,
    eigenpair_residual,
    solve,
)
from diracfem.errors import (
    ComplexSpectrumError,
    InsufficientLevelsError,
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
)

TOY = OperatorParams(Z=1, kappa=-1, c=10.0)  # mc^2 = 100

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
        bs = bound_states(spectrum, 1)
        assert bs[0] == pytest.approx(-0.5, abs=1e-10)
        with pytest.raises(InsufficientLevelsError):
            bound_states(spectrum, 2)

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

    @pytest.mark.parametrize("reality_tol", [float("nan"), float("inf"), -1.0])
    def test_bad_reality_tol_rejected(self, reality_tol):
        # nan and inf would let the complex levels of the pencil above pass,
        # and -1 would blame the pencil for the caller's tolerance
        params = OperatorParams(Z=2, kappa=1)
        mesh = build_exponential_mesh(1e-5, 30.0, 24, 6.0)
        system = assemble(SCHEME_SUPG, params, mesh)
        with pytest.raises(ValueError, match="reality_tol"):
            dense_bindings(system, reality_tol=reality_tol)
        with pytest.raises(ValueError, match="reality_tol"):
            solve(system, window=bound_window(params, 3), reality_tol=reality_tol)

    @pytest.mark.parametrize("window", [
        (-np.inf, 0.0), (-1.0, np.inf), (-1.0, -0.5, np.inf), (-1.0, -2.0), (-1.0,)])
    def test_bad_window_rejected_before_any_work(self, window, capfd):
        # an infinite edge used to make an infinite shift, a numpy warning,
        # and a SingularSystemError that blamed the pencil for the window
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 60.0, 50, 6.0)
        system = assemble(SCHEME_HERMITE, params, mesh)
        with pytest.raises(ValueError, match="window"):
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
        # sigma = -0.5 is an eigenvalue: the disk's shifted pencil is exactly singular
        lhs = np.diag(np.concatenate([[-0.5], np.arange(5.0, 25.0)]))
        with pytest.raises(SingularSystemError):
            solve(toy_system(lhs, np.eye(21), scheme=SCHEME_SUPG), window=(-1.0, 0.0))

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

    def test_split_window_keeps_an_eigenvalue_on_its_edge_once(self):
        # mu = -0.5 sits exactly on the interior edge: the lower disk keeps
        # it, and the upper one starts in the empty gap (-0.5, -0.3) above it
        size = 20
        lhs = np.diag(np.concatenate([[-0.9, -0.6, -0.5, -0.3, -0.1],
                                      np.arange(5.0, 5.0 + size - 5)]))
        windowed = solve(toy_system(lhs, np.eye(size), scheme=SCHEME_SUPG),
                         window=(-1.0, -0.5, 0.0))
        np.testing.assert_allclose(windowed.bindings, [-0.9, -0.6, -0.5, -0.3, -0.1],
                                   rtol=1e-12)
        assert windowed.eigenvectors.shape == (size, 5)
        assert np.all(np.diff(windowed.raw) > 0)  # sorted, no eigenvalue twice

    def test_split_window_skips_a_slice_certified_empty(self, caplog):
        # the lower disk reaches past the window's top edge without finding
        # an eigenvalue above -0.9: no upper disk runs, and none is lost
        size = 20
        lhs = np.diag(np.concatenate([[-0.9], np.arange(5.0, 5.0 + size - 1)]))
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(toy_system(lhs, np.eye(size), scheme=SCHEME_SUPG),
                             window=(-1.0, -0.5, -0.01))
        np.testing.assert_allclose(windowed.bindings, [-0.9], rtol=1e-12)
        assert len([r for r in caplog.records if r.name == "diracfem"]) == 1
        np.testing.assert_allclose(windowed.raw - TOY.rest_energy, [-0.9, 5.0, 6.0],
                                   rtol=1e-12)

    def test_split_window_logs_one_record_per_disk(self, caplog):
        # the Hermite pencil labelled SUPG runs the Arnoldi disks
        params = OperatorParams(Z=12, kappa=-2)
        mesh = build_exponential_mesh(1e-6, 60.0, 100, 8.5)
        system = relabelled(assemble(SCHEME_HERMITE, params, mesh),
                            SCHEME_SUPG)
        lo, split, hi = bound_window(params, 12)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            solve(system, window=(lo, split, hi))
        lower, upper = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        assert f"window=({lo!r}, {split!r})" in lower and "k=3 " in lower
        assert f", {hi!r})" in upper and "k=16 " in upper
        # the upper disk starts in the gap the lower one certified around the split
        cut = float(re.search(r"window=\((\S+),", upper).group(1))
        assert reference_binding(params, 1).binding < cut < reference_binding(params, 2).binding

    @pytest.mark.parametrize("scheme", [SCHEME_LINEAR, SCHEME_HERMITE, SCHEME_SUPG])
    @pytest.mark.parametrize("kappa", [2, -2])
    def test_split_window_matches_dense(self, scheme, kappa):
        params = OperatorParams(Z=12, kappa=kappa)
        mesh = build_exponential_mesh(1e-6, 60.0, 100, 8.5)
        system = assemble(scheme, params, mesh)
        window = bound_window(params, 12)
        assert len(window) == 3
        windowed = solve(system, window=window)
        if scheme == SCHEME_SUPG:
            # the QZ eigenvalues themselves sit up to 2.9e-11 off these quotients
            full = dense_two_sided_bindings(system, window[0], window[-1]).bindings
            rtol = SUPG_ORACLE_RTOL
        else:
            # the Rayleigh quotients of the dense eigenvectors: the dense eigh
            # values themselves sit up to 2.9e-9 off them
            full = dense_rayleigh_bindings(system, window[0], window[-1])
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
            lo, hi = window[0], window[-1]
            assert lo == 2.0 * reference_binding(neg, 0).binding
            assert hi == 0.5 * (reference_binding(neg, last).binding
                                + reference_binding(neg, last + 1).binding)
            # a many-level window is cut between the reference levels n_r = 1 and 2
            assert len(window) == 3
            assert window[1] == 0.5 * (reference_binding(neg, 1).binding
                                       + reference_binding(neg, 2).binding)
            # a window of fewer than SPLIT_LEVELS levels stays one slice
            lo, hi = bound_window(params, SPLIT_LEVELS - 1)
            assert lo == window[0]
            last = SPLIT_LEVELS - 1 if kappa > 0 else SPLIT_LEVELS - 2
            assert (reference_binding(neg, last).binding < hi
                    < reference_binding(neg, last + 1).binding)
        with pytest.raises(ValueError):
            bound_window(params, 0)

    def test_bound_states_is_slice_of_bindings(self, hydrogen_solution):
        params, system, spectrum = hydrogen_solution
        for count in (1, 4, len(spectrum.bindings)):
            np.testing.assert_array_equal(bound_states(spectrum, count),
                                          spectrum.bindings[:count])
        with pytest.raises(InsufficientLevelsError):
            bound_states(spectrum, len(spectrum.bindings) + 1)
        # a count below 1 would slice silently (-1: all but the last)
        for count in (0, -1):
            with pytest.raises(ValueError, match="count"):
                bound_states(spectrum, count)

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
    def test_extra_level_the_held_factor_misses(self, case, caplog, monkeypatch):
        # genuine levels 1e-4 above the reference shifts s0 < s1 < s2 of the
        # window (-1, -0.04), and an extra level the search on a shift's own
        # factor converges past; the widest-gap loop must find it, and the
        # solve must return exactly the window's levels
        shifts = [reference_binding(TOY, n_r).binding for n_r in range(3)]
        levels = [s + 1e-4 for s in shifts]
        if case == "beside-lower-shift":
            # the extra sits just above s1, in the odd interval (s1, s2); from
            # s2 the nearest level not yet found is -0.03, above the window
            extra, interval = shifts[1] + 2e-3, (shifts[1], shifts[2])
            others = [-0.03]
        else:
            # the extra sits between s2 and hi, and two more levels just below
            # s2 leave (s1, s2) with its parity right: from s2 the search on
            # its factor finds one of them, and the count bisection the other
            extra, interval = -0.045, (shifts[2], -0.04)
            others = [shifts[2] - 3e-3, shifts[2] - 4e-3]
        lhs = np.diag(np.concatenate([levels, [extra], others, np.arange(5.0, 20.0)]))
        gaps = []

        def recorded(x, y, found):
            gaps.append((x, y))
            return widest_gap_midpoint(x, y, found)

        widest_gap_midpoint = eigensolver._widest_gap_midpoint
        monkeypatch.setattr(eigensolver, "_widest_gap_midpoint", recorded)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(toy_system(lhs, np.eye(len(lhs))), window=(-1.0, -0.04))
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        np.testing.assert_allclose(windowed.bindings,
                                   sorted(x for x in levels + [extra] + others if x < -0.04),
                                   rtol=1e-13)
        assert f" m={len(windowed.bindings)} " in record
        assert gaps[0] == interval
        if case == "above-last-shift":
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
        lo, split, hi = bound_window(params, 12)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            windowed = solve(system, window=(lo, split, hi))
        # one record for the whole window: the interior edge cuts no disk
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        shifts = [reference_binding(params, n_r).binding for n_r in range(12)]
        for part in (f"N={system.size} ", "band=(7, 7)", f"window=({lo!r}, {hi!r})",
                     "driver=inertia", f"m={len(windowed.raw)} ",
                     "shifts=[" + ", ".join(f"{s:.10g}" for s in shifts) + "]"):
            assert part in record
        factorizations, counts, steps = (int(re.search(rf" {key}=(\d+)", record).group(1))
                                         for key in ("factorizations", "counts", "steps"))
        # one factorization per shift, the two edge counts, at least two steps a shift
        assert factorizations >= 12 and counts >= 2 and steps >= 2 * 12
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
        # and each kappa < 0 window ends at its last level. The counts are
        # deterministic, so work that comes back fails here (a widest-gap
        # search of each extra level, on windows one level taller, takes
        # 16/41, 17/41 and 17/43 factorizations/steps)
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(scheme, params, build_exponential_mesh(*mesh_args))
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            solve(system, window=bound_window(params, levels))
        (record,) = [r.getMessage() for r in caplog.records if r.name == "diracfem"]
        assert f" factorizations={factorizations} counts=2 steps={steps} " in record


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
