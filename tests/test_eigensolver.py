import logging
import os
import re

import numpy as np
import pytest
import scipy.linalg.lapack

from diracfem.assembly import (
    SCHEME_HERMITE,
    SCHEME_LINEAR,
    SCHEME_SUPG,
    AssembledSystem,
    assemble,
)
from diracfem.discretization import build_exponential_mesh
from diracfem.eigensolver import (
    SPLIT_LEVELS,
    _normalize_vectors,
    bound_states,
    bound_window,
    component_coefficients,
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
    point_nucleus,
    reference_binding,
    reference_spectrum,
)

from oracles import (
    band_storage,
    dense_bindings,
    dense_bindings_in_workers,
    dense_rayleigh_bindings,
    rayleigh_quotients,
)

TOY = OperatorParams(Z=1, kappa=-1, c=10.0)  # mc^2 = 100

# Toy pencils are written in binding form, as ``assemble`` returns them:
# lhs = A - mc^2 * rhs for the Dirac-form matrix A, so raw = mu + mc^2.


def toy_system(lhs, rhs, scheme=SCHEME_LINEAR):
    """A dense block-layout pencil stored as a full band, in the identity order."""
    size = len(lhs)
    return AssembledSystem(scheme=scheme, lhs_band=band_storage(lhs, size - 1),
                           rhs_band=band_storage(rhs, size - 1), block_index=np.arange(size),
                           dof_blocks=(("zeta", size // 2), ("xi", size - size // 2)),
                           params=TOY)


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
            dense_bindings(assemble(SCHEME_SUPG, params, mesh, point_nucleus(2.0)))

    @pytest.mark.parametrize("reality_tol", [float("nan"), float("inf"), -1.0])
    def test_bad_reality_tol_rejected(self, reality_tol):
        # nan and inf would let the complex levels of the pencil above pass,
        # and -1 would blame the pencil for the caller's tolerance
        params = OperatorParams(Z=2, kappa=1)
        mesh = build_exponential_mesh(1e-5, 30.0, 24, 6.0)
        system = assemble(SCHEME_SUPG, params, mesh, point_nucleus(2.0))
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
        system = assemble(SCHEME_HERMITE, params, mesh, point_nucleus(1.0))
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
    system = assemble(SCHEME_HERMITE, params, mesh, point_nucleus(1.0))
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
        params, system, spectrum = hydrogen_windowed
        oracle = dense_rayleigh_bindings(system, -2.0 * params.rest_energy, 0.0)
        np.testing.assert_allclose(spectrum.bindings[:6], oracle[:6], rtol=1e-9)
        for k in range(min(6, len(spectrum.bindings))):
            res = eigenpair_residual(system, spectrum.bindings[k],
                                     spectrum.eigenvectors[:, k])
            assert res <= 1e-8

    def test_vectors_rhs_normalized_with_positive_lead(self, hydrogen_windowed):
        params, system, spectrum = hydrogen_windowed
        zeta = spectrum.dof_blocks[0][1]
        for k in range(3):
            v = spectrum.eigenvectors[:, k]
            assert v @ system.rhs @ v == pytest.approx(1.0, rel=1e-10)
            assert v[np.argmax(np.abs(v[:zeta]))] > 0

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
        system = assemble(SCHEME_HERMITE, params, mesh, point_nucleus(1.0))
        spectrum = solve(system, window=bound_window(params, 4))
        exact = [level.binding for level in reference_spectrum(params, 3)]
        np.testing.assert_allclose(spectrum.bindings[:3], exact, rtol=3e-8, atol=0.0)

    def test_windowed_supg_matches_dense(self):
        mesh = build_exponential_mesh(1e-6, 40.0, 60, 8.0)
        for kappa in (1, -1):
            params = OperatorParams(Z=1, kappa=kappa)
            system = assemble(SCHEME_SUPG, params, mesh, point_nucleus(1.0))
            lo, hi = bound_window(params, 3)
            dense = dense_bindings(system)
            windowed = solve(system, window=(lo, hi))
            full = dense.bindings[(dense.bindings > lo) & (dense.bindings < hi)]
            assert len(full) >= 2
            assert len(windowed.bindings) == len(full)
            np.testing.assert_allclose(windowed.bindings, full, rtol=1e-9, atol=0.0)
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
        # every eigenvalue lies in the window: no k < N - 1 can certify it
        system = toy_system(np.diag(-np.linspace(0.1, 0.9, 10)), np.eye(10))
        with pytest.raises(SolverError, match="not certified"):
            solve(system, window=(-1.0, 0.0))

    def test_windowed_solve_of_an_empty_window(self):
        # every eigenvalue lies above the window: no bindings, no eigenvectors
        windowed = solve(toy_system(np.diag(np.arange(5.0, 25.0)), np.eye(20)), window=(-1.0, 0.0))
        assert windowed.bindings.shape == (0,)
        assert windowed.eigenvectors.shape == (20, 0)

    def test_windowed_singular_shift(self):
        # sigma = -0.5 is an eigenvalue: the shifted pencil is exactly singular
        lhs = np.diag(np.concatenate([[-0.5], np.arange(5.0, 25.0)]))
        with pytest.raises(SingularSystemError):
            solve(toy_system(lhs, np.eye(21)), window=(-1.0, 0.0))

    def test_windowed_solve_pivots(self):
        # sigma = -0.5 leaves the block [[0, 0.3], [0.3, 0]] in lhs - sigma*rhs:
        # nonsingular, but only a pivoting factorization gets past its zero
        # diagonal; its eigenvalues -0.8 and -0.2 are the window's levels
        size = 20
        lhs = np.diag(np.concatenate([[-0.5, -0.5], np.arange(5.0, 5.0 + size - 2)]))
        lhs[0, 1] = lhs[1, 0] = 0.3
        system = toy_system(lhs, np.eye(size))
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
        system = assemble(scheme, params, mesh, point_nucleus(1.0), free_lower_slope=free)
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            solve(system, window=bound_window(params, 3))
        (record,) = [r for r in caplog.records if r.name == "diracfem"]
        assert f"band=({width}, {width})" in record.getMessage()
        # the Galerkin pencils are symmetric-definite, the SUPG one is not
        driver = "nonsymmetric" if scheme == SCHEME_SUPG else "symmetric"
        assert f" driver={driver} " in record.getMessage()

    def test_windowed_solve_logs_its_shape(self, hydrogen_solution, caplog):
        params, system, _ = hydrogen_solution
        with caplog.at_level(logging.DEBUG, logger="diracfem"):
            solve(system, window=(-1.0, -0.01))
        (record,) = [r for r in caplog.records if r.name == "diracfem"]
        message = record.getMessage()
        for part in (f"N={system.size}", "nnz=", "window=(-1.0, -0.01)", "sigma=-0.505",
                     "driver=symmetric", "k=16", "rounds=1", "ops=", "max_imag=0"):
            assert part in message
        # ARPACK applies the operator at least once per Krylov vector
        assert int(re.search(r"ops=(\d+)", message).group(1)) > 16

    def test_split_window_keeps_an_eigenvalue_on_its_edge_once(self):
        # mu = -0.5 sits exactly on the interior edge: the lower disk keeps
        # it, and the upper one starts in the empty gap (-0.5, -0.3) above it
        size = 20
        lhs = np.diag(np.concatenate([[-0.9, -0.6, -0.5, -0.3, -0.1],
                                      np.arange(5.0, 5.0 + size - 5)]))
        windowed = solve(toy_system(lhs, np.eye(size)), window=(-1.0, -0.5, 0.0))
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
            windowed = solve(toy_system(lhs, np.eye(size)), window=(-1.0, -0.5, -0.01))
        np.testing.assert_allclose(windowed.bindings, [-0.9], rtol=1e-12)
        assert len([r for r in caplog.records if r.name == "diracfem"]) == 1
        np.testing.assert_allclose(windowed.raw - TOY.rest_energy, [-0.9, 5.0, 6.0],
                                   rtol=1e-12)

    def test_split_window_logs_one_record_per_disk(self, caplog):
        params = OperatorParams(Z=12, kappa=-2)
        mesh = build_exponential_mesh(1e-6, 60.0, 100, 8.5)
        system = assemble(SCHEME_HERMITE, params, mesh, point_nucleus(12.0))
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
        system = assemble(scheme, params, mesh, point_nucleus(12.0))
        window = bound_window(params, 12)
        assert len(window) == 3
        windowed = solve(system, window=window)
        dense = dense_bindings(system)
        full = dense.bindings[(dense.bindings > window[0]) & (dense.bindings < window[-1])]
        assert len(full) >= 12
        assert len(windowed.bindings) == len(full)
        np.testing.assert_allclose(windowed.bindings, full, rtol=1e-9, atol=0.0)

    def test_bound_window(self):
        neg = OperatorParams(Z=12, kappa=-2)
        for kappa in (2, -2):
            params = OperatorParams(Z=12, kappa=kappa)
            window = bound_window(params, 12)
            lo, hi = window[0], window[-1]
            assert lo == 2.0 * reference_binding(neg, 0).binding
            assert reference_binding(neg, 12).binding < hi < reference_binding(neg, 13).binding
            # a many-level window is cut between the reference levels n_r = 1 and 2
            assert len(window) == 3
            assert window[1] == 0.5 * (reference_binding(neg, 1).binding
                                       + reference_binding(neg, 2).binding)
            # a window of fewer than SPLIT_LEVELS levels stays one slice
            lo, hi = bound_window(params, SPLIT_LEVELS - 1)
            assert lo == window[0]
            assert (reference_binding(neg, SPLIT_LEVELS - 1).binding < hi
                    < reference_binding(neg, SPLIT_LEVELS).binding)
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
        system = assemble(SCHEME_SUPG, params, mesh, point_nucleus(1.0))
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
        np.testing.assert_array_equal(np.concatenate([values, slopes, gv, gs]), vec)
        with pytest.raises(ValueError):
            component_coefficients(spectrum, 0, "h")

    @pytest.mark.parametrize("scheme", [SCHEME_LINEAR, SCHEME_HERMITE, SCHEME_SUPG])
    def test_dense_solve_returns_eigenvalues_only(self, scheme):
        # the windowed solve is the one source of eigenvectors, and every
        # spectrum it returns carries one per binding
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 40.0, 40, 8.0)
        system = assemble(scheme, params, mesh, point_nucleus(1.0))
        dense = dense_bindings(system)
        assert len(dense.bindings) >= 3
        assert not hasattr(dense, "eigenvectors")
        windowed = solve(system, window=bound_window(params, 3))
        assert windowed.eigenvectors.shape == (system.size, len(windowed.bindings))

    def test_linear_scheme_has_no_slopes(self):
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 40.0, 30, 5.0)
        spectrum = solve(assemble(SCHEME_LINEAR, params, mesh, point_nucleus(1.0)),
                         window=bound_window(params, 3))
        values, slopes = component_coefficients(spectrum, 0, "f")
        assert slopes is None
        assert values.shape == (30,)

    def test_free_lower_slope_solve(self):
        # freeing the slope dof at the lower endpoint (physical for |kappa|=1)
        # sharpens the ground state by orders of magnitude
        params = OperatorParams(Z=1, kappa=-1)
        mesh = build_exponential_mesh(1e-5, 60.0, 60, 6.0)
        pot = point_nucleus(1.0)
        window = bound_window(params, 3)
        fixed = solve(assemble(SCHEME_HERMITE, params, mesh, pot), window=window)
        free = solve(assemble(SCHEME_HERMITE, params, mesh, pot, free_lower_slope=True),
                     window=window)
        exact = -0.50000665659
        assert abs(free.bindings[0] - exact) < 0.01 * abs(fixed.bindings[0] - exact)
        values, slopes = component_coefficients(free, 0, "f")
        assert slopes.shape == (61,)

    def test_extended_nucleus_is_less_bound(self):
        # uranium-scale charge: smearing the nucleus over R ~ 1.4e-4 a.u.
        # raises the ground level relative to the point-nucleus one
        from diracfem.physics import extended_nucleus, reference_binding

        params = OperatorParams(Z=92, kappa=-1)
        mesh = build_exponential_mesh(1e-7, 1.0, 150, 9.0)
        point_spec = dense_bindings(assemble(SCHEME_HERMITE, params, mesh, point_nucleus(92.0)))
        ext_spec = dense_bindings(assemble(SCHEME_HERMITE,
                                           params, mesh, extended_nucleus(92.0, 1.4e-4)))
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
    """The symmetric Lanczos driver of the Galerkin pencils, and what it assumes of them."""

    @pytest.mark.parametrize("scheme, free", GALERKIN_SCHEMES)
    @pytest.mark.parametrize("z, kappa, mesh_args", GALERKIN_CASES)
    def test_galerkin_pencil_is_symmetric_definite(self, scheme, free, z, kappa, mesh_args):
        # the driver works on C^T (lhs - sigma*rhs)^-1 C for rhs = C*C^T:
        # lhs must be symmetric and rhs must factor
        params = OperatorParams(Z=z, kappa=kappa)
        system = assemble(scheme, params, build_exponential_mesh(*mesh_args),
                          point_nucleus(float(z)), free_lower_slope=free)
        lhs = system.lhs
        assert np.max(np.abs(lhs - lhs.T)) <= 1e-14 * np.max(np.abs(lhs))
        hb = system.rhs_band.shape[0] // 2
        _, info = scipy.linalg.lapack.dpbtrf(system.rhs_band[hb:], lower=1)
        assert info == 0

    def test_indefinite_galerkin_rhs_raises(self):
        # a Galerkin-labelled pencil whose rhs is not positive definite has
        # no symmetric-definite solve: it is refused, not solved wrongly
        # (a Galerkin solve of it would return the window's level mu = -0.3
        # of a vector with negative rhs norm)
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
        # symmetric Rayleigh-Ritz makes each binding's error quadratic in its
        # residual; a nonsymmetric (Arnoldi) solve leaves the Z=12 kappa=+2
        # instilled level near -0.8896 6.1e-11 off
        params = OperatorParams(Z=z, kappa=kappa)
        mesh = (1e-6, 60.0, n, 8.5) if z == 12 else (1e-6, 150.0, n, 8.0)
        system = assemble(scheme, params, build_exponential_mesh(*mesh), point_nucleus(float(z)))
        spectrum = solve(system, window=bound_window(params, levels))
        assert len(spectrum.bindings) >= levels
        np.testing.assert_allclose(spectrum.bindings,
                                   rayleigh_quotients(system, spectrum.eigenvectors),
                                   rtol=1e-11, atol=0.0)


class TestDenseOracle:
    def test_worker_returns_the_in_process_bits(self):
        # the acceptance fixtures solve in spawned workers with one BLAS
        # thread each; what comes back must be what an in-process solve gives
        params = OperatorParams(Z=12, kappa=-2)
        mesh = build_exponential_mesh(1e-6, 60.0, 60, 8.5)
        system = assemble(SCHEME_SUPG, params, mesh, point_nucleus(12.0))
        here = dense_bindings(system)
        environment = dict(os.environ)
        (there,) = dense_bindings_in_workers([system], timeout=120.0)
        assert dict(os.environ) == environment  # the BLAS settings were the workers' only
        assert len(here.bindings) >= 12
        for field in ("bindings", "raw"):
            assert getattr(there, field).tobytes() == getattr(here, field).tobytes()
        assert there.max_imag == here.max_imag and there.params == params
