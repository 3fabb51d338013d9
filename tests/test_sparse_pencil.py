"""The windowed pipeline runs on the band pencil and never builds it dense."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from diracfem import analysis, cli
from diracfem.assembly import (
    SCHEME_HERMITE,
    SCHEME_LINEAR,
    SCHEME_SUPG,
    SCHEMES,
    AssembledSystem,
    BlockMatrixSpec,
    assemble,
)
from diracfem.discretization import BasisKind, build_exponential_mesh
from diracfem.eigensolver import bound_window, solve
from diracfem.physics import OperatorParams

from oracles import assemble_block, band_storage, block_order

PATHOLOGY_Z1 = "--Z 1 --abs-kappa 1 --n 100 --a 1e-6 --b 150 --mesh-gamma 8 --levels 6".split()


@pytest.fixture
def no_dense_pencil(monkeypatch):
    def refuse(self):
        raise AssertionError("dense pencil requested on the sparse path")

    monkeypatch.setattr(AssembledSystem, "lhs", property(refuse))
    monkeypatch.setattr(AssembledSystem, "rhs", property(refuse))


@pytest.fixture
def setup():
    params = OperatorParams(Z=2, kappa=-1)
    return params, build_exponential_mesh(1e-6, 40.0, 40, 7.0)


def test_windowed_solve_never_densifies(no_dense_pencil, setup):
    params, mesh = setup
    for scheme in SCHEMES:
        spectrum = solve(assemble(scheme, params, mesh), window=bound_window(params, 6))
        assert len(spectrum.bindings) >= 6


def test_convergence_study_never_densifies(no_dense_pencil, setup):
    params, _ = setup
    study = analysis.convergence_study(SCHEME_HERMITE, params, (60, 120), 3,
                                       a=1e-6, b=40.0, gamma=7.0, match_tol=1e-5)
    assert np.all(np.isfinite(study.errors))


@pytest.mark.parametrize("scheme", ["linear-galerkin", "hermite-galerkin"])
def test_cli_never_densifies(no_dense_pencil, scheme, capsys):
    assert cli.main(PATHOLOGY_Z1 + ["--scheme", scheme, "--format", "csv"]) == 0
    assert "genuine" in capsys.readouterr().out


def test_assemble_and_windowed_solve_build_no_csc_pencil(setup, monkeypatch):
    # the band pencil goes from the element kernel to the factorisation: no
    # CSC matrix, no SuperLU, no pattern sort and no reordering on the way,
    # the Galerkin inertia counts included
    def refuse(*args, **kwargs):
        raise AssertionError("CSC matrix, SuperLU or pattern sort on the band path")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    monkeypatch.setattr(scipy.sparse.csc_array, "__init__", refuse)
    params, mesh = setup
    for scheme in SCHEMES:
        spectrum = solve(assemble(scheme, params, mesh), window=bound_window(params, 6))
        assert len(spectrum.bindings) >= 6


def test_block_has_the_element_pattern(setup):
    # nodes i, j couple when |i - j| <= 1: 3n - 2 node pairs over n interior
    # nodes, times 4 dof pairs for Hermite; the free node-0 slope adds itself
    # and its two couplings to node 1 in each direction. The Galerkin rhs
    # band holds that block once per spinor component and nothing else
    params, mesh = setup
    n = mesh.interior_count
    spec = BlockMatrixSpec(0, 0, 0)
    for scheme, kind, free, nnz in (
            (SCHEME_LINEAR, BasisKind.LINEAR_HAT, False, 3 * n - 2),
            (SCHEME_HERMITE, BasisKind.CUBIC_HERMITE, False, 4 * (3 * n - 2)),
            (SCHEME_HERMITE, BasisKind.CUBIC_HERMITE, True, 4 * (3 * n - 2) + 5)):
        block = assemble_block(spec, kind, mesh, params, free_lower_slope=free)
        assert np.count_nonzero(block) == nnz
        system = assemble(scheme, params, mesh, free_lower_slope=free)
        assert np.count_nonzero(system.rhs_band) == 2 * nnz


def test_pencil_band_is_read_only(setup):
    params, mesh = setup
    system = assemble(SCHEME_LINEAR, params, mesh)
    for array in (system.lhs_band, system.rhs_band):
        with pytest.raises(ValueError):
            array[..., 0] = 1
    assert system.lhs_band.flags.f_contiguous and system.rhs_band.flags.f_contiguous
    # the dense view holds exactly the band's entries, in the same node order
    for band, dense in ((system.lhs_band, system.lhs), (system.rhs_band, system.rhs)):
        np.testing.assert_array_equal(band_storage(dense, 3), band)
        assert np.count_nonzero(dense) == np.count_nonzero(band)
    assert system.lhs.flags.c_contiguous and not system.lhs.flags.writeable


@pytest.mark.parametrize("scheme, free", [(scheme, False) for scheme in SCHEMES]
                         + [(SCHEME_HERMITE, True), (SCHEME_SUPG, True)])
def test_pencil_pattern_is_the_block_pattern(setup, scheme, free):
    # lhs couples all four spinor blocks on the element pattern; the
    # Galerkin rhs is block-diagonal and holds only its two mass blocks
    params, mesh = setup
    system = assemble(scheme, params, mesh, free_lower_slope=free)
    kind = BasisKind.LINEAR_HAT if scheme == SCHEME_LINEAR else BasisKind.CUBIC_HERMITE
    block = assemble_block(BlockMatrixSpec(0, 0, 0), kind, mesh, params, free_lower_slope=free)
    m, nnz = len(block), np.count_nonzero(block)
    pattern = np.tile(block != 0, (2, 2))
    order = np.ix_(block_order(system), block_order(system))
    np.testing.assert_array_equal(system.lhs[order] != 0, pattern)
    rhs = system.rhs[order]
    if scheme == SCHEME_SUPG:
        # the first element carries tau = 0, and only it couples the free
        # node-0 slope: 5 entries of each off-diagonal block stay zero
        assert not rhs[~pattern].any()
        assert np.count_nonzero(rhs) == 4 * nnz - (10 if free else 0)
    else:
        assert not rhs[:m, m:].any() and not rhs[m:, :m].any()
        np.testing.assert_array_equal(rhs[:m, :m], block)
        np.testing.assert_array_equal(rhs[m:, m:], block)
