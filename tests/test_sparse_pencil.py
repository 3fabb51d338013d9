"""The windowed pipeline runs on the CSC pencil and never builds it dense."""

import numpy as np
import pytest
import scipy.sparse

from diracfem import analysis, cli
from diracfem.assembly import (
    SCHEME_HERMITE,
    SCHEME_LINEAR,
    SCHEME_SUPG,
    SCHEMES,
    AssembledSystem,
    BlockMatrixSpec,
    _assemble_block,
    assemble,
)
from diracfem.discretization import BasisKind, build_exponential_mesh
from diracfem.eigensolver import bound_window, solve
from diracfem.physics import OperatorParams, point_nucleus

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
    return params, build_exponential_mesh(1e-6, 40.0, 40, 7.0), point_nucleus(2.0)


def test_windowed_solve_never_densifies(no_dense_pencil, setup):
    params, mesh, pot = setup
    for scheme in SCHEMES:
        spectrum = solve(assemble(scheme, params, mesh, pot), window=bound_window(params, 6))
        assert len(spectrum.bindings) >= 6


def test_convergence_study_never_densifies(no_dense_pencil, setup):
    params, _, pot = setup
    study = analysis.convergence_study(SCHEME_HERMITE, params, pot, (60, 120), 3,
                                       a=1e-6, b=40.0, gamma=7.0)
    assert np.all(np.isfinite(study.errors))


@pytest.mark.parametrize("scheme", ["linear-galerkin", "hermite-galerkin"])
def test_cli_never_densifies(no_dense_pencil, scheme, capsys):
    assert cli.main(PATHOLOGY_Z1 + ["--scheme", scheme, "--format", "csv"]) == 0
    assert "genuine" in capsys.readouterr().out


def test_block_has_the_element_pattern(setup):
    # nodes i, j couple when |i - j| <= 1: 3n - 2 node pairs over n interior
    # nodes, times 4 dof pairs for Hermite; the free node-0 slope adds itself
    # and its two couplings to node 1 in each direction
    _, mesh, pot = setup
    n = mesh.interior_count
    spec = BlockMatrixSpec(0, 0, 0)
    for kind, free, nnz in ((BasisKind.LINEAR_HAT, False, 3 * n - 2),
                            (BasisKind.CUBIC_HERMITE, False, 4 * (3 * n - 2)),
                            (BasisKind.CUBIC_HERMITE, True, 4 * (3 * n - 2) + 5)):
        block = _assemble_block(spec, kind, mesh, pot, free_lower_slope=free)
        assert isinstance(block, scipy.sparse.csc_array)
        assert block.nnz == nnz
        assert block.has_canonical_format
        assert np.count_nonzero(block.toarray()) == nnz


def test_pencil_is_read_only_csc(setup):
    params, mesh, pot = setup
    system = assemble(SCHEME_LINEAR, params, mesh, pot)
    for matrix in (system.lhs_csc, system.rhs_csc):
        assert isinstance(matrix, scipy.sparse.csc_array)
        with pytest.raises(ValueError):
            matrix.data[0] = 1.0
    np.testing.assert_array_equal(system.lhs, system.lhs_csc.toarray())
    assert system.lhs.flags.c_contiguous and not system.lhs.flags.writeable


@pytest.mark.parametrize("scheme, free", [(scheme, False) for scheme in SCHEMES]
                         + [(SCHEME_HERMITE, True), (SCHEME_SUPG, True)])
def test_pencil_pattern_is_the_block_pattern(setup, scheme, free):
    # lhs couples all four spinor blocks on the element pattern; the
    # Galerkin rhs is block-diagonal and stores only its two mass blocks
    params, mesh, pot = setup
    system = assemble(scheme, params, mesh, pot, free_lower_slope=free)
    kind = BasisKind.LINEAR_HAT if scheme == SCHEME_LINEAR else BasisKind.CUBIC_HERMITE
    block = _assemble_block(BlockMatrixSpec(0, 0, 0), kind, mesh, pot,
                            free_lower_slope=free)
    m = block.shape[0]
    assert system.lhs_csc.nnz == 4 * block.nnz
    for matrix in (system.lhs_csc, system.rhs_csc):
        assert matrix.has_canonical_format
    rhs = system.rhs_csc
    if scheme == SCHEME_SUPG:
        assert rhs.nnz == 4 * block.nnz
    else:
        assert rhs.nnz == 2 * block.nnz
        assert rhs[:m, m:].nnz == 0 and rhs[m:, :m].nnz == 0
        assert np.count_nonzero(rhs.data) == rhs.nnz
        np.testing.assert_array_equal(rhs[:m, :m].toarray(), block.toarray())
        np.testing.assert_array_equal(rhs[m:, m:].toarray(), block.toarray())
