"""Entrywise oracles the block assembly is checked against.

``element_integral`` evaluates one block-matrix entry straight from the
basis functions of its two dofs; ``closed_form_element_entries`` gives the
exact polynomial integrals the 4-point rule must reproduce.
"""

import numpy as np

from diracfem.assembly import BlockMatrixSpec, _weight_at
from diracfem.discretization import (
    BasisFamily,
    BasisKind,
    Mesh,
    gauss_rule,
    hat_local,
    hermite_local,
)
from diracfem.physics import PotentialModel


def element_integral(spec: BlockMatrixSpec, basis: BasisFamily, potential: PotentialModel,
                     test_dof: int, trial_dof: int) -> float:
    """Single block-matrix entry; 0 without quadrature when supports are disjoint.

    Dof indices follow the component layout: 0..n-1 are nodal values at
    interior nodes 1..n and, for Hermite, n..2n-1 the nodal slopes.
    """
    mesh = basis.mesh
    n = mesh.interior_count
    hermite = basis.kind is BasisKind.CUBIC_HERMITE
    for dof in (test_dof, trial_dof):
        if not (0 <= dof < basis.dof_count):
            raise IndexError(f"dof index {dof} out of range 0..{basis.dof_count - 1}")

    def node_part(dof):
        if hermite and dof >= n:
            return dof - n + 1, 3  # slope piece index in hermite_local order
        return dof + 1, 2

    t_node, t_sel = node_part(test_dof)
    s_node, s_sel = node_part(trial_dof)
    if abs(t_node - s_node) >= 2:
        return 0.0
    elements = {e for e in (t_node, t_node + 1) if 1 <= e <= mesh.element_count}
    elements &= {e for e in (s_node, s_node + 1) if 1 <= e <= mesh.element_count}
    total = 0.0
    points, weights = gauss_rule(mesh)
    for e in sorted(elements):
        xq = points[e - 1]
        w = weights[e - 1] * _weight_at(spec, potential, xq)
        h = mesh.h[e - 1]
        s = xq - mesh.nodes[e - 1]
        if hermite:
            test = hermite_local(h, s, spec.r)[t_sel if e == t_node else t_sel - 2]
            trial = hermite_local(h, s, spec.s)[s_sel if e == s_node else s_sel - 2]
        else:
            test = hat_local(h, s, spec.r)[1 if e == t_node else 0]
            trial = hat_local(h, s, spec.s)[1 if e == s_node else 0]
        total += float(np.dot(w, test * trial))
    return total


# --- closed-form element integrals (assembly oracle) ------------------------


def closed_form_element_entries(mesh: Mesh, j: int) -> dict[str, np.ndarray]:
    """Exact rows j (values) and j+n (slopes) of the four polynomial blocks.

    Returns, per matrix, a (2, 6) array over the columns
    (j-1, j, j+1, j-1+n, j+n, j+1+n). The integrands are polynomial, so
    these are the exact integrals the 4-point rule must reproduce.
    """
    if not (1 <= j <= mesh.interior_count):
        raise IndexError(f"node index {j} out of range 1..{mesh.interior_count}")
    hj = mesh.h[j - 1]
    hj1 = mesh.h[j]
    mm000 = np.array([
        [9 / 70 * hj, 13 / 35 * (hj + hj1), 9 / 70 * hj1,
         13 / 420 * hj**2, 11 / 210 * (hj1**2 - hj**2), -13 / 420 * hj1**2],
        [-13 / 420 * hj**2, 11 / 210 * (hj1**2 - hj**2), 13 / 420 * hj1**2,
         -1 / 140 * hj**3, 1 / 105 * (hj**3 + hj1**3), -1 / 140 * hj1**3],
    ])
    mm100 = np.array([
        [0.5, 0.0, -0.5, hj / 10, -(hj + hj1) / 10, hj1 / 10],
        [-hj / 10, (hj + hj1) / 10, -hj1 / 10, -hj**2 / 60, 0.0, hj1**2 / 60],
    ])
    mm110 = np.array([
        [-6 / 5 / hj, 6 / 5 * (hj + hj1) / (hj * hj1), -6 / 5 / hj1, -0.1, 0.0, 0.1],
        [0.1, 0.0, -0.1, -hj / 30, 2 / 15 * (hj + hj1), -hj1 / 30],
    ])
    mm010 = -mm100  # transpose pair: same rows with opposite sign
    return {"MM000": mm000, "MM100": mm100, "MM010": mm010, "MM110": mm110}
