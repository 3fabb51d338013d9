"""Acceptance suite: one test per release criterion, each printing a verdict.

Heavy spectra are computed once per module. Mesh parameters used here are
the tuned defaults recorded in the README; every tolerance is fixed below.
Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
"""

import math
from unittest import mock

import numpy as np
import pytest

import diracfem.assembly
from diracfem.analysis import (
    Label,
    classify,
    tau_limit_lambda,
    tau_rule_residual,
)
from diracfem.assembly import (
    SCHEME_HERMITE,
    SCHEME_LINEAR,
    SCHEME_SUPG,
    BlockMatrixSpec,
    assemble,
)
from diracfem.discretization import (
    BasisKind,
    build_exponential_mesh,
)
from diracfem.eigensolver import bound_states, bound_window, eigenpair_residual, solve
from diracfem.physics import OperatorParams, point_nucleus, reference_binding, reference_spectrum

from conftest import random_mesh
from oracles import (
    assemble_block,
    closed_form_element_entries,
    dense_bindings,
    dense_bindings_in_workers,
    dense_rayleigh_bindings,
    eval_hermite,
    hermite_interpolation_error_order,
)


def verdict(num, ok, message):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {num}: {message}"


# ---------------------------------------------------------------------------
# shared heavy solves


@pytest.fixture(scope="module")
def hydrogen_runs():
    """Z=1, |kappa|=1, n=100 linear and Hermite runs on the tuned mesh."""
    mesh = build_exponential_mesh(1e-6, 60.0, 100, 8.0)
    pot = point_nucleus(1.0)
    out = {}
    for kappa in (1, -1):
        params = OperatorParams(Z=1, kappa=kappa)
        out[("linear", kappa)] = dense_bindings(assemble(SCHEME_LINEAR, params, mesh, pot))
        out[("hermite", kappa)] = dense_bindings(assemble(SCHEME_HERMITE, params, mesh, pot))
    return out


#: Seconds each dense stabilized solve may take in its worker (a Z=12 one
#: takes about 25 s on a 2-core VM).
MAGNESIUM_TIMEOUT_S = 600.0


@pytest.fixture(scope="module")
def supg_dense_runs():
    """Dense stabilized runs, one worker each: the Z=12 pair and the Z=92 one.

    Z=12, |kappa|=2, n=400 on the tuned mesh, keyed by kappa; and Z=92,
    kappa=+1, n=200, whose first level criterion 5 checks.
    """
    mesh = build_exponential_mesh(1e-6, 60.0, 400, 8.5)
    pot = point_nucleus(12.0)
    kappas = (2, -2)
    systems = [assemble(SCHEME_SUPG, OperatorParams(Z=12, kappa=kappa), mesh, pot)
               for kappa in kappas]
    mesh92 = build_exponential_mesh(1e-7, 1.0, 200, 9.0)
    systems.append(assemble(SCHEME_SUPG, OperatorParams(Z=92, kappa=1), mesh92,
                            point_nucleus(92.0)))
    *magnesium, uranium = dense_bindings_in_workers(systems, MAGNESIUM_TIMEOUT_S)
    return dict(zip(kappas, magnesium)), uranium


@pytest.fixture(scope="module")
def magnesium_supg(supg_dense_runs):
    """Z=12, |kappa|=2, n=400 stabilized runs on the tuned mesh, keyed by kappa."""
    return supg_dense_runs[0]


def test_dense_fixtures_inside_bound_window(hydrogen_runs, magnesium_supg):
    # the CLI solves only bound_window(...); no full-spectrum level of the
    # acceptance runs lies below its lower edge, instilled or coincident ones
    # included, so that edge cuts nothing the dense oracle finds
    runs = [(OperatorParams(Z=1, kappa=kappa), spectrum)
            for (_, kappa), spectrum in hydrogen_runs.items()]
    runs += [(OperatorParams(Z=12, kappa=kappa), spectrum)
             for kappa, spectrum in magnesium_supg.items()]
    for params, spectrum in runs:
        lo = bound_window(params, 12)[0]
        assert spectrum.bindings[0] > lo, f"{params}: {spectrum.bindings[0]} <= {lo}"


# ---------------------------------------------------------------------------
# criterion 1: reference-formula fidelity

HYDROGEN_TABULATED = [  # Z=1, kappa=-1, printed with 11 decimals
    "-0.50000665659", "-0.12500208018", "-0.05555629517",
    "-0.03125033803", "-0.02000018105", "-0.01388899674",
]
MAGNESIUM_TABULATED = [  # Z=12, kappa=-2
    "-18.0086349982", "-8.00511739963", "-4.50269856638", "-2.88154739168",
    "-2.00095939879", "-1.47002066823", "-1.12543844140", "-.889204706429",
    "-.720234829539", "-.595220579682", "-.500139887884", "-.426146735771",
    "-.367436826403", "-.320073665658", "-.281311119433",
]


def printed_ulp(s):
    return 10.0 ** -len(s.split(".")[1])


def test_criterion_01_reference_digits():
    worst = 0.0
    params = OperatorParams(Z=1, kappa=-1)
    for n_r, s in enumerate(HYDROGEN_TABULATED):
        diff = abs(reference_binding(params, n_r).binding - float(s)) / printed_ulp(s)
        assert diff < 1.0, f"Z=1 level {n_r + 1}: off by {diff:.2f} ulp"
        worst = max(worst, diff)
    params = OperatorParams(Z=12, kappa=-2)
    for n_r, s in enumerate(MAGNESIUM_TABULATED):
        # the printed digits carry the source's own rounding noise of a few
        # units in the last place (float64 at the rest-energy scale)
        diff = abs(reference_binding(params, n_r).binding - float(s)) / printed_ulp(s)
        assert diff <= 5.0, f"Z=12 level {n_r + 1}: off by {diff:.2f} ulp"
        worst = max(worst, diff)
    verdict(1, True, f"all 21 tabulated reference values reproduced "
                     f"(worst deviation {worst:.2f} units in the last printed digit)")


# ---------------------------------------------------------------------------
# criterion 2: element-integral oracle on 100 random meshes

POLY_SPECS = {"MM000": BlockMatrixSpec(0, 0, 0), "MM100": BlockMatrixSpec(1, 0, 0),
              "MM010": BlockMatrixSpec(0, 1, 0), "MM110": BlockMatrixSpec(1, 1, 0)}


def test_criterion_02_element_integral_oracle():
    rng = np.random.default_rng(7)
    pot = point_nucleus(1.0)
    n = 5
    worst = 0.0
    for _ in range(100):
        mesh = random_mesh(rng, n=n, lo=0.05, hi=2.0, start=rng.uniform(0.1, 3.0))
        blocks = {name: assemble_block(spec, BasisKind.CUBIC_HERMITE, mesh, pot)
                  for name, spec in POLY_SPECS.items()}
        for j in range(2, n):  # rows with all six neighbour columns active
            entries = closed_form_element_entries(mesh, j)
            cols = [j - 2, j - 1, j, j - 2 + n, j - 1 + n, j + n]
            for name in POLY_SPECS:
                for row_i, row_dof in ((0, j - 1), (1, j - 1 + n)):
                    got = blocks[name][row_dof, cols]
                    want = entries[name][row_i]
                    # identically-zero entries assemble to rounding noise;
                    # measure those against the row scale
                    scale = np.maximum(np.abs(want), np.max(np.abs(want)))
                    rel = np.max(np.abs(got - want) / scale)
                    assert rel < 1e-12, f"{name} row {row_i} on mesh, rel={rel:.1e}"
                    worst = max(worst, rel)
    verdict(2, True, f"quadrature assembly matches exact element integrals on "
                     f"100 random meshes (worst rel {worst:.1e})")


# ---------------------------------------------------------------------------
# criteria 3-4: hydrogen pathology and its partial cure

HYD_REF = None


def hydrogen_reference():
    global HYD_REF
    if HYD_REF is None:
        HYD_REF = reference_spectrum(OperatorParams(Z=1, kappa=-1), 6)
    return HYD_REF


def test_criterion_03_linear_pathology(hydrogen_runs):
    ref = hydrogen_reference()
    neg = hydrogen_runs[("linear", -1)]
    pos = hydrogen_runs[("linear", 1)]

    ground_rel = abs(neg.bindings[0] - ref[0].binding) / abs(ref[0].binding)
    assert ground_rel <= 1e-6

    cl = classify(neg.bindings[:10], ref, match_tol=1e-3)
    in_gap = [e for e in cl.entries
              if e.label is Label.INSTILLED
              and ref[2].binding < e.binding < ref[3].binding]
    assert in_gap, "no instilled spurious level between reference levels 3 and 4"

    coin_rel = abs(pos.bindings[0] - neg.bindings[0]) / abs(neg.bindings[0])
    assert coin_rel <= 1e-6
    ref_pos = reference_spectrum(OperatorParams(Z=1, kappa=1), 6)
    cl_pos = classify(pos.bindings[:10], ref_pos,
                      opposite_kappa_ground=float(neg.bindings[0]), match_tol=1e-3)
    assert cl_pos.entries[0].label is Label.COINCIDENCE
    verdict(3, True, f"hat-function run: ground rel err {ground_rel:.1e}, spurious level "
                     f"at {in_gap[0].binding:.6f} inside gap, coincidence rel diff {coin_rel:.1e}")


def test_criterion_04_hermite_partial_cure(hydrogen_runs):
    ref = hydrogen_reference()
    neg = hydrogen_runs[("hermite", -1)]
    pos = hydrogen_runs[("hermite", 1)]

    cl = classify(neg.bindings[:8], ref, match_tol=1e-5)
    first4 = [e for e in cl.entries][:5]  # window covering 4 genuine levels
    genuine_seen = 0
    for e in first4:
        if e.label is Label.GENUINE:
            genuine_seen += 1
        assert e.label is not Label.INSTILLED, \
            f"instilled level {e.binding} among the first four"
        if genuine_seen == 4:
            break

    abs_errs = [abs(b - r.binding) for b, r in zip(neg.bindings[:3], ref[:3])]
    assert max(abs_errs) <= 1e-6

    coin_rel = abs(pos.bindings[0] - neg.bindings[0]) / abs(neg.bindings[0])
    assert coin_rel <= 1e-5
    verdict(4, True, f"cubic Hermite run: first-3 abs errs {max(abs_errs):.1e}, "
                     f"no instilled level among the first 4, coincidence persists "
                     f"(rel diff {coin_rel:.1e})")


# ---------------------------------------------------------------------------
# criterion 5: stabilized scheme cures both pathologies

STRETCH_TARGET = 3e-8


def test_criterion_05_supg_full_cure(supg_dense_runs):
    magnesium_supg, spec92 = supg_dense_runs
    worst = 0.0
    for kappa in (2, -2):
        params = OperatorParams(Z=12, kappa=kappa)
        ref = reference_spectrum(params, 12)
        spectrum = magnesium_supg[kappa]
        bs = bound_states(spectrum, 12)
        rels = [abs(b - r.binding) / abs(r.binding) for b, r in zip(bs, ref)]
        assert max(rels) <= 1e-6, f"kappa={kappa}: worst rel {max(rels):.1e}"
        worst = max(worst, max(rels))
        cl = classify(spectrum.bindings[:12], ref, match_tol=1e-5)
        assert cl.count(Label.INSTILLED) == 0, f"kappa={kappa} retains spurious levels"

    # Z=92: the lowest kappa=+1 level must be the physical one, not a copy
    # of the kappa=-1 ground state
    params92 = OperatorParams(Z=92, kappa=1)
    first = spec92.bindings[0]
    assert first > bound_window(params92, 4)[0]
    ref_2p = reference_binding(params92, 1).binding
    ref_1s = reference_binding(OperatorParams(Z=92, kappa=-1), 0).binding
    rel_2p = abs(first - ref_2p) / abs(ref_2p)
    rel_1s = abs(first - ref_1s) / abs(ref_1s)
    assert rel_2p <= 1e-3
    assert rel_1s > 0.5

    stretch = "meets" if worst <= STRETCH_TARGET else "misses"
    verdict(5, True, f"stabilized run: 12 levels clean for both signs, worst rel err "
                     f"{worst:.1e} ({stretch} the 3e-8 stretch target); Z=92 first "
                     f"kappa=+1 level sits at the 2p reference (rel {rel_2p:.1e})")


# ---------------------------------------------------------------------------
# criterion 6: scheme nesting at zero stabilization


def test_criterion_06_scheme_nesting():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        a = 10.0 ** rng.uniform(-6, -2)
        b = rng.uniform(5.0, 80.0)
        gamma = rng.uniform(1.0, 9.0)
        Z = float(rng.integers(1, 40))
        kappa = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        params = OperatorParams(Z=Z, kappa=kappa)
        mesh = build_exponential_mesh(a, b, n, gamma)
        pot = point_nucleus(Z)
        with mock.patch.object(diracfem.assembly, "compute_tau",
                               lambda mesh: np.zeros(mesh.element_count)):
            supg = assemble(SCHEME_SUPG, params, mesh, pot)
        galerkin = assemble(SCHEME_HERMITE, params, mesh, pot)
        scale = np.max(np.abs(galerkin.lhs))
        dev = max(np.max(np.abs(supg.lhs - galerkin.lhs)) / scale,
                  np.max(np.abs(supg.rhs - galerkin.rhs)) / np.max(np.abs(galerkin.rhs)))
        assert dev <= 1e-14
        worst = max(worst, dev)
    verdict(6, True, f"zero-tau stabilized assembly equals the Galerkin one on 20 "
                     f"random configurations (worst entrywise dev {worst:.1e})")


# ---------------------------------------------------------------------------
# criterion 7: stability-parameter identity and limit improvement


def test_criterion_07_tau_identity():
    rng = np.random.default_rng(13)
    count = 0
    worst = 0.0
    while count < 1000:
        hj, hj1 = rng.uniform(1e-4, 2.0, 2)
        if abs(hj1 - hj) < 1e-8 * max(hj1, hj):
            continue
        count += 1
        tau = (9.0 / 35.0) * hj1 * (hj1 - hj) / (hj1 + hj)
        rel = abs(tau_rule_residual(hj, hj1, tau)) / ((81.0 / 4900.0) * hj1**2)
        assert rel <= 1e-14
        worst = max(worst, rel)

    hj, hj1 = 0.009, 0.011
    tau = (9.0 / 35.0) * hj1 * (hj1 - hj) / (hj1 + hj)
    improvements = []
    for c in (1e3, 1e4, 1e5):
        dev_s = abs(tau_limit_lambda(hj, hj1, tau, c) - c**2) / c**2
        dev_0 = abs(tau_limit_lambda(hj, hj1, 0.0, c) - c**2) / c**2
        assert dev_s < dev_0, f"no improvement at c={c:g}"
        improvements.append(dev_0 / dev_s)
    verdict(7, True, f"derived tau zeroes the optimality defect on 1000 random element "
                     f"pairs (worst rel {worst:.1e}); accumulation-point deviation "
                     f"shrinks by {min(improvements):.1f}x or more at c=1e3..1e5")


# ---------------------------------------------------------------------------
# criterion 8: interpolation order


def test_criterion_08_interpolation_order():
    sizes = [math.pi / 4 / 2**k for k in range(5)]
    order = hermite_interpolation_error_order(math.sin, math.cos, 0.0, math.pi, sizes)
    assert order >= 3.8
    verdict(8, True, f"Hermite interpolation of sin converges at observed order {order:.3f}")


# ---------------------------------------------------------------------------
# criterion 9: property suite on randomized meshes


def test_criterion_09_property_suite(hydrogen_runs):
    rng = np.random.default_rng(17)
    pot = point_nucleus(3.0)
    for _ in range(5):
        n = int(rng.integers(4, 10))
        mesh = build_exponential_mesh(10.0 ** rng.uniform(-6, -3),
                                      rng.uniform(10.0, 60.0), n, rng.uniform(2, 8))
        params = OperatorParams(Z=3, kappa=int(rng.choice([-2, -1, 1, 2])))

        lin = assemble(SCHEME_LINEAR, params, mesh, pot)
        her = assemble(SCHEME_HERMITE, params, mesh, pot)
        for system in (lin, her):
            scale = np.max(np.abs(system.lhs))
            assert np.max(np.abs(system.lhs - system.lhs.T)) <= 1e-12 * scale
            assert np.linalg.eigvalsh(system.rhs).min() > 0

        m010 = assemble_block(BlockMatrixSpec(0, 1, 0), BasisKind.LINEAR_HAT, mesh, pot)
        assert np.max(np.abs(m010 + m010.T)) <= 1e-12 * np.max(np.abs(m010))

        xs = np.linspace(mesh.nodes[1], mesh.nodes[-2], 53)
        pou = sum(eval_hermite(mesh, j, "value", xs, 0) for j in range(1, n + 1))
        np.testing.assert_allclose(pou, 1.0, atol=1e-12)
        eps = 1e-9 * mesh.h.min()
        for j in (1, n):
            for part in ("value", "slope"):
                for order in (0, 1):
                    left = eval_hermite(mesh, j, part, mesh.nodes[j] - eps, order)
                    right = eval_hermite(mesh, j, part, mesh.nodes[j] + eps, order)
                    assert abs(left - right) <= 1e-5 * max(1.0, abs(left))

    # eigenpair residual bound on the precomputed hydrogen runs
    mesh = build_exponential_mesh(1e-6, 60.0, 100, 8.0)
    pot1 = point_nucleus(1.0)
    for (scheme, kappa), spectrum in hydrogen_runs.items():
        params = OperatorParams(Z=1, kappa=kappa)
        system = assemble(SCHEME_LINEAR if scheme == "linear" else SCHEME_HERMITE,
                          params, mesh, pot1)
        # eigenvectors come from the windowed solve, on the dense run's levels,
        # read through its eigenvectors' Rayleigh quotients: the dense eigh
        # value of the Hermite kappa=+1 level 4 is itself 1.3e-9 off
        count = min(4, len(spectrum.bindings))
        windowed = solve(system, window=bound_window(params, count))
        oracle = dense_rayleigh_bindings(system, -2.0 * params.rest_energy, 0.0)
        np.testing.assert_allclose(windowed.bindings[:count], oracle[:count], rtol=1e-9)
        for k in range(count):
            res = eigenpair_residual(system, windowed.bindings[k],
                                     windowed.eigenvectors[:, k])
            assert res <= 1e-8
    verdict(9, True, "symmetry, positive-definite mass, antisymmetric convection "
                     "block, partition of unity, C1 continuity, and eigenpair "
                     "residual bounds all hold on randomized meshes")


# ---------------------------------------------------------------------------
# criterion 10: documented exclusions


def test_criterion_10_exclusions_are_structural():
    # Non-converged high levels and extended-nucleus absolute energies depend
    # on unpublished mesh details and the unstated nuclear radius; they are
    # covered structurally by criteria 3-5 (labels and error bounds against
    # the exact reference), not digit by digit. This marker documents that.
    verdict(10, True, "unreproducible table digits are covered by structural "
                      "checks in criteria 3-5")
