import math
import re

import numpy as np
import pytest

from diracfem import analysis
from diracfem.analysis import (
    MAX_MATCH_TOL,
    ORDER_FIT_FLOOR,
    Label,
    classify,
    coincidence_report,
    convergence_study,
    fit_orders,
    genuine_errors,
    truncate_to_genuine,
)
from diracfem.assembly import SCHEME_HERMITE, SCHEME_SUPG, assemble, compute_tau, part_dofs
from diracfem.discretization import build_exponential_mesh, gauss_rule
from diracfem.eigensolver import Spectrum, bound_window, eigenpair_residual, solve
from diracfem.errors import ConfigError
from diracfem.physics import (
    OperatorParams,
    potential_value,
    reference_binding,
    reference_spectrum,
)

from oracles import (
    eigenpair_component,
    nodal_propagation,
    supg_residuals,
    tau_limit_lambda,
    tau_rule_residual,
)

# Published eigenvalues of an n=100 hat-function hydrogen run (levels 1-3,
# the interleaved spurious value, then level 4), used as classifier vectors.
HAT_RUN_NEG_KAPPA = [-0.50000665659, -0.12500414298, -0.05556140479,
                     -0.03192157993, -0.03124489832]
HAT_RUN_POS_KAPPA_FIRST = -0.50000665661


def hydrogen_reference(count=5):
    return reference_spectrum(OperatorParams(Z=1, kappa=-1), count)


def small_hermite_system():
    """A 40-dof hydrogen Hermite pencil."""
    params = OperatorParams(Z=1, kappa=-1)
    return assemble(SCHEME_HERMITE, params, build_exponential_mesh(1e-6, 40.0, 10, 8.0))


def small_hermite_solve(**kwargs):
    """``solve`` of ``small_hermite_system()``, on its two-level window unless given."""
    system = small_hermite_system()
    return solve(system, **{"window": bound_window(system.params, 2), **kwargs})


#: Per library call with a non-number argument: the call, and the parameter its
#: ConfigError names. Each raised a builtin TypeError, ValueError, KeyError or
#: AttributeError from a comparison, ``float()``, a dict lookup, arithmetic or an
#: attribute read before the type was checked.
NON_NUMBER_CALLS = [
    pytest.param(lambda: reference_binding(OperatorParams(Z=1, kappa=-1), "1"), "n_r",
                 id="reference_binding-n_r"),
    pytest.param(lambda: small_hermite_solve(window=("a", 0)), "window", id="solve-window"),
    pytest.param(lambda: small_hermite_solve(window=None), "window", id="solve-window-none"),
    pytest.param(lambda: eigenpair_residual(small_hermite_system(), "x", np.ones(40)), "binding",
                 id="eigenpair_residual-binding"),
    pytest.param(lambda: eigenpair_residual(small_hermite_system(), -0.5, "x"), "vector",
                 id="eigenpair_residual-vector"),
    pytest.param(lambda: eigenpair_residual(small_hermite_system(), -0.5, ["1.0"] * 40),
                 "vector", id="eigenpair_residual-vector-strings"),
    pytest.param(lambda: eigenpair_residual(small_hermite_system(), -0.5, [True] + [1.0] * 39),
                 "vector", id="eigenpair_residual-vector-bool"),
    pytest.param(lambda: part_dofs(SCHEME_HERMITE, "10", "zeta"), "size", id="part_dofs-size"),
    pytest.param(lambda: assemble(SCHEME_HERMITE, OperatorParams(Z=1, kappa=-1), "mesh"), "mesh",
                 id="assemble-mesh"),
    pytest.param(lambda: classify([-0.5], hydrogen_reference(), match_tol="x"), "match_tol",
                 id="classify-match_tol"),
    pytest.param(lambda: classify(["a"], hydrogen_reference(), match_tol=1e-3), "computed",
                 id="classify-computed"),
    pytest.param(lambda: part_dofs("spectral", 10, "zeta"), "scheme", id="part_dofs-scheme"),
]


@pytest.mark.parametrize("call, name", NON_NUMBER_CALLS)
def test_a_non_number_argument_raises_config_error_naming_it(call, name):
    with pytest.raises(ConfigError) as caught:
        call()
    assert type(caught.value) is ConfigError
    assert re.search(rf"\b{name}\b", str(caught.value))


HYDROGEN = OperatorParams(Z=1, kappa=-1)
SMALL_MESH = build_exponential_mesh(1e-6, 40.0, 10, 8.0)

#: Per library call with an argument of the wrong type: the call, the parameter
#: its ConfigError names and the type it got. Each object argument raised a
#: builtin AttributeError, a string opposite_kappa_ground a TypeError, a
#: truthy flag that is not a bool freed the slope, and a None or bool position
#: gave a potential of NaN or of 1.
WRONG_TYPE_CALLS = [
    pytest.param(lambda: gauss_rule("mesh"), "mesh", "str", id="gauss_rule-mesh"),
    pytest.param(lambda: potential_value("params", 2.0), "params", "str",
                 id="potential_value-params"),
    pytest.param(lambda: potential_value(HYDROGEN, None), "x", "NoneType",
                 id="potential_value-x-none"),
    pytest.param(lambda: potential_value(HYDROGEN, True), "x", "bool",
                 id="potential_value-x-bool"),
    pytest.param(lambda: assemble(SCHEME_HERMITE, "params", SMALL_MESH), "params", "str",
                 id="assemble-params"),
    pytest.param(lambda: bound_window("params", 3), "params", "str", id="bound_window-params"),
    pytest.param(lambda: solve("system", (-1.0, 0.0)), "system", "str", id="solve-system"),
    pytest.param(lambda: compute_tau("mesh"), "mesh", "str", id="compute_tau-mesh"),
    pytest.param(lambda: eigenpair_residual("system", -0.5, np.ones(40)), "system", "str",
                 id="eigenpair_residual-system"),
    pytest.param(lambda: reference_binding("params", 0), "params", "str",
                 id="reference_binding-params"),
    pytest.param(lambda: reference_spectrum(None, 2), "params", "NoneType",
                 id="reference_spectrum-params"),
    pytest.param(lambda: convergence_study(SCHEME_HERMITE, "params", (10,), 2, a=1e-6, b=40.0,
                                           gamma=8.0, match_tol=1e-5), "params", "str",
                 id="convergence_study-params"),
    pytest.param(lambda: assemble(SCHEME_HERMITE, HYDROGEN, SMALL_MESH, free_lower_slope="yes"),
                 "free_lower_slope", "str", id="assemble-free_lower_slope-str"),
    pytest.param(lambda: assemble(SCHEME_HERMITE, HYDROGEN, SMALL_MESH, free_lower_slope=2),
                 "free_lower_slope", "int", id="assemble-free_lower_slope-int"),
    pytest.param(lambda: convergence_study(SCHEME_HERMITE, HYDROGEN, (10,), 2, a=1e-6, b=40.0,
                                           gamma=8.0, match_tol=1e-5, free_lower_slope="yes"),
                 "free_lower_slope", "str", id="convergence_study-free_lower_slope"),
    pytest.param(lambda: convergence_study(SCHEME_HERMITE, HYDROGEN, 5, 2, a=1e-6, b=40.0,
                                           gamma=8.0, match_tol=1e-5), "n_values", "int",
                 id="convergence_study-n_values"),
    pytest.param(lambda: classify(5, hydrogen_reference(), match_tol=1e-3), "computed", "int",
                 id="classify-computed"),
    pytest.param(lambda: classify([-0.5], "ref", match_tol=1e-3), "reference", "str",
                 id="classify-reference"),
    pytest.param(lambda: classify([-0.5], [None], match_tol=1e-3), "reference", "NoneType",
                 id="classify-reference-level"),
    pytest.param(lambda: classify([-0.9], reference_spectrum(OperatorParams(Z=1, kappa=1), 2),
                                  opposite_kappa_ground="x", match_tol=1e-3),
                 "opposite_kappa_ground", "str",
                 id="classify-opposite_kappa_ground"),
    pytest.param(lambda: truncate_to_genuine("x", 2), "classified", "str",
                 id="truncate_to_genuine-classified"),
    pytest.param(lambda: coincidence_report("a", "b"), "spec_pos", "str",
                 id="coincidence_report-spec_pos"),
    pytest.param(lambda: coincidence_report(make_spectrum(1, [-0.5]), None), "spec_neg",
                 "NoneType", id="coincidence_report-spec_neg"),
]


@pytest.mark.parametrize("call, name, got", WRONG_TYPE_CALLS)
def test_a_wrong_type_raises_config_error_naming_it(call, name, got):
    with pytest.raises(ConfigError) as caught:
        call()
    assert type(caught.value) is ConfigError
    assert re.search(rf"\b{name}\b.*\b{got}\b", str(caught.value))


def test_a_numpy_bool_frees_the_slope():
    sizes = {flag: assemble(SCHEME_HERMITE, HYDROGEN, SMALL_MESH, free_lower_slope=flag).size
             for flag in (False, True, np.False_, np.True_)}
    assert sizes == {False: 40, True: 42}


class TestClassify:
    def test_published_hat_run_labels(self):
        cl = classify(HAT_RUN_NEG_KAPPA, hydrogen_reference(), match_tol=1e-3)
        labels = [e.label for e in cl.entries]
        assert labels == [Label.GENUINE, Label.GENUINE, Label.GENUINE,
                          Label.INSTILLED, Label.GENUINE]
        assert cl.entries[3].binding == pytest.approx(-0.03192157993)
        assert cl.entries[3].reference is None

    def test_coincidence_for_positive_kappa(self):
        ref_pos = reference_spectrum(OperatorParams(Z=1, kappa=1), 4)
        computed = [HAT_RUN_POS_KAPPA_FIRST, -0.12500414297, -0.05556140476]
        cl = classify(computed, ref_pos, opposite_kappa_ground=-0.50000665659,
                      match_tol=1e-3)
        assert cl.entries[0].label is Label.COINCIDENCE
        assert cl.entries[1].label is Label.GENUINE

    def test_exact_match_all_genuine(self):
        ref = hydrogen_reference()
        cl = classify([r.binding for r in ref], ref, match_tol=1e-3)
        assert all(e.label is Label.GENUINE for e in cl.entries)
        assert cl.count(Label.INSTILLED) == 0
        assert all(e.rel_error == 0.0 for e in cl.entries)

    def test_each_reference_matched_once(self):
        ref = hydrogen_reference(3)
        computed = [ref[0].binding * (1 + 1e-5), ref[0].binding * (1 - 1e-5),
                    ref[1].binding]
        cl = classify(computed, ref, match_tol=1e-3)
        assert [e.label for e in cl.entries] == [Label.GENUINE, Label.INSTILLED,
                                                 Label.GENUINE]

    def test_stray_below_ground_is_instilled(self):
        ref = hydrogen_reference(3)
        cl = classify([-0.9, ref[0].binding, ref[1].binding], ref, match_tol=1e-3)
        assert cl.entries[0].label is Label.INSTILLED

    def test_stable_under_small_perturbation(self, rng):
        ref = hydrogen_reference()
        base = HAT_RUN_NEG_KAPPA
        cl0 = [e.label for e in classify(base, ref, match_tol=1e-3).entries]
        for _ in range(20):
            jitter = 1 + rng.uniform(-1e-4, 1e-4, len(base))  # 0.1 * match_tol
            perturbed = sorted(b * j for b, j in zip(base, jitter))
            cl = [e.label for e in classify(perturbed, ref, match_tol=1e-3).entries]
            assert cl == cl0

    def test_unordered_rejected(self):
        with pytest.raises(ConfigError):
            classify([-0.1, -0.5], hydrogen_reference(), match_tol=1e-3)
        with pytest.raises(ConfigError):
            classify([-0.5], hydrogen_reference(), match_tol=0.5)

    @pytest.mark.parametrize("ground", [float("nan"), float("inf"), 0.0])
    def test_opposite_ground_must_be_finite_and_nonzero(self, ground):
        # NaN and inf labelled the coincidence copy instilled; 0 divided by zero
        ref_pos = reference_spectrum(OperatorParams(Z=1, kappa=1), 2)
        with pytest.raises(ConfigError, match="opposite_kappa_ground"):
            classify([-0.5, -0.125], ref_pos, opposite_kappa_ground=ground, match_tol=1e-3)

    @pytest.mark.parametrize("stray", [float("nan"), float("-inf")])
    def test_non_finite_binding_rejected(self, stray):
        # each was labelled instilled
        with pytest.raises(ConfigError, match="finite"):
            classify([stray, -0.5], hydrogen_reference(), match_tol=1e-3)

    def test_match_tol_has_no_default(self):
        # the old default 1e-3 is the linear scheme's: on this Hermite run it
        # took the instilled level beside n_r = 7 (4.5e-4 off) for genuine and
        # labelled the true level (1.3e-10 off) instilled
        params = OperatorParams(Z=12, kappa=-2)
        mesh = build_exponential_mesh(1e-6, 60.0, 400, 8.5)
        spectrum = solve(assemble(SCHEME_HERMITE, params, mesh),
                         window=bound_window(params, 12))
        ref = reference_spectrum(params, 12)
        with pytest.raises(TypeError, match="match_tol"):
            classify(spectrum.bindings, ref)
        for tol, n_r7 in ((1e-3, 7), (analysis.match_tol_for(SCHEME_HERMITE), 8)):
            entries = classify(spectrum.bindings, ref, match_tol=tol).entries
            genuine = [i for i, e in enumerate(entries) if e.label is Label.GENUINE]
            assert len(genuine) == 12
            assert entries[n_r7].reference.n_r == 7

    def test_truncate_to_genuine(self):
        cl = classify(HAT_RUN_NEG_KAPPA, hydrogen_reference(), match_tol=1e-3)
        cut = truncate_to_genuine(cl, 3)
        assert len(cut.entries) == 3
        assert cut.count(Label.GENUINE) == 3

    @pytest.mark.parametrize("count", [0, -2])
    def test_truncate_to_genuine_rejects_count_below_one(self, count):
        # each returned every entry
        cl = classify(HAT_RUN_NEG_KAPPA, hydrogen_reference(), match_tol=1e-3)
        with pytest.raises(ConfigError, match="count"):
            truncate_to_genuine(cl, count)

    @pytest.mark.parametrize("count", [1.5, True])
    def test_truncate_to_genuine_needs_an_integer_count(self, count):
        # 1.5 once returned every entry, and True the first genuine one
        cl = classify(HAT_RUN_NEG_KAPPA, hydrogen_reference(), match_tol=1e-3)
        with pytest.raises(ConfigError, match="count"):
            truncate_to_genuine(cl, count)


def make_spectrum(kappa, bindings, scheme=SCHEME_HERMITE, Z=1.0, **operator):
    params = OperatorParams(Z=Z, kappa=kappa, **operator)
    return Spectrum(scheme=scheme, bindings=np.asarray(bindings, dtype=float), max_imag=0.0,
                    params=params, eigenvectors=np.zeros((1, len(bindings))))


class TestCoincidenceReport:
    def test_identical_spectra_trivially_coincide(self):
        vals = [-0.5, -0.125, -0.0555]
        rep = coincidence_report(make_spectrum(1, vals), make_spectrum(-1, vals))
        assert rep.present
        assert rep.first_rel_diff == 0.0
        # aligned pairing from the second level on
        assert rep.pairs[0][0] == -0.125 and rep.pairs[0][1] == -0.125

    def test_removed_coincidence_pairs_with_offset(self):
        pos = [-0.125, -0.0555]
        neg = [-0.5, -0.125, -0.0555]
        rep = coincidence_report(make_spectrum(1, pos), make_spectrum(-1, neg))
        assert not rep.present
        assert rep.pairs[0] == (-0.125, -0.125, 0.0)
        assert rep.pairs[1] == (-0.0555, -0.0555, 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, MAX_MATCH_TOL, float("inf")])
    def test_tolerance_outside_match_range_rejected(self, tol):
        # NaN, -1 and 0 reported the copy absent, inf reported it present
        vals = [-0.5, -0.125]
        with pytest.raises(ConfigError, match="tol"):
            coincidence_report(make_spectrum(1, vals), make_spectrum(-1, vals), tol=tol)

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ConfigError):
            coincidence_report(make_spectrum(-1, [-0.5]), make_spectrum(1, [-0.5]))
        with pytest.raises(ConfigError):
            coincidence_report(make_spectrum(2, [-0.5]), make_spectrum(-1, [-0.5]))

    @pytest.mark.parametrize("operator", [{"Z": 2.0}, {"c": 100.0}, {"R": 1e-4},
                                          {"scheme": SCHEME_SUPG}],
                             ids=["Z", "c", "R", "scheme"])
    def test_spectra_of_two_operators_rejected(self, operator):
        # a kappa=+1 spectrum at c=137.036 used to pair with a kappa=-1 one at c=100
        vals = [-0.5, -0.125]
        with pytest.raises(ConfigError, match="operator"):
            coincidence_report(make_spectrum(1, vals), make_spectrum(-1, vals, **operator))


@pytest.fixture(scope="module")
def exact_ground():
    """Analytic lowest kappa=-1 spinor: f = x^g e^{-Zx}, g component scaled."""
    Z = 1.0
    params = OperatorParams(Z=Z, kappa=-1)
    gam = math.sqrt(1 - (Z / params.c) ** 2)
    lam = params.rest_energy * gam
    f = lambda x: x**gam * np.exp(-Z * x)
    df = lambda x: (gam / x - Z) * f(x)
    ratio = -(1 - gam) * params.c / Z
    g = lambda x: ratio * f(x)
    dg = lambda x: ratio * df(x)
    return params, lam, f, df, g, dg


class TestSupgResiduals:
    def test_exact_pair_residuals_vanish(self, exact_ground):
        params, lam, f, df, g, dg = exact_ground
        re1, re2 = supg_residuals(params, lam, f, df, g, dg)
        xs = np.linspace(0.05, 25.0, 80)
        scale = params.rest_energy  # natural energy scale of each term
        assert np.max(np.abs(re1(xs))) < 1e-12 * scale
        assert np.max(np.abs(re2(xs))) < 1e-12 * scale

    def test_zero_functions_give_zero(self, exact_ground):
        params, lam, *_ = exact_ground
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        re1, re2 = supg_residuals(params, lam, z, z, z, z)
        xs = np.array([0.2, 1.0, 3.4])
        assert np.all(re1(xs) == 0.0)
        assert np.all(re2(xs) == 0.0)

    def test_random_cubics_match_symbolic_evaluation(self, rng):
        sympy = pytest.importorskip("sympy")
        params = OperatorParams(Z=5, kappa=2, c=20.0)
        lam = 123.456
        cf = rng.uniform(-2, 2, 4)
        cg = rng.uniform(-2, 2, 4)
        f = np.polynomial.Polynomial(cf)
        g = np.polynomial.Polynomial(cg)
        re1, re2 = supg_residuals(params, lam, f, f.deriv(), g, g.deriv())

        x = sympy.symbols("x", positive=True)
        fs = sum(sympy.Rational(0) + c * x**k for k, c in enumerate(cf))
        gs = sum(sympy.Rational(0) + c * x**k for k, c in enumerate(cg))
        V = -sympy.Integer(5) / x
        c_, k_, mc2 = params.c, params.kappa, params.rest_energy
        re1_sym = (mc2 + V - lam) * fs - c_ * sympy.diff(gs, x) + c_ * k_ / x * gs
        re2_sym = (-mc2 + V - lam) * gs + c_ * sympy.diff(fs, x) + c_ * k_ / x * fs
        for xv in (0.17, 0.9, 2.6):
            want1 = float(re1_sym.subs(x, xv))
            want2 = float(re2_sym.subs(x, xv))
            assert re1(xv) == pytest.approx(want1, rel=1e-12, abs=1e-9)
            assert re2(xv) == pytest.approx(want2, rel=1e-12, abs=1e-9)

    def test_spurious_pair_has_much_larger_residual(self):
        # the cubic Hermite run for Z=12 keeps one interleaved spurious level;
        # the strong-form residual of its reconstructed eigenpair towers over
        # the genuine neighbours' (4.2e3 against 6.6e-2 and 7.4e-2)
        params = OperatorParams(Z=12, kappa=-2)
        mesh = build_exponential_mesh(1e-6, 50.0, 200, 8.0)
        spectrum = solve(assemble(SCHEME_HERMITE, params, mesh),
                         window=bound_window(params, 10))
        ref = reference_spectrum(params, 10)
        cl = classify(spectrum.bindings[:10], ref, match_tol=1e-5)
        labels = [e.label for e in cl.entries]
        assert Label.INSTILLED in labels, "expected an instilled level in this run"
        idx = labels.index(Label.INSTILLED)
        assert 0 < idx < len(cl.entries) - 1
        x, w = gauss_rule(mesh)

        def residual(i):
            lam = cl.entries[i].binding + params.rest_energy
            re1, re2 = supg_residuals(params, lam, *eigenpair_component(spectrum, mesh, i, "f"),
                                      *eigenpair_component(spectrum, mesh, i, "g"))
            return float(np.sqrt(np.sum(w * (re1(x) ** 2 + re2(x) ** 2))))

        spurious = residual(idx)
        neighbours = max(residual(idx - 1), residual(idx + 1))
        assert spurious > 100 * neighbours


class TestSupgWeakConsistency:
    def test_solved_eigenpair_satisfies_weak_equations(self):
        # Reconstruct a solved stabilized eigenpair, evaluate the two residual
        # functionals as functions, and integrate them against every test
        # function (v, tau v') with the same quadrature: the weak residuals
        # must vanish at solver tolerance. This ties supg_residuals, the
        # reconstruction, and the assembled matrices together independently.
        from diracfem.assembly import compute_tau
        from diracfem.discretization import hermite_local

        params = OperatorParams(Z=2, kappa=1)
        mesh = build_exponential_mesh(1e-5, 30.0, 40, 6.0)
        system = assemble(SCHEME_SUPG, params, mesh)
        spectrum = solve(system, window=bound_window(params, 3))
        tau = compute_tau(mesh)
        n = mesh.interior_count

        k = 0  # deepest bound state
        lam = spectrum.bindings[k] + params.rest_energy
        f, df = eigenpair_component(spectrum, mesh, k, "f")
        g, dg = eigenpair_component(spectrum, mesh, k, "g")
        re1, re2 = supg_residuals(params, lam, f, df, g, dg)

        weak_f = np.zeros(2 * n)  # (Re1, v) + (Re2, tau v') per f-test dof
        weak_g = np.zeros(2 * n)  # (Re2, v) + (Re1, tau v') per g-test dof
        points, weights = gauss_rule(mesh)
        for e in range(1, mesh.element_count + 1):
            xq, wq = points[e - 1], weights[e - 1]
            r1, r2 = re1(xq), re2(xq)
            shapes0 = hermite_local(mesh.h[e - 1], xq - mesh.nodes[e - 1], 0)
            shapes1 = hermite_local(mesh.h[e - 1], xq - mesh.nodes[e - 1], 1)
            dofs = [e - 2, n + e - 2, e - 1, n + e - 1]  # lv, ls, rv, rs
            for local, dof in enumerate(dofs):
                node = e - 1 if local < 2 else e
                if not (1 <= node <= n):
                    continue
                v0, v1 = shapes0[local], shapes1[local]
                weak_f[dof] += np.dot(wq, r1 * v0 + tau[e - 1] * r2 * v1)
                weak_g[dof] += np.dot(wq, r2 * v0 + tau[e - 1] * r1 * v1)

        scale = np.linalg.norm(system.lhs) + abs(lam) * np.linalg.norm(system.rhs)
        assert np.max(np.abs(weak_f)) <= 1e-8 * scale
        assert np.max(np.abs(weak_g)) <= 1e-8 * scale


class TestNodalPropagation:
    def test_zero_step_identity(self, exact_ground):
        params, lam, f, df, g, dg = exact_ground
        out = nodal_propagation(params, 2.0, 0.0, 0.0, 1.25, -0.5, lam)
        assert out == (1.25, -0.5, 1.25, -0.5)

    def test_sign_conventions_at_rest_energy(self):
        # far from the nucleus with lam = mc^2 the f-values propagate
        # unchanged and the g-update couples through (mc^2 + V - lam) ~ 0
        params = OperatorParams(Z=1, kappa=1, c=10.0)
        zm, xm, zp, xp = nodal_propagation(params, 1e9, 0.01, 0.02,
                                           1.0, 0.5, params.rest_energy)
        # f-update dominated by the (w- - lam) = -2mc^2 term acting on xi
        assert zm == pytest.approx(1.0 + 0.01 / 10.0 * (-200.0) * 0.5, rel=1e-6)
        assert zp == pytest.approx(1.0 - 0.02 / 10.0 * (-200.0) * 0.5, rel=1e-6)
        assert xm == pytest.approx(0.5, abs=1e-8)
        assert xp == pytest.approx(0.5, abs=1e-8)

    def test_first_order_accuracy(self, exact_ground):
        params, lam, f, df, g, dg = exact_ground
        xj = 2.0
        errs = []
        steps = (0.1, 0.05, 0.025, 0.0125)
        for h in steps:
            zm, xm, zp, xp = nodal_propagation(params, xj, h, h,
                                               f(xj), g(xj), lam)
            errs.append(max(abs(zm - f(xj - h)), abs(zp - f(xj + h))))
        order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert order >= 0.9  # O(h) difference approximations

    def test_requires_positive_node(self, exact_ground):
        params, lam, *_ = exact_ground
        with pytest.raises(ValueError):
            nodal_propagation(params, 0.0, 0.1, 0.1, 1.0, 1.0, lam)


class TestTauVerification:
    def test_rule_residual_zero_at_derived_tau(self, rng):
        for _ in range(200):
            hj, hj1 = rng.uniform(0.01, 2.0, 2)
            if abs(hj1 - hj) < 1e-6:
                continue
            tau = (9.0 / 35.0) * hj1 * (hj1 - hj) / (hj1 + hj)
            r = tau_rule_residual(hj, hj1, tau)
            assert abs(r) <= 1e-14 * hj1**2

    def test_rule_residual_nonzero_off_optimum(self):
        assert tau_rule_residual(0.1, 0.3, 0.0) == pytest.approx(-81 / 4900 * 0.09, rel=1e-12)

    def test_limit_lambda_improvement(self):
        hj, hj1 = 0.009, 0.011
        tau = (9.0 / 35.0) * hj1 * (hj1 - hj) / (hj1 + hj)
        for c in (1e3, 1e4, 1e5):
            dev_s = abs(tau_limit_lambda(hj, hj1, tau, c) - c**2) / c**2
            dev_0 = abs(tau_limit_lambda(hj, hj1, 0.0, c) - c**2) / c**2
            assert dev_s < dev_0

    def test_limit_lambda_complex_branch(self):
        # without stabilization and with large c*h the radicand turns negative
        lam = tau_limit_lambda(0.009, 0.011, 0.0, 1e5)
        assert isinstance(lam, complex)
        assert lam.imag > 0

    @pytest.mark.parametrize("a, b, n, gamma", [(1e-5, 192.0, 100, 6.0), (1e-5, 192.0, 400, 4.0),
                                                (1e-3, 5.0, 30, 2.0)])
    def test_rule_residual_zero_at_the_assembled_tau(self, a, b, n, gamma):
        # the package's tau on a real graded mesh meets the oracle's rule on every element pair
        mesh = build_exponential_mesh(a, b, n, gamma)
        tau, h = compute_tau(mesh), mesh.h
        assert tau[0] == 0.0
        for e in range(1, mesh.element_count):
            assert abs(tau_rule_residual(h[e - 1], h[e], tau[e])) <= 1e-14 * h[e] ** 2

    def test_preconditions(self):
        with pytest.raises(ValueError, match=r"requires h_\{j\+1\} != h_j"):
            tau_limit_lambda(0.01, 0.01, 0.0, 100.0)
        with pytest.raises(ValueError, match=r"requires h_\{j\+1\} != h_j"):
            tau_rule_residual(0.01, 0.01, 0.0)
        # rho^2 == d^2 degeneracy: tau = -rho * h_{j+1} * 5/6 makes d = rho
        hj, hj1 = 0.01, 0.02
        tau_deg = -(-9.0 / 70.0) * hj1 * 5.0 / 6.0
        with pytest.raises(ValueError, match="reduced pencil is degenerate"):
            tau_limit_lambda(hj, hj1, tau_deg, 100.0)


class TestConvergenceStudy:
    def test_reference_fed_back_gives_zero_error(self):
        ref = hydrogen_reference(4)
        cl = classify([r.binding for r in ref], ref, match_tol=1e-3)
        errs = genuine_errors(cl, ref)
        np.testing.assert_array_equal(errs, 0.0)

    def test_hermite_errors_decrease(self):
        params = OperatorParams(Z=1, kappa=-1)
        study = convergence_study(SCHEME_HERMITE, params,
                                  (30, 60, 120), 2, a=1e-6, b=40.0, gamma=8.0, match_tol=1e-5)
        assert study.errors.shape == (3, 2)
        assert np.all(np.isfinite(study.errors[:, 0]))
        assert study.errors[2, 0] < study.errors[0, 0]
        assert study.orders[0] > 1.0
        # per-level monotone decrease with 10% slack along the refinement
        for lvl in range(2):
            col = study.errors[:, lvl]
            for a_, b_ in zip(col, col[1:]):
                if np.isfinite(a_) and np.isfinite(b_):
                    assert b_ <= 1.1 * a_

    def test_rounding_level_error_moves_no_order(self):
        # levels 1 and 2 of the Z=12 Hermite convergence command: the level-1
        # error at n=400 is about 25 ulp, and a 4e-16 move of it used to move
        # the printed order from 6.157 to 6.213
        n_values = (100, 200, 400)
        errors = np.array([[2.59e-11, 7.43e-10], [4.19e-13, 1.21e-11], [4.93e-15, 1.92e-13]])
        moved = errors.copy()
        moved[2, 0] += 4e-16
        assert errors[2, 0] < ORDER_FIT_FLOOR < errors[1, 0]
        np.testing.assert_array_equal(fit_orders(n_values, moved), fit_orders(n_values, errors))
        np.testing.assert_allclose(fit_orders(n_values, errors), [5.99, 5.99], atol=0.01)

    def test_order_needs_two_errors_above_rounding(self):
        errors = np.array([[2.6e-11, np.nan], [1e-14, 1e-9], [4.9e-15, 1e-10]])
        orders = fit_orders((100, 200, 400), errors)
        assert np.isnan(orders[0])
        assert orders[1] == pytest.approx(np.log2(10.0) / np.log2(401 / 201))

    def test_rejects_unsorted_n(self):
        params = OperatorParams(Z=1, kappa=-1)
        with pytest.raises(ConfigError, match="n_values must be strictly increasing"):
            convergence_study(SCHEME_HERMITE, params,
                              (100, 50), 2, a=1e-6, b=40.0, gamma=8.0, match_tol=1e-5)

    @pytest.mark.parametrize("n_values", [(20.7, 40), (True, 40), (0, 0)])
    def test_rejects_a_size_that_is_not_a_count(self, n_values):
        # 20.7 was solved at n = 20 and True at n = 1, and (0, 0) was
        # reported as an unsorted sequence, not as a bad size
        params = OperatorParams(Z=1, kappa=-1)
        with pytest.raises(ConfigError, match=f"n must be an integer >= 1, got {n_values[0]}"):
            convergence_study(SCHEME_HERMITE, params,
                              n_values, 2, a=1e-6, b=40.0, gamma=8.0, match_tol=1e-5)

    def test_rejects_no_sizes(self):
        # an empty sequence returned a study with no errors and NaN orders
        with pytest.raises(ConfigError, match="n_values must hold at least one size"):
            convergence_study(SCHEME_HERMITE, HYDROGEN, [], 2, a=1e-6, b=40.0, gamma=8.0,
                              match_tol=1e-5)

    def test_match_tol_is_required(self):
        # an omitted match_tol fell back to the scheme default, a second place
        # deciding the default beside the CLI's RunConfig.matching_tolerance
        with pytest.raises(TypeError, match="match_tol"):
            convergence_study(SCHEME_HERMITE, HYDROGEN, (10,), 2, a=1e-6, b=40.0, gamma=8.0)

    @pytest.mark.parametrize("match_tol", [0.5, "x"])
    def test_rejects_a_bad_match_tol_before_any_solve(self, match_tol, monkeypatch):
        # the first mesh was solved before classify refused the tolerance
        def refuse(*args, **kwargs):
            raise AssertionError("solved before match_tol was checked")

        monkeypatch.setattr(analysis, "solve", refuse)
        with pytest.raises(ConfigError, match="match_tol"):
            convergence_study(SCHEME_HERMITE, OperatorParams(Z=1, kappa=-1),
                              (30, 60), 2, a=1e-6, b=40.0, gamma=8.0, match_tol=match_tol)
