import math

import numpy as np
import pytest

from diracfem.assembly import SCHEME_HERMITE, SCHEME_LINEAR, SCHEME_SUPG, assemble
from diracfem.discretization import (
    Mesh,
    build_exponential_mesh,
    gauss_rule,
    hat_local,
    hermite_local,
)
from diracfem.errors import ConfigError, PhysicsError
from diracfem.physics import OperatorParams

from conftest import random_mesh
from oracles import (
    eval_hat,
    eval_hermite,
    hermite_interpolation_error_order,
    hermite_interpolation_max_error,
)


class TestMesh:
    def test_uniform_limit_midpoint(self):
        # gamma -> 0+ recovers the uniform mesh: single interior node at (a+b)/2
        mesh = build_exponential_mesh(1.0, math.e, 1, 1e-9)
        assert mesh.nodes[1] == pytest.approx((1.0 + math.e) / 2, abs=1e-9)

    def test_element_sizes_strictly_increasing(self):
        mesh = build_exponential_mesh(1e-5, 50.0, 3, 6.0)
        assert mesh.element_count == 4
        assert np.all(np.diff(mesh.h) > 0)

    def test_node_formula_frozen_value(self):
        # x_50 for (a=1e-5, b=50, n=100, gamma=6), cross-checked with a
        # 40-digit evaluation of the closed-form node formula
        mesh = build_exponential_mesh(1e-5, 50.0, 100, 6.0)
        assert mesh.nodes[50] == pytest.approx(2.2982683173250775, abs=1e-15)

    def test_endpoints_exact(self):
        mesh = build_exponential_mesh(1e-5, 60.0, 37, 5.5)
        assert mesh.nodes[0] == 1e-5
        assert mesh.nodes[-1] == 60.0
        assert np.all(np.diff(mesh.nodes) > 0)

    @pytest.mark.parametrize("nodes", [
        [0.5, 0.4, 0.9],        # nodes not increasing
        [0.5, 0.5, 0.9],        # repeated node
        [0.5, float("nan"), 0.9],
        [0.5],                  # no element
        [[0.5, 0.9]],           # not one-dimensional
        "x",                    # not numbers: a builtin ValueError
        object(),               # a builtin TypeError
        ["0.5", "0.9"],         # numeric strings were parsed as numbers
        [True, 2],              # a bool was read as 1.0
    ])
    def test_direct_construction_validated(self, nodes):
        with pytest.raises(PhysicsError, match=r"\bnodes\b"):
            Mesh(nodes)

    def test_counts_derive_from_nodes(self):
        mesh = Mesh([0.5, 0.7, 0.9])
        assert (mesh.interior_count, mesh.element_count) == (1, 2)
        assert type(mesh.interior_count) is int

    def test_direct_construction_copies_nodes(self):
        nodes = np.array([0.5, 0.7, 0.9])
        mesh = Mesh(nodes)
        assert nodes.flags.writeable
        assert not mesh.nodes.flags.writeable
        nodes[1] = 0.6
        assert mesh.nodes[1] == 0.7
        # any array-like of numbers is accepted and stored as floats
        ints = Mesh([0, 1, 2])
        assert ints.nodes.dtype == np.float64

    def test_non_integer_node_count_rejected(self):
        # n=5.5 used to pass as the 6 interior nodes np.arange(n + 2) gives
        with pytest.raises(ConfigError, match="n must be an integer >= 1, got 5.5"):
            build_exponential_mesh(1e-5, 60.0, 5.5, 6.0)

    def test_integral_float_node_count_builds_the_integer_mesh(self):
        # n=50.0 used to give interior_count 50.0, on which assemble raised TypeError
        mesh = build_exponential_mesh(1e-5, 60.0, 50.0, 6.0)
        np.testing.assert_array_equal(mesh.nodes, build_exponential_mesh(1e-5, 60.0, 50, 6.0).nodes)
        params = OperatorParams(Z=1, kappa=-1)
        for scheme, size in ((SCHEME_LINEAR, 100), (SCHEME_HERMITE, 200), (SCHEME_SUPG, 200)):
            assert assemble(scheme, params, mesh).size == size

    @pytest.mark.parametrize("a, b, n, gamma, name", [
        (1e-5, 10.0, True, 6.0, "n"), (1e-5, 10.0, 5, True, "gamma"),
        (True, 10.0, 5, 6.0, "a"), (1e-5, True, 5, 6.0, "b"),
        ("1e-5", 10.0, 5, 6.0, "a"), (1e-5, 10.0, "5", 6.0, "n"), (1e-5, 10.0, None, 6.0, "n")])
    def test_bool_or_non_number_refused_naming_it(self, a, b, n, gamma, name):
        # n=True built a one-node mesh and gamma=True graded it as gamma = 1;
        # a="1e-5" and n="5" raised a foreign TypeError. n is a count, the
        # others define the domain
        error, message = ((ConfigError, "n must be an integer") if name == "n"
                          else (PhysicsError, f"parameter {name}="))
        with pytest.raises(error, match=message):
            build_exponential_mesh(a, b, n, gamma)

    def test_invalid_domain(self):
        with pytest.raises(PhysicsError):
            build_exponential_mesh(0.0, 1.0, 5, 6.0)
        with pytest.raises(PhysicsError):
            build_exponential_mesh(2.0, 1.0, 5, 6.0)
        with pytest.raises(ConfigError, match="n must be"):
            build_exponential_mesh(1e-5, 1.0, 0, 6.0)
        with pytest.raises(PhysicsError):
            build_exponential_mesh(1e-5, 1.0, 5, -1.0)

    @pytest.mark.parametrize("a, b, gamma, name", [
        (float("nan"), 1.0, 6.0, "a"), (float("inf"), 1.0, 6.0, "a"),
        (1e-5, float("inf"), 6.0, "b"), (1e-5, float("nan"), 6.0, "b"),
        (1e-5, 1.0, float("inf"), "gamma"), (1e-5, 1.0, float("nan"), "gamma"),
        (1e-5, 1.0, 800.0, "gamma")])
    def test_bad_parameter_named_before_any_arithmetic(self, a, b, gamma, name, capfd):
        # b = inf or gamma = inf made NaN nodes and gamma = 800 overflowed
        # exp(gamma), each with a numpy warning, and Mesh then blamed the
        # nodes for not increasing
        with pytest.raises(PhysicsError, match=f"parameter {name}="):
            build_exponential_mesh(a, b, 5, gamma)
        assert capfd.readouterr() == ("", "")


class TestQuadrature:
    def test_degree_seven_exact(self):
        unit = Mesh(np.array([0.0, 1.0]))
        points, weights = gauss_rule(unit)
        assert np.dot(weights[0], points[0]**7) == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_weights_sum_to_element_length(self):
        mesh = build_exponential_mesh(1e-5, 50.0, 10, 6.0)
        points, weights = gauss_rule(mesh)
        assert points.shape == weights.shape == (mesh.element_count, 4)
        for e in (1, 5, 11):
            assert np.all(weights[e - 1] > 0)
            assert weights[e - 1].sum() == pytest.approx(mesh.h[e - 1], rel=1e-14)

    def test_reference_abscissae_match_independent_rootfinder(self):
        # roots of the degree-4 Legendre polynomial (35x^4 - 30x^2 + 3)/8,
        # found independently with numpy's companion-matrix root solver
        roots = np.sort(np.roots([35.0 / 8.0, 0.0, -30.0 / 8.0, 0.0, 3.0 / 8.0]))
        unit = Mesh(np.array([-1.0, 1.0]))
        points = gauss_rule(unit)[0][0]
        np.testing.assert_allclose(np.sort(points), roots, atol=1e-12)
        assert abs(points[1]) == pytest.approx(0.3399810435848563, abs=1e-12)
        assert abs(points[0]) == pytest.approx(0.8611363115940526, abs=1e-12)


class TestHatBasis:
    @pytest.fixture
    def mesh(self, rng):
        return random_mesh(rng)

    def test_nodal_interpolation(self, mesh):
        nodes = mesh.nodes
        for j in (1, 3, 6):
            assert eval_hat(mesh, j, nodes[j], 0) == 1.0
            assert eval_hat(mesh, j, nodes[j - 1], 0) == 0.0
            assert eval_hat(mesh, j, nodes[j + 1], 0) == 0.0

    def test_rising_slope(self, mesh):
        j = 3
        x = 0.5 * (mesh.nodes[j - 1] + mesh.nodes[j])
        assert eval_hat(mesh, j, x, 1) == pytest.approx(1.0 / mesh.h[j - 1], rel=1e-14)

    def test_compact_support_exact_zero(self, mesh):
        j = 2
        outside = [mesh.nodes[0], mesh.nodes[j + 1] + 0.1, mesh.nodes[-1]]
        for x in outside:
            assert eval_hat(mesh, j, x, 0) == 0.0
            assert eval_hat(mesh, j, x, 1) == 0.0

    def test_partition_of_unity(self, mesh):
        xs = np.linspace(mesh.nodes[1], mesh.nodes[-2], 101)
        total = sum(eval_hat(mesh, j, xs, 0) for j in range(1, mesh.interior_count + 1))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_unsupported_order(self, mesh):
        with pytest.raises(ValueError):
            eval_hat(mesh, 1, 1.0, 2)
        with pytest.raises(ConfigError, match="order 2"):
            hat_local(1.0, 0.5, 2)


class TestHermiteBasis:
    @pytest.fixture
    def mesh(self, rng):
        return random_mesh(rng)

    def test_nodal_properties(self, mesh):
        # value function: 1 at its node with zero derivative; slope function:
        # 0 at its node with unit derivative; both vanish at other nodes
        nodes = mesh.nodes
        for j in (1, 4, 6):
            assert eval_hermite(mesh, j, "value", nodes[j], 0) == pytest.approx(1.0, abs=1e-14)
            assert eval_hermite(mesh, j, "value", nodes[j], 1) == pytest.approx(0.0, abs=1e-12)
            assert eval_hermite(mesh, j, "slope", nodes[j], 0) == pytest.approx(0.0, abs=1e-14)
            assert eval_hermite(mesh, j, "slope", nodes[j], 1) == pytest.approx(1.0, rel=1e-13)
            for i in (j - 1, j + 1):
                assert eval_hermite(mesh, j, "value", nodes[i], 0) == pytest.approx(0.0, abs=1e-13)
                assert eval_hermite(mesh, j, "slope", nodes[i], 0) == pytest.approx(0.0, abs=1e-13)

    def test_value_at_midpoint_uniform(self):
        # phi_{j,1} at the midpoint of the right element equals 1/2 on a
        # uniform mesh (direct evaluation of the right-element branch)
        from conftest import uniform_mesh

        mesh = uniform_mesh(0.0, 5.0, 4)
        j = 2
        mid = 0.5 * (mesh.nodes[j] + mesh.nodes[j + 1])
        assert eval_hermite(mesh, j, "value", mid, 0) == pytest.approx(0.5, abs=1e-14)

    def test_c1_continuity_across_node(self, mesh):
        eps = 1e-9
        for j in (2, 5):
            for part in ("value", "slope"):
                for order in (0, 1):
                    left = eval_hermite(mesh, j, part, mesh.nodes[j] - eps, order)
                    right = eval_hermite(mesh, j, part, mesh.nodes[j] + eps, order)
                    assert left == pytest.approx(right, abs=1e-6)

    def test_compact_support_exact_zero(self, mesh):
        j = 3
        for x in (mesh.nodes[j - 1] - 0.05, mesh.nodes[j + 1] + 0.05):
            for part in ("value", "slope"):
                assert eval_hermite(mesh, j, part, x, 0) == 0.0
                assert eval_hermite(mesh, j, part, x, 1) == 0.0

    def test_partition_of_unity_value_functions(self, rng):
        mesh = random_mesh(rng, n=8)
        xs = np.linspace(mesh.nodes[1], mesh.nodes[-2], 137)
        total = sum(eval_hermite(mesh, j, "value", xs, 0)
                    for j in range(1, mesh.interior_count + 1))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_unsupported_order(self, mesh):
        with pytest.raises(ValueError):
            eval_hermite(mesh, 1, "value", 1.0, 2)
        with pytest.raises(ConfigError, match="order 2"):
            hermite_local(1.0, 0.5, 2)

    def test_bad_part(self, mesh):
        with pytest.raises(ValueError):
            eval_hermite(mesh, 1, "curvature", 1.0, 0)


class TestHermiteInterpolation:
    def test_constant_reproduced(self):
        err = hermite_interpolation_max_error(lambda x: 3.7, lambda x: 0.0, 0.0, 2.0, 13)
        assert err < 1e-14

    def test_cubic_reproduced(self):
        f = lambda x: 2 * x**3 - x**2 + 0.5 * x - 4
        df = lambda x: 6 * x**2 - 2 * x + 0.5
        err = hermite_interpolation_max_error(f, df, -1.0, 2.0, 9)
        assert err < 1e-12

    def test_sin_fourth_order(self):
        # four halvings starting from h = pi/4
        sizes = [math.pi / 4 / 2**k for k in range(5)]
        order = hermite_interpolation_error_order(math.sin, math.cos, 0.0, math.pi, sizes)
        assert order >= 3.8

    def test_degenerate_fit(self):
        with pytest.raises(ValueError):
            hermite_interpolation_error_order(math.sin, math.cos, 0.0, 1.0, [0.1, 0.05])
