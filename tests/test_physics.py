import dataclasses

import numpy as np
import pytest

from diracfem.errors import ConfigError, PhysicsError
from diracfem.physics import (
    SPEED_OF_LIGHT,
    OperatorParams,
    _check_count,
    potential_value,
    reference_binding,
    reference_spectrum,
)

from oracles import accumulation_point, potential_w


class TestParams:
    def test_invariants(self):
        with pytest.raises(PhysicsError):
            OperatorParams(Z=1, kappa=0)
        with pytest.raises(PhysicsError):
            OperatorParams(Z=0.5, kappa=-1)
        with pytest.raises(PhysicsError):
            OperatorParams(Z=138, kappa=-1)  # supercritical for |kappa| = 1
        OperatorParams(Z=137, kappa=-1)
        OperatorParams(Z=200, kappa=-2)
        OperatorParams(Z=1, kappa=-1.0)  # an integer-valued float is an integer

    @pytest.mark.parametrize("kappa", [1.5, -0.5, float("nan"), float("inf")])
    def test_non_integer_kappa_rejected(self, kappa):
        # kappa = 1.5 would give a binding for a level that does not exist
        with pytest.raises(PhysicsError, match="kappa"):
            OperatorParams(Z=1, kappa=kappa)

    @pytest.mark.parametrize("field", ["Z", "c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_constants_rejected(self, field, value):
        # each would give NaN or -inf bindings
        with pytest.raises(PhysicsError):
            OperatorParams(**{"Z": 1.0, "kappa": -1, field: value})

    @pytest.mark.parametrize("c", [-137.0, 0.0])
    def test_non_positive_speed_rejected_as_such(self, c):
        # c <= 0 was blamed on a supercritical charge: Z=1 >= c*|kappa|=-137.0
        with pytest.raises(PhysicsError, match="c must be finite and positive"):
            OperatorParams(Z=1, kappa=-1, c=c)

    @pytest.mark.parametrize("field, value", [
        ("kappa", True), ("kappa", np.True_), ("Z", True), ("c", True),
        ("R", True), ("kappa", "1"), ("Z", "1"), ("R", "1e-4"), ("Z", None)])
    def test_bool_or_non_number_refused_naming_it(self, field, value):
        # kappa=True passed as kappa = 1, and kappa="1" raised a foreign
        # TypeError ("bad operand type for abs()")
        with pytest.raises(PhysicsError, match=f"parameter {field}="):
            OperatorParams(**{"Z": 1.0, "kappa": -1, field: value})

    @pytest.mark.parametrize("c", [1e155, 1e200])
    def test_overflowing_rest_energy_rejected(self, c):
        # c**2 raised OverflowError in rest_energy
        with pytest.raises(PhysicsError, match="rest energy"):
            OperatorParams(Z=1.0, kappa=-1, c=c)
        assert OperatorParams(Z=1.0, kappa=-1, c=1e150).rest_energy > 0

    def test_the_operator_is_charge_kappa_speed_and_radius(self):
        # the mass is the atomic unit: no field holds it, and the rest energy is c^2
        assert [f.name for f in dataclasses.fields(OperatorParams)] == ["Z", "kappa", "c", "R"]
        assert OperatorParams(Z=1, kappa=-1).rest_energy == SPEED_OF_LIGHT**2


class TestPotential:
    def test_point_value(self):
        assert potential_value(OperatorParams(Z=1.0, kappa=-1), 2.0) == -0.5

    def test_point_singularity(self):
        with pytest.raises(PhysicsError):
            potential_value(OperatorParams(Z=1.0, kappa=-1), 0.0)

    @pytest.mark.parametrize("R", [None, 0.01])
    @pytest.mark.parametrize("x", [np.nan, [1.0, np.nan]], ids=["scalar", "array"])
    def test_nan_position_refused(self, R, x):
        # a NaN passed both range checks and gave a potential of NaN
        with pytest.raises(PhysicsError, match=r"\bx\b"):
            potential_value(OperatorParams(Z=1.0, kappa=-1, R=R), x)

    def test_extended_continuous_at_radius(self):
        params = OperatorParams(Z=12.0, kappa=-1, R=0.01)
        inside = potential_value(params, 0.01 - 1e-12)
        outside = potential_value(params, 0.01)
        assert inside == pytest.approx(-12.0 / 0.01, rel=1e-9)
        assert outside == pytest.approx(-12.0 / 0.01, rel=1e-12)

    def test_extended_at_origin(self):
        params = OperatorParams(Z=4.0, kappa=-1, R=0.25)
        assert potential_value(params, 0.0) == pytest.approx(-3 * 4.0 / (2 * 0.25), rel=1e-14)

    def test_extended_c1_at_radius(self):
        # both one-sided difference quotients at R approach V'(R) = Z/R^2; a
        # kink would part them by O(1), the step only by O(d/R) = 1e-6
        Z, R = 7.0, 0.02
        params = OperatorParams(Z=Z, kappa=-1, R=R)
        d = 1e-6 * R
        left = (potential_value(params, R) - potential_value(params, R - d)) / d
        right = (potential_value(params, R + d) - potential_value(params, R)) / d
        assert left == pytest.approx(Z / R**2, rel=1e-5)
        assert right == pytest.approx(Z / R**2, rel=1e-5)

    @pytest.mark.parametrize("radius, rtol", [(1e160, 1e-15), (1e300, 1e-15), (1e-300, 1e-15),
                                              (1.7e308, 1e-12)])
    def test_extreme_radius_gives_a_finite_potential(self, radius, rtol):
        # R**2 overflowed a float past R ~ 1.3e154, and x**2 / R**2 divided
        # by zero once it underflowed (in the branch np.where then discards);
        # a RuntimeWarning fails the test. At R = 1.7e308, Z / (2R) overflowed
        # 2R, so V read -0.0; there -1.5/R is subnormal, with about 49 bits
        x = np.array([0.0, 1e-6, 1.0, 150.0])
        got = potential_value(OperatorParams(Z=1.0, kappa=-1, R=radius), x)
        want = np.where(x < radius, -1.5 / radius, -1.0 / np.maximum(x, radius))
        np.testing.assert_allclose(got, want, rtol=rtol)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1e-4, 5e-324])
    def test_extended_requires_finite_positive_radius(self, radius):
        # with R = nan every x < R test is false, so V was the point-nucleus
        # potential; R = inf made V a constant well; at R = 5e-324 the
        # central potential -1.5*Z/R overflowed to -inf
        with pytest.raises(PhysicsError, match="radius"):
            OperatorParams(Z=12, kappa=-1, R=radius)

    def test_radius_refused_where_the_charge_overflows_the_central_potential(self):
        # 1.5*Z/R passes the double range at R = 1e-307 for Z = 92, not for Z = 1
        with pytest.raises(PhysicsError, match="radius"):
            OperatorParams(Z=92, kappa=-1, R=1e-307)
        for Z, R in [(1, 1e-307), (92, 1e-306)]:
            got = potential_value(OperatorParams(Z=Z, kappa=-1, R=R), 0.0)
            assert got == pytest.approx(-1.5 * Z / R, rel=1e-15)

    def test_w_plus_minus(self):
        params = OperatorParams(Z=1, kappa=-1, c=10.0)
        assert potential_w(params, -1, 2.0) == pytest.approx(-100.5, rel=1e-14)
        # w+ approaches mc^2 as the potential vanishes
        assert potential_w(params, +1, 1e9) == pytest.approx(100.0, rel=1e-9)
        # w+ - w- = 2 mc^2 for all x
        xs = np.array([0.3, 1.0, 7.5])
        np.testing.assert_allclose(
            potential_w(params, +1, xs) - potential_w(params, -1, xs),
            200.0, rtol=1e-14)


class TestReferenceSpectrum:
    def test_hydrogen_ground_at_codata86_c(self):
        # ground state for hydrogen with the historic CODATA-86 light speed;
        # the tabulated value is reproduced to the printed digits
        params = OperatorParams(Z=1, kappa=-1, c=137.0359895)
        assert reference_binding(params, 0).binding == pytest.approx(-0.50000665659, abs=1e-11)

    def test_magnesium_ground(self):
        # printed to 10 decimals; agree within one unit in the last digit
        params = OperatorParams(Z=12, kappa=-2)
        assert reference_binding(params, 0).binding == pytest.approx(-18.0086349982, abs=1e-10)

    def test_hydrogen_first_three(self):
        params = OperatorParams(Z=1, kappa=-1)
        got = [l.binding for l in reference_spectrum(params, 3)]
        expected = [-0.50000665659, -0.12500208018, -0.05555629517]
        np.testing.assert_allclose(got, expected, atol=1e-11)

    def test_magnesium_first_three(self):
        params = OperatorParams(Z=12, kappa=-2)
        got = [l.binding for l in reference_spectrum(params, 3)]
        expected = [-18.0086349982, -8.00511739963, -4.50269856638]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_binding_vanishes_for_small_charge(self):
        params = OperatorParams(Z=1e-6 + 1, kappa=-1)
        # Z -> 0 limit probed through the smallest admissible charge
        assert abs(reference_binding(params, 0).binding) < 1.0

    def test_positive_kappa_series_is_shifted(self):
        neg = reference_spectrum(OperatorParams(Z=5, kappa=-1), 4)
        pos = reference_spectrum(OperatorParams(Z=5, kappa=1), 3)
        np.testing.assert_allclose([l.binding for l in pos],
                                   [l.binding for l in neg[1:]], rtol=1e-14)

    def test_no_nr0_for_positive_kappa(self):
        with pytest.raises(PhysicsError):
            reference_binding(OperatorParams(Z=1, kappa=1), 0)

    @pytest.mark.parametrize("n_r", [0.5, True, np.nan])
    def test_reference_binding_needs_an_integer_n_r(self, n_r):
        # 0.5 once returned a level with n_r = 0.5
        with pytest.raises(ConfigError, match="n_r"):
            reference_binding(OperatorParams(Z=1, kappa=-1), n_r)

    @pytest.mark.parametrize("count", [1.5, True])
    def test_reference_spectrum_needs_an_integer_count(self, count):
        # 1.5 once failed with a TypeError from range()
        with pytest.raises(ConfigError, match="count"):
            reference_spectrum(OperatorParams(Z=1, kappa=-1), count)

    def test_degeneracy_in_kappa_sign(self):
        for nr in (1, 2, 5):
            up = reference_binding(OperatorParams(Z=30, kappa=2), nr).binding
            dn = reference_binding(OperatorParams(Z=30, kappa=-2), nr).binding
            assert up == dn

    def test_monotonicity(self):
        params = OperatorParams(Z=20, kappa=-1)
        levels = [l.binding for l in reference_spectrum(params, 8)]
        assert all(b > a for a, b in zip(levels, levels[1:]))
        z_small = reference_binding(OperatorParams(Z=10, kappa=-1), 2).binding
        z_large = reference_binding(OperatorParams(Z=11, kappa=-1), 2).binding
        assert z_large < z_small

    def test_nonrelativistic_limit(self):
        # binding -> -Z^2 / (2 (n_r + |kappa|)^2) as c grows
        params = OperatorParams(Z=3, kappa=-2, c=1e5)
        for nr in (0, 1, 3):
            exact_nr = -(3.0**2) / (2.0 * (nr + 2) ** 2)
            got = reference_binding(params, nr).binding
            assert got == pytest.approx(exact_nr, rel=1e-7)

    def test_accumulation_point(self):
        assert accumulation_point(OperatorParams(Z=1, kappa=-1)) == \
            pytest.approx(137.035999074**2, rel=1e-15)
        assert accumulation_point(OperatorParams(Z=1, kappa=-1, c=2.0)) == 4.0
        # bindings accumulate at zero by construction of the convention
        params = OperatorParams(Z=1, kappa=-1)
        assert reference_binding(params, 40).binding == pytest.approx(0.0, abs=1e-3)


class TestCheckCount:
    @pytest.mark.parametrize("value, least, expected", [
        (3, 1, 3), (np.int64(2), 1, 2), (4.0, 1, 4), (0, 0, 0)])
    def test_whole_numbers_taken(self, value, least, expected):
        count = _check_count(value, "levels", least)
        assert count == expected and type(count) is int

    @pytest.mark.parametrize("value", [True, False, np.True_, 1.5, np.nan, np.inf, "3", None, 0,
                                       -1])
    def test_refused_naming_the_argument(self, value):
        with pytest.raises(ConfigError, match="levels must be an integer >= 1"):
            _check_count(value, "levels")
