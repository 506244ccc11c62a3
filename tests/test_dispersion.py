import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.optimize import brentq

from oracles import exact_index_step, min_deviation_angle
from wvfreq.dispersion import (
    MIN_APEX_ANGLE,
    OpticalCarrier,
    Prism,
    SellmeierModel,
    calibrate_apex_angle,
    deflection_slope,
    dispersive_deflection,
    get_material,
    index_slope,
    index_step,
    load_material_catalog,
    momentum_kick,
    operating_point,
    sellmeier_index,
)
from wvfreq.errors import (
    DomainError,
    GrazingIncidenceError,
    UnreachableSlopeError,
    ValidationError,
)

# Malitson fused-silica coefficients, for independent hand evaluation below.
MALITSON_B = (0.6961663, 0.4079426, 0.8974794)
MALITSON_C_UM2 = (0.00467914826, 0.0135120631, 97.9340025)


@pytest.fixture(scope="module")
def fused_silica():
    return get_material("fused_silica")


@pytest.fixture(scope="module")
def carrier():
    return OpticalCarrier(780e-9)


def hand_index(lam_m):
    """Direct three-term evaluation, independent of the library path."""
    l2 = (lam_m * 1e6) ** 2
    total = 1.0
    for b, c in zip(MALITSON_B, MALITSON_C_UM2):
        total += b * l2 / (l2 - c)
    return np.sqrt(total)


def deflection(prism, wavelength, dnu):
    return dispersive_deflection(operating_point(prism, OpticalCarrier(wavelength)), dnu)


class TestSellmeierIndex:
    def test_vacuum_limit(self):
        vacuum = SellmeierModel(
            name="vacuum", b=(0.0, 0.0, 0.0), c=(1e-18, 2e-18, 3e-18),
            valid_range=(1e-7, 1e-5),
        )
        for lam in (300e-9, 780e-9, 5e-6):
            assert sellmeier_index(vacuum, lam) == 1.0

    def test_fused_silica_780nm(self, fused_silica):
        n = sellmeier_index(fused_silica, 780e-9)
        assert n == pytest.approx(hand_index(780e-9), rel=1e-12)
        assert n == pytest.approx(1.4537, abs=1e-4)
        assert n == pytest.approx(1.4536712482412462, rel=1e-12)

    def test_fused_silica_1550nm(self, fused_silica):
        n = sellmeier_index(fused_silica, 1.55e-6)
        assert n == pytest.approx(hand_index(1.55e-6), rel=1e-12)
        assert n == pytest.approx(1.444, abs=1e-3)

    def test_out_of_range_names_bound(self, fused_silica):
        with pytest.raises(DomainError, match="validity range"):
            sellmeier_index(fused_silica, 0.1e-6)
        with pytest.raises(DomainError, match="3.71"):
            sellmeier_index(fused_silica, 4e-6)

    def test_array_input(self, fused_silica):
        lams = np.linspace(0.5e-6, 2e-6, 7)
        n = sellmeier_index(fused_silica, lams)
        assert n.shape == lams.shape
        assert np.all(n > 1)

    def test_normal_dispersion_700_900nm(self, fused_silica):
        lams = np.linspace(700e-9, 900e-9, 100)
        n = sellmeier_index(fused_silica, lams)
        assert np.all(np.diff(n) < 0)

    def test_index_above_one_in_range(self, fused_silica):
        lams = np.linspace(*fused_silica.valid_range, 200)
        assert np.all(sellmeier_index(fused_silica, lams) > 1)

    def test_pure(self, fused_silica):
        assert sellmeier_index(fused_silica, 780e-9) == sellmeier_index(
            fused_silica, 780e-9
        )


class TestMinDeviation:
    def test_no_refraction_vacuum(self):
        vacuum = SellmeierModel(
            name="vacuum", b=(0.0, 0.0, 0.0), c=(1e-18, 2e-18, 3e-18),
            valid_range=(1e-7, 1e-5),
        )
        prism = Prism(apex_angle=np.pi / 3, material=vacuum)
        assert min_deviation_angle(prism, 780e-9) == pytest.approx(0.0, abs=1e-15)

    def test_equilateral_fused_silica(self, fused_silica):
        prism = Prism(apex_angle=np.pi / 3, material=fused_silica)
        n = sellmeier_index(fused_silica, 780e-9)
        expected = 2 * np.arcsin(n * np.sin(np.pi / 6)) - np.pi / 3
        theta = min_deviation_angle(prism, 780e-9)
        assert theta == pytest.approx(expected, rel=1e-15)
        assert theta == pytest.approx(0.5802, abs=2e-4)

    def test_degenerate_prism_monotone(self, fused_silica):
        gammas = np.linspace(1e-3, 0.5, 40)
        thetas = [
            min_deviation_angle(Prism(g, fused_silica), 780e-9) for g in gammas
        ]
        assert np.all(np.diff(thetas) > 0)
        assert thetas[0] < 1e-3

    def test_total_internal_reflection(self, fused_silica, carrier):
        # n sin(gamma/2) > 1 is the grazing condition sin(gamma/2)**-2 < n^2.
        prism = Prism(apex_angle=1.6, material=fused_silica)
        with pytest.raises(GrazingIncidenceError):
            min_deviation_angle(prism, 780e-9)
        with pytest.raises(GrazingIncidenceError):
            operating_point(prism, carrier)

    def test_apex_angle_validation(self, fused_silica):
        with pytest.raises(ValidationError):
            Prism(apex_angle=0.0, material=fused_silica)
        with pytest.raises(ValidationError):
            Prism(apex_angle=np.pi, material=fused_silica)
        Prism(apex_angle=MIN_APEX_ANGLE, material=fused_silica)


class TestDispersiveDeflection:
    def test_zero_shift(self, fused_silica):
        prism = Prism(apex_angle=np.pi / 3, material=fused_silica)
        assert deflection(prism, 780e-9, 0.0) == 0.0

    def test_hand_evaluated_magnitude(self, fused_silica):
        # Hand chain: exact Delta_n over the closed-form denominator.
        prism = Prism(apex_angle=np.pi / 3, material=fused_silica)
        dn = exact_index_step(fused_silica, 780e-9, 1e6)
        n0 = hand_index(780e-9)
        expected = 2 * dn / np.sqrt(np.sin(np.pi / 6) ** -2 - n0**2)
        delta = deflection(prism, 780e-9, 1e6)
        assert delta == pytest.approx(expected, rel=1e-14)
        assert delta == pytest.approx(5.3576653848732426e-11, rel=1e-12)
        assert delta > 0  # positive shift, normal dispersion

    def test_one_hertz_is_resolved(self, fused_silica, carrier):
        # The difference of two rounded indices is exactly 0 below a few Hz.
        point = operating_point(Prism(np.pi / 3, fused_silica), carrier)
        for dnu in (1.0, -1.0, 1e-3):
            assert dispersive_deflection(point, dnu) == pytest.approx(
                deflection_slope(point) * dnu, rel=1e-9
            )

    def test_formula_denominator(self):
        # 2 dn / sqrt(4 - n^2) at n = 1.4537 for a controlled index step dn = 1e-6.
        assert 2 * 1e-6 / np.sqrt(4 - 1.4537**2) == pytest.approx(1.456e-6, rel=1e-3)

    @pytest.mark.parametrize("dnu", [1e6, 1e8, 1e9])
    def test_first_order_agreement_with_theta_difference(self, fused_silica, dnu):
        # Finite-difference oracle on the full deviation angle.
        prism = Prism(apex_angle=np.pi / 3, material=fused_silica)
        nu0 = C_LIGHT / 780e-9
        dtheta = min_deviation_angle(prism, C_LIGHT / (nu0 + dnu)) - min_deviation_angle(
            prism, 780e-9
        )
        delta = deflection(prism, 780e-9, dnu)
        assert abs(delta - dtheta) <= 1e-3 * abs(delta)

    @settings(max_examples=30, deadline=None)
    @given(
        lam_nm=st.floats(min_value=400, max_value=2000),
        dnu=st.floats(min_value=1e5, max_value=1e9),
    )
    def test_first_order_agreement_property(self, fused_silica, lam_nm, dnu):
        prism = Prism(apex_angle=np.pi / 3, material=fused_silica)
        lam = lam_nm * 1e-9
        nu0 = C_LIGHT / lam
        delta = deflection(prism, lam, dnu)
        dtheta = min_deviation_angle(prism, C_LIGHT / (nu0 + dnu)) - min_deviation_angle(
            prism, lam
        )
        assert abs(delta - dtheta) <= 1e-3 * abs(delta)


CATALOG = sorted(load_material_catalog())
OFFSETS = (1.0, -1.0, 743e3, -743e3, 1e6, -1e6, 7.4e6, -7.4e6, 1e12, 4.7e12)


class TestIndexStep:
    """The closed-form Delta_n and dn/dnu against exact rational Sellmeier sums."""

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("dnu", OFFSETS)
    def test_matches_exact_oracle(self, name, dnu):
        model = get_material(name)
        n0 = sellmeier_index(model, 780e-9)
        exact = exact_index_step(model, 780e-9, dnu)
        assert index_step(model, 780e-9, n0, dnu) == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("wavelength", [633e-9, 780e-9, 1550e-9])
    def test_slope_matches_exact_secant(self, name, wavelength):
        # The central secant's own error is O(h^2), about 1e-23 at 1 kHz.
        model = get_material(name)
        secant = (
            exact_index_step(model, wavelength, 1e3) - exact_index_step(model, wavelength, -1e3)
        ) / 2e3
        n0 = sellmeier_index(model, wavelength)
        assert index_slope(model, wavelength, n0) == pytest.approx(secant, rel=1e-12, abs=0)

    def test_array_matches_scalars(self, fused_silica):
        n0 = sellmeier_index(fused_silica, 780e-9)
        steps = index_step(fused_silica, 780e-9, n0, np.array(OFFSETS))
        assert steps.tolist() == [index_step(fused_silica, 780e-9, n0, d) for d in OFFSETS]

    def test_shift_outside_window_refused(self, fused_silica, carrier):
        # 1.1e15 Hz above 780 nm is 202 nm, past the window's 0.21 um edge.
        n0 = sellmeier_index(fused_silica, 780e-9)
        point = operating_point(Prism(np.pi / 3, fused_silica), carrier)
        for dnu in (1.1e15, np.array([0.0, 1.1e15])):
            with pytest.raises(DomainError, match="validity range"):
                index_step(fused_silica, 780e-9, n0, dnu)
            with pytest.raises(DomainError, match="validity range"):
                dispersive_deflection(point, dnu)


class TestMomentumKick:
    def test_zero(self, carrier):
        assert momentum_kick(0.0, carrier) == 0.0

    def test_product(self, carrier):
        delta = 1.456e-6
        assert momentum_kick(delta, carrier) == pytest.approx(
            delta * 2 * np.pi / 780e-9, rel=1e-15
        )
        assert momentum_kick(delta, carrier) == pytest.approx(11.73, abs=0.01)

    def test_linearity(self, carrier):
        assert momentum_kick(2 * 1.3e-7, carrier) == pytest.approx(
            2 * momentum_kick(1.3e-7, carrier), rel=1e-15
        )


class TestCalibrateApexAngle:
    TARGET = 9.1e-12 / 1e6  # 9.1 pm/MHz in m/Hz

    def test_zero_target_unreachable(self, fused_silica, carrier):
        with pytest.raises(UnreachableSlopeError, match="achievable range"):
            calibrate_apex_angle(0.0, 0.27, carrier, fused_silica)

    def test_roundtrip_to_published_slope(self, fused_silica, carrier):
        point = calibrate_apex_angle(self.TARGET, 0.27, carrier, fused_silica)
        gamma = point.prism.apex_angle
        assert 0 < gamma < np.pi
        assert 0.27 * deflection_slope(point) == pytest.approx(self.TARGET, rel=1e-15)
        # The apex angle it reports gives the same slope back.
        again = operating_point(Prism(gamma, fused_silica), carrier)
        assert 0.27 * deflection_slope(again) == pytest.approx(self.TARGET, rel=1e-14)
        # regression pin for the default operating point
        assert gamma == pytest.approx(0.7822222992740858, rel=1e-12)

    def test_longer_arm_needs_smaller_apex(self, fused_silica, carrier):
        g1 = calibrate_apex_angle(self.TARGET, 0.27, carrier, fused_silica).prism.apex_angle
        g2 = calibrate_apex_angle(self.TARGET, 0.54, carrier, fused_silica).prism.apex_angle
        assert g2 < g1

    @pytest.mark.parametrize("path_length", [3e-7, 2.7e-7])
    def test_near_grazing_carries_the_denominator(self, fused_silica, carrier, path_length):
        # gamma lies next to 2 asin(1/n0), where sin(gamma/2)**-2 - n0^2
        # cancels; the calibrated r does not go through that difference.
        point = calibrate_apex_angle(self.TARGET, path_length, carrier, fused_silica)
        assert point.prism.apex_angle > 0.998 * 2 * np.arcsin(1 / point.n0)
        assert path_length * deflection_slope(point) == pytest.approx(self.TARGET, rel=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(target_pm_per_mhz=st.floats(min_value=0.5, max_value=400.0))
    def test_roundtrip_property(self, fused_silica, carrier, target_pm_per_mhz):
        target = target_pm_per_mhz * 1e-18
        point = calibrate_apex_angle(target, 0.27, carrier, fused_silica)
        assert 0.27 * deflection_slope(point) == pytest.approx(target, rel=1e-15)


def brentq_apex_angle(target_slope, path_length, carrier, material):
    """Oracle: bracketed root find of the forward slope map over gamma."""

    def forward(gamma):
        point = operating_point(Prism(apex_angle=gamma, material=material), carrier)
        return path_length * deflection_slope(point)

    n0 = sellmeier_index(material, carrier.wavelength)
    lo, hi = 1e-9, 2.0 * np.arcsin(1.0 / n0) * (1.0 - 1e-12)
    if not forward(lo) <= target_slope <= forward(hi):
        raise UnreachableSlopeError("target outside the bracket")
    return brentq(
        lambda g: forward(g) - target_slope, lo, hi, xtol=1e-15, rtol=8.9e-16
    )


class TestClosedFormApexAngle:
    @settings(max_examples=60, deadline=None)
    @given(
        target_pm_per_mhz=st.floats(min_value=0.5, max_value=400.0),
        path_length=st.sampled_from([0.27, 0.54, 2.0]),
        material=st.sampled_from(["fused_silica", "bk7"]),
    )
    def test_matches_brentq_oracle(self, carrier, target_pm_per_mhz, path_length, material):
        model = get_material(material)
        target = target_pm_per_mhz * 1e-18
        try:
            expected = brentq_apex_angle(target, path_length, carrier, model)
        except UnreachableSlopeError:
            with pytest.raises(UnreachableSlopeError):
                calibrate_apex_angle(target, path_length, carrier, model)
            return
        gamma = calibrate_apex_angle(target, path_length, carrier, model).prism.apex_angle
        assert gamma == pytest.approx(expected, rel=1e-13, abs=0)

    def test_unreachable_target_beyond_bracket(self, fused_silica, carrier):
        with pytest.raises(UnreachableSlopeError, match="achievable range"):
            calibrate_apex_angle(1.0, 0.27, carrier, fused_silica)

    @pytest.mark.parametrize("apex_angle", [1e-150, 1e-300, 5e-324])
    def test_apex_angle_too_small_for_deflection(self, fused_silica, apex_angle):
        # The prism is refused before sin(gamma/2)**-2 is evaluated: it would
        # give an absurd deflection at 1e-150 and overflow below about 1e-154.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"apex angle must lie in \[1e-09, pi\)"):
                Prism(apex_angle=apex_angle, material=fused_silica)


class TestCarrierAndCatalog:
    def test_carrier_consistency(self):
        carrier = OpticalCarrier(780e-9)
        assert carrier.wavelength * carrier.frequency == pytest.approx(
            C_LIGHT, rel=1e-15
        )
        assert carrier.wavenumber == pytest.approx(2 * np.pi / 780e-9, rel=1e-15)

    def test_carrier_validation(self):
        with pytest.raises(ValidationError):
            OpticalCarrier(-1e-6)

    def test_catalog_units_converted(self):
        catalog = load_material_catalog()
        fs = catalog["fused_silica"]
        assert fs.b == MALITSON_B
        for c_m2, c_um2 in zip(fs.c, MALITSON_C_UM2):
            assert c_m2 == pytest.approx(c_um2 * 1e-12, rel=1e-15)
        assert fs.valid_range == pytest.approx((0.21e-6, 3.71e-6), rel=1e-15)
        assert "bk7" in catalog

    def test_unknown_material(self):
        with pytest.raises(ValidationError, match="catalog has"):
            get_material("unobtainium")
