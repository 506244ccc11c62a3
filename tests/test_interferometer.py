import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import dawsn

from oracles import (
    amplified_deflection,
    amplified_deflection_closed_form,
    dark_port_grid,
    dark_port_profile,
    exact_dark_port_mean,
    split_calibration_constant,
    split_probability,
    unamplified_deflection,
)
from wvfreq import interferometer
from wvfreq.dispersion import OpticalCarrier
from wvfreq.errors import (
    DarkPortEmptyError,
    DomainError,
    ValidationError,
    WeakValueValidityError,
)
from wvfreq.interferometer import (
    KICK_SIGMA_LIMIT,
    BeamProfile,
    InterferometerState,
    amplification_factor,
    dark_port_split_calibration,
    dark_port_split_probability,
    phi_for_postselection,
    postselection_probability,
    weak_value_magnitude,
)

SIGMA = 388e-6
PHI_13PCT = 0.22853207394762412  # phase giving 1.3% postselection


def make_state(phi=PHI_13PCT, sigma=SIGMA, path_length=0.27):
    beam = BeamProfile(sigma=sigma, carrier=OpticalCarrier(780e-9))
    return InterferometerState(phi=phi, path_length=path_length, beam=beam)


def closed_form_mean(k, phi, sigma):
    """Independent oracle: Gaussian integrals of sin^2(kx + phi/2) * G(x).

    mean = 2 k sigma^2 sin(phi) E / (1 - cos(phi) E), E = exp(-2 k^2 sigma^2).
    """
    damping = np.exp(-2.0 * k**2 * sigma**2)
    return (
        2.0 * k * sigma**2 * np.sin(phi) * damping
        / (1.0 - np.cos(phi) * damping)
    )


class TestWeakValue:
    def test_right_angle(self):
        assert weak_value_magnitude(np.pi / 2) == pytest.approx(1.0, rel=1e-15)

    def test_small_phi(self):
        value = weak_value_magnitude(0.01)
        assert value == pytest.approx(200.0, rel=1e-4)
        assert value == pytest.approx(2 / 0.01, rel=1e-4)

    def test_operating_point(self):
        phi = phi_for_postselection(0.013)
        assert phi == pytest.approx(PHI_13PCT, rel=1e-12)
        assert weak_value_magnitude(phi) == pytest.approx(8.71, abs=0.01)

    @pytest.mark.parametrize("phi", [0.0, -0.1, np.pi, 3.5])
    def test_domain(self, phi):
        with pytest.raises(DomainError):
            weak_value_magnitude(phi)

    @settings(max_examples=60)
    @given(phi=st.floats(min_value=1e-4, max_value=0.3))
    def test_small_phi_limit_property(self, phi):
        assert abs(weak_value_magnitude(phi) / (2 / phi) - 1) <= phi**2 / 10


class TestPostselection:
    def test_endpoints(self):
        assert postselection_probability(0.0) == 0.0
        assert postselection_probability(np.pi) == pytest.approx(1.0, rel=1e-15)

    def test_operating_point(self):
        assert postselection_probability(PHI_13PCT) == pytest.approx(0.013, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            postselection_probability(-0.1)
        with pytest.raises(DomainError):
            phi_for_postselection(0.0)

    @settings(max_examples=60)
    @given(phi=st.floats(min_value=0.0, max_value=np.pi))
    def test_unitarity(self, phi):
        p_dark = postselection_probability(phi)
        p_bright = np.cos(phi / 2.0) ** 2
        assert 0.0 <= p_dark <= 1.0
        assert p_dark + p_bright == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=40)
    @given(p=st.floats(min_value=1e-6, max_value=1.0))
    def test_inverse_roundtrip(self, p):
        assert postselection_probability(phi_for_postselection(p)) == pytest.approx(
            p, rel=1e-9
        )


class TestDeflections:
    def test_zero_kick(self):
        assert amplified_deflection(0.0, make_state()) == 0.0
        assert unamplified_deflection(0.0, 0.27, 8e6) == 0.0

    def test_closed_form_identity(self):
        # Same inputs through both routes differ only by cot(phi/2) vs 2/phi.
        phi, sigma, gamma, n = 0.2, 500e-6, np.pi / 3, 1.45
        k0 = 2 * np.pi / 780e-9
        dn = 1e-9
        delta = 2 * dn / np.sqrt(np.sin(gamma / 2) ** -2 - n**2)
        state = make_state(phi=phi, sigma=sigma)
        linear = amplified_deflection(delta * k0, state)
        closed = amplified_deflection_closed_form(dn, gamma, n, phi, sigma, k0)
        substitution = (2 / phi) / weak_value_magnitude(phi)
        assert closed / linear == pytest.approx(substitution, rel=1e-12)
        assert abs(substitution - 1) == pytest.approx(phi**2 / 12, rel=0.05)

    def test_closed_form_zero_dn(self):
        assert amplified_deflection_closed_form(0.0, 1.0, 1.45, 0.2, SIGMA, 8e6) == 0.0

    def test_unamplified_linearity(self):
        assert unamplified_deflection(3.0, 0.54, 8e6) == pytest.approx(
            2 * unamplified_deflection(3.0, 0.27, 8e6), rel=1e-15
        )

    def test_published_slope_per_mhz(self):
        # Full calibrated chain: one MHz of shift lands near 720 pm amplified
        # and exactly 9.1 pm unamplified (the calibration target).
        from wvfreq.config import ExperimentConfig, resolve

        physics = resolve(ExperimentConfig())
        k = physics.kick_of_shift(1e6)
        amplified = amplified_deflection(k, physics.state)
        assert amplified == pytest.approx(720e-12, rel=0.02)
        assert amplified == pytest.approx(7.122676844358896e-10, rel=1e-9)
        free = unamplified_deflection(k, 0.27, physics.carrier.wavenumber)
        assert free == pytest.approx(9.1e-12, rel=1e-6)
        # small-phi closed form lands on the same slope (2/phi vs cot(phi/2))
        from wvfreq.dispersion import index_step

        point = physics.point
        dn = index_step(point.prism.material, physics.carrier.wavelength, point.n0, 1e6)
        closed = amplified_deflection_closed_form(
            dn, point.prism.apex_angle, point.n0, physics.state.phi, SIGMA,
            physics.carrier.wavenumber,
        )
        assert closed == pytest.approx(720e-12, rel=0.02)

    @settings(max_examples=60)
    @given(
        k=st.floats(min_value=1e-6, max_value=100.0),
        phi=st.floats(min_value=0.05, max_value=3.0),
        sigma=st.floats(min_value=1e-5, max_value=2e-3),
        length=st.floats(min_value=0.05, max_value=2.0),
    )
    def test_amplification_identity(self, k, phi, sigma, length):
        # amplification * unamplified == amplified, algebraically.
        state = make_state(phi=phi, sigma=sigma, path_length=length)
        k0 = state.beam.carrier.wavenumber
        amplified = amplified_deflection(k, state)
        product = amplification_factor(state) * unamplified_deflection(k, length, k0)
        assert product == pytest.approx(amplified, rel=1e-12)


class TestAmplificationFactor:
    def test_published_operating_point(self):
        factor = amplification_factor(make_state())
        assert factor == pytest.approx(79.0, rel=0.03)
        assert factor == pytest.approx(78.27117411383406, rel=1e-9)

    def test_right_angle_phase(self):
        state = make_state(phi=np.pi / 2)
        k0 = state.beam.carrier.wavenumber
        assert amplification_factor(state) == pytest.approx(
            2 * k0 * SIGMA**2 / 0.27, rel=1e-12
        )

    def test_prism_independent(self):
        # No kick argument at all: the factor is a property of the interferometer.
        assert amplification_factor(make_state()) == amplification_factor(make_state())


class TestExactDarkPortMean:
    def test_zero_kick(self):
        assert abs(exact_dark_port_mean(0.0, make_state())) < 1e-12 * SIGMA

    def test_bright_port_limit(self):
        state = make_state(phi=np.pi)
        mean = exact_dark_port_mean(0.1 / SIGMA, state)
        assert abs(mean) <= 0.01 * SIGMA

    @pytest.mark.parametrize("k,phi", [(50.0, 0.1), (200.0, 0.3), (800.0, 0.5)])
    def test_against_gaussian_integral_oracle(self, k, phi):
        state = make_state(phi=phi)
        assert exact_dark_port_mean(k, state) == pytest.approx(
            closed_form_mean(k, phi, SIGMA), rel=1e-9
        )

    def test_linear_regime_agreement_at_operating_point(self):
        state = make_state()
        k_per_mhz = 0.00027149566142134  # calibrated chain, 1 MHz
        exact = exact_dark_port_mean(k_per_mhz, state)
        linear = amplified_deflection(k_per_mhz, state)
        assert abs(exact - linear) <= 0.05 * abs(linear)

    def test_odd_in_k(self):
        state = make_state(phi=0.3)
        for k in (10.0, 300.0, 900.0):
            plus = exact_dark_port_mean(k, state)
            minus = exact_dark_port_mean(-k, state)
            assert minus == pytest.approx(-plus, rel=1e-12)

    def test_empty_dark_port(self):
        state = make_state(phi=1e-8)
        with pytest.raises(DarkPortEmptyError):
            exact_dark_port_mean(0.0, state)

    def test_linear_regime_sweep(self):
        # 100-point (phi, k) sweep with k sigma cot(phi/2) < 0.1.
        for phi in np.linspace(0.1, 0.5, 10):
            state = make_state(phi=phi)
            cot = weak_value_magnitude(phi)
            for strength in np.linspace(0.01, 0.1, 10):
                k = strength / (SIGMA * cot)
                exact = exact_dark_port_mean(k, state)
                linear = amplified_deflection(k, state)
                assert abs(exact - linear) <= 0.05 * abs(linear)

    @settings(max_examples=60)
    @given(
        k_sigma=st.floats(min_value=-0.5, max_value=0.5),
        phi=st.floats(min_value=0.05, max_value=np.pi),
    )
    def test_matches_centroid_closed_form(self, k_sigma, phi):
        # Second, independent evaluation: the grid quadrature against the
        # Gaussian-integral closed form (phi >= 0.05 keeps the oracle's
        # 1 - cos(phi) E free of cancellation at the 1e-12 level).
        k = k_sigma / SIGMA
        exact = exact_dark_port_mean(k, make_state(phi=phi))
        assert exact == pytest.approx(closed_form_mean(k, phi, SIGMA), rel=1e-12)

    @pytest.mark.parametrize("phi", [0.1, PHI_13PCT, 1.0, 2.5])
    def test_tends_to_linearized_deflection(self, phi):
        # exact / linear = 1 - (k sigma)^2 / sin^2(phi/2) + O((k sigma)^4),
        # above the quadrature's roundoff floor of about 1e-10.
        state = make_state(phi=phi)
        for k_sigma in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4):
            k = k_sigma / SIGMA
            ratio = exact_dark_port_mean(k, state) / amplified_deflection(k, state)
            bound = 1.01 * k_sigma**2 / np.sin(phi / 2) ** 2 + 1e-9
            assert abs(ratio - 1) <= bound


class TestDawson:
    """The numpy Dawson series against scipy's ``dawsn`` as the oracle."""

    X_MAX = 0.7072  # just above sqrt(2) * KICK_SIGMA_LIMIT

    @pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e-9, 1e-8, 1e-7, 1e-6])
    def test_bitwise_equal_to_scipy_at_the_operating_point(self, scale):
        # |x| <= 1e-6 covers sqrt(2) k sigma at the published point (~1.1e-6
        # at 7.4 MHz); the scales cover both the one- and two-term series.
        x = scale * np.random.default_rng(7).uniform(-1.0, 1.0, 100_000)
        x = np.concatenate([x, [0.0, -0.0, scale, -scale]])
        assert np.array_equal(interferometer._dawson(x), dawsn(x))

    def test_matches_scipy_over_the_kernel_range(self):
        x = np.linspace(-self.X_MAX, self.X_MAX, 200_001)
        np.testing.assert_allclose(interferometer._dawson(x), dawsn(x), rtol=1e-13, atol=0)
        for xi in x[::997]:  # one point at a time picks its own term count
            assert interferometer._dawson(xi) == pytest.approx(dawsn(xi), rel=1e-13, abs=0)

    def test_exactly_odd(self):
        x = np.linspace(0.0, self.X_MAX, 10_001)
        assert np.array_equal(interferometer._dawson(-x), -interferometer._dawson(x))

    def test_term_count(self):
        # 2 terms at the operating point, at most 15 over the kernel's range.
        bounds = interferometer._DAWSON_X2_BOUNDS
        assert np.searchsorted(bounds, (1.2e-6) ** 2) + 1 == 2
        assert np.searchsorted(bounds, 2.0 * KICK_SIGMA_LIMIT**2) + 1 == 15

    def test_kernel_refuses_beyond_the_series_range(self):
        state = make_state()
        at_limit = dark_port_split_probability(KICK_SIGMA_LIMIT / SIGMA, state)
        assert 0.5 < at_limit < 1.0
        for ks in (np.nextafter(KICK_SIGMA_LIMIT, 1.0), 0.6, 1e300, np.inf, np.nan):
            with pytest.raises(WeakValueValidityError, match="range of the dark-port kernel"):
                dark_port_split_probability(np.array([0.0, -ks]) / SIGMA, state)


class TestSplitProbabilityKernel:
    @staticmethod
    def grid_split_probability(k, state, beta, n_points):
        x = dark_port_grid(state, n_points)
        return split_probability(x, dark_port_profile(k, state, x, beta))

    @settings(max_examples=60, deadline=None)
    @given(
        k_sigma=st.floats(min_value=-0.5, max_value=0.5),
        phi=st.floats(min_value=1e-3, max_value=np.pi, exclude_max=True),
        beta=st.sampled_from([0.0, 0.02]),
    )
    def test_matches_grid_quadrature(self, k_sigma, phi, beta):
        # The trapezoid rule on the half line carries an O(h^2) endpoint
        # bias at x = 0, so the gap to the closed form shrinks ~16x for 4x
        # the points (down to a roundoff floor).
        state = make_state(phi=phi)
        k = k_sigma / SIGMA
        closed = dark_port_split_probability(k, state, beta)
        coarse = abs(self.grid_split_probability(k, state, beta, 4097) - closed)
        fine = abs(self.grid_split_probability(k, state, beta, 16385) - closed)
        assert coarse <= 2e-6
        assert fine <= max(coarse / 10, 1e-12)

    def test_vectorized_and_odd_about_half(self):
        state = make_state()
        k = np.linspace(-0.5, 0.5, 11) / SIGMA
        p = dark_port_split_probability(k, state)
        assert p.shape == k.shape
        assert p[5] == 0.5
        np.testing.assert_allclose(p + p[::-1], 1.0, rtol=0, atol=1e-15)
        assert np.all((p > 0) & (p < 1))

    @settings(max_examples=40)
    @given(
        phi=st.floats(min_value=1e-3, max_value=np.pi),
        beta=st.sampled_from([0.0, 0.02]),
    )
    def test_calibration_matches_grid_profile(self, phi, beta):
        state = make_state(phi=phi)
        x = dark_port_grid(state)
        reference = dark_port_profile(0.0, state, x, beta)
        assert dark_port_split_calibration(state, beta) == pytest.approx(
            split_calibration_constant(x, reference), rel=1e-12
        )

    def test_validation(self):
        state = make_state()
        with pytest.raises(ValidationError):
            dark_port_split_probability(0.0, state, background_fraction=-0.1)
        with pytest.raises(ValidationError):
            dark_port_split_calibration(state, background_fraction=-0.1)
        with pytest.raises(DarkPortEmptyError):
            dark_port_split_probability(0.0, make_state(phi=1e-300))


class TestDarkPortProfile:
    def test_zero_kick_gaussian(self):
        state = make_state()
        x = dark_port_grid(state)
        profile = dark_port_profile(0.0, state, x)
        assert x[np.argmax(profile)] == pytest.approx(0.0, abs=x[1] - x[0])
        variance = trapezoid(x**2 * profile, x)
        assert variance == pytest.approx(SIGMA**2, rel=1e-6)

    def test_normalization(self):
        state = make_state()
        x = dark_port_grid(state)
        profile = dark_port_profile(3000.0, state, x)
        assert trapezoid(profile, x) == pytest.approx(1.0, abs=1e-9)

    def test_first_moment_matches_exact_mean(self):
        state = make_state()
        x = dark_port_grid(state)
        for k in (100.0, 900.0):
            profile = dark_port_profile(k, state, x)
            moment = trapezoid(x * profile, x)
            assert moment == pytest.approx(exact_dark_port_mean(k, state), rel=1e-9)

    def test_background_fraction(self):
        state = make_state()
        x = dark_port_grid(state)
        mixed = dark_port_profile(0.0, state, x, background_fraction=0.02)
        assert trapezoid(mixed, x) == pytest.approx(1.0, abs=1e-9)
        # uniform floor lifts the far tails
        pure = dark_port_profile(0.0, state, x)
        assert mixed[0] > pure[0]

    def test_grid_validation(self):
        state = make_state()
        with pytest.raises(ValidationError):
            dark_port_profile(0.0, state, np.array([0.0, -1.0, 1.0]))

    def test_background_validation(self):
        state = make_state()
        x = dark_port_grid(state)
        with pytest.raises(ValidationError):
            dark_port_profile(0.0, state, x, background_fraction=-0.1)


class TestStateValidation:
    def test_beam_sigma(self):
        with pytest.raises(ValidationError):
            BeamProfile(sigma=0.0, carrier=OpticalCarrier(780e-9))

    def test_phi_range(self):
        beam = BeamProfile(sigma=SIGMA, carrier=OpticalCarrier(780e-9))
        with pytest.raises(ValidationError):
            InterferometerState(phi=0.0, path_length=0.27, beam=beam)
        with pytest.raises(ValidationError):
            InterferometerState(phi=3.5, path_length=0.27, beam=beam)
        # phi = pi is allowed for the exact profile (bright-port limit)
        InterferometerState(phi=np.pi, path_length=0.27, beam=beam)

    def test_path_length(self):
        beam = BeamProfile(sigma=SIGMA, carrier=OpticalCarrier(780e-9))
        with pytest.raises(ValidationError):
            InterferometerState(phi=0.2, path_length=0.0, beam=beam)
