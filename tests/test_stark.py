"""Field-dependent dipoles, intermediate-state detunings and the two-photon
moment M12. Frozen numbers were computed independently from the closed
forms before being pinned here."""

import dataclasses
import math

import numpy as np
import pytest

from twophoton.quantities import AngularFrequency, QE
from twophoton.rates import (
    PhotonChannel,
    effective_rabi,
    tpse_spectral_density_cavity,
    tpste_rate,
)
from twophoton.stark import (
    ABSORPTION,
    EMISSION,
    IntermediateState,
    LateralField,
    SingularDetuningError,
    default_intermediate_states,
    dipole_product_sp,
    dipole_product_sp_field_derivative,
    dipole_ss,
    dipole_ss_field_derivative,
    intermediate_detunings,
    m12,
    oscillator_length,
    stark_displacement,
    state_dipole_pair,
)

V_PER_UM = 1e6


def test_oscillator_length(dot):
    # sqrt(hbar/(2 * 0.055 m0 * w_e))
    assert oscillator_length(dot) == pytest.approx(7.597828753000565e-09, rel=1e-13)


def test_displacement_linear_in_field(dot):
    dx1 = stark_displacement(LateralField(1.0 * V_PER_UM), dot)
    assert dx1 == pytest.approx(2.8863500879961058e-08, rel=1e-13)
    dx2 = stark_displacement(LateralField(2.0 * V_PER_UM), dot)
    assert dx2 == pytest.approx(2.0 * dx1, rel=1e-15)
    assert stark_displacement(LateralField(0.0), dot) == 0.0


def test_displacement_slope_both_carriers(dot):
    # e/(m w^2) per carrier; with m_h = 2 m_e and w_h = w_e/2 the hole
    # contributes twice the electron term
    e_term = QE / (dot.m_e_star * dot.omega_e.rad_per_s**2)
    h_term = QE / (dot.m_h_star * dot.omega_h.rad_per_s**2)
    assert h_term == pytest.approx(2.0 * e_term, rel=1e-12)
    slope = stark_displacement(LateralField(1.0), dot)
    assert slope == pytest.approx(e_term + h_term, rel=1e-14)


def test_dipole_ss_zero_field(dot):
    d0 = dipole_ss(LateralField(0.0), dot)
    assert d0.coulomb_meters == pytest.approx(QE * 0.6e-9, rel=1e-15)
    assert d0.coulomb_meters == pytest.approx(9.613059804e-29, rel=1e-12)


def test_dipole_ss_gaussian_suppression(dot):
    l_e = oscillator_length(dot)
    for e_um in (0.3, 0.75, 1.5):
        field = LateralField(e_um * V_PER_UM)
        dx = stark_displacement(field, dot)
        expected = QE * 0.6e-9 * math.exp(-dx * dx / (4 * l_e * l_e))
        assert dipole_ss(field, dot).coulomb_meters == pytest.approx(
            expected, rel=1e-14)


def test_dipole_product_odd_and_peaked(dot):
    assert dipole_product_sp(LateralField(0.0), dot) == 0.0
    # maximum at dx = sqrt(2) l_e
    l_e = oscillator_length(dot)
    kappa = stark_displacement(LateralField(1.0), dot)
    field_star = math.sqrt(2.0) * l_e / kappa
    peak = dipole_product_sp(LateralField(field_star), dot)
    assert peak == pytest.approx(1.0037586376187736e-55, rel=1e-12)
    for off in (0.9, 1.1):
        assert dipole_product_sp(LateralField(off * field_star), dot) < peak


def test_state_pair_product_consistency(dot):
    field = LateralField(0.75 * V_PER_UM)
    d_gk, d_ke = state_dipole_pair(field, dot)
    assert d_gk * d_ke == pytest.approx(dipole_product_sp(field, dot), rel=1e-14)
    assert d_ke == pytest.approx(QE * oscillator_length(dot), rel=1e-15)


@pytest.mark.parametrize("e_um", [0.25, 0.5, 1.0])
def test_analytic_derivatives_match_central_differences(dot, e_um):
    field = e_um * V_PER_UM
    h = field * 1e-6
    for fn, deriv in ((lambda f: dipole_ss(LateralField(f), dot).coulomb_meters,
                       dipole_ss_field_derivative),
                      (lambda f: dipole_product_sp(LateralField(f), dot),
                       dipole_product_sp_field_derivative)):
        numeric = (fn(field + h) - fn(field - h)) / (2.0 * h)
        analytic = deriv(LateralField(field), dot)
        assert numeric == pytest.approx(analytic, rel=1e-6)


def test_default_states(dot):
    con, val = default_intermediate_states(dot)
    assert con.label == "conduction-p"
    assert val.label == "valence-p"
    w_d = dot.omega_d.rad_per_s
    assert con.energy_above_ground.rad_per_s == pytest.approx(
        w_d + dot.omega_e.rad_per_s, rel=1e-15)
    assert val.energy_above_ground.rad_per_s == pytest.approx(
        w_d + dot.omega_h.rad_per_s, rel=1e-15)


def test_absorption_detunings(dot, experiment):
    w1 = experiment.mode1.omega_c
    w2 = experiment.mode2.omega_c
    res = intermediate_detunings(w1, w2, dot)
    assert res[0].photon1_first == pytest.approx(837153091908316.5, rel=1e-13)
    assert res[1].photon1_first == pytest.approx(828037487221044.8, rel=1e-13)
    assert res[0].photon2_first == pytest.approx(1233490285057674.5, rel=1e-13)
    assert res[1].photon2_first == pytest.approx(1224374680370402.8, rel=1e-13)


def test_emission_detunings_match_absorption_on_shell(dot, experiment):
    # with w1 + w2 = w_d the emission substitution reduces to the absorption
    # denominators exactly
    w2 = experiment.mode2.omega_c
    w1 = AngularFrequency(dot.omega_d.rad_per_s - w2.rad_per_s)
    absorbed = intermediate_detunings(w1, w2, dot, direction=ABSORPTION)
    emitted = intermediate_detunings(w1, w2, dot, direction=EMISSION)
    for a, e in zip(absorbed, emitted):
        assert a.photon1_first == e.photon1_first
        assert a.photon2_first == e.photon2_first


def test_singular_detuning_raises(dot):
    # park photon 1 exactly on the conduction-p resonance
    con = default_intermediate_states(dot)[0]
    w1 = con.energy_above_ground
    w2 = AngularFrequency(1e14)
    with pytest.raises(SingularDetuningError) as err:
        intermediate_detunings(w1, w2, dot)
    assert "conduction-p" in str(err.value)
    assert "photon-1-first" in str(err.value)


def test_min_detuning_floor_configurable(dot):
    con = default_intermediate_states(dot)[0]
    w1 = AngularFrequency(con.energy_above_ground.rad_per_s - 1e10)
    w2 = AngularFrequency(1e14)
    intermediate_detunings(w1, w2, dot)    # above the default 1e9 floor: fine
    with pytest.raises(SingularDetuningError):
        intermediate_detunings(w1, w2, dot, min_detuning=1e11)


def test_m12_values(dot, experiment):
    w1 = experiment.mode1.omega_c
    w2 = experiment.mode2.omega_c
    assert m12(w1, w2, LateralField(0.3 * V_PER_UM), dot) == pytest.approx(
        3.8840786587423144e-70, rel=1e-12)
    assert m12(w1, w2, LateralField(0.75 * V_PER_UM), dot) == pytest.approx(
        1.7654860119681005e-70, rel=1e-12)
    assert m12(w1, w2, LateralField(0.0), dot) == 0.0


def test_m12_hand_assembled(dot, experiment):
    # product * sum of four inverse detunings, straight from the definition
    field = LateralField(0.3 * V_PER_UM)
    w1 = experiment.mode1.omega_c
    w2 = experiment.mode2.omega_c
    product = dipole_product_sp(field, dot)
    total = 0.0
    for st in intermediate_detunings(w1, w2, dot):
        total += 1.0 / st.photon1_first + 1.0 / st.photon2_first
    assert m12(w1, w2, field, dot) == pytest.approx(abs(product * total), rel=1e-14)


def test_m12_exchange_symmetric(dot, experiment):
    field = LateralField(0.5 * V_PER_UM)
    w2 = experiment.mode2.omega_c
    w1 = AngularFrequency(dot.omega_d.rad_per_s - w2.rad_per_s)
    assert m12(w1, w2, field, dot) == m12(w2, w1, field, dot)


@pytest.mark.parametrize("psi1,psi2", [(0.5, 0.5), (0.3, 0.8)])
def test_m12_psi_factors_scale_terms(dot, experiment, psi1, psi2):
    # one overlap per photon: M12 and Omega_eff scale by psi1 psi2, the
    # emission rates (two legs squared) by (psi1 psi2)^2
    field = LateralField(0.5 * V_PER_UM)
    w1 = experiment.mode1.omega_c
    w2 = experiment.mode2.omega_c
    base = m12(w1, w2, field, dot)
    scaled = m12(w1, w2, field, dot, psi1=psi1, psi2=psi2)
    assert scaled == pytest.approx(psi1 * psi2 * base, rel=1e-14)

    volume = experiment.mode1.volume
    ch1, ch2 = PhotonChannel(w1, volume, 3.0), PhotonChannel(w2, volume, 5.0)
    ch1_psi = PhotonChannel(w1, volume, 3.0, psi=psi1)
    ch2_psi = PhotonChannel(w2, volume, 5.0, psi=psi2)
    for direction in (ABSORPTION, EMISSION):
        assert effective_rabi(ch1_psi, ch2_psi, field, dot, direction) == pytest.approx(
            psi1 * psi2 * effective_rabi(ch1, ch2, field, dot, direction), rel=1e-14)

    mode1 = dataclasses.replace(experiment.mode1, psi=psi1)
    mode2 = dataclasses.replace(experiment.mode2, psi=psi2)
    omega2 = experiment.drive2.omega
    assert tpse_spectral_density_cavity(omega2, dot, field, mode1, mode2) == \
        pytest.approx((psi1 * psi2) ** 2 * tpse_spectral_density_cavity(
            omega2, dot, field, experiment.mode1, experiment.mode2), rel=1e-14)
    stim = experiment.stim_drive2
    assert tpste_rate(dot, field, mode1, mode2, stim) == pytest.approx(
        (psi1 * psi2) ** 2 * tpste_rate(dot, field, experiment.mode1,
                                        experiment.mode2, stim), rel=1e-14)


def test_m12_custom_states(dot, experiment):
    # a second conduction-like channel at the same energy doubles M12
    field = LateralField(0.5 * V_PER_UM)
    w1 = experiment.mode1.omega_c
    w2 = experiment.mode2.omega_c
    states = default_intermediate_states(dot)
    doubled = states + (IntermediateState("extra", states[0].energy_above_ground),
                        IntermediateState("extra2", states[1].energy_above_ground))
    assert m12(w1, w2, field, dot, states=doubled) == pytest.approx(
        2.0 * m12(w1, w2, field, dot), rel=1e-14)


def test_model_validation(dot):
    with pytest.raises(ValueError):
        LateralField(-1.0)
    with pytest.raises(ValueError):
        LateralField(float("nan"))


def test_randomized_product_positive(dot):
    rng = np.random.default_rng(20260817)
    for _ in range(50):
        field = LateralField(float(rng.uniform(1e3, 3e6)))
        assert dipole_product_sp(field, dot) > 0.0
        assert dipole_ss(field, dot).coulomb_meters > 0.0
