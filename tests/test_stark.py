"""Field-dependent dipoles, intermediate-state detunings and the two-photon
moment M12. Frozen numbers were computed independently from the closed
forms before being pinned here."""

import dataclasses
import math

import numpy as np
import pytest

from twophoton.quantities import AngularFrequency, HBAR, QE
from twophoton.rates import (
    PhotonChannel,
    effective_rabi,
    tpse_spectral_density_cavity,
    tpste_rate,
)
from twophoton.stark import (
    ABSORPTION,
    DEFAULT_MIN_DETUNING,
    EMISSION,
    LateralField,
    SingularDetuningError,
    _detuning_sum,
    _peak_field,
    dipole_product_sp,
    dipole_product_sp_field_derivative,
    dipole_ss,
    dipole_ss_field_derivative,
    m12,
    oscillator_length,
    stark_displacement,
)

V_PER_UM = 1e6


def test_oscillator_length(dot):
    # sqrt(hbar/(2 * 0.055 m0 * w_e))
    assert oscillator_length(dot) == pytest.approx(7.597828753000565e-09, rel=1e-13)


def test_preset_hole_length_equals_the_electron_length(dot):
    # the model's one envelope length l_e serves both carriers, which is
    # exact only when m_e w_e = m_h w_h, as in the preset (0.055 * 12 =
    # 0.11 * 6)
    l_h = math.sqrt(HBAR / (2.0 * dot.m_h_star * dot.omega_h.rad_per_s))
    assert l_h == pytest.approx(oscillator_length(dot), rel=1e-12)


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


def test_peak_field_zeroes_the_dipole_product_derivative(dot):
    # the preset, then dots with masses, confinement quanta and r_cv drawn
    # around it
    rng = np.random.default_rng(7)
    dots = [dot] + [dataclasses.replace(
        dot, m_e_star=dot.m_e_star * 10.0 ** rng.uniform(-1.0, 1.0),
        m_h_star=dot.m_h_star * 10.0 ** rng.uniform(-1.0, 1.0),
        omega_e=AngularFrequency(dot.omega_e.rad_per_s * 10.0 ** rng.uniform(-1.0, 1.0)),
        omega_h=AngularFrequency(dot.omega_h.rad_per_s * 10.0 ** rng.uniform(-1.0, 1.0)),
        r_cv=dot.r_cv * 10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(5)]
    for model in dots:
        zero = dipole_product_sp_field_derivative(LateralField(0.0), model)
        at_peak = dipole_product_sp_field_derivative(_peak_field(model), model)
        assert abs(at_peak) <= 1e-12 * zero


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


def _denominators(dot, w1, w2):
    """Absorption (photon-1-first, photon-2-first) denominators, rad/s, of
    the conduction-p and valence-p states, one electron and one hole
    quantum above the exciton."""
    w_d = dot.omega_d.rad_per_s
    energies = [w_d + quantum.rad_per_s for quantum in (dot.omega_e, dot.omega_h)]
    return [(energy - w1.rad_per_s, energy - w2.rad_per_s) for energy in energies]


def test_default_states(dot):
    # photon 1 on each p-shell state in turn: the guard names that state
    w_d = dot.omega_d.rad_per_s
    field = LateralField(0.3 * V_PER_UM)
    for label, quantum in (("conduction-p", dot.omega_e), ("valence-p", dot.omega_h)):
        with pytest.raises(SingularDetuningError) as err:
            m12(AngularFrequency(w_d + quantum.rad_per_s), AngularFrequency(1e14),
                field, dot)
        assert err.value.label == label
        assert err.value.ordering == "photon-1-first"
        assert err.value.value == 0.0


def test_absorption_detunings(dot, experiment):
    w1 = experiment.mode1.omega_c
    w2 = experiment.mode2.omega_c
    res = _denominators(dot, w1, w2)   # per state: (photon-1-first, photon-2-first)
    assert res[0][0] == pytest.approx(837153091908316.5, rel=1e-13)
    assert res[1][0] == pytest.approx(828037487221044.8, rel=1e-13)
    assert res[0][1] == pytest.approx(1233490285057674.5, rel=1e-13)
    assert res[1][1] == pytest.approx(1224374680370402.8, rel=1e-13)


def test_emission_detunings_match_absorption_on_shell(dot, experiment):
    # with w1 + w2 = w_d the emission substitution reduces to the absorption
    # denominators exactly
    w2 = experiment.mode2.omega_c
    w1 = AngularFrequency(dot.omega_d.rad_per_s - w2.rad_per_s)
    field = LateralField(0.5 * V_PER_UM)
    assert m12(w1, w2, field, dot, ABSORPTION) == m12(w1, w2, field, dot, EMISSION)


def test_singular_detuning_raises(dot):
    # park photon 1 exactly on the conduction-p resonance
    w1 = AngularFrequency(dot.omega_d.rad_per_s + dot.omega_e.rad_per_s)
    w2 = AngularFrequency(1e14)
    with pytest.raises(SingularDetuningError) as err:
        m12(w1, w2, LateralField(0.3 * V_PER_UM), dot)
    assert "conduction-p" in str(err.value)
    assert "photon-1-first" in str(err.value)


def test_min_detuning_default_floor(dot):
    con = dot.omega_d.rad_per_s + dot.omega_e.rad_per_s
    w2 = AngularFrequency(1e14)
    field = LateralField(0.3 * V_PER_UM)
    above = AngularFrequency(con - 1e10)
    m12(above, w2, field, dot)    # above the 1e9 floor: fine
    below = AngularFrequency(con - 1e8)
    with pytest.raises(SingularDetuningError) as err:
        m12(below, w2, field, dot)
    assert f"floor {DEFAULT_MIN_DETUNING:.3e} rad/s" in str(err.value)


def test_detuning_guard_agrees_on_scalars_and_arrays(dot):
    # the guard takes builtin abs on a scalar and one numpy reduction on an
    # array; a grid that contains the resonance fails as the scalar does
    near = dot.omega_d.rad_per_s + dot.omega_e.rad_per_s + 1e8
    caught = []
    for omega1 in (near, np.array([1e14, near, 2e14])):
        with pytest.raises(SingularDetuningError) as err:
            _detuning_sum(omega1, 1e14, dot, ABSORPTION)
        caught.append((err.value.label, err.value.ordering, err.value.value))
    assert caught[0] == caught[1]
    assert caught[0][:2] == ("conduction-p", "photon-1-first")
    assert 0.0 < caught[0][2] < DEFAULT_MIN_DETUNING


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
    for d1, d2 in _denominators(dot, w1, w2):
        total += 1.0 / d1 + 1.0 / d2
    assert m12(w1, w2, field, dot) == pytest.approx(abs(product * total), rel=1e-14)


def test_m12_exchange_symmetric(dot, experiment):
    field = LateralField(0.5 * V_PER_UM)
    w2 = experiment.mode2.omega_c
    w1 = AngularFrequency(dot.omega_d.rad_per_s - w2.rad_per_s)
    assert m12(w1, w2, field, dot) == m12(w2, w1, field, dot)


@pytest.mark.parametrize("psi1,psi2", [(0.5, 0.5), (0.3, 0.8)])
def test_psi_factors_scale_rates(dot, experiment, psi1, psi2):
    # one overlap per photon leg: Omega_eff scales by psi1 psi2, the
    # emission rates (two legs squared) by (psi1 psi2)^2
    field = LateralField(0.5 * V_PER_UM)
    w1 = experiment.mode1.omega_c
    w2 = experiment.mode2.omega_c
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
