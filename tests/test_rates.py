"""Rate building blocks and their closed-form cross-checks.

The dual-route checks matter here: tpa_rate_* are built by composing
quantized Rabi rates with photon numbers, so the tests reassemble the same
rates from the bracket-product closed forms and from frozen numbers that
were computed independently.
"""

import dataclasses
import math

import numpy as np
import pytest

from twophoton import rates
from twophoton.cavity import BulkHost, CavityMode, mode_at_wavelength, purcell_factor
from twophoton.quantities import (
    AngularFrequency,
    C,
    EPS0,
    HBAR,
    QE,
    Wavelength,
    angular_frequency_to_wavelength,
    wavelength_to_angular_frequency,
)
from twophoton.rates import (
    DriveField,
    Linewidth,
    PhotonChannel,
    QuadratureError,
    RateReport,
    effective_rabi,
    evaluate_point,
    on_shell_two_photon_rate,
    opse_rate,
    photon_number_bulk,
    photon_number_cavity,
    quantized_rabi_rate,
    tpa_rate_bulk,
    tpa_rate_cavity,
    tpse_spectral_density_bulk,
    tpse_spectral_density_cavity,
    tpse_spectral_density_single_mode,
    tpse_total,
    tpse_total_fixed,
    tpste_rate,
)
from twophoton.stark import (
    ABSORPTION,
    EMISSION,
    LateralField,
    SingularDetuningError,
    dipole_ss,
    m12,
)

V_PER_UM = 1e6
F075 = LateralField(0.75 * V_PER_UM)


# --- quantized Rabi rate ----------------------------------------------------


def test_quantized_rabi_vacuum_value(dot):
    d = dipole_ss(LateralField(0.0), dot)
    volume = (926e-9 / 3.4) ** 3
    rate = quantized_rabi_rate(d, dot.omega_d, 0.0, volume, dot.host)
    by_hand = d.coulomb_meters / HBAR * math.sqrt(
        HBAR * dot.omega_d.rad_per_s / (2.0 * 3.4**2 * EPS0 * volume))
    assert rate == pytest.approx(by_hand, rel=1e-14)
    assert rate == pytest.approx(207611770265.76508, rel=1e-12)


def test_quantized_rabi_occupation_rules(dot):
    d = dipole_ss(LateralField(0.0), dot)
    volume = 1e-19
    vac = quantized_rabi_rate(d, dot.omega_d, 0.0, volume, dot.host,
                              occupation=EMISSION)
    # emission scales as sqrt(N+1), absorption as sqrt(N)
    assert quantized_rabi_rate(d, dot.omega_d, 3.0, volume, dot.host,
                               occupation=EMISSION) == pytest.approx(
        2.0 * vac, rel=1e-14)
    assert quantized_rabi_rate(d, dot.omega_d, 4.0, volume, dot.host,
                               occupation=ABSORPTION) == pytest.approx(
        2.0 * vac, rel=1e-14)
    # absorbing from vacuum is exactly zero, not merely small
    assert quantized_rabi_rate(d, dot.omega_d, 0.0, volume, dot.host,
                               occupation=ABSORPTION) == 0.0


def test_quantized_rabi_psi_and_errors(dot):
    d = dipole_ss(LateralField(0.0), dot)
    base = quantized_rabi_rate(d, dot.omega_d, 0.0, 1e-19, dot.host)
    half = quantized_rabi_rate(d, dot.omega_d, 0.0, 1e-19, dot.host, psi=0.5)
    assert half == pytest.approx(0.5 * base, rel=1e-15)
    with pytest.raises(ValueError):
        quantized_rabi_rate(d, dot.omega_d, -1.0, 1e-19, dot.host)
    with pytest.raises(ValueError):
        quantized_rabi_rate(d, dot.omega_d, 0.0, 1e-19, dot.host,
                            occupation="both")


# --- effective Rabi rate ----------------------------------------------------


def _random_channels(rng, dot):
    w_d = dot.omega_d.rad_per_s
    w2 = rng.uniform(0.2, 0.45) * w_d
    w1 = rng.uniform(0.5, 0.75) * w_d
    return (PhotonChannel(AngularFrequency(w1), rng.uniform(1e-20, 1e-18),
                          rng.uniform(0.5, 200.0)),
            PhotonChannel(AngularFrequency(w2), rng.uniform(1e-20, 1e-18),
                          rng.uniform(0.5, 200.0)))


def test_effective_rabi_matches_factorized_form(dot):
    # Omega_eff = sqrt(w1 w2 occ1 occ2) M12 / (2 hbar n^2 eps0 sqrt(V1 V2))
    rng = np.random.default_rng(7)
    n = dot.host.n
    for _ in range(40):
        ch1, ch2 = _random_channels(rng, dot)
        field = LateralField(rng.uniform(0.05, 2.0) * V_PER_UM)
        om = effective_rabi(ch1, ch2, field, dot, ABSORPTION)
        m = m12(ch1.omega, ch2.omega, field, dot, direction=ABSORPTION)
        closed = math.sqrt(ch1.omega.rad_per_s * ch2.omega.rad_per_s
                           * ch1.photons * ch2.photons) * m / (
            2.0 * HBAR * n**2 * EPS0 * math.sqrt(ch1.volume * ch2.volume))
        assert om == pytest.approx(closed, rel=1e-12)


def test_effective_rabi_emission_occupancy(dot):
    rng = np.random.default_rng(11)
    ch1, ch2 = _random_channels(rng, dot)
    field = LateralField(0.6 * V_PER_UM)
    absorbed = effective_rabi(ch1, ch2, field, dot, ABSORPTION)
    w2 = AngularFrequency(dot.omega_d.rad_per_s - ch1.omega.rad_per_s)
    ch2_shell = PhotonChannel(w2, ch2.volume, ch2.photons)
    emitted = effective_rabi(ch1, ch2_shell, field, dot, EMISSION)
    # same channels, on shell: emission carries (N+1) in place of N
    absorbed_shell = effective_rabi(ch1, ch2_shell, field, dot, ABSORPTION)
    boost = math.sqrt((ch1.photons + 1.0) * (ch2.photons + 1.0)
                      / (ch1.photons * ch2.photons))
    assert emitted == pytest.approx(boost * absorbed_shell, rel=1e-12)
    assert absorbed > 0.0


def test_effective_rabi_zero_field_and_vacuum_absorption(dot):
    rng = np.random.default_rng(13)
    ch1, ch2 = _random_channels(rng, dot)
    assert effective_rabi(ch1, ch2, LateralField(0.0), dot, ABSORPTION) == 0.0
    empty = PhotonChannel(ch2.omega, ch2.volume, 0.0)
    assert effective_rabi(ch1, empty, LateralField(1e6), dot, ABSORPTION) == 0.0
    # spontaneous emission amplitude survives empty channels
    w2 = AngularFrequency(dot.omega_d.rad_per_s - ch1.omega.rad_per_s)
    empty1 = PhotonChannel(ch1.omega, ch1.volume, 0.0)
    empty2 = PhotonChannel(w2, ch2.volume, 0.0)
    assert effective_rabi(empty1, empty2, LateralField(1e6), dot, EMISSION) > 0.0


def test_effective_rabi_singularity_propagates(dot):
    state = AngularFrequency(dot.omega_d.rad_per_s + dot.omega_e.rad_per_s)
    ch1 = PhotonChannel(state, 1e-19, 1.0)     # photon 1 exactly on resonance
    ch2 = PhotonChannel(AngularFrequency(1e14), 1e-19, 1.0)
    with pytest.raises(SingularDetuningError):
        effective_rabi(ch1, ch2, LateralField(1e6), dot, ABSORPTION)


# --- Lorentzian-regularized on-shell rate -----------------------------------


def test_on_shell_rate_peak_and_fwhm():
    lw = Linewidth(2e9)
    omega_eff = 3e7
    peak = on_shell_two_photon_rate(omega_eff, 0.0, lw)
    assert peak == pytest.approx(
        2.0 * math.pi * omega_eff**2 * 2.0 / (math.pi * lw.gamma_d), rel=1e-14)
    # half maximum at half the FWHM off center, by definition
    assert on_shell_two_photon_rate(omega_eff, lw.gamma_d / 2.0, lw) \
        == pytest.approx(0.5 * peak, rel=1e-14)


def test_linewidth_validation():
    with pytest.raises(ValueError):
        Linewidth(0.0)
    with pytest.raises(ValueError):
        Linewidth(float("inf"))


# --- photon numbers ---------------------------------------------------------


def test_photon_number_bulk_value(experiment):
    # N = P V n / (2 c A hbar w), inside one cavity-mode volume
    vol = experiment.mode1.volume
    n_phot = photon_number_bulk(experiment.drive1, vol, experiment.dot.host)
    assert n_phot == pytest.approx(0.05030634602175601, rel=1e-12)
    assert photon_number_bulk(experiment.drive1, 2.0 * vol, experiment.dot.host) \
        == pytest.approx(2.0 * n_phot, rel=1e-15)


def test_photon_number_bulk_needs_spot_area(experiment):
    drive = DriveField(experiment.drive1.omega, 1e-6)
    with pytest.raises(ValueError, match="spot_area"):
        photon_number_bulk(drive, 1.0, experiment.dot.host)


def test_photon_number_cavity_values(experiment):
    assert photon_number_cavity(experiment.drive1, experiment.mode1) \
        == pytest.approx(7.704905894544322, rel=1e-12)
    n_12uw = photon_number_cavity(experiment.drive2, experiment.mode2)
    assert n_12uw == pytest.approx(16.96758887766654, rel=1e-12)
    # stim drive differs from drive2 only in power (100 uW vs 12 uW)
    assert photon_number_cavity(experiment.stim_drive2, experiment.mode2) \
        == pytest.approx(n_12uw * 100.0 / 12.0, rel=1e-14)
    assert photon_number_cavity(experiment.stim_drive2, experiment.mode2) \
        == pytest.approx(141.3965739805545, rel=1e-12)


def test_photon_number_cavity_is_linear_in_mode_eta(experiment):
    # a drive's in-coupling is its mode's eta (0.02 on the preset)
    base = photon_number_cavity(experiment.drive1, experiment.mode1)
    mode = dataclasses.replace(experiment.mode1, eta=0.04)
    assert photon_number_cavity(experiment.drive1, mode) == pytest.approx(
        2.0 * base, rel=1e-14)


def test_photon_number_cavity_detuned_drive(experiment):
    mode = experiment.mode1
    half_line = mode.omega_c.rad_per_s * (1.0 + 0.5 / mode.quality)
    drive = DriveField(AngularFrequency(half_line), experiment.drive1.power)
    resonant = photon_number_cavity(experiment.drive1, mode)
    detuned = photon_number_cavity(drive, mode)
    # phi halves (plus the 1/4Q numerator correction); w^-2 shifts a little
    assert detuned < 0.51 * resonant


# --- spontaneous-emission densities -----------------------------------------


def test_density_bulk_value(dot, experiment):
    d = tpse_spectral_density_bulk(experiment.mode2.omega_c, dot, F075)
    assert d == pytest.approx(1.0053662942760282e-12, rel=1e-12)


def test_density_cavity_value(dot, experiment):
    d = tpse_spectral_density_cavity(experiment.mode2.omega_c, dot, F075,
                                     experiment.mode1, experiment.mode2)
    assert d == pytest.approx(1.4514008254446735e-07, rel=1e-12)


def test_density_ratio_is_purcell_product(dot, experiment):
    # cavity/bulk = F1(w1) F2(w2) across the mode-2 band, 50 points, 1e-9
    host = dot.host
    wc = experiment.mode2.omega_c.rad_per_s
    for w2 in np.linspace(wc - 3e11, wc + 3e11, 50):
        om2 = AngularFrequency(float(w2))
        om1 = AngularFrequency(dot.omega_d.rad_per_s - float(w2))
        cav = tpse_spectral_density_cavity(om2, dot, F075,
                                           experiment.mode1, experiment.mode2)
        blk = tpse_spectral_density_bulk(om2, dot, F075)
        f1 = purcell_factor(angular_frequency_to_wavelength(om1), host,
                            experiment.mode1, om1)
        f2 = purcell_factor(angular_frequency_to_wavelength(om2), host,
                            experiment.mode2, om2)
        assert cav / blk == pytest.approx(f1 * f2, rel=1e-9)


def test_density_single_mode_ratio(dot, experiment):
    # single-mode/bulk = F1(w1) alone
    wc = experiment.mode2.omega_c.rad_per_s
    for w2 in (wc, wc + 1e11):
        om2 = AngularFrequency(w2)
        om1 = AngularFrequency(dot.omega_d.rad_per_s - w2)
        single = tpse_spectral_density_single_mode(om2, dot, F075,
                                                   experiment.mode1)
        blk = tpse_spectral_density_bulk(om2, dot, F075)
        f1 = purcell_factor(angular_frequency_to_wavelength(om1), dot.host,
                            experiment.mode1, om1)
        assert single / blk == pytest.approx(f1, rel=1e-9)


def test_density_zero_field_and_domain(dot, experiment):
    om2 = experiment.mode2.omega_c
    assert tpse_spectral_density_bulk(om2, dot, LateralField(0.0)) == 0.0
    with pytest.raises(ValueError):
        tpse_spectral_density_bulk(dot.omega_d, dot, F075)
    above = AngularFrequency(dot.omega_d.rad_per_s * 1.5)
    with pytest.raises(ValueError):
        tpse_spectral_density_cavity(above, dot, F075,
                                     experiment.mode1, experiment.mode2)


def test_density_nonnegative_random(dot, experiment):
    rng = np.random.default_rng(23)
    for _ in range(25):
        w2 = AngularFrequency(rng.uniform(0.05, 0.95) * dot.omega_d.rad_per_s)
        f = LateralField(rng.uniform(0.0, 2.5) * V_PER_UM)
        assert tpse_spectral_density_bulk(w2, dot, f) >= 0.0


# --- totals -----------------------------------------------------------------


def _accepted(model, field, environment, **kw):
    # the finer of tpse_total's two levels, which it returns on convergence:
    # twice the breakpoint mesh's segment count
    n = 2 * rates._initial_intervals(model, environment, kw.get("mode1"), kw.get("mode2"))
    return n, tpse_total_fixed(model, field, environment, n, **kw)


def _count_fixed(monkeypatch) -> list:
    # the panel counts tpse_total hands to the module attribute
    # rates.tpse_total_fixed, which the benchmark's tracer wraps
    calls = []
    fixed = rates.tpse_total_fixed

    def counted(model, field, environment, intervals, *args, **kwargs):
        calls.append(intervals)
        return fixed(model, field, environment, intervals, *args, **kwargs)

    monkeypatch.setattr(rates, "tpse_total_fixed", counted)
    return calls


def test_tpse_total_bulk_converged(dot):
    total = tpse_total(dot, F075, "bulk")
    n, accepted = _accepted(dot, F075, "bulk")
    assert total == accepted
    # one more doubling moves the result by well under 0.1%
    finer = tpse_total_fixed(dot, F075, "bulk", 2 * n)
    assert abs(finer - total) < 1e-3 * abs(finer)
    # and the accepted value agrees with a much finer reference
    reference = tpse_total_fixed(dot, F075, "bulk", 16 * n)
    assert total == pytest.approx(reference, rel=2e-3)


def test_tpse_total_double_mode_converged(dot, experiment):
    kw = {"mode1": experiment.mode1, "mode2": experiment.mode2}
    total = tpse_total(dot, F075, "double", **kw)
    n, accepted = _accepted(dot, F075, "double", **kw)
    assert total == accepted
    finer = tpse_total_fixed(dot, F075, "double", 2 * n, **kw)
    assert abs(finer - total) < 1e-3 * abs(finer)
    # cross-check: the double-mode total is roughly the center density times
    # the width of the two-Lorentzian product, pi/2 g1 g2/(g1+g2)
    center = tpse_spectral_density_cavity(experiment.mode2.omega_c, dot, F075,
                                          experiment.mode1, experiment.mode2)
    g1 = experiment.mode1.omega_c.rad_per_s / experiment.mode1.quality
    g2 = experiment.mode2.omega_c.rad_per_s / experiment.mode2.quality
    estimate = center * (math.pi / 2.0) * g1 * g2 / (g1 + g2)
    assert total == pytest.approx(estimate, rel=0.05)


# the preset at 0.75 V/um: (environment, Q of both modes, total in 1/s), to
# the digits of a 30-digit mpmath quadrature; no mode enters the bulk total
PRESET_TOTALS = [
    ("bulk", 1e2, 1.3880395770e3),
    ("bulk", 1e6, 1.3880395770e3),
    ("double", 5e3, 2.2307916374e4),
    ("double", 1.32e5, 5.8892898589e5),
    ("double", 1e6, 4.4615832264e6),
]
# the single-mode totals, held at rel 1e-8: the rule's error there is about
# 1e-9, from mesh segments only two panels wide
SINGLE_TOTALS = [
    (1e2, 1.4783982649134e2),
    (5e3, 1.4587949254726e2),
    (1.32e5, 1.4584082841873e2),
    (1e6, 1.4583950702343e2),
]


def _at_quality(experiment, quality):
    return {"mode1": dataclasses.replace(experiment.mode1, quality=quality),
            "mode2": dataclasses.replace(experiment.mode2, quality=quality)}


@pytest.mark.parametrize("environment, quality, expected", PRESET_TOTALS)
def test_tpse_total_preset_values_across_q(dot, experiment, environment, quality,
                                           expected):
    total = tpse_total(dot, F075, environment, **_at_quality(experiment, quality))
    assert total == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("quality, expected", SINGLE_TOTALS)
def test_tpse_total_preset_single_mode_values_across_q(dot, experiment, quality,
                                                       expected):
    kw = _at_quality(experiment, quality)
    total = tpse_total(dot, F075, "single", kw["mode1"])
    assert total == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("quality", [1.32e5, 1e6])
def test_tpse_total_single_mode_converges_at_high_q(dot, experiment, quality):
    kw = _at_quality(experiment, quality)
    total = tpse_total(dot, F075, "single", **kw)
    # against the same rule on eight times the panels, and the narrow-line
    # limit: the centre density times (pi/2) g1
    n = rates._initial_intervals(dot, "single", **kw)
    assert total == pytest.approx(tpse_total_fixed(dot, F075, "single", 8 * n, **kw),
                                  rel=1e-8)
    mode1 = kw["mode1"]
    centre = tpse_spectral_density_single_mode(
        AngularFrequency(dot.omega_d.rad_per_s - mode1.omega_c.rad_per_s), dot, F075,
        mode1)
    g1 = mode1.omega_c.rad_per_s / mode1.quality
    assert total == pytest.approx(centre * (math.pi / 2.0) * g1, rel=1e-3)


def _uniform_trapezoid(model, field, environment, intervals, mode1, mode2):
    # the composite trapezoid tpse_total used before its Gauss panels: the
    # interior nodes of one linspace, each weighted by half the distance
    # between its neighbours, summed in blocks of 2**13 nodes
    legs = rates._legs(environment, mode1, mode2)
    w_d = model.omega_d.rad_per_s
    grid = np.linspace(0.0, w_d, intervals + 1)
    total = 0.0
    for start in range(1, intervals, 2**13):
        stop = min(start + 2**13, intervals)
        w2 = grid[start:stop]
        density = rates._density_raw(w_d - w2, w2, field, model, *legs)
        total += np.dot(density, grid[start + 1:stop + 1] - grid[start - 1:stop - 1])
    return float(total / 2.0)


def _random_dot_and_modes(rng, dot, experiment, equal_quanta, equal_linewidths):
    # line 800-1300 nm, confinement 1-30 meV, mode1 anywhere in the emitted
    # band, mode2 within a few linewidths of its energy-conserving partner,
    # and Q from 1e2 to 5e3
    mev = 1e-3 * QE / HBAR
    w_d = 2.0 * math.pi * C / (rng.uniform(800.0, 1300.0) * 1e-9)
    w_e = rng.uniform(1.0, 30.0) * mev
    w_h = w_e if equal_quanta else rng.uniform(1.0, 30.0) * mev
    model = dataclasses.replace(dot, omega_d=AngularFrequency(w_d),
                                omega_e=AngularFrequency(w_e),
                                omega_h=AngularFrequency(w_h))
    w_c1 = rng.uniform(0.3, 0.7) * w_d
    q1 = 10.0 ** rng.uniform(2.0, math.log10(5e3))
    if equal_linewidths:
        # w_c1 + w_c2 = w_d and w_c1/Q1 = w_c2/Q2: the two Lorentzians'
        # poles in w2 coincide
        w_c2 = w_d - w_c1
        q1 = min(q1, 5e3 * w_c1 / w_c2)
        q2 = q1 * w_c2 / w_c1
    else:
        w_c2 = w_d - w_c1 + rng.uniform(-3.0, 3.0) * w_c1 / q1
        q2 = 10.0 ** rng.uniform(2.0, math.log10(5e3))
    mode1 = dataclasses.replace(experiment.mode1, omega_c=AngularFrequency(w_c1),
                                quality=q1)
    mode2 = dataclasses.replace(experiment.mode2, omega_c=AngularFrequency(w_c2),
                                quality=q2)
    return model, mode1, mode2


@pytest.mark.parametrize("seed, equal_quanta, equal_linewidths",
                         [(1, False, False), (2, False, False), (3, False, False),
                          (4, True, False), (5, True, False), (6, False, True),
                          (7, False, True), (8, True, True)])
def test_tpse_total_matches_fine_trapezoid_on_random_dots(dot, experiment, seed,
                                                          equal_quanta, equal_linewidths):
    # against the old uniform trapezoid at 2**20 intervals, which resolves a
    # Lorentzian of Q <= 5e3 with about 100 nodes per linewidth
    rng = np.random.default_rng([2718, seed])
    model, mode1, mode2 = _random_dot_and_modes(rng, dot, experiment, equal_quanta,
                                                equal_linewidths)
    field = LateralField(rng.uniform(0.05, 2.0) * V_PER_UM)
    for environment in ("bulk", "single", "double"):
        total = tpse_total(model, field, environment, mode1, mode2)
        reference = _uniform_trapezoid(model, field, environment, 2**20, mode1, mode2)
        assert reference > 0.0, environment      # no underflow to a trivial 0 == 0
        assert total == pytest.approx(reference, rel=1e-8), environment


def test_tpse_total_zero_field(dot, experiment):
    assert tpse_total(dot, LateralField(0.0), "bulk") == 0.0
    assert tpse_total(dot, LateralField(0.0), "single",
                      mode1=experiment.mode1) == 0.0


def _without_cavity_rings(monkeypatch):
    # a mesh graded only toward the axis ends: a Q = 5000 Lorentzian is far
    # narrower than its middle segments, so bisecting the panels moves the
    # estimate by far more than 0.1%
    breakpoints = rates._breakpoints
    monkeypatch.setattr(rates, "_breakpoints",
                        lambda model, leg1, leg2: breakpoints(model, None, None))


def test_tpse_total_budget_exhaustion_raises(dot, experiment, monkeypatch):
    # two levels are the whole budget: no third call, and the error carries
    # the finer level's estimate and panel count
    _without_cavity_rings(monkeypatch)
    kw = {"mode1": experiment.mode1, "mode2": experiment.mode2}
    n = rates._initial_intervals(dot, "double", **kw)
    calls = _count_fixed(monkeypatch)
    with pytest.raises(QuadratureError) as err:
        tpse_total(dot, F075, "double", **kw)
    assert calls == [n, 2 * n]
    assert err.value.points == 2 * n
    assert err.value.achieved > 0.0
    assert err.value.rel_change > 1e-3


@pytest.mark.parametrize("quality", [1e2, 1e6, 1e10])
def test_tpse_total_preset_converges_in_every_environment(dot, experiment, quality):
    # well inside the 0.1% rule: the two levels agree to 1e-5 (about 1e-6
    # at most on the preset)
    kw = _at_quality(experiment, quality)
    for environment in ("bulk", "single", "double"):
        n, fine = _accepted(dot, F075, environment, **kw)
        coarse = tpse_total_fixed(dot, F075, environment, n // 2, **kw)
        assert tpse_total(dot, F075, environment, **kw) == fine
        assert abs(fine - coarse) < 1e-5 * fine, environment


@pytest.mark.parametrize("quality", [1e15, 1e16])
def test_tpse_total_raises_where_phi_cancels_digits(dot, experiment, quality):
    # at these Q the x - 1 in phi cancels digits, and the two levels disagree
    # by more than 0.1%
    kw = _at_quality(experiment, quality)
    for environment in ("single", "double"):
        with pytest.raises(QuadratureError):
            tpse_total(dot, F075, environment, **kw)


def test_tpse_total_raises_after_two_calls_when_the_scale_overflows(dot, experiment,
                                                                     monkeypatch):
    # at Q = 1e300 the cavity leg's scale is inf: no 0.1% comparison holds
    # between non-finite estimates, so the change is nan
    kw = _at_quality(experiment, 1e300)
    n = rates._initial_intervals(dot, "double", **kw)
    calls = _count_fixed(monkeypatch)
    with pytest.raises(QuadratureError) as err:
        tpse_total(dot, F075, "double", **kw)
    assert calls == [n, 2 * n]
    assert math.isnan(err.value.rel_change)


def test_single_mode_total_ignores_mode2(dot, experiment):
    # a single-mode total integrates mode1 only, so a narrow mode2 it is
    # handed neither refines its starting grid nor moves the total
    from twophoton.rates import _initial_intervals
    narrow = dataclasses.replace(experiment.mode2, quality=1e5)
    mode1 = experiment.mode1
    assert _initial_intervals(dot, "single", mode1, narrow) == \
        _initial_intervals(dot, "single", mode1, None)
    assert tpse_total(dot, F075, "single", mode1, narrow) == \
        tpse_total(dot, F075, "single", mode1)


def test_tpse_total_argument_errors(dot, experiment):
    with pytest.raises(ValueError):
        tpse_total(dot, F075, "exotic")
    with pytest.raises(ValueError):
        tpse_total(dot, F075, "single")          # needs mode1
    with pytest.raises(ValueError):
        tpse_total(dot, F075, "double", mode1=experiment.mode1)
    with pytest.raises(ValueError):
        tpse_total_fixed(dot, F075, "bulk", 1)


@pytest.mark.parametrize("environment", ["bulk", "single", "double"])
def test_tpse_total_fixed_panel_split(dot, experiment, environment):
    # exactly `intervals` panels, at least one per mesh segment, tiling
    # each segment; fewer panels than segments is an error
    legs = rates._legs(environment, experiment.mode1, experiment.mode2)
    edges = rates._breakpoints(dot, *legs)
    segments = len(edges) - 1
    assert edges[0] == 0.0 and edges[-1] == dot.omega_d.rad_per_s
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    for intervals in (segments, segments + 1, 2 * segments - 1, 1000):
        panels = list(rates._panels(edges, intervals))
        assert len(panels) == intervals
        for lo, hi in zip(edges, edges[1:]):
            inside = [half for mid, half in panels if lo < mid < hi]
            assert inside, (intervals, lo)
            assert 2.0 * sum(inside) == pytest.approx(hi - lo, rel=1e-12)
    with pytest.raises(ValueError):
        list(rates._panels(edges, segments - 1))
    with pytest.raises(ValueError):
        tpse_total_fixed(dot, F075, environment, segments - 1,
                         mode1=experiment.mode1, mode2=experiment.mode2)


@pytest.mark.parametrize("environment", ["bulk", "single", "double"])
def test_tpse_total_fixed_peak_memory(dot, experiment, environment):
    # nodes are evaluated one at a time and no grid is held: the peak is the
    # breakpoint mesh's few KiB at 2**7 and at 2**11 panels alike, where a
    # list of the 14336 nodes alone would take over 100 KiB
    import tracemalloc

    kw = {"mode1": experiment.mode1, "mode2": experiment.mode2}
    tpse_total_fixed(dot, F075, environment, 64, **kw)   # warm up caches
    peaks = []
    for intervals in (2**7, 2**11):
        tracemalloc.start()
        try:
            tpse_total_fixed(dot, F075, environment, intervals, **kw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 256
    assert peaks[1] < 8 * 1024


def test_tpse_total_calls_fixed_once_per_doubling_level(dot, experiment, monkeypatch):
    # the benchmark's tracer counts integrand evaluations by wrapping the
    # module attribute rates.tpse_total_fixed: exactly two calls per total,
    # at the mesh's segment count and at twice it, converged or not
    kw = {"mode1": experiment.mode1, "mode2": experiment.mode2}
    start = rates._initial_intervals(dot, "double", **kw)
    accepted_n, accepted = _accepted(dot, F075, "double", **kw)
    calls = _count_fixed(monkeypatch)
    assert tpse_total(dot, F075, "double", **kw) == accepted
    assert calls == [start, 2 * start] == [start, accepted_n]

    calls.clear()
    _without_cavity_rings(monkeypatch)
    start = rates._initial_intervals(dot, "double", **kw)
    with pytest.raises(QuadratureError):
        tpse_total(dot, F075, "double", **kw)
    assert calls == [start, 2 * start]


# --- driven rates -----------------------------------------------------------


def test_tpste_rate_value_and_identity(dot, experiment):
    stim = experiment.stim_drive2
    rate = tpste_rate(dot, F075, experiment.mode1, experiment.mode2, stim)
    # stimulation factor times the double-mode density, assembled by hand
    density = tpse_spectral_density_cavity(stim.omega, dot, F075,
                                           experiment.mode1, experiment.mode2)
    factor = experiment.mode2.eta * stim.power * math.pi / (
        4.0 * HBAR * stim.omega.rad_per_s)
    assert rate == pytest.approx(factor * density, rel=1e-12)
    assert rate == pytest.approx(2.0 * math.pi * 420154.22705762024, rel=1e-12)
    # linear in stimulation power
    double = DriveField(stim.omega, 2.0 * stim.power, spot_area=stim.spot_area)
    assert tpste_rate(dot, F075, experiment.mode1, experiment.mode2, double) \
        == pytest.approx(2.0 * rate, rel=1e-13)


def test_tpa_bulk_against_printed_form(dot, experiment):
    lw = Linewidth(opse_rate(dot, LateralField(0.0)))
    rate = tpa_rate_bulk(experiment.drive1, experiment.drive2, dot, F075, lw)
    # (pi/2) [P1/(2 hbar^2 n eps0 c A1)] [P2/(2 hbar^2 n eps0 c A2)] M^2 L
    n = dot.host.n
    m = m12(experiment.drive1.omega, experiment.drive2.omega, F075, dot)
    bracket1 = experiment.drive1.power / (
        2.0 * HBAR**2 * n * EPS0 * C * experiment.drive1.spot_area)
    bracket2 = experiment.drive2.power / (
        2.0 * HBAR**2 * n * EPS0 * C * experiment.drive2.spot_area)
    delta = dot.omega_d.rad_per_s - experiment.drive1.omega.rad_per_s \
        - experiment.drive2.omega.rad_per_s
    half = lw.gamma_d / 2.0
    lorentz = half / (math.pi * (delta**2 + half**2))
    by_hand = (math.pi / 2.0) * bracket1 * bracket2 * m * m * lorentz
    assert rate == pytest.approx(by_hand, rel=1e-12)
    assert rate == pytest.approx(99865.82331591334, rel=1e-12)


def test_tpa_cavity_against_bracket_form(dot, experiment):
    lw = Linewidth(opse_rate(dot, LateralField(0.0)))
    rate = tpa_rate_cavity(experiment.drive1, experiment.drive2,
                           experiment.mode1, experiment.mode2, dot, F075, lw)
    # (pi/2) prod_i [eta_i P_i Q_i phi_i/(hbar^2 w_i n^2 eps0 V_i)] M^2 L
    n = dot.host.n
    m = m12(experiment.drive1.omega, experiment.drive2.omega, F075, dot)
    brackets = 1.0
    for drive, mode in ((experiment.drive1, experiment.mode1),
                        (experiment.drive2, experiment.mode2)):
        brackets *= mode.eta * drive.power * mode.quality / (
            HBAR**2 * drive.omega.rad_per_s * n**2 * EPS0 * mode.volume)
    delta = dot.omega_d.rad_per_s - experiment.drive1.omega.rad_per_s \
        - experiment.drive2.omega.rad_per_s
    half = lw.gamma_d / 2.0
    lorentz = half / (math.pi * (delta**2 + half**2))
    by_hand = (math.pi / 2.0) * brackets * m * m * lorentz
    assert rate == pytest.approx(by_hand, rel=1e-12)
    assert rate == pytest.approx(1063783433.9646004, rel=1e-12)


def test_tpa_ratio_is_g1g2(dot, experiment):
    lw = Linewidth(opse_rate(dot, LateralField(0.0)))
    bulk = tpa_rate_bulk(experiment.drive1, experiment.drive2, dot, F075, lw)
    cavity = tpa_rate_cavity(experiment.drive1, experiment.drive2,
                             experiment.mode1, experiment.mode2, dot, F075, lw)
    # G_i = eta_i Q_i A_i lambda_i / (pi V_i n) on resonance
    n = dot.host.n
    g = 1.0
    for drive, mode in ((experiment.drive1, experiment.mode1),
                        (experiment.drive2, experiment.mode2)):
        lam = angular_frequency_to_wavelength(drive.omega).meters
        g *= mode.eta * mode.quality * drive.spot_area * lam / (
            math.pi * mode.volume * n)
    assert cavity / bulk == pytest.approx(g, rel=1e-12)
    assert g == pytest.approx(10652.12701045333, rel=1e-12)


# --- one-photon rate --------------------------------------------------------


def test_opse_zero_field_value(dot):
    rate = opse_rate(dot, LateralField(0.0))
    assert rate == pytest.approx(1115354264.02211, rel=1e-12)
    lifetime_ns = 1e9 / rate
    assert lifetime_ns == pytest.approx(0.8965761213785764, rel=1e-12)


def test_opse_field_suppression(dot):
    ratio = opse_rate(dot, LateralField(0.5 * V_PER_UM)) \
        / opse_rate(dot, LateralField(0.0))
    assert ratio == pytest.approx(0.16464414929290846, rel=1e-12)


def test_opse_purcell_scaling(dot):
    lam_d = angular_frequency_to_wavelength(dot.omega_d)
    mode_d = mode_at_wavelength(lam_d, dot.host, 5000.0)
    bare = opse_rate(dot, LateralField(0.0))
    enhanced = opse_rate(dot, LateralField(0.0), mode_d)
    assert enhanced / bare == pytest.approx(379.95443865876666, rel=1e-12)


@pytest.mark.parametrize("third_mode", [False, True])
def test_opse_strong_field_does_not_underflow(dot, third_mode):
    # at 9.5 V/um d_ss^2 alone underflows to 0, while the rate, d_ss^2
    # times the leg factor, is about 1e-274 1/s
    mode_d = mode_at_wavelength(angular_frequency_to_wavelength(dot.omega_d),
                                dot.host, 5000.0) if third_mode else None
    field = LateralField(9.5 * V_PER_UM)
    suppression = dipole_ss(field, dot).coulomb_meters \
        / dipole_ss(LateralField(0.0), dot).coulomb_meters
    rate = opse_rate(dot, field, mode_d)
    assert 0.0 < rate < 1e-250
    assert rate == pytest.approx(
        opse_rate(dot, LateralField(0.0), mode_d) * suppression**2, rel=1e-12)


# --- sweep row --------------------------------------------------------------


def test_evaluate_point_preset_row(experiment):
    row = evaluate_point(0.75 * V_PER_UM, experiment)
    assert row.field_strength == 0.75 * V_PER_UM
    assert row.omega_eff_over_2pi == pytest.approx(86680850.3962224, rel=1e-12)
    assert row.gamma_opse_over_2pi == pytest.approx(3065223.483330531, rel=1e-12)
    assert row.gamma_tpste_over_2pi == pytest.approx(420154.22705762024, rel=1e-12)
    assert row.tpse_spectral_density == pytest.approx(
        1.4514008254446735e-07, rel=1e-12)
    assert row.enhancement_tpse == pytest.approx(144365.37545649847, rel=1e-12)
    assert row.enhancement_tpa == pytest.approx(10652.12701045333, rel=1e-12)


def test_evaluate_point_zero_power_drive(experiment):
    # G is a property of the mode and the beam, not of the power: an unpowered
    # drive leaves the TPA enhancement as is and switches TPA off
    dark = dataclasses.replace(experiment, drive1=dataclasses.replace(
        experiment.drive1, power=0.0))
    row = evaluate_point(0.75 * V_PER_UM, dark)
    assert row.omega_eff_over_2pi == 0.0
    assert row.enhancement_tpa == pytest.approx(10652.12701045333, rel=1e-12)


def test_evaluate_point_zero_field_parity(experiment):
    row = evaluate_point(0.0, experiment)
    assert row.omega_eff_over_2pi == 0.0
    assert row.gamma_tpste_over_2pi == 0.0
    assert row.tpse_spectral_density == 0.0
    assert row.gamma_opse_over_2pi > 0.0
    assert row.enhancement_tpse > 0.0 and row.enhancement_tpa > 0.0


def test_rate_report_rejects_bad_values():
    good = dict(field_strength=1e6, omega_eff_over_2pi=1.0,
                gamma_opse_over_2pi=1.0, gamma_tpste_over_2pi=1.0,
                tpse_spectral_density=1.0, enhancement_tpse=1.0,
                enhancement_tpa=1.0)
    RateReport(**good)
    for key in good:
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                RateReport(**{**good, key: bad})


def test_drive_field_validation(experiment):
    omega = experiment.drive1.omega
    with pytest.raises(ValueError):
        DriveField(omega, -1e-6)
    with pytest.raises(ValueError):
        DriveField(omega, 1e-6, spot_area=0.0)


def test_photon_channel_validation(experiment):
    omega = experiment.drive1.omega
    with pytest.raises(ValueError):
        PhotonChannel(omega, 0.0, 1.0)
    with pytest.raises(ValueError):
        PhotonChannel(omega, 1e-19, -1.0)
