import math

import numpy as np
import pytest

from twophoton.cavity import (
    BulkHost,
    CavityMode,
    lorentzian_mismatch,
    mode_at_wavelength,
    purcell_factor,
)
from twophoton.quantities import (
    EPS0,
    HBAR,
    AngularFrequency,
    Wavelength,
    wavelength_to_angular_frequency,
)
from twophoton.rates import _leg_factor

GAAS = BulkHost(3.4)


def _mode(lam_m=1550e-9, q=5000.0, v_cubic=1.0, host=GAAS):
    return mode_at_wavelength(Wavelength(lam_m), host, q,
                              volume_cubic_wavelengths=v_cubic)


def test_mode_at_wavelength_volume():
    mode = _mode()
    assert mode.volume == pytest.approx((1550e-9 / 3.4) ** 3, rel=1e-15)
    assert mode.volume == pytest.approx(9.474544575615713e-20, rel=1e-15)
    assert mode.omega_c.rad_per_s == pytest.approx(1215259075683131.0, rel=1e-15)
    assert mode.eta == 1.0 and mode.psi == 1.0


def test_mismatch_is_one_on_resonance():
    mode = _mode()
    assert lorentzian_mismatch(mode.omega_c, mode) == 1.0


def test_mismatch_half_linewidth():
    # at w = w_c (1 + 1/2Q) the denominator doubles; the kept numerator
    # leaves phi = (1 + 1/2Q)/2, not exactly 1/2
    mode = _mode()
    q = mode.quality
    omega = AngularFrequency(mode.omega_c.rad_per_s * (1.0 + 0.5 / q))
    assert lorentzian_mismatch(omega, mode) == pytest.approx(
        0.5 + 0.25 / q, rel=1e-9)
    assert lorentzian_mismatch(omega, mode) == pytest.approx(
        0.5000500000000551, rel=1e-12)


def test_mismatch_peak_sits_just_above_resonance():
    # numerator growth shifts the true max above w_c by O(1/Q^2), bounded
    # by 1 + 1.01/(16 Q^2)
    mode = _mode(q=50.0)
    wc = mode.omega_c.rad_per_s
    grid = np.linspace(wc * 0.98, wc * 1.02, 200001)
    values = [lorentzian_mismatch(AngularFrequency(float(w)), mode) for w in grid]
    i = int(np.argmax(values))
    assert values[i] <= 1.0 + 1.01 / (16.0 * mode.quality**2)
    assert values[i] >= 1.0
    step = grid[1] - grid[0]
    assert abs(grid[i] - wc) <= wc / (8.0 * mode.quality**2) + step


def test_mismatch_far_detuned_small():
    mode = _mode()
    omega = AngularFrequency(mode.omega_c.rad_per_s * 1.1)
    assert lorentzian_mismatch(omega, mode) < 1e-5


def _bulk_density(omega: float, n: float, volume: float) -> float:
    # mode density rho(w) = V n^3 w^2 / (3 pi^2 c^3) from the bulk leg factor
    # n w^3 / (3 pi^2 hbar eps0 c^3), which is rho w / (hbar n^2 eps0 V)
    return _leg_factor(omega, None, n) * HBAR * n**2 * EPS0 * volume / omega


def _cavity_density_times_omega(omega: float, mode: CavityMode, n: float) -> float:
    # w rho(w) = 2 Q phi / pi from the cavity leg factor
    # 2 Q psi^2 phi / (pi hbar n^2 eps0 V), at psi = 1
    return _leg_factor(omega, mode, n) * HBAR * n**2 * EPS0 * mode.volume


def test_bulk_density_value():
    # w^2 V n^3/(3 pi^2 c^3) at n=1, V=1
    omega = 2.034e15
    rho = _bulk_density(omega, 1.0, 1.0)
    by_hand = omega**2 / (3.0 * math.pi**2 * 299792458.0**3)
    assert rho == pytest.approx(by_hand, rel=1e-15)
    assert rho == pytest.approx(5185.836119664039, rel=1e-13)
    # and it scales as w^2
    at_dot_line = _bulk_density(
        wavelength_to_angular_frequency(Wavelength(926e-9)).rad_per_s, 1.0, 1.0)
    assert at_dot_line == pytest.approx(5186.758893903379, rel=1e-13)


def test_bulk_density_scales_with_n_cubed_and_volume():
    omega = 1e15
    base = _bulk_density(omega, 1.0, 1.0)
    assert _bulk_density(omega, 2.0, 1.0) == pytest.approx(8.0 * base, rel=1e-15)
    assert _bulk_density(omega, 1.0, 3.0) == pytest.approx(3.0 * base, rel=1e-15)
    # the bulk leg itself: n^3 density over the n^2 field normalization
    assert _leg_factor(omega, None, 2.0) == pytest.approx(
        2.0 * _leg_factor(omega, None, 1.0), rel=1e-15)


def test_cavity_density_resonant_value():
    mode = _mode()
    wc = mode.omega_c.rad_per_s
    assert _cavity_density_times_omega(wc, mode, GAAS.n) == pytest.approx(
        2.0 * 5000.0 / math.pi, rel=1e-15)
    assert _cavity_density_times_omega(wc, mode, GAAS.n) == pytest.approx(
        3183.098861837907, rel=1e-13)


def test_purcell_factor_values():
    # (3/4pi^2) Q at a single cubic wavelength, on resonance
    mode = _mode(q=5000.0)
    lam = Wavelength(1550e-9)
    assert purcell_factor(lam, GAAS, mode) == pytest.approx(
        3.0 * 5000.0 / (4.0 * math.pi**2), rel=1e-15)
    assert purcell_factor(lam, GAAS, mode) == pytest.approx(
        379.95443865876666, rel=1e-13)
    mode_hi = _mode(q=1e4)
    assert purcell_factor(lam, GAAS, mode_hi) == pytest.approx(
        759.9088773175333, rel=1e-13)


def test_purcell_equals_density_ratio():
    # F must equal the cavity/bulk density ratio, which is the cavity/bulk
    # leg ratio at psi = 1, at any frequency in band, not only on resonance
    mode = _mode()
    for shift in (1.0, 1.0 + 1e-5, 1.0 - 2e-5):
        omega = AngularFrequency(mode.omega_c.rad_per_s * shift)
        lam = Wavelength(2.0 * math.pi * 299792458.0 / omega.rad_per_s)
        w = omega.rad_per_s
        cavity = _cavity_density_times_omega(w, mode, GAAS.n) / w
        bulk = _bulk_density(w, GAAS.n, mode.volume)
        assert purcell_factor(lam, GAAS, mode, omega) == pytest.approx(
            cavity / bulk, rel=1e-12)
        assert purcell_factor(lam, GAAS, mode, omega) == pytest.approx(
            _leg_factor(w, mode, GAAS.n) / _leg_factor(w, None, GAAS.n), rel=1e-12)


def test_mode_validation():
    omega = AngularFrequency(1e15)
    with pytest.raises(ValueError):
        CavityMode(omega, quality=0.0, volume=1e-19)
    with pytest.raises(ValueError):
        CavityMode(omega, quality=5000.0, volume=0.0)
    with pytest.raises(ValueError):
        CavityMode(omega, quality=5000.0, volume=1e-19, eta=1.5)
    with pytest.raises(ValueError):
        CavityMode(omega, quality=5000.0, volume=1e-19, psi=-0.1)
    with pytest.raises(ValueError):
        BulkHost(0.9)
