import math

import pytest

from twophoton.quantities import (
    C,
    CONSTANTS_VERSION,
    EPS0,
    HBAR,
    M0,
    QE,
    AngularFrequency,
    DipoleMoment,
    Wavelength,
    angular_frequency_to_wavelength,
    energy_to_angular_frequency,
    wavelength_to_angular_frequency,
)


def test_constants_values():
    assert HBAR == pytest.approx(1.0545718176461565e-34, rel=1e-15)
    assert C == 299792458.0
    assert EPS0 == 8.8541878128e-12
    assert QE == 1.602176634e-19
    assert M0 == 9.1093837015e-31
    assert CONSTANTS_VERSION == "codata2018"
    # hbar is h/2pi with h exact by definition
    assert HBAR == 6.62607015e-34 / (2.0 * math.pi)


def test_wavelength_frequency_round_trip():
    lam = Wavelength(926e-9)
    omega = wavelength_to_angular_frequency(lam)
    # 2 pi c / lambda by hand
    assert omega.rad_per_s == pytest.approx(
        2.0 * math.pi * 299792458.0 / 926e-9, rel=1e-15)
    assert omega.rad_per_s == pytest.approx(2034180958216904.0, rel=1e-15)
    back = angular_frequency_to_wavelength(omega)
    assert back.meters == pytest.approx(926e-9, rel=1e-15)
    assert back.nanometers == pytest.approx(926.0, rel=1e-15)


def test_hz_property():
    omega = AngularFrequency(2.0 * math.pi * 1e9)
    assert omega.hz == pytest.approx(1e9, rel=1e-15)


def test_energy_conversion():
    # 12 meV -> omega = E/hbar
    omega = energy_to_angular_frequency(12e-3)
    assert omega.rad_per_s == pytest.approx(
        12e-3 * 1.602176634e-19 / HBAR, rel=1e-15)
    assert omega.rad_per_s == pytest.approx(18231209374543.51, rel=1e-13)
    omega_h = energy_to_angular_frequency(6e-3)
    assert omega_h.rad_per_s == pytest.approx(9115604687271.756, rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_angular_frequency_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        AngularFrequency(bad)


@pytest.mark.parametrize("bad", [0.0, -926e-9])
def test_wavelength_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        Wavelength(bad)


def test_dipole_rejects_negative():
    with pytest.raises(ValueError):
        DipoleMoment(-1e-29)
    assert DipoleMoment(0.0).coulomb_meters == 0.0


def test_energy_conversion_rejects_nonpositive():
    with pytest.raises(ValueError):
        energy_to_angular_frequency(0.0)


def test_distinct_attribute_names_block_unit_mixing():
    # a Wavelength cannot silently stand in for an AngularFrequency
    lam = Wavelength(926e-9)
    assert not hasattr(lam, "rad_per_s")
    omega = AngularFrequency(1e15)
    assert not hasattr(omega, "meters")
