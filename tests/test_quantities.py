import dataclasses
import math

import pytest

from twophoton.cavity import mode_at_wavelength
from twophoton.presets import PRESET, build_experiment, preset_config
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
from twophoton.rates import (Linewidth, PhotonChannel, photon_number_bulk,
                             quantized_rabi_rate)
from twophoton.stark import LateralField


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


EX = build_experiment(preset_config(PRESET))
OMEGA, HOST = EX.mode1.omega_c, EX.dot.host
CHANNEL = PhotonChannel(OMEGA, EX.mode1.volume, 2.0, psi=0.5)


def _replacing(instance, field: str):
    return lambda value: dataclasses.replace(instance, **{field: value})


# every numeric input outside the config: (build from one value, the
# quantity its message names, out-of-range values)
RANGED = {
    "AngularFrequency.rad_per_s": (_replacing(OMEGA, "rad_per_s"),
                                   "angular frequency", (0.0, -1.0)),
    "Wavelength.meters": (_replacing(Wavelength(926e-9), "meters"), "wavelength", (0.0,)),
    "DipoleMoment.coulomb_meters": (_replacing(DipoleMoment(1e-29), "coulomb_meters"),
                                    "dipole moment", (-1e-29,)),
    "BulkHost.n": (_replacing(HOST, "n"), "refractive index", (0.5,)),
    "CavityMode.quality": (_replacing(EX.mode1, "quality"), "quality factor", (0.0,)),
    "CavityMode.volume": (_replacing(EX.mode1, "volume"), "mode volume", (-1e-19,)),
    "CavityMode.eta": (_replacing(EX.mode1, "eta"), "coupling efficiency", (-0.5, 2.0)),
    "CavityMode.psi": (_replacing(EX.mode1, "psi"), "mode overlap", (-0.5, 2.0)),
    "LateralField.v_per_m": (_replacing(LateralField(1e6), "v_per_m"), "field", (-1.0,)),
    "QuantumDotModel.m_e_star": (_replacing(EX.dot, "m_e_star"), "electron mass", (0.0,)),
    "QuantumDotModel.m_h_star": (_replacing(EX.dot, "m_h_star"), "hole mass", (-1.0,)),
    "QuantumDotModel.r_cv": (_replacing(EX.dot, "r_cv"), "dipole length", (0.0,)),
    "DriveField.power": (_replacing(EX.drive1, "power"), "drive power", (-1e-6,)),
    "DriveField.spot_area": (_replacing(EX.drive1, "spot_area"), "spot area", (0.0,)),
    "Linewidth.gamma_d": (_replacing(Linewidth(1e9), "gamma_d"), "linewidth", (0.0,)),
    "PhotonChannel.volume": (_replacing(CHANNEL, "volume"), "channel volume", (0.0,)),
    "PhotonChannel.photons": (_replacing(CHANNEL, "photons"), "photon number", (-1.0,)),
    "PhotonChannel.psi": (_replacing(CHANNEL, "psi"), "mode overlap", (-0.5, 2.0)),
    "quantized_rabi_rate.photons": (
        lambda value: quantized_rabi_rate(DipoleMoment(1e-29), OMEGA, value, 1e-19, HOST),
        "photon number", (-1.0,)),
    "quantized_rabi_rate.volume": (
        lambda value: quantized_rabi_rate(DipoleMoment(1e-29), OMEGA, 0.0, value, HOST),
        "quantization volume", (0.0, -1.0)),
    "photon_number_bulk.volume": (lambda value: photon_number_bulk(EX.drive1, value, HOST),
                                  "quantization volume", (0.0,)),
    "mode_at_wavelength.volume_cubic_wavelengths": (
        lambda value: mode_at_wavelength(Wavelength(926e-9), HOST, 5000.0,
                                         volume_cubic_wavelengths=value),
        "mode volume in cubic wavelengths", (0.0,)),
    "energy_to_angular_frequency.energy_ev": (energy_to_angular_frequency,
                                              "energy in eV", (0.0,)),
}
RANGE_CASES = [(name, value) for name, (_, _, bad) in RANGED.items()
               for value in (math.nan, math.inf, -math.inf, *bad)]


@pytest.mark.parametrize("name,value", RANGE_CASES,
                         ids=[f"{name}={value!r}" for name, value in RANGE_CASES])
def test_every_numeric_input_rejects_nonfinite_and_out_of_range(name, value):
    build, quantity, _ = RANGED[name]
    with pytest.raises(ValueError) as err:
        build(value)
    message = str(err.value)
    if math.isfinite(value):
        assert message.startswith(f"{quantity} must be ")
        assert message.endswith(f", got {value!r}")
    else:
        assert message == f"{quantity} must be finite, got {value!r}"


def test_every_numeric_input_accepts_its_bounds():
    # the inclusive bounds pass: 0 for nonnegative values, 1 for n, [0, 1]
    # for the overlaps
    for name, value in (("DipoleMoment.coulomb_meters", 0.0), ("BulkHost.n", 1.0),
                        ("CavityMode.eta", 0.0), ("CavityMode.psi", 1.0),
                        ("LateralField.v_per_m", 0.0), ("DriveField.power", 0.0),
                        ("PhotonChannel.photons", 0.0), ("PhotonChannel.psi", 0.0),
                        ("PhotonChannel.psi", 1.0), ("quantized_rabi_rate.photons", 0.0)):
        RANGED[name][0](value)
