"""Gate suite: ten pinned checks on the library's headline behavior.

Each test prints a single verdict line (run with -s to see them all;
failures carry the same detail in the assertion message). Tolerances are
fixed here on purpose; do not loosen them to make a red check pass.

Known red: the three operating-region checks (c05a-c05c). With the
bundled dot parameters the weak-drive boundary sits near 0.18 V/um and
the stimulated rate only overtakes the one-photon rate near 2.0 V/um,
so the expected region boundaries are not met. The checks stay strict;
every ingredient they compose is pinned green elsewhere in the suite.
"""

import math
import time

import numpy as np
import pytest

from twophoton import (
    AngularFrequency,
    CavityMode,
    DriveField,
    LateralField,
    PhotonChannel,
    angular_frequency_to_wavelength,
    dipole_product_sp,
    dipole_product_sp_field_derivative,
    dipole_ss,
    dipole_ss_field_derivative,
    effective_rabi,
    lorentzian_mismatch,
    m12,
    mode_at_wavelength,
    opse_rate,
    purcell_factor,
    reproduce_fig3a,
    tpa_rate_bulk,
    tpa_rate_cavity,
    tpse_spectral_density_bulk,
    tpse_spectral_density_cavity,
    tpste_rate,
    tpse_total,
    tpse_total_fixed,
)
from twophoton.cli import main as cli_main
from twophoton.quantities import C, HBAR
from twophoton.rates import Linewidth

V_PER_UM = 1e6  # V/m


def _verdict(tag: str, ok: bool, detail: str) -> str:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def test_c01_enhancement_product_identity(dot):
    # cavity/bulk = F1 F2 for the emission density and G1 G2 for the
    # two-drive absorption rate, over random (Q, V, phi, omega) draws
    rng = np.random.default_rng(101)
    field = LateralField(0.75 * V_PER_UM)
    lw = Linewidth(2.0 * math.pi * 1e9)
    wd = dot.omega_d.rad_per_s
    worst_tpse = worst_tpa = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        q1, q2 = 10.0 ** rng.uniform(2.0, 6.0, size=2)
        w2 = AngularFrequency(rng.uniform(0.2, 0.8) * wd)
        w1 = AngularFrequency(wd - w2.rad_per_s)
        # detune each center by up to 20 fractional linewidths: phi spans
        # several orders of magnitude across the draws
        c1 = w1.rad_per_s * (1.0 + rng.uniform(-20.0, 20.0) / q1)
        c2 = w2.rad_per_s * (1.0 + rng.uniform(-20.0, 20.0) / q2)
        mode1 = mode_at_wavelength(
            angular_frequency_to_wavelength(AngularFrequency(c1)), dot.host, q1,
            eta=rng.uniform(0.01, 1.0),
            volume_cubic_wavelengths=rng.uniform(0.3, 30.0))
        mode2 = mode_at_wavelength(
            angular_frequency_to_wavelength(AngularFrequency(c2)), dot.host, q2,
            eta=rng.uniform(0.01, 1.0),
            volume_cubic_wavelengths=rng.uniform(0.3, 30.0))

        ratio = tpse_spectral_density_cavity(w2, dot, field, mode1, mode2) \
            / tpse_spectral_density_bulk(w2, dot, field)
        f1 = purcell_factor(angular_frequency_to_wavelength(w1), dot.host,
                            mode1, omega=w1)
        f2 = purcell_factor(angular_frequency_to_wavelength(w2), dot.host,
                            mode2, omega=w2)
        worst_tpse = max(worst_tpse, _rel(ratio, f1 * f2))

        drive1 = DriveField(w1, 10.0 ** rng.uniform(-6.0, -3.0),
                            spot_area=rng.uniform(0.5e-12, 5e-12))
        drive2 = DriveField(w2, 10.0 ** rng.uniform(-6.0, -3.0),
                            spot_area=rng.uniform(0.5e-12, 5e-12))
        ratio = tpa_rate_cavity(drive1, drive2, mode1, mode2, dot, field, lw) \
            / tpa_rate_bulk(drive1, drive2, dot, field, lw)
        g = 1.0
        for drive, mode in ((drive1, mode1), (drive2, mode2)):
            lam = 2.0 * math.pi * C / drive.omega.rad_per_s
            g *= mode.eta * mode.quality * lorentzian_mismatch(drive.omega, mode) \
                * drive.spot_area * lam / (math.pi * mode.volume * dot.host.n)
        worst_tpa = max(worst_tpa, _rel(ratio, g))
    elapsed = time.perf_counter() - t0
    ok = worst_tpse < 1e-9 and worst_tpa < 1e-9 and elapsed < 1.0
    msg = _verdict("c01 enhancement products", ok,
                   f"worst tpse {worst_tpse:.1e}, worst tpa {worst_tpa:.1e}, "
                   f"{elapsed:.2f} s over 100 draws")
    assert ok, msg


def test_c02_double_mode_reach(dot):
    def product(q):
        mode = mode_at_wavelength(angular_frequency_to_wavelength(dot.omega_d),
                                  dot.host, q, volume_cubic_wavelengths=1.0)
        f = purcell_factor(angular_frequency_to_wavelength(dot.omega_d),
                           dot.host, mode)
        return f * f

    big = product(1.32e5)
    modest = product(1e4)
    ok = big >= 1e8 and _rel(modest, 5.8e5) < 0.05
    msg = _verdict("c02 double-mode reach", ok,
                   f"F1F2 = {big:.4e} at Q = 1.32e5, {modest:.4e} at Q = 1e4")
    assert ok, msg


def test_c03_stimulation_factor(dot):
    # stimulated rate == (eta2 P2 pi / (4 hbar w2)) * emission density at w2
    rng = np.random.default_rng(303)
    wd = dot.omega_d.rad_per_s
    worst = 0.0
    for i in range(20):
        field = LateralField(rng.uniform(0.05, 2.0) * V_PER_UM)
        w2 = rng.uniform(0.2, 0.8) * wd
        q1, q2 = 10.0 ** rng.uniform(2.5, 5.5, size=2)
        mode1 = mode_at_wavelength(
            angular_frequency_to_wavelength(
                AngularFrequency((wd - w2) * (1.0 + rng.uniform(-2.0, 2.0) / q1))),
            dot.host, q1, eta=rng.uniform(0.05, 1.0), psi=rng.uniform(0.2, 1.0),
            volume_cubic_wavelengths=rng.uniform(0.3, 3.0))
        mode2 = mode_at_wavelength(
            angular_frequency_to_wavelength(
                AngularFrequency(w2 * (1.0 + rng.uniform(-2.0, 2.0) / q2))),
            dot.host, q2, eta=rng.uniform(0.05, 1.0), psi=rng.uniform(0.2, 1.0),
            volume_cubic_wavelengths=rng.uniform(0.3, 3.0))
        coupling = rng.uniform(0.05, 1.0) if i % 2 else None
        drive2 = DriveField(AngularFrequency(w2), 10.0 ** rng.uniform(-6.0, -3.0),
                            coupling=coupling)
        eta2 = coupling if coupling is not None else mode2.eta

        rate = tpste_rate(dot, field, mode1, mode2, drive2)
        density = tpse_spectral_density_cavity(drive2.omega, dot, field,
                                               mode1, mode2)
        factor = eta2 * drive2.power * math.pi / (4.0 * HBAR * w2)
        worst = max(worst, _rel(rate, factor * density))
    ok = worst < 1e-12
    msg = _verdict("c03 stimulation factor", ok,
                   f"worst relative error {worst:.1e} over 20 draws")
    assert ok, msg


def test_c04_parity_selection_rule(dot, experiment):
    zero = LateralField(0.0)
    on = LateralField(0.5 * V_PER_UM)
    w2 = experiment.mode2.omega_c
    w1 = AngularFrequency(dot.omega_d.rad_per_s - w2.rad_per_s)
    ch1 = PhotonChannel(w1, experiment.mode1.volume, 1.0)
    ch2 = PhotonChannel(w2, experiment.mode2.volume, 1.0)

    at_zero = (
        m12(w1, w2, zero, dot),
        effective_rabi(ch1, ch2, zero, dot),
        tpste_rate(dot, zero, experiment.mode1, experiment.mode2,
                   experiment.stim_drive2),
        tpse_spectral_density_bulk(w2, dot, zero),
        tpse_spectral_density_cavity(w2, dot, zero, experiment.mode1,
                                     experiment.mode2),
    )
    at_half = (
        m12(w1, w2, on, dot),
        effective_rabi(ch1, ch2, on, dot),
        tpste_rate(dot, on, experiment.mode1, experiment.mode2,
                   experiment.stim_drive2),
        tpse_spectral_density_bulk(w2, dot, on),
        tpse_spectral_density_cavity(w2, dot, on, experiment.mode1,
                                     experiment.mode2),
    )
    ok = all(v == 0.0 for v in at_zero) and all(v > 0.0 for v in at_half)
    msg = _verdict("c04 parity selection rule", ok,
                   f"at 0 V/um {at_zero}, at 0.5 V/um all positive: "
                   f"{all(v > 0.0 for v in at_half)}")
    assert ok, msg


@pytest.fixture(scope="module")
def fig3a_run():
    t0 = time.perf_counter()
    result = reproduce_fig3a()
    return result.rows, time.perf_counter() - t0


def test_c05a_weak_drive_region(fig3a_run):
    rows, elapsed = fig3a_run
    below = [r for r in rows if r.field_strength < 0.3 * V_PER_UM]
    bad = [r for r in below if r.omega_eff_over_2pi >= r.gamma_opse_over_2pi]
    ok = not bad and elapsed < 5.0
    first = f"{bad[0].field_strength / V_PER_UM:.3f}" if bad else "never"
    msg = _verdict("c05a weak-drive region", ok,
                   f"omega_eff/2pi reaches gamma_opse/2pi at {first} V/um "
                   f"(required: nowhere below 0.3); sweep took {elapsed:.2f} s")
    assert ok, msg


def test_c05b_crossing_window(fig3a_run):
    rows, _ = fig3a_run
    crossings = []
    for a, b in zip(rows, rows[1:]):
        da = a.gamma_tpste_over_2pi - a.gamma_opse_over_2pi
        db = b.gamma_tpste_over_2pi - b.gamma_opse_over_2pi
        if da == db or (da < 0.0) == (db < 0.0):
            continue
        x = a.field_strength + (b.field_strength - a.field_strength) \
            * (-da) / (db - da)
        crossings.append(x / V_PER_UM)
    ok = any(0.2 <= x <= 0.5 for x in crossings)
    last = rows[-1]
    msg = _verdict(
        "c05b stimulated crossing window", ok,
        f"crossings at {[f'{x:.3f}' for x in crossings] or 'none on grid'} V/um "
        f"(required: one in [0.2, 0.5]); at 2.0 V/um the ratio is "
        f"{last.gamma_tpste_over_2pi / last.gamma_opse_over_2pi:.3f}")
    assert ok, msg


def test_c05c_strong_drive_region(fig3a_run):
    rows, _ = fig3a_run
    window = [r for r in rows
              if 0.75 * V_PER_UM <= r.field_strength <= 1.0 * V_PER_UM]
    ratios = [r.gamma_tpste_over_2pi / r.gamma_opse_over_2pi for r in window]
    ok = bool(window) and all(x > 1.0 for x in ratios)
    msg = _verdict("c05c strong-drive region", ok,
                   f"tpste/opse spans [{min(ratios):.3f}, {max(ratios):.3f}] "
                   f"on [0.75, 1.0] V/um (required: > 1 throughout)")
    assert ok, msg


def test_c06_one_photon_lifetime(dot):
    tau = 1.0 / opse_rate(dot, LateralField(0.0))
    ok = 0.1e-9 <= tau <= 10e-9
    msg = _verdict("c06 one-photon lifetime", ok,
                   f"zero-field lifetime {tau * 1e9:.3f} ns (required: 0.1-10 ns)")
    assert ok, msg


def test_c07_quadrature_convergence(dot, experiment):
    field = LateralField(0.75 * V_PER_UM)
    details = []
    ok = True
    for environment, kw in (("bulk", {}),
                            ("double", {"mode1": experiment.mode1,
                                        "mode2": experiment.mode2})):
        total = tpse_total(dot, field, environment, **kw)
        # recover the accepted grid: the convergence loop returns a value
        # computed by tpse_total_fixed at some power-of-two interval count
        n = 256
        while tpse_total_fixed(dot, field, environment, n, **kw) != total:
            n *= 2
            assert n <= 2**20, f"accepted {environment} grid not found"
        finer = tpse_total_fixed(dot, field, environment, 2 * n, **kw)
        change = abs(finer - total) / max(abs(finer), abs(total))
        ok = ok and change < 1e-3
        details.append(f"{environment}: {change:.2e} at {n} -> {2 * n} intervals")
    msg = _verdict("c07 quadrature convergence", ok, "; ".join(details))
    assert ok, msg


def test_c08_exchange_symmetry(dot):
    rng = np.random.default_rng(808)
    wd = dot.omega_d.rad_per_s
    worst_m = worst_rabi = 0.0
    for _ in range(100):
        w2 = AngularFrequency(rng.uniform(0.05, 0.95) * wd)
        w1 = AngularFrequency(wd - w2.rad_per_s)
        field = LateralField(rng.uniform(0.05, 1.5) * V_PER_UM)
        u = rng.uniform(0.1, 1.0)
        base = m12(w1, w2, field, dot, psi1=u, psi2=u)
        swap = m12(w2, w1, field, dot, psi1=u, psi2=u)
        worst_m = max(worst_m, _rel(base, swap))

        volume = rng.uniform(1e-20, 1e-18)
        photons = rng.uniform(0.0, 50.0)
        ch1 = PhotonChannel(w1, volume, photons, psi=u)
        ch2 = PhotonChannel(w2, volume, photons, psi=u)
        worst_rabi = max(worst_rabi, _rel(
            effective_rabi(ch1, ch2, field, dot, direction="emission"),
            effective_rabi(ch2, ch1, field, dot, direction="emission")))
    ok = worst_m < 1e-12 and worst_rabi < 1e-12
    msg = _verdict("c08 exchange symmetry", ok,
                   f"worst m12 {worst_m:.1e}, worst omega_eff {worst_rabi:.1e} "
                   f"over 100 on-shell pairs")
    assert ok, msg


def test_c09_deterministic_csv(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["fig3a", "--output", str(first)]) == 0
    assert cli_main(["fig3a", "--output", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    msg = _verdict("c09 deterministic csv", ok,
                   f"two runs, {first.stat().st_size} bytes each, "
                   f"identical: {ok}")
    assert ok, msg


def test_c10_analytic_derivatives(dot):
    worst = 0.0
    for e_um in (0.25, 0.5, 1.0):
        field = e_um * V_PER_UM
        h = field * 1e-6
        for fn, deriv in (
                (lambda f: dipole_ss(LateralField(f), dot).coulomb_meters,
                 dipole_ss_field_derivative),
                (lambda f: dipole_product_sp(LateralField(f), dot),
                 dipole_product_sp_field_derivative)):
            numeric = (fn(field + h) - fn(field - h)) / (2.0 * h)
            worst = max(worst, _rel(numeric, deriv(LateralField(field), dot)))
    ok = worst < 1e-6
    msg = _verdict("c10 analytic derivatives", ok,
                   f"worst central-difference mismatch {worst:.1e} "
                   f"at 0.25/0.5/1.0 V/um")
    assert ok, msg
