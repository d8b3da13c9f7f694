"""Command-line front end.

    twophoton sweep --config cfg.yaml [--output out.csv] [--format csv|json]
    twophoton fig3a [--output out.csv]
    twophoton fig3b [--output out.csv]
    twophoton enhancement --q1 5000 --q2 5000 \
        --v1-cubic-wavelengths 1 --v2-cubic-wavelengths 1

Every subcommand works on the paper-fig3 preset: sweep merges a config
that names no preset onto it (--config is always a file path); the fig3
commands run it directly; enhancement takes wavelengths, in-couplings (each
mode's eta) and spot areas from it, and checks its flags by the config rules
of modes[i].quality and volume_cubic_wavelengths, naming the flag. Exit codes:
0 success, 2 config/usage error, 1 runtime failure; errors name the field
or grid point responsible.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .cavity import purcell_factor
from .presets import PRESET
from .quantities import angular_frequency_to_wavelength
from .rates import _tpa_enhancement
from .scenario import (
    OUTPUT_FORMATS,
    ConfigError,
    OutputError,
    SweepError,
    config_from_dict,
    load_config,
    reproduce_fig3a,
    reproduce_fig3b,
    run_sweep,
    write_output,
)

__all__ = ["main"]


def _emit(result, fmt: str, path: str | None) -> None:
    if path is not None:
        write_output(result, fmt, path)
    else:
        sys.stdout.write(OUTPUT_FORMATS[fmt](result))


def _cmd_sweep(args) -> int:
    config = load_config(Path(args.config), default_preset=PRESET)
    _emit(run_sweep(config), args.format, args.output)
    return 0


def _cmd_figure(args) -> int:
    _emit(args.figure(), "csv", args.output)
    return 0


# config path -> the enhancement flag that sets it; "modes[i]" alone leads
# the error of a volume that is 0 in m^3
_FLAGS = {f"modes[{i}]{key}": flag for i in (0, 1)
          for key, flag in ((".quality", f"--q{i + 1}"),
                            (".volume_cubic_wavelengths", f"--v{i + 1}-cubic-wavelengths"),
                            ("", f"--v{i + 1}-cubic-wavelengths"))}


def _cmd_enhancement(args) -> int:
    modes = [{"quality": args.q1, "volume_cubic_wavelengths": args.v1_cubic_wavelengths},
             {"quality": args.q2, "volume_cubic_wavelengths": args.v2_cubic_wavelengths}]
    try:
        ex = config_from_dict({"preset": PRESET, "modes": modes}).experiment
    except ConfigError as exc:
        # the config rules check each flag; name the flag, since no modes[i] was written
        message = str(exc)
        path = message.split(" ", 1)[0].rstrip(":")
        if path not in _FLAGS:
            raise
        raise ConfigError(_FLAGS[path] + message[len(path):]) from exc
    host = ex.dot.host
    values = {}
    for i, mode, drive in ((1, ex.mode1, ex.drive1), (2, ex.mode2, ex.drive2)):
        values[f"F{i}"] = purcell_factor(
            angular_frequency_to_wavelength(mode.omega_c), host, mode)
        values[f"G{i}"] = _tpa_enhancement(drive, mode, host)
    values["F1F2"] = values["F1"] * values["F2"]
    values["G1G2"] = values["G1"] * values["G2"]
    names = ("F1", "F2", "F1F2", "G1", "G2", "G1G2")
    for name in names:
        value = values[name]
        if not (math.isfinite(value) and value > 0.0):
            # the modes a value depends on: F1 -> 1, F1F2 -> 1 and 2
            flags = [flag for i in name[1::2]
                     for flag in (f"--q{i}", f"--v{i}-cubic-wavelengths")]
            check = "positive" if math.isfinite(value) else "finite"
            raise ConfigError(f"{name} = {value!r} is not {check}; it is set by "
                              f"{', '.join(flags[:-1])} and {flags[-1]}")
    for name in names:
        print(f"{name} = {values[name]:.6e}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twophoton",
        description="Cavity-enhanced two-photon transition rates for a "
                    "quantum dot under a lateral electric field.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the sweep described by a config file")
    p_sweep.add_argument("--config", required=True, help="YAML (or .json) config file path")
    p_sweep.add_argument("--output", help="output path (default: stdout)")
    p_sweep.add_argument("--format", choices=tuple(OUTPUT_FORMATS), default="csv",
                         help="output format (default: csv)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    for name, figure, text in (
            ("fig3a", reproduce_fig3a, "rate curves vs lateral field, 0-2 V/um"),
            ("fig3b", reproduce_fig3b, "emitted-power spectrum across mode 2")):
        p_fig = sub.add_parser(name, help=text)
        p_fig.add_argument("--output", help="CSV path (default: stdout)")
        p_fig.set_defaults(handler=_cmd_figure, figure=figure)

    p_e = sub.add_parser("enhancement",
                         help="print Purcell and absorption enhancement factors")
    p_e.add_argument("--q1", type=float, required=True, help="mode-1 quality factor")
    p_e.add_argument("--q2", type=float, required=True, help="mode-2 quality factor")
    p_e.add_argument("--v1-cubic-wavelengths", type=float, required=True,
                     help="mode-1 volume in (lambda/n)^3 units")
    p_e.add_argument("--v2-cubic-wavelengths", type=float, required=True,
                     help="mode-2 volume in (lambda/n)^3 units")
    p_e.set_defaults(handler=_cmd_enhancement)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, SweepError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
