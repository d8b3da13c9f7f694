"""Seeded config fuzzer: single-key mutations of the paper-fig3 preset, on a
field sweep and on an omega2 sweep. Every mutated config must run, be
rejected at load with a ConfigError, or stop at run with a SweepError; a
sample of them also goes through the CLI, which must exit 0, or exit 1 or 2
with an `error:` line, never with a traceback."""

import copy
import math
import random

import yaml

from twophoton.cli import main
from twophoton.presets import preset_config
from twophoton.scenario import ConfigError, SweepError, config_from_dict, run_sweep

# the first seed, counting from 0, whose sample reaches one of the escapes
# (tracebacks) that an exhaustive run over all candidates (1,040 then) found
# in the code before this test existed; do not change it to make a case go
# away. There are 1,092 candidates now: 78 paths of the two bases times 14
# values, and an exhaustive run over them finds no escape.
SEED = 1
MUTATIONS = 400
CLI_EVERY = 20          # every 20th mutation also runs through cli.main
_DELETE = object()
# 10**400: a YAML or JSON integer past the float range
VALUES = ("text", [1.0], None, True, 0.0, -0.0, 1.0e-320, 1.0e308, -1.0e308,
          math.inf, -math.inf, math.nan, 10**400, _DELETE)
EXIT_CODES = {"ok": 0, "sweep": 1, "config": 2}


def _bases() -> dict:
    """The preset as a 5-point field sweep and as a 5-point omega2 sweep
    across its mode 2, each standing alone (no preset to merge)."""
    field = preset_config("paper-fig3")
    field["sweep"]["points"] = 5
    omega2 = preset_config("paper-fig3")
    center = omega2["modes"][1]["omega_rad_per_s"]
    omega2["sweep"] = {"variable": "omega2", "min": center - 2e11,
                       "max": center + 2e11, "points": 5, "field_v_per_um": 0.75}
    return {"field": field, "omega2": omega2}


def _paths(node, path=()):
    """The path of every key and list entry below node, sections included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutations() -> list:
    bases = _bases()
    candidates = [(variable, path, value) for variable, base in bases.items()
                  for path in _paths(base) for value in VALUES]
    chosen = random.Random(SEED).sample(candidates, MUTATIONS)
    mutated = []
    for variable, path, value in chosen:
        cfg = copy.deepcopy(bases[variable])
        target = cfg
        for key in path[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        label = f"{variable}: {'.'.join(map(str, path))} = " \
                f"{'<deleted>' if value is _DELETE else repr(value)}"
        mutated.append((label, cfg))
    return mutated


def _outcome(cfg: dict) -> str:
    try:
        config = config_from_dict(copy.deepcopy(cfg))
    except ConfigError:
        return "config"
    try:
        run_sweep(config)
    except SweepError:
        return "sweep"
    return "ok"


def test_every_mutation_runs_or_fails_with_a_named_error():
    escapes, outcomes = [], set()
    for label, cfg in _mutations():
        try:
            outcomes.add(_outcome(cfg))
        except Exception as exc:      # anything else would reach the user as a traceback
            escapes.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)
    assert outcomes == set(EXIT_CODES)     # the sample reaches all three ends


def test_cli_sample_exits_with_an_error_line(tmp_path, capsys):
    for label, cfg in _mutations()[::CLI_EVERY]:
        expected = EXIT_CODES[_outcome(cfg)]
        path = tmp_path / "fuzzed.yaml"
        path.write_text(yaml.safe_dump({"preset": None, **cfg}))
        code = main(["sweep", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == expected, label
        assert code == 0 or err.startswith("error: "), label
