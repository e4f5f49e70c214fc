"""A sweep of extreme and malformed parameter values, generated from the spec.

Every ``Param`` of every scenario in ``cli.SCENARIO_TABLE`` gets each extreme
value of its kind written into an otherwise valid config.  Validation must
then either list errors, each at a field path of the spec, or return a config;
a returned config of a scenario that samples or evaluates closed forms must
also run and record only finite numbers.  Scans are validated but not run:
their rows cost RK4 integration.  Unknown keys are left out.
"""

import copy
import json
import math
import sys

import pytest

from ifmsim import cli
from ifmsim.cli import MAX_POSITIONS, ConfigError, config_from_dict, run_scenario
from ifmsim.records import payload_text

# A valid config of each scenario, to which the walk adds every default.
BASE = {
    "ev_bomb": {"object_present": True, "trials": 100},
    "zeno": {"n_cycles": 8, "object_present": True},
    "matter_null": {},
    "field_scan_electric": {"source_charge": 5e-6},
    "field_scan_magnetic": {"field_vector": [0.0, 0.0, 1e-3]},
    # Both modes at once, so that density is valid to write.
    "gravity_deflection": {"mass": 1e27, "impact_parameter": 1e9, "delta_phi": 1e-9},
}
RUNS = ("ev_bomb", "zeno", "matter_null", "gravity_deflection")

MAGNITUDES = [0.0, -0.0, 5e-324, 1e-308, 1e308, sys.float_info.max]
NUMBERS = [*MAGNITUDES, *(-m for m in MAGNITUDES[2:]), 2**53, 2**63, 10**400]
WRONG_TYPES = [True, False, "1", None]
NON_OBJECTS = [[], [1.0], "x", 1.0, None, True]


def _edges(par: cli.Param) -> list:
    """Each bound of ``par``, with the floats on either side of it."""
    values = []
    for bound in (par.low, par.above, par.high, par.below):
        if bound is not None:
            values += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
            if par.kind == "int":
                values += [bound - 1, bound + 1]
    return values


def _values(par: cli.Param, base) -> list:
    """The extreme and malformed values of ``par``'s kind; ``base`` is its valid value."""
    if par.kind == "block":
        return [*NON_OBJECTS, {}]
    if par.kind == "vector":
        vectors = [[], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0], "abc", 1.0,
                   [None, 0.0, 0.0], [True, 0.0, 0.0]]
        for i in range(3):
            vectors += [[v if j == i else base[j] for j in range(3)] for v in NUMBERS]
        return vectors
    if par.kind == "positions":
        return [[], [1.0 - k / 200 for k in range(MAX_POSITIONS + 1)], sorted(base),
                [0.2, 0.2], [0.1, 0.2, 0.05], [0.3, -0.1], "0.3", 0.3, [None],
                *([v] for v in NUMBERS), *([v, *base] for v in NUMBERS)]
    if par.kind == "choice":
        return [*par.choices, *(c.upper() for c in par.choices), *NUMBERS, *WRONG_TYPES]
    return [*_edges(par), *NUMBERS, *WRONG_TYPES]


def _params(spec: dict, path: tuple = ()):
    """(path, Param) of every key in ``spec``, the keys of its blocks included."""
    for key, par in spec.items():
        yield (*path, key), par
        if par.kind == "block":
            yield from _params(par.fields, (*path, key))


def _at(block: dict, path: tuple):
    for key in path:
        block = block[key]
    return block


def _cases(scenario: str):
    """(dotted path, value, parameters) for each value written into the filled base."""
    errors: list[str] = []
    filled = cli._walk(cli.SCENARIO_TABLE[scenario].params, BASE[scenario], "parameters", errors)
    assert errors == []
    for path, par in _params(cli.SCENARIO_TABLE[scenario].params):
        for value in _values(par, _at(filled, path[:-1]).get(path[-1])):
            parameters = copy.deepcopy(filled)
            _at(parameters, path[:-1])[path[-1]] = value
            yield ".".join(("parameters", *path)), value, parameters


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", list(cli.SCENARIO_TABLE))
def test_extreme_values_exit_2_at_a_field_path_or_run(scenario):
    spec_paths = {"parameters"} | {
        ".".join(("parameters", *path)) for path, _ in _params(cli.SCENARIO_TABLE[scenario].params)}
    cases = list(_cases(scenario))
    assert cases
    faults = []
    for where, value, parameters in cases:
        label = f"{where} = {value!r:.60}"
        try:
            config = config_from_dict({"scenario": scenario, "seed": 1, "parameters": parameters})
        except ConfigError as exc:
            faults += [f"{label}: error off the spec paths: {line}" for line in exc.errors
                       if line.split(":", 1)[0] not in spec_paths]
            continue
        except Exception as exc:  # any other exception is a fault; list them all
            faults.append(f"{label}: validation raised {type(exc).__name__}: {exc}")
            continue
        if scenario in RUNS:
            try:
                text = payload_text(run_scenario(config))
            except Exception as exc:
                faults.append(f"{label}: the run raised {type(exc).__name__}: {exc}")
                continue
            json.loads(text, parse_constant=lambda c: faults.append(f"{label}: payload has {c}"))
    assert faults == []
