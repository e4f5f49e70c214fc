"""A sweep of extreme and malformed parameter values, generated from the spec.

Every ``Param`` of every scenario in ``cli.SCENARIO_TABLE`` gets each extreme
value of its kind written into an otherwise valid config.  Validation must
then either list errors, each at a field path of the spec, or return a config;
a returned config of a scenario that samples or evaluates closed forms must
also run and record only finite numbers.  Scans are validated but not run:
their rows cost RK4 integration.  Unknown keys are left out.

The public constructors and closed-form functions get the same values, one
argument at a time: each call must raise ``ValueError`` or ``TypeError`` or
return only finite floats, and no int past the float range.
"""

import copy
import dataclasses
import json
import math
import sys

import pytest

from ifmsim import cli
from ifmsim.cli import MAX_POSITIONS, ConfigError, config_from_dict, run_scenario
from ifmsim.fields import (
    BeamGeometry,
    PointCharge,
    TestParticle,
    UniformBRegion,
    UniformERegion,
    light_deflection,
    sphere_radius_for_deflection,
)
from ifmsim.matter_mz import GratingSpec, InterferometerModel
from ifmsim.photon_mz import ARMS, MAX_CYCLES, EvSetup, zeno_ifm_distribution
from ifmsim.protocol import CalibrationSetup, ScanConfig, ab_phase, potential_phase
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


GEOMETRY = BeamGeometry(0.5, (0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
PROBABILITY = cli.Param("number", low=0.0, high=1.0)
POSITIVE = cli.Param("number", above=0.0)
NUMBER = cli.Param("number")
VECTOR = cli.Param("vector")
GRATING = GratingSpec.symmetric(1 / 3)

# Each constructor's or function's arguments: a valid value, and the Param
# whose kind and bounds (its own rules) give the values swept in its place;
# None keeps the valid value.
CONSTRUCTORS = {
    EvSetup: {"object_present": (True, cli.Param("bool")),
              "object_arm": ("upper", cli.Param("choice", choices=ARMS)),
              "arm_phase": (0.0, NUMBER)},
    GratingSpec: {"p_minus1": (1 / 3, PROBABILITY), "p_0": (1 / 3, PROBABILITY),
                  "p_plus1": (1 / 3, PROBABILITY), "loss": (0.0, PROBABILITY)},
    TestParticle: {"q": (-4.8e-10, NUMBER), "m": (9.11e-28, POSITIVE),
                   "r0": ([-0.5, 0.0, 0.0], VECTOR), "v0": ([1e8, 0.0, 0.0], VECTOR)},
    PointCharge: {"q": (5e-6, NUMBER), "position": ([0.0, 0.4, 0.0], VECTOR)},
    UniformBRegion: {"B": ([0.0, 0.0, 1e-3], VECTOR), "box_min": ([-0.2, -0.08, -0.2], VECTOR),
                     "box_max": ([0.2, 0.08, 0.2], VECTOR)},
    UniformERegion: {"E": ([1e-3, 0.0, 0.0], VECTOR), "box_min": ([-0.2, -0.08, -0.2], VECTOR),
                     "box_max": ([0.2, 0.08, 0.2], VECTOR)},
    BeamGeometry: {"exit_plane_x": (0.5, NUMBER),
                   "source_anchor": ([0.0, 0.0, 0.0], VECTOR),
                   "approach_direction": ([0.0, 1.0, 0.0], VECTOR)},
    ScanConfig: {"positions": ([0.3, 0.2], cli.Param("positions")),
                 "trials_per_position": (100, cli.Param("int", low=1)),
                 "confidence_target": (0.999, cli.Param("number", above=0.0, below=1.0)),
                 "phi_c": (2e-3, POSITIVE), "seed": (1, cli.Param("int", low=0)),
                 "geometry": (GEOMETRY, None), "dt": (1e-11, POSITIVE)},
    zeno_ifm_distribution: {"n_cycles": (8, cli.Param("int", low=1, high=MAX_CYCLES)),
                            "object_present": (True, cli.Param("bool"))},
    CalibrationSetup: {"transit_time": (1e-3, POSITIVE), "cage_potential_upper": (0.1, NUMBER),
                       "cage_potential_lower": (0.0, NUMBER), "enclosed_flux": (1e-7, NUMBER)},
    InterferometerModel: {"g1": (GRATING, None), "g2": (GRATING, None), "g3": (GRATING, None),
                          "third_grating_phase": (0.0, cli.Param("number", low=0.0,
                                                                 below=2 * math.pi)),
                          "arm_extra_phase": (0.0, NUMBER)},
    light_deflection: {"M": (1e27, cli.Param("number", low=0.0)), "b": (1e9, POSITIVE)},
    sphere_radius_for_deflection: {"delta_phi": (1e-9, POSITIVE), "density": (22.6, POSITIVE)},
    ab_phase: {"q": (-4.8e-10, NUMBER), "flux": (1e-7, NUMBER)},
    potential_phase: {"q": (-4.8e-10, NUMBER), "delta_V": (0.1, NUMBER),
                      "transit_time": (1e-3, NUMBER)},
}

def _numbers(obj):
    """Every float and int in ``obj``, through tuples, lists and dataclass fields."""
    if isinstance(obj, (float, int)):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))


def _out_of_range(x) -> bool:
    """A float that is not finite, or an int that no float can hold (NaN fails too)."""
    return not -sys.float_info.max <= x <= sys.float_info.max


def test_constructors_reject_or_return_finite_floats():
    faults, cases = [], 0
    for build, args in CONSTRUCTORS.items():
        name = build.__name__
        valid = {arg: value for arg, (value, _) in args.items()}
        for arg, (base, par) in args.items():
            for value in _values(par, base) if par else ():
                cases += 1
                label = f"{name}({arg}={value!r:.60})"
                try:
                    made = build(**{**valid, arg: value})
                except (ValueError, TypeError):
                    continue
                except Exception as exc:  # any other exception is a fault; list them all
                    faults.append(f"{label} raised {type(exc).__name__}: {exc}")
                    continue
                faults += [f"{label} holds {x!r:.60}" for x in _numbers(made) if _out_of_range(x)]
    assert cases > 700
    assert faults == []
