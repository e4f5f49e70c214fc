"""Command-line front end: configure, seed, run, and record experiments.

Configurations are JSON documents:

    {"scenario": "ev_bomb", "seed": 7, "output_path": "out/ev.json",
     "parameters": {"object_present": true, "trials": 1000000}}

Every scenario requires an explicit seed; there is no implicit entropy.  Each
run writes a human-readable summary to stdout and, when an output path is
set, a machine-readable JSON record (plus a tab-delimited per-position table
for scan scenarios).  Re-running an identical configuration reproduces the
record payload byte for byte; only the metadata block (timestamp, version)
may differ.

Each scenario is one entry of ``SCENARIO_TABLE``: its parameter spec (keys,
kinds, ranges, defaults), its subcommand flags, its ``prepare`` and its
summary.  One walk over the spec checks the parameters (types, ranges,
required keys) and fills in the defaults; ``prepare`` then builds each domain
object the run needs once and binds the scenario's runner (see :mod:`runners`)
to them; that bound call is the plan that ``run_scenario`` calls.

The argument parser is built from the same table once per process, on the
first ``build_parser`` call, and never changed after that; every ``main``
call parses with that one object.

Exit codes: 0 on success, 2 for configuration/validation errors (all listed,
each broken gravity mode rule among them), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Callable

from . import __version__, runners
from .fields import (
    CGS,
    BeamGeometry,
    PointCharge,
    TestParticle,
    UniformBRegion,
    _check_launch,
    _finite,
    _finite_result,
    light_deflection,
    with_position,
)
from .matter_mz import NO_BLOCKS, GratingSpec, InterferometerModel, ifm_efficiency, path_weights
from .photon_mz import ARMS, MAX_CYCLES, MAX_SEED, MAX_TRIALS, EvSetup
from .protocol import CalibrationSetup, ScanConfig, ab_phase, calibrate, required_trials
from .records import ResultRecord, make_metadata, record_text, scan_table_text

# Caps that keep every valid input bounded in time and memory, with
# photon_mz.MAX_TRIALS: sampling takes time linear in the trials but fixed
# memory.  An electric scan integrates one trajectory per position at up to
# (path length / speed) / dt RK4 steps; a magnetic scan row is exact, in O(1).
MAX_POSITIONS = 100
MIN_DT = 1e-13


class ConfigError(Exception):
    """Validation failure; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration; ``plan()`` runs it and returns the payload body."""

    scenario: str
    seed: int
    plan: Callable[[], dict] = field(compare=False, repr=False)
    output_path: str | None = None


# ---------------------------------------------------------------------------
# Validation: one walk over the scenario's spec, then its ``prepare``
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One configuration key.

    ``kind`` is "number", "int", "bool", "choice", "vector" (3 numbers),
    "positions" (decreasing distances) or "block" (an object with its own
    ``fields``).  A ``required`` key must be written whenever its block is;
    ``default`` fills a key left out.  ``low``/``high`` are inclusive bounds,
    ``above``/``below`` exclusive ones.
    """

    kind: str
    default: object = None
    required: bool = False
    low: float | None = None
    above: float | None = None
    high: float | None = None
    below: float | None = None
    choices: tuple = ()
    fields: dict | None = None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _range_error(par: Param, value) -> str | None:
    if par.low is not None and value < par.low:
        return f"must be >= {par.low}, got {value}"
    if par.above is not None and value <= par.above:
        return f"must be > {par.above}, got {value}"
    if par.high is not None and value > par.high:
        return f"must be <= {par.high}, got {value}"
    if par.below is not None and value >= par.below:
        return f"must be < {par.below}, got {value}"
    return None


def _value_error(par: Param, value) -> str | None:
    """The problem with one present value (a block's own fields aside), or None."""
    kind, got = par.kind, type(value).__name__
    if kind == "block":
        return None if isinstance(value, dict) else f"expected an object, got {got}"
    if kind == "bool":
        return None if isinstance(value, bool) else f"expected a boolean, got {got}"
    if kind == "choice":
        return None if value in par.choices else (
            f"expected one of {sorted(par.choices)}, got {value!r}")
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            return f"expected an integer, got {got}"
        return _range_error(par, value)
    if kind == "number":
        if not _is_number(value):
            return f"expected a number, got {got}"
        if not _finite(value):
            return f"must be finite, got {value}"
        return _range_error(par, value)
    if kind == "vector":
        if not (isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))):
            return "expected a list of 3 numbers"
        return None if all(map(_finite, value)) else f"entries must be finite, got {value}"
    # positions
    if not (isinstance(value, list) and value and all(map(_is_number, value))):
        return "expected a nonempty list of numbers"
    if len(value) > MAX_POSITIONS:
        return f"at most {MAX_POSITIONS} positions, got {len(value)}"
    if not all(map(_finite, value)):
        return f"entries must be finite, got {value}"
    if any(b >= a for a, b in zip(value, value[1:])):
        return "must be strictly decreasing"
    if not all(p > 0 for p in value):
        return "must all be positive distances"
    return None


def _walk(spec: dict, block: dict, path: str, errors: list[str]) -> dict:
    """Check ``block`` against ``spec`` and return it with every left-out key at its default.

    Each bad key appends one error.  A left-out block is only filled, since
    required keys must be written only where their block is.  Written values,
    unknown keys among them, are kept as given: an integer ``0`` stays ``0``.
    """
    out = dict(block)
    for key, par in spec.items():
        where = f"{path}.{key}"
        if key not in block:
            if par.required:
                errors.append(f"{where}: required key is missing")
            if par.kind == "block":
                out[key] = _walk(par.fields, {}, where, [])
            elif par.default is not None:
                out[key] = par.default
            continue
        problem = _value_error(par, block[key])
        if problem:
            errors.append(f"{where}: {problem}")
        elif par.kind == "block":
            out[key] = _walk(par.fields, block[key], where, errors)
    return out


def _load_json(text: str):
    try:
        return json.loads(text)
    # JSONDecodeError, an int literal over the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"]) from exc


def config_from_dict(doc) -> ScenarioConfig:
    """Validate a raw configuration mapping, collecting every error found."""
    if not isinstance(doc, dict):
        raise ConfigError(["config: expected a JSON object at the top level"])
    errors = _Errors()
    scenario = doc.get("scenario")
    if scenario is None:
        errors.append("scenario: required key is missing")
    elif scenario not in SCENARIOS:
        errors.append(f"scenario: unknown scenario {scenario!r}; valid: {', '.join(SCENARIOS)}")
    seed = doc.get("seed")
    if seed is None:
        errors.append("seed: required key is missing (seeds are always explicit)")
    elif isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= MAX_SEED:
        errors.append(f"seed: expected an integer in [0, 2^64), got {seed!r}")
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        errors.append("output_path: expected a string path")
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        errors.append("parameters: expected an object")
        parameters = {}
    unknown = set(doc) - {"scenario", "seed", "output_path", "parameters"}
    for key in sorted(unknown):
        errors.append(f"{key}: unknown top-level key")
    if scenario in SCENARIOS:
        parameters = _walk(SCENARIO_TABLE[scenario].params, parameters, "parameters", errors)
    errors.check()
    return ScenarioConfig(scenario=scenario, seed=seed, output_path=output_path,
                          plan=SCENARIO_TABLE[scenario].prepare(parameters, seed))


class Flag:
    """A subcommand option and where its value lands in the parameters.

    ``to`` is a parameter key, or a function from the value to a parameter
    fragment; ``kwargs`` go to ``add_argument``.  A value of None sets nothing.
    """

    def __init__(self, option: str, to: str | Callable, **kwargs):
        self.option, self.to, self.kwargs = option, to, kwargs

    def fragment(self, value) -> dict:
        return self.to(value) if callable(self.to) else {self.to: value}


@dataclass(frozen=True)
class Scenario:
    """Everything the CLI knows about one scenario."""

    help: str
    params: dict
    flags: tuple
    prepare: Callable  # (filled parameters, seed) -> bound runner; raises ConfigError
    summary: Callable  # payload results -> lines


_GRATING = {
    "p_minus1": Param("number", 1.0 / 3.0, required=True, low=0.0, high=1.0),
    "p_0": Param("number", 1.0 / 3.0, required=True, low=0.0, high=1.0),
    "p_plus1": Param("number", 1.0 / 3.0, required=True, low=0.0, high=1.0),
    "loss": Param("number", 0.0, low=0.0, high=1.0),
}
_GRATINGS = {name: Param("block", fields=_GRATING) for name in ("g1", "g2", "g3")}

# The electron-beam demo setup that unlisted scan parameters fall back to.
_PARTICLE = {
    "q": Param("number", -4.80e-10, required=True),
    "m": Param("number", 9.11e-28, required=True, above=0.0),
    "r0": Param("vector", [-0.5, 0.0, 0.0], required=True),
    "v0": Param("vector", [1.0e8, 0.0, 0.0], required=True),
}
_GEOMETRY = {
    "exit_plane_x": Param("number", 0.5, required=True),
    "source_anchor": Param("vector", [0.0, 0.0, 0.0], required=True),
    "approach_direction": Param("vector", [0.0, 1.0, 0.0], required=True),
}
_CAGES = {
    "transit_time": Param("number", 1.0e-8, above=0.0),
    "potential_upper": Param("number", 0.0),
    "potential_lower": Param("number", 0.0),
}


def _scan_params(source: dict, positions: list[float], phi_c: float) -> dict:
    """A scan scenario's spec: its source keys, then the shared blocks."""
    scan = {
        "positions": Param("positions", positions),
        "trials_per_position": Param("int", low=1, high=MAX_TRIALS),
        "confidence_target": Param("number", 0.999, above=0.0, below=1),
        "phi_c": Param("number", phi_c, above=0.0),
        "dt": Param("number", 1.0e-11, low=MIN_DT),
    }
    return {
        **source,
        "particle": Param("block", fields=_PARTICLE),
        "geometry": Param("block", fields=_GEOMETRY),
        "scan": Param("block", fields=scan),
        "cages": Param("block", fields=_CAGES),
        "gratings": Param("block", fields=_GRATINGS),
    }


class _Errors(list):
    """Error lines of the spec walk or a ``prepare``; ``check`` raises them as a ConfigError."""

    def at(self, path: str, build: Callable, *args):
        """``build(*args)``, or None once its ValueError is recorded as ``path: message``."""
        try:
            return build(*args)
        except ValueError as exc:
            self.append(f"{path}: {exc}")
            return None

    def check(self) -> None:
        if self:
            raise ConfigError(self)


def _prepare_ev(p: dict, seed: int) -> partial:
    # The walk has checked each rule of EvSetup at its key.
    setup = EvSetup(p["object_present"], p["object_arm"], float(p["arm_phase"]))
    return partial(runners.ev_bomb, setup, p["trials"], seed)


def _grating_specs(block: dict, path: str, errors: _Errors) -> dict:
    """g1, g2 and g3 of ``block``, each built under ``path.gN``."""
    return {name: errors.at(f"{path}.{name}", GratingSpec,
                            *(float(block[name][key]) for key in _GRATING))
            for name in ("g1", "g2", "g3")}


def _prepare_null(p: dict, seed: int) -> partial:
    errors = _Errors()
    g = _grating_specs(p, "parameters", errors)
    errors.check()
    return partial(runners.matter_null,
                   InterferometerModel(**g, arm_extra_phase=float(p["arm_extra_phase"])))


def _derived_trials(efficiency: float, confidence: float) -> int:
    try:
        trials = required_trials(efficiency, confidence)
    except ValueError as exc:
        raise ValueError(f"cannot derive a count: {exc}") from exc
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} derived from the gratings and confidence_target, "
                         f"over the cap of {MAX_TRIALS}")
    return trials


def _prepare_scan(p: dict, seed: int, magnetic: bool) -> partial:
    """Particle, geometry, gratings, source, calibration and schedule of a field scan."""
    errors = _Errors()
    part, geom, cages, scan = p["particle"], p["geometry"], p["cages"], p["scan"]
    exit_plane_x = float(geom["exit_plane_x"])
    particle = errors.at("parameters.particle", TestParticle, float(part["q"]),
                         float(part["m"]), part["r0"], part["v0"])
    errors.at("parameters.particle", _check_launch, float(part["r0"][0]), float(part["v0"][0]),
              exit_plane_x)
    geometry = errors.at("parameters.geometry", BeamGeometry, exit_plane_x,
                         geom["source_anchor"], geom["approach_direction"])
    g = _grating_specs(p["gratings"], "parameters.gratings", errors)
    errors.check()

    # q/m times the source strength sets the force; past the float range the
    # path is NaN (and RK4 would run to its step cap).
    q_m = particle.q / particle.m
    flux = 0.0
    if magnetic:
        flux = float(p["enclosed_flux"])
        if errors.at("parameters.enclosed_flux", ab_phase, particle.q, flux) is None:
            flux = 0.0  # reported; so calibrate below checks the cages' phase alone
        half = [float(h) for h in p["box_half_widths"]]
        anchor = geometry.source_anchor
        template = errors.at("parameters.box_half_widths", UniformBRegion, p["field_vector"],
                             [a - h for a, h in zip(anchor, half)],
                             [a + h for a, h in zip(anchor, half)])
        # The rows place the box the same way; a far position can round its extent to 0.
        for distance in (scan["positions"][0], scan["positions"][-1]):
            if template is None or errors.at("parameters.scan.positions", with_position,
                                             template, geometry.source_position(distance)) is None:
                break
        errors.at("parameters.field_vector", _finite_result,
                  math.hypot(*(q_m / CGS.c * b for b in p["field_vector"])),
                  "the gyrofrequency |q B|/(m c)")
        source = {"field_vector": [float(b) for b in p["field_vector"]],
                  "box_half_widths": half, "enclosed_flux": flux}
    else:
        template = PointCharge(float(p["source_charge"]), geom["source_anchor"])
        errors.at("parameters.source_charge", _finite_result, q_m * p["source_charge"], "q Q / m")
        source = {"source_charge": template.q}
    setup = CalibrationSetup(float(cages["transit_time"]), float(cages["potential_upper"]),
                             float(cages["potential_lower"]), flux)
    # With a finite flux phase, only the cages' potential phase can fail.
    calibration = errors.at("parameters.cages", calibrate, InterferometerModel(**g), setup,
                            particle.q)
    efficiency = ifm_efficiency(g["g1"], g["g2"])
    trials = scan.get("trials_per_position")
    if trials is None:
        trials = errors.at("parameters.scan.trials_per_position", _derived_trials, efficiency,
                           float(scan["confidence_target"]))
    errors.check()
    # Checked last, so that a zero efficiency (p0(g1) = 0) is reported as that alone.
    if not calibration.null.perfect:
        upper, lower = path_weights(calibration.model, NO_BLOCKS)
        raise ConfigError([f"parameters.gratings: path weights p+1(g1)*p-1(g2) = {upper:.6g} "
                           f"(upper) and p0(g1)*p+1(g2) = {lower:.6g} (lower) differ, so no "
                           f"phase nulls the detector (residual {calibration.null.residual:.3e})"])

    config = ScanConfig(tuple(scan["positions"]), trials, float(scan["confidence_target"]),
                        float(scan["phi_c"]), seed, geometry, float(scan["dt"]))
    echo = {
        **source,
        "particle": part,
        "geometry": geom,
        "cages": cages,
        "gratings": {name: asdict(spec) for name, spec in g.items()},
        "scan": {
            "positions": list(config.positions),
            "trials_per_position": trials,
            "confidence_target": config.confidence_target,
            "phi_c": config.phi_c,
            "dt": config.dt,
        },
    }
    return partial(runners.field_scan, particle, template, calibration, efficiency, config, echo)


def _prepare_gravity(p: dict, seed: int) -> partial:
    """The two gravity modes: mass with impact_parameter, and/or delta_phi with optional density."""
    errors = _Errors()
    if ("mass" in p) != ("impact_parameter" in p):
        missing = "mass" if "impact_parameter" in p else "impact_parameter"
        errors.append(f"parameters.{missing}: required key is missing")
    if "mass" not in p and "delta_phi" not in p:
        errors.append("parameters: provide mass+impact_parameter and/or delta_phi "
                      "(with optional density)")
    if "density" in p and "delta_phi" not in p:
        errors.append("parameters.density: only used with delta_phi, which is missing")
    errors.check()
    # Each value is a finite float, but the results can still overflow one.
    mass = b = delta_phi = density = None
    if "mass" in p:
        mass, b = float(p["mass"]), float(p["impact_parameter"])
        errors.at("parameters.mass", light_deflection, mass, b)
    if "delta_phi" in p:
        delta_phi = float(p["delta_phi"])
        density = float(p.get("density", runners.IRIDIUM_DENSITY))
        errors.at("parameters.delta_phi", runners.gravity_sphere, delta_phi, density)
    errors.check()
    return partial(runners.gravity_deflection, mass, b, delta_phi, density)


def _positions_list(text: str):
    """Comma-separated distances; text that is not numbers is passed on for validation."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        return text


def _symmetric_gratings(p: float) -> dict:
    g = {"p_minus1": p, "p_0": p, "p_plus1": p, "loss": max(0.0, 1.0 - 3.0 * p)}
    return {"g1": g, "g2": g, "g3": g}


def _cage_potentials(dv: float) -> dict:
    """The lower cage at ``dv``; 0 leaves the cages unset."""
    return {"cages": {"potential_lower": dv}} if dv else {}


_OBJECT_PRESENT = Flag("--object-present", "object_present",
                       action=argparse.BooleanOptionalAction, default=True)
_SCAN_FLAGS = (
    Flag("--phi-c", lambda phi: {"scan": {"phi_c": phi}}, type=float,
         help="critical angle (rad)"),
    Flag("--positions", lambda text: {"scan": {"positions": _positions_list(text)}},
         help="comma-separated decreasing distances (cm)"),
    Flag("--trials", lambda n: {"scan": {"trials_per_position": n}}, type=int,
         help="trials per position"),
)

SCENARIO_TABLE = {
    "ev_bomb": Scenario(
        help="single-photon bomb test",
        params={
            "object_present": Param("bool", required=True),
            "object_arm": Param("choice", "upper", choices=ARMS),
            "arm_phase": Param("number", 0.0),
            "trials": Param("int", 100_000, low=1, high=MAX_TRIALS),
        },
        flags=(
            _OBJECT_PRESENT,
            Flag("--object-arm", "object_arm", choices=ARMS, default="upper"),
            Flag("--arm-phase", "arm_phase", type=float, default=0.0),
            Flag("--trials", "trials", type=int, default=100_000),
        ),
        prepare=_prepare_ev,
        summary=runners.ev_bomb_summary,
    ),
    "zeno": Scenario(
        help="N-cycle repeated-interrogation bomb test",
        params={
            "n_cycles": Param("int", required=True, low=1, high=MAX_CYCLES),
            "object_present": Param("bool", required=True),
        },
        flags=(Flag("--cycles", "n_cycles", type=int, required=True), _OBJECT_PRESENT),
        prepare=lambda p, seed: partial(runners.zeno, p["n_cycles"], p["object_present"]),
        summary=runners.zeno_summary,
    ),
    "matter_null": Scenario(
        help="three-grating dark-fringe calibration",
        params={**_GRATINGS, "arm_extra_phase": Param("number", 0.0)},
        flags=(
            Flag("--grating-p", _symmetric_gratings, type=float, default=1.0 / 3.0,
                 help="per-order probability of the symmetric gratings"),
            Flag("--arm-extra-phase", "arm_extra_phase", type=float, default=0.0),
        ),
        prepare=_prepare_null,
        summary=runners.matter_null_summary,
    ),
    "field_scan_electric": Scenario(
        help="scan a point charge toward the beam",
        params=_scan_params({"source_charge": Param("number", required=True)},
                            [0.40, 0.35, 0.30, 0.25, 0.20, 0.15, 0.10], 2.0e-3),
        flags=(
            Flag("--source-charge", "source_charge", type=float, required=True, help="statC"),
            *_SCAN_FLAGS,
            Flag("--cage-dv", _cage_potentials, type=float, default=0.0,
                 help="cage potential difference lower-upper (statV)"),
        ),
        prepare=lambda p, seed: _prepare_scan(p, seed, magnetic=False),
        summary=runners.field_scan_summary,
    ),
    "field_scan_magnetic": Scenario(
        help="scan a uniform-field region toward the beam",
        params=_scan_params(
            {
                "field_vector": Param("vector", required=True),
                "box_half_widths": Param("vector", [0.20, 0.08, 0.20]),
                "enclosed_flux": Param("number", 0.0),
            },
            [0.30, 0.22, 0.15, 0.10, 0.06], 1.0e-5,
        ),
        flags=(
            Flag("--field-strength", lambda bz: {"field_vector": [0.0, 0.0, bz]}, type=float,
                 required=True, help="Bz inside the region (gauss)"),
            Flag("--enclosed-flux", "enclosed_flux", type=float, default=0.0, help="gauss*cm^2"),
            *_SCAN_FLAGS,
        ),
        prepare=lambda p, seed: _prepare_scan(p, seed, magnetic=True),
        summary=runners.field_scan_summary,
    ),
    "gravity_deflection": Scenario(
        help="light bending by a mass",
        params={
            "mass": Param("number", low=0.0),
            "impact_parameter": Param("number", above=0.0),
            "delta_phi": Param("number", above=0.0),
            # No spec default, so _prepare_gravity sees whether density was written.
            "density": Param("number", above=0.0),
        },
        flags=(
            Flag("--mass", "mass", type=float, help="g"),
            Flag("--impact-parameter", "impact_parameter", type=float, help="cm"),
            Flag("--target-deflection", "delta_phi", type=float,
                 help="desired grazing deflection (rad)"),
            Flag("--density", "density", type=float, help="sphere density (g/cm^3)"),
        ),
        prepare=_prepare_gravity,
        summary=runners.gravity_summary,
    ),
}

SCENARIOS = tuple(SCENARIO_TABLE)


def run_scenario(config: ScenarioConfig) -> ResultRecord:
    """Call a configuration's plan and build its result record."""
    payload = {"scenario": config.scenario, "seed": config.seed, **config.plan()}
    return ResultRecord(metadata=make_metadata(), payload=payload)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _write_outputs(record: ResultRecord, output_path: str | None) -> int:
    """Print the summary and write the record; 1 when a file cannot be written."""
    payload = record.payload
    rows = payload["results"].get("per_position")
    print(f"scenario: {payload['scenario']}   seed: {payload['seed']}")
    for line in SCENARIO_TABLE[payload["scenario"]].summary(payload["results"]):
        print(line)
    if output_path is None:
        print(record_text(record), end="")
        if rows:
            print(scan_table_text(rows), end="")
        return 0
    path = Path(output_path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(record_text(record))
        print(f"record written to {path}")
        if rows is not None:
            table_path = path.with_suffix(".scan.tsv")
            table_path.write_text(scan_table_text(rows))
            print(f"scan table written to {table_path}")
    except OSError as exc:
        print(f"error [{payload['scenario']}]: cannot write {exc.filename or path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ifmsim`` parser: ``run`` and one subcommand per scenario.

    It is built once per process, on the first call, and every later call
    returns that same object, which nothing changes after it is built.
    """
    parser = argparse.ArgumentParser(
        prog="ifmsim",
        description="Interaction-free measurement simulator: bomb tests, "
        "matter-wave interferometry, and field-probing protocols.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a scenario from a JSON config file")
    run.add_argument("config", help="path to the configuration document")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--output", default=None, help="override the config output path")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")

    for name, entry in SCENARIO_TABLE.items():
        sub = subs.add_parser(name.replace("_", "-"), help=entry.help)
        for flag in entry.flags:
            sub.add_argument(flag.option, **flag.kwargs)
        sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        sub.add_argument("--output", default=None, help="path for the JSON record")
    return parser


def _merge(into: dict, fragment: dict) -> None:
    """Add ``fragment`` to ``into``, leaving a written non-object value for validation."""
    for key, value in fragment.items():
        if not (isinstance(value, dict) and key in into):
            into[key] = value
        elif isinstance(into[key], dict):
            _merge(into[key], value)


def _config_from_namespace(ns: argparse.Namespace) -> ScenarioConfig:
    if ns.command == "run":
        try:
            text = Path(ns.config).read_text()
        except OSError as exc:
            raise ConfigError([f"config: cannot read {ns.config}: {exc}"]) from exc
        doc = _load_json(text)
        if not isinstance(doc, dict):
            return config_from_dict(doc)  # which reports the top-level error
        if ns.seed is not None:
            doc["seed"] = ns.seed
        # ``--trials`` lands where the scenario's own ``--trials`` flag puts it.
        scenario = doc.get("scenario")
        if ns.trials is not None and scenario in SCENARIOS:
            trials = [flag for flag in SCENARIO_TABLE[scenario].flags if flag.option == "--trials"]
            if not trials:
                raise ConfigError([f"--trials: scenario '{scenario}' takes no trial count"])
            if isinstance(doc.get("parameters"), dict):
                _merge(doc["parameters"], trials[0].fragment(ns.trials))
    else:
        scenario = ns.command.replace("-", "_")
        params: dict = {}
        for flag in SCENARIO_TABLE[scenario].flags:
            value = getattr(ns, flag.option[2:].replace("-", "_"))
            if value is not None:
                _merge(params, flag.fragment(value))
        doc = {"scenario": scenario, "seed": ns.seed, "parameters": params}
    if ns.output is not None:
        doc["output_path"] = ns.output
    return config_from_dict(doc)


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        config = _config_from_namespace(ns)
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for err in exc.errors:
            print(f"  {err}", file=sys.stderr)
        return 2
    try:
        record = run_scenario(config)
    except Exception as exc:  # simulation failures map to a distinct exit code
        print(f"error [{config.scenario}]: {exc}", file=sys.stderr)
        return 1
    return _write_outputs(record, config.output_path)
