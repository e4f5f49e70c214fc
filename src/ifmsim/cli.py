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
kinds, ranges, defaults), its subcommand flags, its runner and its summary.
Validation, the argument parser and the subcommand-to-config mapping all walk
that table.

Exit codes: 0 on success, 2 for configuration/validation errors, 1 for
runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__, runners
from .fields import CGS, _check_launch, light_deflection, with_position
from .photon_mz import ARMS, MAX_CYCLES
from .protocol import ab_phase, potential_phase
from .records import ResultRecord, make_metadata, record_text, scan_table_text

MAX_SEED = 2**64 - 1

# Caps that keep every valid input bounded in time and memory.  Sampling
# takes time linear in the trials but fixed memory, and an electric scan
# integrates one trajectory per position at up to (path length / speed) / dt
# RK4 steps; a magnetic scan row is exact, in O(1).
MAX_TRIALS = 10_000_000
MAX_POSITIONS = 100
MIN_DT = 1e-13


class ConfigError(Exception):
    """Validation failure; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration."""

    scenario: str
    seed: int
    parameters: dict
    output_path: str | None = None


# ---------------------------------------------------------------------------
# Validation: one walk over the parameter spec of a scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One configuration key.

    ``kind`` is "number", "int", "bool", "choice", "vector" (3 numbers),
    "positions" (decreasing distances) or "block" (an object with its own
    ``fields``).  A ``required`` key must be written whenever its block is;
    ``default`` fills a key left out.  ``low``/``high`` are inclusive bounds,
    ``above``/``below`` exclusive ones.  A block's ``build`` constructs the
    domain object once the fields pass; its ValueError (probabilities not
    summing to 1, the speed bound) is reported at the block's path.
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
    build: Callable | None = None


def _finite(value) -> bool:
    """False for NaN and +-Infinity (Python's json accepts both) and ints beyond float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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


def _walk(spec: dict, block: dict, path: str, errors: list[str]) -> None:
    """Check ``block`` against ``spec``, appending one error per bad key."""
    for key, par in spec.items():
        where = f"{path}.{key}"
        if key not in block:
            if par.required:
                errors.append(f"{where}: required key is missing")
            continue
        value = block[key]
        problem = _value_error(par, value)
        if problem:
            errors.append(f"{where}: {problem}")
        elif par.kind == "block":
            checked_from = len(errors)
            _walk(par.fields, value, where, errors)
            if par.build is not None and len(errors) == checked_from:
                try:
                    par.build(value)
                except ValueError as exc:
                    errors.append(f"{where}: {exc}")


def _filled(spec: dict, block: dict) -> dict:
    """``block`` with every left-out key at its default, sub-blocks included.

    Written values, unknown keys among them, are kept exactly as given, so
    echoed blocks keep an integer ``0`` as ``0``.
    """
    out = dict(block)
    for key, par in spec.items():
        if par.kind == "block":
            out[key] = _filled(par.fields, block.get(key, {}))
        elif key not in out and par.default is not None:
            out[key] = par.default
    return out


def _load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal over the digit limit
        raise ConfigError([f"config: invalid JSON: {exc}"]) from exc


def config_from_dict(doc) -> ScenarioConfig:
    """Validate a raw configuration mapping, collecting every error found."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["config: expected a JSON object at the top level"])
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
        entry = SCENARIO_TABLE[scenario]
        checked_from = len(errors)
        _walk(entry.params, parameters, "parameters", errors)
        if entry.check is not None and len(errors) == checked_from:
            errors += entry.check(_filled(entry.params, parameters))
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        scenario=scenario, seed=seed, parameters=parameters, output_path=output_path
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON configuration document."""
    return config_from_dict(_load_json(text))


def emit_config(config: ScenarioConfig) -> str:
    """Serialize a configuration; parse_config inverts this exactly."""
    doc = {"scenario": config.scenario, "seed": config.seed, "parameters": config.parameters}
    if config.output_path is not None:
        doc["output_path"] = config.output_path
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check_gravity(p: dict) -> list[str]:
    """The two gravity modes: mass with impact_parameter, and/or delta_phi with optional density."""
    if ("mass" in p) != ("impact_parameter" in p):
        missing = "mass" if "impact_parameter" in p else "impact_parameter"
        return [f"parameters.{missing}: required key is missing"]
    if "mass" not in p and "delta_phi" not in p:
        return ["parameters: provide mass+impact_parameter and/or delta_phi (with optional density)"]
    if "density" in p and "delta_phi" not in p:
        return ["parameters.density: only used with delta_phi, which is missing"]
    # Each value is a finite float, but the results can still overflow one.
    errors = []
    if "mass" in p:
        deflection = light_deflection(p["mass"], p["impact_parameter"])
        if not math.isfinite(deflection):
            errors.append(f"parameters.mass: the deflection 4GM/(b c^2) is {deflection}, "
                          "not a finite float")
    if "delta_phi" in p:
        radius, mass = runners.gravity_sphere(p["delta_phi"],
                                              p.get("density", runners.IRIDIUM_DENSITY))
        if not (0.0 < radius < math.inf and math.isfinite(mass)):
            errors.append(f"parameters.delta_phi: the sphere has radius {radius:g} cm and mass "
                          f"{mass:g} g; the radius must be positive and finite, the mass finite")
    return errors


def _check_scan(p: dict, magnetic: bool) -> list[str]:
    """Check the launch, the phases, the source and the trial count before any compute runs."""
    errors = []
    particle, cages = p["particle"], p["cages"]
    q = float(particle["q"])
    try:
        _check_launch(float(particle["r0"][0]), float(particle["v0"][0]),
                      float(p["geometry"]["exit_plane_x"]))
    except ValueError as exc:
        errors.append(f"parameters.particle: {exc}")
    try:
        potential_phase(q, float(cages["potential_lower"]) - float(cages["potential_upper"]),
                        float(cages["transit_time"]))
    except ValueError as exc:
        errors.append(f"parameters.cages: {exc}")
    # q/m times the source strength sets the force; past the float range the
    # path is NaN (and RK4 would run to its step cap).
    q_m = q / float(particle["m"])
    if magnetic:
        try:
            ab_phase(q, float(p["enclosed_flux"]))
        except ValueError as exc:
            errors.append(f"parameters.enclosed_flux: {exc}")
        try:
            box = runners.field_region_from(p)
        except ValueError as exc:
            errors.append(f"parameters.box_half_widths: {exc}")
        else:
            # The rows place the box the same way; a far position can round its extent to 0.
            geometry = runners.geometry_from(p["geometry"])
            positions = p["scan"]["positions"]
            try:
                for distance in (positions[0], positions[-1]):
                    with_position(box, geometry.source_position(distance))
            except ValueError as exc:
                errors.append(f"parameters.scan.positions: {exc}")
        gyro = math.hypot(*(q_m / CGS.c * b for b in p["field_vector"]))
        if not math.isfinite(gyro):
            errors.append(f"parameters.field_vector: the gyrofrequency |q B|/(m c) is {gyro}, "
                          "not a finite float")
    elif not math.isfinite(k := q_m * p["source_charge"]):
        errors.append(f"parameters.source_charge: q Q / m is {k}, not a finite float")
    if "trials_per_position" not in p["scan"]:
        try:
            trials = runners.scan_trials(p)
        except ValueError as exc:
            return errors + [f"parameters.scan.trials_per_position: cannot derive a count: {exc}"]
        if trials > MAX_TRIALS:
            errors.append(f"parameters.scan.trials_per_position: {trials} derived from the "
                          f"gratings and confidence_target, over the cap of {MAX_TRIALS}")
    return errors


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
    run: Callable  # (filled parameters, seed) -> (payload body, scan rows or None)
    summary: Callable  # payload results -> lines
    check: Callable | None = None  # (filled parameters) -> errors, once every key passed


_GRATING = {
    "p_minus1": Param("number", 1.0 / 3.0, required=True, low=0.0, high=1.0),
    "p_0": Param("number", 1.0 / 3.0, required=True, low=0.0, high=1.0),
    "p_plus1": Param("number", 1.0 / 3.0, required=True, low=0.0, high=1.0),
    "loss": Param("number", 0.0, low=0.0, high=1.0),
}
_GRATINGS = {name: Param("block", fields=_GRATING, build=runners.grating_from)
             for name in ("g1", "g2", "g3")}

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
        "particle": Param("block", fields=_PARTICLE, build=runners.particle_from),
        "geometry": Param("block", fields=_GEOMETRY, build=runners.geometry_from),
        "scan": Param("block", fields=scan),
        "cages": Param("block", fields=_CAGES),
        "gratings": Param("block", fields=_GRATINGS),
    }


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
    """The default cages with the lower one at ``dv``; 0 leaves the cages unset."""
    if not dv:
        return {}
    return {"cages": {**{key: par.default for key, par in _CAGES.items()}, "potential_lower": dv}}


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
        run=runners.ev_bomb,
        summary=runners.ev_bomb_summary,
    ),
    "zeno": Scenario(
        help="N-cycle repeated-interrogation bomb test",
        params={
            "n_cycles": Param("int", required=True, low=1, high=MAX_CYCLES),
            "object_present": Param("bool", required=True),
        },
        flags=(Flag("--cycles", "n_cycles", type=int, required=True), _OBJECT_PRESENT),
        run=runners.zeno,
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
        run=runners.matter_null,
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
        run=lambda p, seed: runners.field_scan(p, seed, magnetic=False),
        summary=runners.field_scan_summary,
        check=lambda p: _check_scan(p, magnetic=False),
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
        run=lambda p, seed: runners.field_scan(p, seed, magnetic=True),
        summary=runners.field_scan_summary,
        check=lambda p: _check_scan(p, magnetic=True),
    ),
    "gravity_deflection": Scenario(
        help="light bending by a mass",
        params={
            "mass": Param("number", low=0.0),
            "impact_parameter": Param("number", above=0.0),
            "delta_phi": Param("number", above=0.0),
            # No spec default, so _check_gravity sees whether density was written.
            "density": Param("number", above=0.0),
        },
        flags=(
            Flag("--mass", "mass", type=float, help="g"),
            Flag("--impact-parameter", "impact_parameter", type=float, help="cm"),
            Flag("--target-deflection", "delta_phi", type=float,
                 help="desired grazing deflection (rad)"),
            Flag("--density", "density", type=float, help="sphere density (g/cm^3)"),
        ),
        run=runners.gravity_deflection,
        summary=runners.gravity_summary,
        check=_check_gravity,
    ),
}

SCENARIOS = tuple(SCENARIO_TABLE)


def run_scenario(config: ScenarioConfig) -> ResultRecord:
    """Dispatch a validated configuration and build its result record."""
    entry = SCENARIO_TABLE[config.scenario]
    body, rows = entry.run(_filled(entry.params, config.parameters), config.seed)
    payload = {"scenario": config.scenario, "seed": config.seed, **body}
    return ResultRecord(metadata=make_metadata("ifmsim", __version__), payload=payload,
                        scan_rows=rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _write_outputs(record: ResultRecord, output_path: str | None) -> int:
    """Print the summary and write the record; 1 when a file cannot be written."""
    payload = record.payload
    print(f"scenario: {payload['scenario']}   seed: {payload['seed']}")
    for line in SCENARIO_TABLE[payload["scenario"]].summary(payload["results"]):
        print(line)
    if output_path is None:
        print(record_text(record), end="")
        if record.scan_rows:
            print(scan_table_text(record.scan_rows), end="")
        return 0
    path = Path(output_path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(record_text(record))
        print(f"record written to {path}")
        if record.scan_rows is not None:
            table_path = path.with_suffix(".scan.tsv")
            table_path.write_text(scan_table_text(record.scan_rows))
            print(f"scan table written to {table_path}")
    except OSError as exc:
        print(f"error [{payload['scenario']}]: cannot write {exc.filename or path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
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
            raise ConfigError(["config: expected a JSON object at the top level"])
        if ns.seed is not None:
            doc["seed"] = ns.seed
        # ``--trials`` lands where the scenario's own ``--trials`` flag puts it.
        scenario = doc.get("scenario")
        flags = SCENARIO_TABLE[scenario].flags if scenario in SCENARIOS else ()
        trials = [flag for flag in flags if flag.option == "--trials"]
        if ns.trials is not None and trials and isinstance(doc.get("parameters"), dict):
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


if __name__ == "__main__":
    sys.exit(main())
