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

Exit codes: 0 on success, 2 for configuration/validation errors, 1 for
runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .fields import (
    BeamGeometry,
    PointCharge,
    TestParticle,
    UniformBRegion,
    light_deflection,
    sphere_radius_for_deflection,
)
from .matter_mz import (
    BLOCK_LOWER,
    BLOCK_UPPER,
    NO_BLOCKS,
    GratingSpec,
    InterferometerModel,
    PathBlockSet,
    detector_probability,
    ifm_efficiency,
    solve_ideal_offset,
)
from .photon_mz import (
    ARMS,
    EvSetup,
    ev_outcome_distribution,
    run_ev_trials,
    zeno_ifm_distribution,
)
from .protocol import CalibrationSetup, ScanConfig, calibrate, required_trials, run_field_scan
from .records import ResultRecord, make_metadata, record_text, scan_table_text

SCENARIOS = (
    "ev_bomb",
    "zeno",
    "matter_null",
    "field_scan_electric",
    "field_scan_magnetic",
    "gravity_deflection",
)

MAX_SEED = 2**64 - 1

# Commonly quoted sphere radius (km) for the 1e-9 rad grazing-deflection
# iridium case.  The record reports it next to the independently computed
# value; the two disagree by roughly a factor of ten, so neither is adopted
# silently.
REFERENCE_SPHERE_RADIUS_KM = 18_900.0
IRIDIUM_DENSITY = 22.6  # g/cm^3


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
# Validation
# ---------------------------------------------------------------------------


def _finite(value) -> bool:
    """False for NaN and +-Infinity (Python's json accepts both) and ints beyond float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_number(params, key, errors, path, *, required=False, minimum=None,
                  exclusive_min=None, maximum=None):
    if key not in params:
        if required:
            errors.append(f"{path}.{key}: required key is missing")
        return
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{path}.{key}: expected a number, got {type(value).__name__}")
        return
    if not _finite(value):
        errors.append(f"{path}.{key}: must be finite, got {value}")
        return
    if minimum is not None and value < minimum:
        errors.append(f"{path}.{key}: must be >= {minimum}, got {value}")
    if exclusive_min is not None and value <= exclusive_min:
        errors.append(f"{path}.{key}: must be > {exclusive_min}, got {value}")
    if maximum is not None and value > maximum:
        errors.append(f"{path}.{key}: must be <= {maximum}, got {value}")


def _check_int(params, key, errors, path, *, required=False, minimum=None):
    if key not in params:
        if required:
            errors.append(f"{path}.{key}: required key is missing")
        return
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{path}.{key}: expected an integer, got {type(value).__name__}")
        return
    if minimum is not None and value < minimum:
        errors.append(f"{path}.{key}: must be >= {minimum}, got {value}")


def _check_bool(params, key, errors, path, *, required=False):
    if key not in params:
        if required:
            errors.append(f"{path}.{key}: required key is missing")
        return
    if not isinstance(params[key], bool):
        errors.append(f"{path}.{key}: expected a boolean, got {type(params[key]).__name__}")


def _check_choice(params, key, errors, path, choices):
    if key in params and params[key] not in choices:
        errors.append(f"{path}.{key}: expected one of {sorted(choices)}, got {params[key]!r}")


def _check_vector(params, key, errors, path, *, required=False, length=3):
    if key not in params:
        if required:
            errors.append(f"{path}.{key}: required key is missing")
        return
    value = params[key]
    ok = isinstance(value, list) and len(value) == length and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    )
    if not ok:
        errors.append(f"{path}.{key}: expected a list of {length} numbers")
    elif not all(_finite(v) for v in value):
        errors.append(f"{path}.{key}: entries must be finite, got {value}")


def _check_block(params, key, errors, path, checker):
    if key not in params:
        return
    value = params[key]
    if not isinstance(value, dict):
        errors.append(f"{path}.{key}: expected an object, got {type(value).__name__}")
        return
    checker(value, errors, f"{path}.{key}")


def _check_built(build, block, errors, path, checked_from):
    """Build the domain object from a block that passed its type checks.

    The object's own constructor holds the remaining rules (probabilities
    summing to 1, the speed bound, positive box extent); its ValueError is
    reported at ``path``.
    """
    if len(errors) > checked_from:
        return
    try:
        build(block)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")


def _check_grating(block, errors, path):
    checked_from = len(errors)
    for key in ("p_minus1", "p_0", "p_plus1"):
        _check_number(block, key, errors, path, required=True, minimum=0.0, maximum=1.0)
    _check_number(block, "loss", errors, path, minimum=0.0, maximum=1.0)
    _check_built(_grating_from, block, errors, path, checked_from)


def _check_gratings(block, errors, path):
    for name in ("g1", "g2", "g3"):
        _check_block(block, name, errors, path, _check_grating)


def _check_particle(block, errors, path):
    checked_from = len(errors)
    _check_number(block, "q", errors, path, required=True)
    _check_number(block, "m", errors, path, required=True, exclusive_min=0.0)
    _check_vector(block, "r0", errors, path, required=True)
    _check_vector(block, "v0", errors, path, required=True)
    _check_built(_particle_from, block, errors, path, checked_from)


def _check_geometry(block, errors, path):
    _check_number(block, "exit_plane_x", errors, path, required=True)
    _check_vector(block, "source_anchor", errors, path, required=True)
    _check_vector(block, "approach_direction", errors, path, required=True)


def _check_scan(block, errors, path):
    if "positions" in block:
        positions = block["positions"]
        if not isinstance(positions, list) or not positions or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in positions
        ):
            errors.append(f"{path}.positions: expected a nonempty list of numbers")
        elif not all(_finite(p) for p in positions):
            errors.append(f"{path}.positions: entries must be finite, got {positions}")
        elif any(b >= a for a, b in zip(positions, positions[1:])):
            errors.append(f"{path}.positions: must be strictly decreasing")
        elif not all(p > 0 for p in positions):
            errors.append(f"{path}.positions: must all be positive distances")
    _check_int(block, "trials_per_position", errors, path, minimum=1)
    _check_number(block, "confidence_target", errors, path, exclusive_min=0.0)
    if isinstance(block.get("confidence_target"), (int, float)) and not isinstance(
        block.get("confidence_target"), bool
    ):
        if block["confidence_target"] >= 1.0:
            errors.append(f"{path}.confidence_target: must be < 1, got {block['confidence_target']}")
    _check_number(block, "phi_c", errors, path, exclusive_min=0.0)
    _check_number(block, "dt", errors, path, exclusive_min=0.0)


def _check_cages(block, errors, path):
    _check_number(block, "transit_time", errors, path, exclusive_min=0.0)
    _check_number(block, "potential_upper", errors, path)
    _check_number(block, "potential_lower", errors, path)


def _validate_ev_bomb(params, errors, path):
    _check_bool(params, "object_present", errors, path, required=True)
    _check_choice(params, "object_arm", errors, path, ARMS)
    _check_number(params, "arm_phase", errors, path)
    _check_int(params, "trials", errors, path, minimum=1)


def _validate_zeno(params, errors, path):
    _check_int(params, "n_cycles", errors, path, required=True, minimum=1)
    _check_bool(params, "object_present", errors, path, required=True)


def _validate_matter_null(params, errors, path):
    _check_gratings(params, errors, path)
    _check_number(params, "arm_extra_phase", errors, path)


def _validate_field_scan_electric(params, errors, path):
    _check_number(params, "source_charge", errors, path, required=True)
    _check_block(params, "particle", errors, path, _check_particle)
    _check_block(params, "geometry", errors, path, _check_geometry)
    _check_block(params, "scan", errors, path, _check_scan)
    _check_block(params, "cages", errors, path, _check_cages)
    _check_block(params, "gratings", errors, path, _check_gratings)


def _validate_field_scan_magnetic(params, errors, path):
    checked_from = len(errors)
    _check_vector(params, "field_vector", errors, path, required=True)
    _check_vector(params, "box_half_widths", errors, path)
    _check_number(params, "enclosed_flux", errors, path)
    _check_block(params, "particle", errors, path, _check_particle)
    _check_block(params, "geometry", errors, path, _check_geometry)
    _check_block(params, "scan", errors, path, _check_scan)
    _check_block(params, "cages", errors, path, _check_cages)
    _check_block(params, "gratings", errors, path, _check_gratings)
    _check_built(_field_region_from, params, errors, f"{path}.box_half_widths", checked_from)


def _validate_gravity(params, errors, path):
    has_direct = "mass" in params or "impact_parameter" in params
    has_sphere = "delta_phi" in params
    if has_direct:
        _check_number(params, "mass", errors, path, required=True, minimum=0.0)
        _check_number(params, "impact_parameter", errors, path, required=True,
                      exclusive_min=0.0)
    if has_sphere:
        _check_number(params, "delta_phi", errors, path, exclusive_min=0.0)
        _check_number(params, "density", errors, path, exclusive_min=0.0)
    if not has_direct and not has_sphere:
        errors.append(
            f"{path}: provide mass+impact_parameter and/or delta_phi (with optional density)"
        )


_VALIDATORS = {
    "ev_bomb": _validate_ev_bomb,
    "zeno": _validate_zeno,
    "matter_null": _validate_matter_null,
    "field_scan_electric": _validate_field_scan_electric,
    "field_scan_magnetic": _validate_field_scan_magnetic,
    "gravity_deflection": _validate_gravity,
}


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
    if scenario in _VALIDATORS:
        _VALIDATORS[scenario](parameters, errors, "parameters")
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        scenario=scenario, seed=seed, parameters=parameters, output_path=output_path
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal over the digit limit
        raise ConfigError([f"config: invalid JSON: {exc}"]) from exc
    return config_from_dict(doc)


def emit_config(config: ScenarioConfig) -> str:
    """Serialize a configuration; parse_config inverts this exactly."""
    doc = {"scenario": config.scenario, "seed": config.seed, "parameters": config.parameters}
    if config.output_path is not None:
        doc["output_path"] = config.output_path
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


def _particle_from(block: dict) -> TestParticle:
    return TestParticle(q=float(block["q"]), m=float(block["m"]), r0=block["r0"], v0=block["v0"])


def _field_region_from(params: dict) -> UniformBRegion:
    """The magnetic scan's field box, centred on the geometry's source anchor."""
    geom = {**_SCAN_DEFAULTS["geometry"], **params.get("geometry", {})}
    half = np.asarray(params.get("box_half_widths", _SCAN_DEFAULTS["box_half_widths"]), float)
    anchor = np.asarray(geom["source_anchor"], float)
    return UniformBRegion(B=params["field_vector"], box_min=anchor - half, box_max=anchor + half)


def _grating_from(block: dict | None) -> GratingSpec:
    if block is None:
        return GratingSpec.symmetric(1.0 / 3.0)
    return GratingSpec(
        p_minus1=float(block["p_minus1"]),
        p_0=float(block["p_0"]),
        p_plus1=float(block["p_plus1"]),
        loss=float(block.get("loss", 0.0)),
    )


def _grating_dict(g: GratingSpec) -> dict:
    return {"p_minus1": g.p_minus1, "p_0": g.p_0, "p_plus1": g.p_plus1, "loss": g.loss}


def _run_ev_bomb(config: ScenarioConfig) -> tuple[dict, None]:
    p = config.parameters
    setup = EvSetup(
        object_present=p["object_present"],
        object_arm=p.get("object_arm", "upper"),
        arm_phase=float(p.get("arm_phase", 0.0)),
    )
    trials = p.get("trials", 100_000)
    dist = ev_outcome_distribution(setup)
    counts = run_ev_trials(setup, trials, np.random.default_rng(config.seed))
    resolved = {
        "object_present": setup.object_present,
        "object_arm": setup.object_arm,
        "arm_phase": setup.arm_phase,
        "trials": trials,
    }
    results = {
        "analytic": {
            "light": dist.p_light_detector,
            "dark": dist.p_dark_detector,
            "absorbed": dist.p_absorbed,
        },
        "counts": counts,
        "frequencies": {k: v / trials for k, v in counts.items()},
    }
    return {"parameters": resolved, "results": results}, None


def _run_zeno(config: ScenarioConfig) -> tuple[dict, None]:
    p = config.parameters
    dist = zeno_ifm_distribution(p["n_cycles"], p["object_present"])
    resolved = {"n_cycles": p["n_cycles"], "object_present": p["object_present"]}
    results = {
        "p_success_detect": dist.p_success_detect,
        "p_absorbed": dist.p_absorbed,
        "p_inconclusive": dist.p_inconclusive,
    }
    return {"parameters": resolved, "results": results}, None


def _run_matter_null(config: ScenarioConfig) -> tuple[dict, None]:
    p = config.parameters
    g1 = _grating_from(p.get("g1"))
    g2 = _grating_from(p.get("g2"))
    g3 = _grating_from(p.get("g3"))
    model = InterferometerModel(
        g1=g1, g2=g2, g3=g3, arm_extra_phase=float(p.get("arm_extra_phase", 0.0))
    )
    null = solve_ideal_offset(model)
    tuned = dataclasses.replace(model, third_grating_phase=null.phase)
    resolved = {
        "g1": _grating_dict(g1),
        "g2": _grating_dict(g2),
        "g3": _grating_dict(g3),
        "arm_extra_phase": model.arm_extra_phase,
    }
    results = {
        "null_phase": null.phase,
        "residual": null.residual,
        "perfect": null.perfect,
        "probability_no_block": detector_probability(tuned, NO_BLOCKS),
        "probability_upper_blocked": detector_probability(tuned, BLOCK_UPPER),
        "probability_lower_blocked": detector_probability(tuned, BLOCK_LOWER),
        "probability_both_blocked": detector_probability(
            tuned, PathBlockSet.of("upper", "lower")
        ),
        "efficiency": ifm_efficiency(g1, g2),
    }
    return {"parameters": resolved, "results": results}, None


_SCAN_DEFAULTS = {
    "particle": {"q": -4.80e-10, "m": 9.11e-28, "r0": [-0.5, 0.0, 0.0], "v0": [1.0e8, 0.0, 0.0]},
    "geometry": {
        "exit_plane_x": 0.5,
        "source_anchor": [0.0, 0.0, 0.0],
        "approach_direction": [0.0, 1.0, 0.0],
    },
    "cages": {"transit_time": 1.0e-8, "potential_upper": 0.0, "potential_lower": 0.0},
    "electric_positions": [0.40, 0.35, 0.30, 0.25, 0.20, 0.15, 0.10],
    "electric_phi_c": 2.0e-3,
    "magnetic_positions": [0.30, 0.22, 0.15, 0.10, 0.06],
    "magnetic_phi_c": 1.0e-5,
    "box_half_widths": [0.20, 0.08, 0.20],
    "confidence_target": 0.999,
    "dt": 1.0e-11,
}


def _run_field_scan(config: ScenarioConfig, magnetic: bool) -> tuple[dict, list[dict]]:
    p = config.parameters
    part = {**_SCAN_DEFAULTS["particle"], **p.get("particle", {})}
    geom = {**_SCAN_DEFAULTS["geometry"], **p.get("geometry", {})}
    cages = {**_SCAN_DEFAULTS["cages"], **p.get("cages", {})}
    scan = dict(p.get("scan", {}))
    gblocks = p.get("gratings", {})

    particle = _particle_from(part)
    geometry = BeamGeometry(
        exit_plane_x=float(geom["exit_plane_x"]),
        source_anchor=geom["source_anchor"],
        approach_direction=geom["approach_direction"],
    )
    g1 = _grating_from(gblocks.get("g1"))
    g2 = _grating_from(gblocks.get("g2"))
    g3 = _grating_from(gblocks.get("g3"))
    model = InterferometerModel(g1=g1, g2=g2, g3=g3)

    if magnetic:
        template = _field_region_from(p)
        default_positions = _SCAN_DEFAULTS["magnetic_positions"]
        default_phi_c = _SCAN_DEFAULTS["magnetic_phi_c"]
        enclosed_flux = float(p.get("enclosed_flux", 0.0))
    else:
        template = PointCharge(q=float(p["source_charge"]), position=geom["source_anchor"])
        default_positions = _SCAN_DEFAULTS["electric_positions"]
        default_phi_c = _SCAN_DEFAULTS["electric_phi_c"]
        enclosed_flux = 0.0

    setup = CalibrationSetup(
        transit_time=float(cages["transit_time"]),
        cage_potential_upper=float(cages["potential_upper"]),
        cage_potential_lower=float(cages["potential_lower"]),
        enclosed_flux=enclosed_flux,
    )
    calibration = calibrate(model, setup, particle.q)

    efficiency = ifm_efficiency(g1, g2)
    confidence = float(scan.get("confidence_target", _SCAN_DEFAULTS["confidence_target"]))
    trials = scan.get("trials_per_position")
    if trials is None:
        trials = required_trials(efficiency, confidence)
    scan_config = ScanConfig(
        positions=tuple(scan.get("positions", default_positions)),
        trials_per_position=int(trials),
        confidence_target=confidence,
        phi_c=float(scan.get("phi_c", default_phi_c)),
        seed=config.seed,
        geometry=geometry,
        dt=float(scan.get("dt", _SCAN_DEFAULTS["dt"])),
    )
    result = run_field_scan(calibration.model, template, particle, scan_config)

    resolved = {
        "particle": part,
        "geometry": geom,
        "cages": cages,
        "gratings": {"g1": _grating_dict(g1), "g2": _grating_dict(g2), "g3": _grating_dict(g3)},
        "scan": {
            "positions": list(scan_config.positions),
            "trials_per_position": scan_config.trials_per_position,
            "confidence_target": scan_config.confidence_target,
            "phi_c": scan_config.phi_c,
            "dt": scan_config.dt,
        },
    }
    if magnetic:
        resolved["field_vector"] = list(map(float, p["field_vector"]))
        resolved["box_half_widths"] = [
            float(h) for h in p.get("box_half_widths", _SCAN_DEFAULTS["box_half_widths"])
        ]
        resolved["enclosed_flux"] = enclosed_flux
    else:
        resolved["source_charge"] = float(p["source_charge"])

    rows = [
        {
            "index": i,
            "distance_cm": rec.distance,
            "deflection_rad": rec.deflection_angle,
            "blocked": rec.blocked,
            "detection_probability": rec.detection_probability,
            "trials": rec.trials,
            "detections": rec.detections,
            "field_magnitude": rec.field_magnitude,
        }
        for i, rec in enumerate(result.per_position)
    ]
    results = {
        "calibration": {
            "arm_extra_phase": calibration.model.arm_extra_phase,
            "third_grating_phase": calibration.model.third_grating_phase,
            "residual": calibration.null.residual,
            "perfect": calibration.null.perfect,
        },
        "efficiency": efficiency,
        "scan": {
            "conclusive": result.conclusive,
            "first_detecting_position": result.first_detecting_position,
            "field_bound": result.field_bound,
            "field_bound_error": result.field_bound_error,
            "bracket": list(result.bracket) if result.bracket else None,
            "positions_scanned": len(result.per_position),
        },
        "per_position": rows,
    }
    return {"parameters": resolved, "results": results}, rows


def _run_gravity(config: ScenarioConfig) -> tuple[dict, None]:
    p = config.parameters
    resolved: dict = {}
    results: dict = {}
    if "mass" in p:
        mass = float(p["mass"])
        b = float(p["impact_parameter"])
        resolved.update({"mass": mass, "impact_parameter": b})
        results["deflection_rad"] = light_deflection(mass, b)
    if "delta_phi" in p:
        delta_phi = float(p["delta_phi"])
        density = float(p.get("density", IRIDIUM_DENSITY))
        radius_cm = sphere_radius_for_deflection(delta_phi, density)
        radius_km = radius_cm / 1.0e5
        sphere_mass = 4.0 / 3.0 * np.pi * radius_cm**3 * density
        resolved.update({"delta_phi": delta_phi, "density": density})
        results["sphere"] = {
            "radius_cm": radius_cm,
            "radius_km": radius_km,
            "reference_radius_km": REFERENCE_SPHERE_RADIUS_KM,
            "ratio_to_reference": radius_km / REFERENCE_SPHERE_RADIUS_KM,
            "sphere_mass_g": sphere_mass,
            "deflection_check": light_deflection(sphere_mass, radius_cm),
        }
    return {"parameters": resolved, "results": results}, None


_RUNNERS = {
    "ev_bomb": _run_ev_bomb,
    "zeno": _run_zeno,
    "matter_null": _run_matter_null,
    "field_scan_electric": lambda c: _run_field_scan(c, magnetic=False),
    "field_scan_magnetic": lambda c: _run_field_scan(c, magnetic=True),
    "gravity_deflection": _run_gravity,
}


def run_scenario(config: ScenarioConfig) -> ResultRecord:
    """Dispatch a validated configuration and build its result record."""
    body, rows = _RUNNERS[config.scenario](config)
    payload = {
        "scenario": config.scenario,
        "seed": config.seed,
        "parameters": body["parameters"],
        "results": body["results"],
    }
    return ResultRecord(metadata=make_metadata("ifmsim", __version__), payload=payload,
                        scan_rows=rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _summary_lines(record: ResultRecord) -> list[str]:
    payload = record.payload
    results = payload["results"]
    lines = [f"scenario: {payload['scenario']}   seed: {payload['seed']}"]
    if payload["scenario"] == "ev_bomb":
        a = results["analytic"]
        lines.append(
            f"analytic  light={a['light']:.6g} dark={a['dark']:.6g} absorbed={a['absorbed']:.6g}"
        )
        f = results["frequencies"]
        lines.append(
            f"sampled   light={f['light']:.6g} dark={f['dark']:.6g} absorbed={f['absorbed']:.6g}"
        )
    elif payload["scenario"] == "zeno":
        lines.append(
            f"p_success={results['p_success_detect']:.6g} "
            f"p_absorbed={results['p_absorbed']:.6g} "
            f"p_inconclusive={results['p_inconclusive']:.6g}"
        )
    elif payload["scenario"] == "matter_null":
        lines.append(
            f"null_phase={results['null_phase']:.12g} residual={results['residual']:.3g} "
            f"efficiency={results['efficiency']:.6g}"
        )
        lines.append(
            f"P(no block)={results['probability_no_block']:.3g} "
            f"P(upper blocked)={results['probability_upper_blocked']:.6g}"
        )
    elif payload["scenario"] in ("field_scan_electric", "field_scan_magnetic"):
        scan = results["scan"]
        lines.append(
            f"calibrated third_grating_phase={results['calibration']['third_grating_phase']:.12g} "
            f"efficiency={results['efficiency']:.6g}"
        )
        if scan["conclusive"]:
            lines.append(
                f"detection at distance {scan['first_detecting_position']:.6g} cm; "
                f"field bound {scan['field_bound']:.6g} "
                f"(step error {scan['field_bound_error'] if scan['field_bound_error'] is not None else 'n/a'})"
            )
        else:
            lines.append("no detection: field too weak over the scanned positions")
    elif payload["scenario"] == "gravity_deflection":
        if "deflection_rad" in results:
            lines.append(f"deflection = {results['deflection_rad']:.12g} rad")
        if "sphere" in results:
            s = results["sphere"]
            lines.append(
                f"computed radius = {s['radius_km']:.6g} km; "
                f"reference figure = {s['reference_radius_km']:.6g} km; "
                f"ratio = {s['ratio_to_reference']:.6g}"
            )
    return lines


def _write_outputs(record: ResultRecord, output_path: str | None) -> None:
    for line in _summary_lines(record):
        print(line)
    if output_path is None:
        print(record_text(record), end="")
        if record.scan_rows:
            print(scan_table_text(record.scan_rows), end="")
        return
    path = Path(output_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(record_text(record))
    print(f"record written to {path}")
    if record.scan_rows is not None:
        table_path = path.with_suffix(".scan.tsv")
        table_path.write_text(scan_table_text(record.scan_rows))
        print(f"scan table written to {table_path}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--output", default=None, help="path for the JSON record")


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

    ev = subs.add_parser("ev-bomb", help="single-photon bomb test")
    ev.add_argument("--object-present", action=argparse.BooleanOptionalAction, default=True)
    ev.add_argument("--object-arm", choices=ARMS, default="upper")
    ev.add_argument("--arm-phase", type=float, default=0.0)
    ev.add_argument("--trials", type=int, default=100_000)
    _add_common(ev)

    zeno = subs.add_parser("zeno", help="N-cycle repeated-interrogation bomb test")
    zeno.add_argument("--cycles", type=int, required=True)
    zeno.add_argument("--object-present", action=argparse.BooleanOptionalAction, default=True)
    _add_common(zeno)

    null = subs.add_parser("matter-null", help="three-grating dark-fringe calibration")
    null.add_argument("--grating-p", type=float, default=1.0 / 3.0,
                      help="per-order probability of the symmetric gratings")
    null.add_argument("--arm-extra-phase", type=float, default=0.0)
    _add_common(null)

    fse = subs.add_parser("field-scan-electric", help="scan a point charge toward the beam")
    fse.add_argument("--source-charge", type=float, required=True, help="statC")
    fse.add_argument("--phi-c", type=float, default=None, help="critical angle (rad)")
    fse.add_argument("--positions", default=None,
                     help="comma-separated decreasing distances (cm)")
    fse.add_argument("--trials", type=int, default=None, help="trials per position")
    fse.add_argument("--cage-dv", type=float, default=0.0,
                     help="cage potential difference lower-upper (statV)")
    _add_common(fse)

    fsm = subs.add_parser("field-scan-magnetic", help="scan a uniform-field region toward the beam")
    fsm.add_argument("--field-strength", type=float, required=True,
                     help="Bz inside the region (gauss)")
    fsm.add_argument("--enclosed-flux", type=float, default=0.0, help="gauss*cm^2")
    fsm.add_argument("--phi-c", type=float, default=None)
    fsm.add_argument("--positions", default=None)
    fsm.add_argument("--trials", type=int, default=None)
    _add_common(fsm)

    grav = subs.add_parser("gravity-deflection", help="light bending by a mass")
    grav.add_argument("--mass", type=float, default=None, help="g")
    grav.add_argument("--impact-parameter", type=float, default=None, help="cm")
    grav.add_argument("--target-deflection", type=float, default=None,
                      help="desired grazing deflection (rad)")
    grav.add_argument("--density", type=float, default=None, help="sphere density (g/cm^3)")
    _add_common(grav)

    return parser


def _positions_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _config_from_namespace(ns: argparse.Namespace) -> ScenarioConfig:
    if ns.command == "run":
        try:
            text = Path(ns.config).read_text()
        except OSError as exc:
            raise ConfigError([f"config: cannot read {ns.config}: {exc}"]) from exc
        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int literal over the digit limit
            raise ConfigError([f"config: invalid JSON: {exc}"]) from exc
        if not isinstance(doc, dict):
            raise ConfigError(["config: expected a JSON object at the top level"])
        if ns.seed is not None:
            doc["seed"] = ns.seed
        if ns.output is not None:
            doc["output_path"] = ns.output
        if ns.trials is not None and isinstance(doc.get("parameters"), dict):
            scenario = doc.get("scenario")
            if scenario == "ev_bomb":
                doc["parameters"]["trials"] = ns.trials
            elif scenario in ("field_scan_electric", "field_scan_magnetic"):
                doc["parameters"].setdefault("scan", {})["trials_per_position"] = ns.trials
        return config_from_dict(doc)

    scenario = ns.command.replace("-", "_")
    params: dict = {}
    if scenario == "ev_bomb":
        params = {
            "object_present": ns.object_present,
            "object_arm": ns.object_arm,
            "arm_phase": ns.arm_phase,
            "trials": ns.trials,
        }
    elif scenario == "zeno":
        params = {"n_cycles": ns.cycles, "object_present": ns.object_present}
    elif scenario == "matter_null":
        g = {"p_minus1": ns.grating_p, "p_0": ns.grating_p, "p_plus1": ns.grating_p,
             "loss": max(0.0, 1.0 - 3.0 * ns.grating_p)}
        params = {"g1": g, "g2": g, "g3": g, "arm_extra_phase": ns.arm_extra_phase}
    elif scenario == "field_scan_electric":
        params = {"source_charge": ns.source_charge}
        if ns.cage_dv:
            params["cages"] = {
                "transit_time": _SCAN_DEFAULTS["cages"]["transit_time"],
                "potential_upper": 0.0,
                "potential_lower": ns.cage_dv,
            }
        _apply_scan_flags(params, ns)
    elif scenario == "field_scan_magnetic":
        params = {
            "field_vector": [0.0, 0.0, ns.field_strength],
            "enclosed_flux": ns.enclosed_flux,
        }
        _apply_scan_flags(params, ns)
    elif scenario == "gravity_deflection":
        if ns.mass is not None or ns.impact_parameter is not None:
            params["mass"] = ns.mass
            params["impact_parameter"] = ns.impact_parameter
        if ns.target_deflection is not None:
            params["delta_phi"] = ns.target_deflection
            if ns.density is not None:
                params["density"] = ns.density
        if params.get("mass") is None and "delta_phi" not in params:
            raise ConfigError(
                ["parameters: provide --mass and --impact-parameter, or --target-deflection"]
            )
        params = {k: v for k, v in params.items() if v is not None}
    doc = {"scenario": scenario, "seed": ns.seed, "parameters": params}
    if ns.output is not None:
        doc["output_path"] = ns.output
    return config_from_dict(doc)


def _apply_scan_flags(params: dict, ns: argparse.Namespace) -> None:
    scan: dict = {}
    if ns.phi_c is not None:
        scan["phi_c"] = ns.phi_c
    if ns.positions is not None:
        scan["positions"] = _positions_list(ns.positions)
    if ns.trials is not None:
        scan["trials_per_position"] = ns.trials
    if scan:
        params["scan"] = scan


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
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
    _write_outputs(record, config.output_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
