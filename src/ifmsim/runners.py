"""Scenario runners: from the domain objects of a run to a payload body.

``cli`` checks a configuration against its scenario's spec, then its
``prepare`` builds once every domain object the run needs and binds the
scenario's runner to them (``functools.partial``).  A runner only computes
from its arguments and echoes them.  It returns the payload body: the
``parameters`` the payload echoes and the ``results``, where a scan keeps its
per-position rows under ``per_position``.  Each ``*_summary`` turns a
payload's results into the lines printed after a run.
"""

from __future__ import annotations

import dataclasses
import math

from .fields import FieldSource, TestParticle, light_deflection, sphere_radius_for_deflection
from .matter_mz import (
    BLOCK_LOWER,
    BLOCK_UPPER,
    NO_BLOCKS,
    InterferometerModel,
    PathBlockSet,
    detector_probability,
    ifm_efficiency,
    solve_ideal_offset,
)
from .photon_mz import EvSetup, ev_outcome_distribution, run_ev_trials, zeno_ifm_distribution
from .protocol import CalibrationResult, ScanConfig, run_field_scan

# Commonly quoted sphere radius (km) for the 1e-9 rad grazing-deflection
# iridium case.  The record reports it next to the independently computed
# value; the two disagree by roughly a factor of ten, so neither is adopted
# silently.
REFERENCE_SPHERE_RADIUS_KM = 18_900.0
IRIDIUM_DENSITY = 22.6  # g/cm^3

# PositionRecord fields that scan rows carry under another name.
_RENAMED = ("distance", "deflection_angle")


def ev_bomb(setup: EvSetup, trials: int, seed: int) -> dict:
    dist = ev_outcome_distribution(setup)
    counts = run_ev_trials(setup, trials, seed)
    resolved = {**dataclasses.asdict(setup), "trials": trials}
    results = {
        "analytic": {
            "light": dist.p_light_detector,
            "dark": dist.p_dark_detector,
            "absorbed": dist.p_absorbed,
        },
        "counts": counts,
        "frequencies": {k: v / trials for k, v in counts.items()},
    }
    return {"parameters": resolved, "results": results}


def zeno(n_cycles: int, object_present: bool) -> dict:
    dist = zeno_ifm_distribution(n_cycles, object_present)
    resolved = {"n_cycles": n_cycles, "object_present": object_present}
    return {"parameters": resolved, "results": dataclasses.asdict(dist)}


def matter_null(model: InterferometerModel) -> dict:
    null = solve_ideal_offset(model)
    tuned = dataclasses.replace(model, third_grating_phase=null.phase)
    resolved = {name: dataclasses.asdict(getattr(model, name)) for name in ("g1", "g2", "g3")}
    resolved["arm_extra_phase"] = model.arm_extra_phase
    results = {
        "null_phase": null.phase,
        "residual": null.residual,
        "perfect": null.perfect,
        "probability_no_block": detector_probability(tuned, NO_BLOCKS),
        "probability_upper_blocked": detector_probability(tuned, BLOCK_UPPER),
        "probability_lower_blocked": detector_probability(tuned, BLOCK_LOWER),
        "probability_both_blocked": detector_probability(tuned, PathBlockSet.of("upper", "lower")),
        "efficiency": ifm_efficiency(model.g1, model.g2),
    }
    return {"parameters": resolved, "results": results}


def field_scan(particle: TestParticle, template: FieldSource, calibration: CalibrationResult,
               efficiency: float, scan: ScanConfig, parameters: dict) -> dict:
    """Scan a point charge or a uniform-B box toward the beam on the calibrated model.

    ``parameters`` is the payload's echo: the particle, geometry and cages
    blocks as written (an integer stays an integer), everything else as used.
    """
    result = run_field_scan(calibration.model, template, particle, scan)
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
        "per_position": [
            {"index": i, "distance_cm": rec.distance, "deflection_rad": rec.deflection_angle,
             **{k: v for k, v in dataclasses.asdict(rec).items() if k not in _RENAMED}}
            for i, rec in enumerate(result.per_position)
        ],
    }
    return {"parameters": parameters, "results": results}


def gravity_sphere(delta_phi: float, density: float) -> tuple[float, float]:
    """Radius (cm) and mass (g) of the sphere whose grazing rays bend by ``delta_phi``.

    Raises ``ValueError`` unless the radius is positive and finite and the mass finite.
    """
    radius = sphere_radius_for_deflection(delta_phi, density)
    try:
        mass = 4.0 / 3.0 * math.pi * radius**3 * density
    except OverflowError:
        mass = math.inf
    if not (radius > 0.0 and math.isfinite(mass)):
        raise ValueError(f"the sphere has radius {radius:g} cm and mass {mass:g} g; "
                         "the radius must be positive and finite, the mass finite")
    return radius, mass


def gravity_deflection(mass: float | None, impact_parameter: float | None,
                       delta_phi: float | None, density: float | None) -> dict:
    """Light bending by a mass at an impact parameter and/or the sphere for a target deflection.

    A mode left out has its two values at None.
    """
    given = {"mass": mass, "impact_parameter": impact_parameter,
             "delta_phi": delta_phi, "density": density}
    resolved = {key: value for key, value in given.items() if value is not None}
    results: dict = {}
    if mass is not None:
        results["deflection_rad"] = light_deflection(mass, impact_parameter)
    if delta_phi is not None:
        radius_cm, sphere_mass = gravity_sphere(delta_phi, density)
        radius_km = radius_cm / 1.0e5
        results["sphere"] = {
            "radius_cm": radius_cm,
            "radius_km": radius_km,
            "reference_radius_km": REFERENCE_SPHERE_RADIUS_KM,
            "ratio_to_reference": radius_km / REFERENCE_SPHERE_RADIUS_KM,
            "sphere_mass_g": sphere_mass,
            "deflection_check": light_deflection(sphere_mass, radius_cm),
        }
    return {"parameters": resolved, "results": results}


def ev_bomb_summary(results: dict) -> list[str]:
    a, f = results["analytic"], results["frequencies"]
    return [
        f"analytic  light={a['light']:.6g} dark={a['dark']:.6g} absorbed={a['absorbed']:.6g}",
        f"sampled   light={f['light']:.6g} dark={f['dark']:.6g} absorbed={f['absorbed']:.6g}",
    ]


def zeno_summary(results: dict) -> list[str]:
    return [
        f"p_success={results['p_success_detect']:.6g} "
        f"p_absorbed={results['p_absorbed']:.6g} "
        f"p_inconclusive={results['p_inconclusive']:.6g}"
    ]


def matter_null_summary(results: dict) -> list[str]:
    return [
        f"null_phase={results['null_phase']:.12g} residual={results['residual']:.3g} "
        f"efficiency={results['efficiency']:.6g}",
        f"P(no block)={results['probability_no_block']:.3g} "
        f"P(upper blocked)={results['probability_upper_blocked']:.6g}",
    ]


def field_scan_summary(results: dict) -> list[str]:
    scan = results["scan"]
    lines = [
        f"calibrated third_grating_phase={results['calibration']['third_grating_phase']:.12g} "
        f"efficiency={results['efficiency']:.6g}"
    ]
    if scan["conclusive"]:
        error = scan["field_bound_error"]
        lines.append(
            f"detection at distance {scan['first_detecting_position']:.6g} cm; "
            f"field bound {scan['field_bound']:.6g} "
            f"(step error {'n/a' if error is None else format(error, '.6g')})"
        )
    else:
        lines.append("no detection: field too weak over the scanned positions")
    return lines


def gravity_summary(results: dict) -> list[str]:
    lines = []
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
