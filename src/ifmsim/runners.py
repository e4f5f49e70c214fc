"""Scenario runners: from validated, default-filled parameters and a seed to a payload.

Each runner returns the payload body: the ``parameters`` the payload echoes
and the ``results``, where a scan keeps its per-position rows under
``per_position``.  The parameter blocks are the CLI's, with every left-out
key already at its default (see ``cli.SCENARIO_TABLE``); only the gravity
``density`` defaults here, to ``IRIDIUM_DENSITY``.  Each ``*_summary`` turns
a payload's results into the lines printed after a run.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

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
from .photon_mz import EvSetup, ev_outcome_distribution, run_ev_trials, zeno_ifm_distribution
from .protocol import CalibrationSetup, ScanConfig, calibrate, required_trials, run_field_scan

# Commonly quoted sphere radius (km) for the 1e-9 rad grazing-deflection
# iridium case.  The record reports it next to the independently computed
# value; the two disagree by roughly a factor of ten, so neither is adopted
# silently.
REFERENCE_SPHERE_RADIUS_KM = 18_900.0
IRIDIUM_DENSITY = 22.6  # g/cm^3

# PositionRecord fields that scan rows carry under another name.
_RENAMED = ("distance", "deflection_angle")


def particle_from(block: dict) -> TestParticle:
    return TestParticle(q=float(block["q"]), m=float(block["m"]), r0=block["r0"], v0=block["v0"])


def geometry_from(block: dict) -> BeamGeometry:
    return BeamGeometry(float(block["exit_plane_x"]), block["source_anchor"],
                        block["approach_direction"])


def grating_from(block: dict) -> GratingSpec:
    return GratingSpec(
        p_minus1=float(block["p_minus1"]),
        p_0=float(block["p_0"]),
        p_plus1=float(block["p_plus1"]),
        loss=float(block.get("loss", 0.0)),
    )


def _gratings(block: dict) -> dict[str, GratingSpec]:
    return {name: grating_from(block[name]) for name in ("g1", "g2", "g3")}


def field_region_from(p: dict) -> UniformBRegion:
    """The magnetic scan's field box, centred on the geometry's source anchor."""
    half = np.asarray(p["box_half_widths"], float)
    anchor = np.asarray(p["geometry"]["source_anchor"], float)
    return UniformBRegion(B=p["field_vector"], box_min=anchor - half, box_max=anchor + half)


def scan_trials(p: dict) -> int:
    """Explicit trials per position, or the count that reaches the confidence target."""
    trials = p["scan"].get("trials_per_position")
    if trials is None:
        g = _gratings(p["gratings"])
        trials = required_trials(ifm_efficiency(g["g1"], g["g2"]),
                                 float(p["scan"]["confidence_target"]))
    return int(trials)


def ev_bomb(p: dict, seed: int) -> dict:
    setup = EvSetup(
        object_present=p["object_present"],
        object_arm=p["object_arm"],
        arm_phase=float(p["arm_phase"]),
    )
    trials = p["trials"]
    dist = ev_outcome_distribution(setup)
    counts = run_ev_trials(setup, trials, np.random.default_rng(seed))
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


def zeno(p: dict, seed: int) -> dict:
    dist = zeno_ifm_distribution(p["n_cycles"], p["object_present"])
    resolved = {"n_cycles": p["n_cycles"], "object_present": p["object_present"]}
    return {"parameters": resolved, "results": dataclasses.asdict(dist)}


def matter_null(p: dict, seed: int) -> dict:
    g = _gratings(p)
    model = InterferometerModel(**g, arm_extra_phase=float(p["arm_extra_phase"]))
    null = solve_ideal_offset(model)
    tuned = dataclasses.replace(model, third_grating_phase=null.phase)
    resolved = {name: dataclasses.asdict(spec) for name, spec in g.items()}
    resolved["arm_extra_phase"] = model.arm_extra_phase
    results = {
        "null_phase": null.phase,
        "residual": null.residual,
        "perfect": null.perfect,
        "probability_no_block": detector_probability(tuned, NO_BLOCKS),
        "probability_upper_blocked": detector_probability(tuned, BLOCK_UPPER),
        "probability_lower_blocked": detector_probability(tuned, BLOCK_LOWER),
        "probability_both_blocked": detector_probability(tuned, PathBlockSet.of("upper", "lower")),
        "efficiency": ifm_efficiency(g["g1"], g["g2"]),
    }
    return {"parameters": resolved, "results": results}


def field_scan(p: dict, seed: int, magnetic: bool) -> dict:
    """Calibrate on the cages, then scan a point charge or a uniform-B box toward the beam.

    The particle, geometry and cages blocks are echoed as written (an
    integer stays an integer); everything else is echoed as used.
    """
    geom, cages, scan = p["geometry"], p["cages"], p["scan"]
    particle = particle_from(p["particle"])
    geometry = geometry_from(geom)
    g = _gratings(p["gratings"])
    model = InterferometerModel(**g)

    if magnetic:
        template = field_region_from(p)
        enclosed_flux = float(p["enclosed_flux"])
        source = {
            "field_vector": [float(b) for b in p["field_vector"]],
            "box_half_widths": [float(h) for h in p["box_half_widths"]],
            "enclosed_flux": enclosed_flux,
        }
    else:
        template = PointCharge(q=float(p["source_charge"]), position=geom["source_anchor"])
        enclosed_flux = 0.0
        source = {"source_charge": float(p["source_charge"])}

    setup = CalibrationSetup(
        transit_time=float(cages["transit_time"]),
        cage_potential_upper=float(cages["potential_upper"]),
        cage_potential_lower=float(cages["potential_lower"]),
        enclosed_flux=enclosed_flux,
    )
    calibration = calibrate(model, setup, particle.q)

    efficiency = ifm_efficiency(g["g1"], g["g2"])
    scan_config = ScanConfig(
        positions=tuple(scan["positions"]),
        trials_per_position=scan_trials(p),
        confidence_target=float(scan["confidence_target"]),
        phi_c=float(scan["phi_c"]),
        seed=seed,
        geometry=geometry,
        dt=float(scan["dt"]),
    )
    result = run_field_scan(calibration.model, template, particle, scan_config)

    resolved = {
        **source,
        "particle": p["particle"],
        "geometry": geom,
        "cages": cages,
        "gratings": {name: dataclasses.asdict(spec) for name, spec in g.items()},
        "scan": {
            "positions": list(scan_config.positions),
            "trials_per_position": scan_config.trials_per_position,
            "confidence_target": scan_config.confidence_target,
            "phi_c": scan_config.phi_c,
            "dt": scan_config.dt,
        },
    }
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
    return {"parameters": resolved, "results": results}


def gravity_sphere(delta_phi: float, density: float) -> tuple[float, float]:
    """Radius (cm) and mass (g) of the sphere whose grazing rays bend by ``delta_phi``.

    The mass is inf where R^3 overflows a float.
    """
    radius_cm = sphere_radius_for_deflection(delta_phi, density)
    try:
        return radius_cm, 4.0 / 3.0 * np.pi * radius_cm**3 * density
    except OverflowError:
        return radius_cm, math.inf


def gravity_deflection(p: dict, seed: int) -> dict:
    """Light bending by a mass at an impact parameter and/or the sphere for a target deflection."""
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
        radius_cm, sphere_mass = gravity_sphere(delta_phi, density)
        radius_km = radius_cm / 1.0e5
        resolved.update({"delta_phi": delta_phi, "density": density})
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
