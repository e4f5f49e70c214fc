"""Closed-form oracles for the benchmark's correctness checks.

Nothing here imports ``ifmsim``: every expected value is derived from the
physics directly, so a defect in the simulator cannot hide in a shared
helper.  Units are Gaussian CGS, as in the simulator.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

C_LIGHT = 3.00e10  # cm/s

# pi to 60 digits, for the extended-precision Zeno oracle.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def kepler_deflection(q: float, m: float, x0: float, speed: float, charge: float,
                      distance: float, exit_x: float) -> float:
    """Deflection at the plane x = exit_x of a charge on an attractive Coulomb orbit.

    The particle (charge q, mass m) starts at (x0, 0) moving along +x at
    ``speed``; the fixed source ``charge`` sits at (0, distance).  The orbit
    is the exact Kepler hyperbola: r(phi) = (h^2/mu) / (1 + e.r_hat), with
    angular momentum h and eccentricity vector e fixed by the initial state.
    The exit point solves A cos(phi) + B sin(phi) = exit_x in closed form, and
    the velocity change along a Kepler orbit is (mu/h) z_hat x (r_hat1 - r_hat0).
    """
    mu = -q * charge / m
    if mu <= 0.0:
        raise ValueError("oracle covers attractive orbits only")
    rx, ry = x0, -distance
    r0 = math.hypot(rx, ry)
    h = -ry * speed
    ex = -rx / r0
    ey = -speed * h / mu - ry / r0
    a = h * h / mu - exit_x * ex
    b = -exit_x * ey
    base = math.atan2(b, a)
    half = math.acos(exit_x / math.hypot(a, b))
    phi0 = math.atan2(ry, rx)
    phi1 = None
    for cand in (base + half, base - half):
        cand = math.atan2(math.sin(cand), math.cos(cand))
        on_branch = 1.0 + ex * math.cos(cand) + ey * math.sin(cand) > 0.0
        if on_branch and math.cos(cand) > 0.0 and math.sin(cand) < 0.0:
            phi1 = cand
    if phi1 is None:
        raise ValueError("exit plane not reached below the source")
    k = mu / h
    mid, diff = 0.5 * (phi1 + phi0), 0.5 * (phi1 - phi0)
    dvy = -2.0 * k * math.sin(mid) * math.sin(diff)  # k (cos phi1 - cos phi0)
    dvx = -2.0 * k * math.cos(mid) * math.sin(diff)  # -k (sin phi1 - sin phi0)
    return math.atan2(abs(dvy), speed + dvx)


def box_arc_deflection(q: float, m: float, speed: float, bz: float, length: float) -> float:
    """Exit angle after a straight pass of ``length`` cm through uniform Bz.

    The path inside the box is a circular arc of radius R = m v c / (|q| B),
    so the particle leaves the far face turned by asin(L / R).
    """
    radius = m * speed * C_LIGHT / (abs(q) * abs(bz))
    return math.asin(length / radius)


def zeno_success_rel_err(n_cycles: int, p_success: float) -> float:
    """|p / cos^(2N)(pi/2N) - 1|, with the oracle evaluated to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = _PI / (2 * n_cycles)
        term, cos_x, k = Decimal(1), Decimal(1), 0
        while abs(term) > Decimal(10) ** -45:
            k += 2
            term = -term * x * x / (k * (k - 1))
            cos_x += term
        exact = cos_x ** (2 * n_cycles)
        return float(abs(Decimal(p_success) / exact - 1))


def ev_probabilities(object_present: bool, arm_phase: float) -> dict[str, float]:
    """Single-photon outcome probabilities of the balanced bomb-test interferometer.

    Empty arms: the phase plate sets the fringe, light cos^2(phi/2) and
    dark sin^2(phi/2).  An opaque object in either arm absorbs half of the
    photons and splits the rest evenly between the two detectors.
    """
    if object_present:
        return {"light": 0.25, "dark": 0.25, "absorbed": 0.5}
    return {
        "light": math.cos(0.5 * arm_phase) ** 2,
        "dark": math.sin(0.5 * arm_phase) ** 2,
        "absorbed": 0.0,
    }


def counts_within_band(counts: dict[str, int], probs: dict[str, float], n: int,
                       k_sigma: float) -> bool:
    """Counts sum to n and each lies within k_sigma binomial sigmas of n*p.

    An outcome of probability 0 (up to 1e-15) must never occur.
    """
    if set(counts) != set(probs) or sum(counts.values()) != n:
        return False
    for label, p in probs.items():
        if p < 1e-15:
            if counts[label] != 0:
                return False
            continue
        sigma = math.sqrt(n * p * (1.0 - p))
        if abs(counts[label] - n * p) > k_sigma * sigma + 1.0:
            return False
    return True
