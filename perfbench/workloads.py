"""The workloads: seeded ops, how one op runs, and how its output is checked.

Op i of a workload is drawn from (seed, i) alone.  A workload's *round* is
``round_size`` consecutive ops; a timed run executes rounds 0, 1, 2, ... of
fresh ops, a traced run round 0.  Ops within a workload are of one size
class (tens to hundreds of ms), so no sub-millisecond call sits next to a
100 ms call.  Ops call ``ifmsim`` through module attributes, so a traced
pass sees the wrappers that ``tracing`` binds there.

Why each workload exists:

- ``scan_electric``: acceptance criterion 6 through the library on a smooth
  Coulomb field; ``fields`` does over 90% of the work, and the charge spread
  changes how many positions are scanned (3-7).
- ``scan_magnetic``: the same op for a uniform-B box; the integrator meets a
  discontinuous right-hand side at the box faces (the O(dt) edge defect), so
  a stepping change that helps one source type and costs the other shows.
- ``photon_batch``: ``photon_mz`` and ``core`` do all the work here and
  almost none elsewhere; the Zeno cycle counts include values where the
  parent fails its sum check.
- ``cli_cold``: the one-shot path users run, a fresh ``python -m ifmsim``
  per op, where start-up dominates; bad configs use the ``cli`` layer
  differently from valid ones.
- ``cli_scan``: the ``cli`` and ``records`` layers in-process, without the
  start-up of a fresh process, whose time on a shared host moves too much
  between runs to gate ``cli_cold``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

ELECTRON_Q = -4.80e-10
ELECTRON_M = 9.11e-28
BEAM_SPEED = 1.0e8
DT = 1e-11
EXIT_X = 0.5
START_X = -0.5

# Failure labels for ops that fail at the parent commit, with the ROADMAP
# defect that explains each and the failure it must show to carry the label.
KNOWN_DEFECTS = {
    "zeno-sum-drift": (
        "ROADMAP 4: Zeno loop drift makes probabilities sum to 1-1e-12",
        lambda kind: kind.startswith("ValueError: probabilities sum to"),
    ),
    "bad-config-exit-1": (
        "ROADMAP 3: invalid config passes validation, then exits 1 instead of 2",
        lambda kind: kind == "exit 1",
    ),
    "bad-config-exit-0": (
        "ROADMAP 3: mistyped nested key is ignored, exits 0 instead of 2",
        lambda kind: kind == "exit 0",
    ),
    "nonpositive-positions-timeout": (
        "ROADMAP 3: scan positions <= 0 run 2M RK4 steps instead of exiting 2",
        lambda kind: kind == "timeout",
    ),
}


@dataclass
class Op:
    index: int
    kind: str
    params: dict
    defect: str | None = None


def _modules():
    from ifmsim import fields, matter_mz, photon_mz, protocol

    return fields, matter_mz, photon_mz, protocol


class ScanWorkload:
    """calibrate, run_field_scan and critical_distance, as acceptance criterion 6 does."""

    round_size = 48
    rel_err_tolerance = 1e-6

    def __init__(self, seed: int, root: Path):
        fields, matter_mz, _, protocol = _modules()
        self.particle = fields.TestParticle(
            q=ELECTRON_Q, m=ELECTRON_M, r0=[START_X, 0, 0], v0=[BEAM_SPEED, 0, 0]
        )
        self.geometry = fields.BeamGeometry(
            exit_plane_x=EXIT_X, source_anchor=[0, 0, 0], approach_direction=[0, 1, 0]
        )
        g = matter_mz.GratingSpec.symmetric(1.0 / 3.0)
        self.model = matter_mz.InterferometerModel(g1=g, g2=g, g3=g)
        # Sized as in criterion 6: missing a blocked position is a 1e-9 event.
        self.confidence = 1.0 - 1e-9
        self.trials = protocol.required_trials(matter_mz.ifm_efficiency(g, g), self.confidence)
        self.seed = seed
        self.rel_errs: list[float] = []

    def op(self, i: int) -> Op:
        # Each round takes one source strength from each of round_size equal
        # slices of its range, in a seeded order.  Every round then spans the
        # range, so the op cost mix and the worst oracle error do not hinge
        # on whether a seed happens to draw the weakest sources.
        n = self.round_size
        order = np.random.default_rng([self.seed, 100 + self.stream, i // n]).permutation(n)
        rng = np.random.default_rng([self.seed, self.stream, i])
        u = (order[i % n] + rng.random()) / n
        return Op(i, self.name, {**self.draw(u, rng), "scan_seed": int(rng.integers(0, 2**63))})

    def warm_up(self) -> None:
        self.execute(Op(-1, self.name, {**self.warm_params, "scan_seed": 0}))

    def execute(self, op: Op):
        fields, _, _, protocol = _modules()
        source = self.source(op.params)
        calibration = protocol.calibrate(
            self.model,
            protocol.CalibrationSetup(transit_time=1e-8, enclosed_flux=op.params.get("flux", 0.0)),
            ELECTRON_Q,
        )
        config = protocol.ScanConfig(
            positions=self.positions,
            trials_per_position=self.trials,
            confidence_target=self.confidence,
            phi_c=self.phi_c,
            seed=op.params["scan_seed"],
            geometry=self.geometry,
            dt=DT,
        )
        scan = protocol.run_field_scan(calibration.model, source, self.particle, config)
        d_c = fields.critical_distance(
            self.particle, source, self.geometry, self.phi_c,
            (self.positions[-1], self.positions[0]), DT,
        )
        return scan, d_c

    def collect(self, op: Op, output):
        return output

    def check(self, op: Op, output) -> str | None:
        scan, d_c = output
        if not scan.conclusive or scan.bracket is None:
            return "oracle: scan inconclusive or without a bracket"
        near, far = scan.bracket
        if not near < d_c < far:
            return f"oracle: critical distance {d_c} outside bracket ({near}, {far})"
        for rec in scan.per_position:
            expected = self.oracle(op.params, rec.distance)
            if expected == 0.0:
                if rec.deflection_angle != 0.0:
                    return f"oracle: nonzero deflection at {rec.distance} cm, beam misses the box"
                continue
            err = abs(rec.deflection_angle / expected - 1.0)
            self.rel_errs.append(err)
            if err > self.rel_err_tolerance:
                return f"oracle: deflection off by {err:.2e} at {rec.distance} cm"
        return self.check_critical(op.params, d_c)


class ScanElectric(ScanWorkload):
    name = "scan_electric"
    stream = 1
    positions = (0.40, 0.35, 0.30, 0.25, 0.20, 0.15, 0.10)
    phi_c = 2e-3
    warm_params = {"charge": 5.2e-6}

    @staticmethod
    def draw(u, rng):
        return {"charge": 2.6e-6 + 5.2e-6 * float(u)}

    def source(self, params):
        fields = _modules()[0]
        return fields.PointCharge(q=params["charge"], position=[0, 0, 0])

    def oracle(self, params, distance):
        return oracles.kepler_deflection(
            ELECTRON_Q, ELECTRON_M, START_X, BEAM_SPEED, params["charge"], distance, EXIT_X
        )

    def check_critical(self, params, d_c):
        err = abs(self.oracle(params, d_c) / self.phi_c - 1.0)
        if err > 1e-4:
            return f"oracle: deflection at the critical distance off phi_c by {err:.2e}"
        return None


class ScanMagnetic(ScanWorkload):
    name = "scan_magnetic"
    stream = 2
    positions = (0.30, 0.22, 0.15, 0.10, 0.06)
    phi_c = 1e-5
    half_widths = (0.20, 0.08, 0.20)
    # The O(dt) edge defect reads 8.3e-4 at the parent; this bounds gross errors.
    rel_err_tolerance = 5e-3
    warm_params = {"bz": 3e-3, "flux": 5e-7}

    @staticmethod
    def draw(u, rng):
        # Bz > 0 bends the electron toward +y, into the box, so it leaves
        # through the x-faces for every distance below the half-width and the
        # exact arc holds; 1e-3..1e-2 G keeps the turn far from grazing.
        return {
            "bz": float(10.0 ** (-3.0 + u)),
            "flux": float(rng.uniform(0.0, 1e-6)),
        }

    def source(self, params):
        fields = _modules()[0]
        half = np.array(self.half_widths)
        return fields.UniformBRegion(B=[0, 0, params["bz"]], box_min=-half, box_max=half)

    def oracle(self, params, distance):
        # The beam runs along y = 0; the box spans y in distance +- half-width.
        if distance - self.half_widths[1] > 0.0:
            return 0.0
        return oracles.box_arc_deflection(
            ELECTRON_Q, ELECTRON_M, BEAM_SPEED, params["bz"], 2 * self.half_widths[0]
        )

    def check_critical(self, params, d_c):
        if abs(d_c / self.half_widths[1] - 1.0) > 1e-5:
            return f"oracle: critical distance {d_c} is not the box edge {self.half_widths[1]}"
        return None


class PhotonBatch:
    """Bomb-test sampling at one trial count, interleaved with N-cycle Zeno runs.

    Two EV ops precede each Zeno op.  Zeno at N <= 2000 runs faster than an
    EV op and the rest slower, so the median op sits among the EV ops and the
    tail among the largest N.  The parent fails its sum check at N =
    10,000 and 20,000; they stay in the set so that the drift defect shows.

    The schedule weights N = 16,000: a round holds 4 Zeno runs at 20,000
    and 14 at 16,000 above the rest, so the tail op (10 beyond it) falls
    mid-cluster.  With one run per N the tail sat at the edge between two N
    values, and which side it fell on depended on the host's speed.

    Because the set is fixed, each Zeno input recurs within a run, so a
    cache of ``zeno_ifm_distribution`` results would look faster than it is
    for a user; EV ops never repeat their inputs.
    """

    name = "photon_batch"
    ev_trials = 1_000_000
    zeno_schedule = (16_000, 1000, 16_000, 20_000, 16_000, 2000, 16_000, 10_000,
                     16_000, 5000, 16_000, 14_000, 16_000, 8000, 20_000, 10_000)
    zeno_drift = (10_000, 20_000)
    k_sigma = 6.0

    period = 3 * len(zeno_schedule)
    round_size = 2 * period

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.rel_errs: list[float] = []

    def op(self, i: int) -> Op:
        k = i % self.period
        if k % 3 == 2:
            n = self.zeno_schedule[k // 3]
            return Op(i, "zeno", {"n_cycles": n}, "zeno-sum-drift" if n in self.zeno_drift else None)
        rng = np.random.default_rng([self.seed, 3, i])
        return Op(i, "ev", {
            "object_present": bool(rng.random() < 0.5),
            "object_arm": ("upper", "lower")[int(rng.integers(0, 2))],
            "arm_phase": float(rng.uniform(0.0, 2.0 * math.pi)),
            "rng_seed": int(rng.integers(0, 2**63)),
        })

    def warm_up(self) -> None:
        self.execute(Op(-1, "ev", {"object_present": True, "object_arm": "upper",
                                   "arm_phase": 0.0, "rng_seed": 0}))
        self.execute(Op(-1, "zeno", {"n_cycles": 1000}))

    def execute(self, op: Op):
        photon_mz = _modules()[2]
        p = op.params
        if op.kind == "zeno":
            return photon_mz.zeno_ifm_distribution(p["n_cycles"], True)
        setup = photon_mz.EvSetup(
            object_present=p["object_present"], object_arm=p["object_arm"],
            arm_phase=p["arm_phase"],
        )
        return photon_mz.run_ev_trials(setup, self.ev_trials, np.random.default_rng(p["rng_seed"]))

    def collect(self, op: Op, output):
        return output

    def check(self, op: Op, output) -> str | None:
        p = op.params
        if op.kind == "zeno":
            err = oracles.zeno_success_rel_err(p["n_cycles"], output.p_success_detect)
            self.rel_errs.append(err)
            if (err > 1e-9 or abs(output.p_inconclusive) > 1e-9
                    or abs(output.p_absorbed + output.p_success_detect - 1.0) > 1e-9):
                return f"oracle: Zeno N={p['n_cycles']} off cos^2N(pi/2N) by {err:.2e}"
            return None
        probs = oracles.ev_probabilities(p["object_present"], p["arm_phase"])
        if not oracles.counts_within_band(output, probs, self.ev_trials, self.k_sigma):
            return f"oracle: EV counts {output} outside {self.k_sigma}-sigma of {probs}"
        return None


class CliOps:
    """CLI invocations: seeded argv per op, and checks of exit code and record.

    A valid op runs a scenario through its subcommand or through ``run
    config.json`` and writes a record; a bad config must exit 2.
    """

    BAD_CONFIGS = (
        ("gratings_sum_1.5", "bad-config-exit-1", "matter_null",
         {"g1": {"p_minus1": 0.5, "p_0": 0.5, "p_plus1": 0.5}}),
        ("v0_over_0.01c", "bad-config-exit-1", "field_scan_electric",
         {"source_charge": 5e-6, "particle": {"q": ELECTRON_Q, "m": ELECTRON_M,
                                              "r0": [START_X, 0.0, 0.0], "v0": [4e8, 0.0, 0.0]}}),
        ("negative_half_width", "bad-config-exit-1", "field_scan_magnetic",
         {"field_vector": [0.0, 0.0, 1e-3], "box_half_widths": [-0.2, 0.08, 0.2]}),
        ("nan_phase", "bad-config-exit-1", "ev_bomb",
         {"object_present": True, "arm_phase": float("nan")}),
        ("nonpositive_positions", "nonpositive-positions-timeout", "field_scan_electric",
         {"source_charge": 5e-6, "scan": {"positions": [0.4, 0.0, -0.2]}}),
        ("infinite_charge", "bad-config-exit-1", "field_scan_electric",
         {"source_charge": float("inf")}),
        ("scan_trails", "bad-config-exit-0", "field_scan_electric",
         {"source_charge": 5e-6, "scan": {"trails": 10}}),
        ("scan_phi_cc", "bad-config-exit-0", "field_scan_electric",
         {"source_charge": 5e-6, "scan": {"phi_cc": 1e-3}}),
    )

    SCENARIOS = ("ev_bomb", "zeno", "matter_null", "field_scan_electric",
                 "field_scan_magnetic", "gravity_deflection")
    PATTERN: list = []  # per period: (scenario, route) or a BAD_CONFIGS entry

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.work = root / ".perfbench_work" / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.rel_errs: list[float] = []
        self.period = len(self.PATTERN)

    def op(self, i: int) -> Op:
        rng = np.random.default_rng([self.seed, self.stream, i])
        item = self.PATTERN[i % self.period]
        if len(item) == 2:
            scenario, route = item
            doc = {"scenario": scenario, "seed": int(rng.integers(0, 2**32)),
                   "parameters": self._draw(scenario, rng)}
            out = self.work / f"out{i}.json"
            if route == "subcommand":
                argv = self._subcommand_args(doc) + ["--output", str(out)]
            else:
                cfg = self.work / f"cfg{i}.json"
                cfg.write_text(json.dumps(doc))
                argv = ["run", str(cfg), "--output", str(out)]
            return Op(i, f"{scenario}/{route}", {"argv": argv, "doc": doc, "out": out})
        name, defect, scenario, params = item
        doc = {"scenario": scenario, "seed": int(rng.integers(0, 2**32)), "parameters": params}
        cfg = self.work / f"bad{i}.json"
        cfg.write_text(json.dumps(doc))  # NaN and Infinity pass through as JSON extensions
        return Op(i, f"bad/{name}", {"argv": ["run", str(cfg)], "bad": True}, defect)

    @staticmethod
    def _draw(scenario, rng) -> dict:
        if scenario == "ev_bomb":
            return {"object_present": bool(rng.random() < 0.5), "object_arm": "upper",
                    "arm_phase": float(rng.uniform(0.0, 2.0 * math.pi)), "trials": 100_000}
        if scenario == "zeno":
            return {"n_cycles": int(rng.integers(16, 2000)),
                    "object_present": bool(rng.random() < 0.5)}
        if scenario == "matter_null":
            p = float(rng.uniform(0.2, 1.0 / 3.0))
            g = {"p_minus1": p, "p_0": p, "p_plus1": p, "loss": max(0.0, 1.0 - 3.0 * p)}
            return {"g1": g, "g2": g, "g3": g,
                    "arm_extra_phase": float(rng.uniform(0.0, 2.0 * math.pi))}
        if scenario == "field_scan_electric":
            return {"source_charge": float(rng.uniform(2.6e-6, 7.8e-6))}
        if scenario == "field_scan_magnetic":
            return {"field_vector": [0.0, 0.0, float(10.0 ** rng.uniform(-3.0, -2.0))],
                    "enclosed_flux": float(rng.uniform(0.0, 1e-6))}
        return {"delta_phi": float(10.0 ** rng.uniform(-10.0, -8.0)),
                "density": float(rng.uniform(5.0, 25.0))}

    @staticmethod
    def _subcommand_args(doc) -> list[str]:
        p = doc["parameters"]
        scenario = doc["scenario"]
        if scenario == "ev_bomb":
            args = ["ev-bomb", "--object-present" if p["object_present"] else "--no-object-present",
                    "--object-arm", p["object_arm"], "--arm-phase", repr(p["arm_phase"]),
                    "--trials", str(p["trials"])]
        elif scenario == "zeno":
            args = ["zeno", "--cycles", str(p["n_cycles"]),
                    "--object-present" if p["object_present"] else "--no-object-present"]
        elif scenario == "matter_null":
            args = ["matter-null", "--grating-p", repr(p["g1"]["p_0"]),
                    "--arm-extra-phase", repr(p["arm_extra_phase"])]
        elif scenario == "field_scan_electric":
            args = ["field-scan-electric", "--source-charge", repr(p["source_charge"])]
        elif scenario == "field_scan_magnetic":
            args = ["field-scan-magnetic", "--field-strength", repr(p["field_vector"][2]),
                    "--enclosed-flux", repr(p["enclosed_flux"])]
        else:
            args = ["gravity-deflection", "--target-deflection", repr(p["delta_phi"]),
                    "--density", repr(p["density"])]
        return args + ["--seed", str(doc["seed"])]

    def collect(self, op: Op, output):
        """Exit code plus the payload text read back from the record file."""
        out = op.params.get("out")
        if out is None or output != 0 or not out.exists():
            return output, None
        payload = json.loads(out.read_text())["payload"]
        out.unlink()
        out.with_suffix(".scan.tsv").unlink(missing_ok=True)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return output, text

    def check(self, op: Op, output) -> str | None:
        code, text = output
        if op.params.get("bad"):
            return None if code == 2 else (code if code == "timeout" else f"exit {code}")
        if code != 0:
            return "timeout" if code == "timeout" else f"exit {code}"
        expected = self._expected_payload(op)
        if text != expected:
            return "oracle: payload bytes differ from payload_text(run_scenario(config))"
        self._deflection_errors(op.params["doc"], json.loads(text))
        return None

    def _expected_payload(self, op: Op) -> str:
        if "expected" not in op.params:
            from ifmsim import cli, records

            config = cli.config_from_dict(json.loads(json.dumps(op.params["doc"])))
            op.params["expected"] = records.payload_text(cli.run_scenario(config))
        return op.params["expected"]

    def _deflection_errors(self, doc, payload) -> None:
        scenario = doc["scenario"]
        if scenario not in ("field_scan_electric", "field_scan_magnetic"):
            return
        p = doc["parameters"]
        for row in payload["results"]["per_position"]:
            d = row["distance_cm"]
            if scenario == "field_scan_electric":
                expected = oracles.kepler_deflection(
                    ELECTRON_Q, ELECTRON_M, START_X, BEAM_SPEED, p["source_charge"], d, EXIT_X)
            elif d > ScanMagnetic.half_widths[1]:
                expected = 0.0
            else:
                expected = oracles.box_arc_deflection(
                    ELECTRON_Q, ELECTRON_M, BEAM_SPEED, p["field_vector"][2],
                    2 * ScanMagnetic.half_widths[0])
            if expected != 0.0:
                self.rel_errs.append(abs(row["deflection_rad"] / expected - 1.0))


def _interleaved(valid, bad) -> list:
    """Valid ops alternating with bad configs, as long as there are any."""
    pattern = []
    for i, item in enumerate(valid):
        pattern.append(item)
        if i < len(bad):
            pattern.append(bad[i])
    return pattern


class CliCold(CliOps):
    """One fresh ``python -m ifmsim`` process per op.

    Each period of 20 ops runs every scenario through its subcommand and
    through ``run config.json``, plus the bad configs of ROADMAP item 3.
    Each op has a timeout; a timeout counts as a failed op.
    """

    name = "cli_cold"
    stream = 4
    timeout_s = 2.0
    PATTERN = _interleaved([(s, r) for s in CliOps.SCENARIOS for r in ("subcommand", "run")],
                           CliOps.BAD_CONFIGS)
    round_size = 2 * len(PATTERN)

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.traced = None  # for a traced pass: (cli_traced.py, directory for spans)
        self.peak_rss_kb = 0

    def command(self, op: Op) -> list[str]:
        if self.traced is None:
            return [sys.executable, "-m", "ifmsim", *op.params["argv"]]
        script, spans_dir = self.traced
        return [sys.executable, str(script), str(spans_dir / f"op{op.index}.json"),
                repr(time.monotonic()), *op.params["argv"]]

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-m", "ifmsim", "--version"], env=self.env,
                       cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=60, check=True)

    def execute(self, op: Op):
        """Exit code of one CLI process, or "timeout" once it has been killed.

        The child is reaped with ``os.wait4`` to read its own peak RSS.  A
        killed child's RSS depends on when the timeout hit it, so only
        processes that exit by themselves count toward ``peak_rss_mb``.
        """
        proc = subprocess.Popen(self.command(op), env=self.env, cwd=self.root,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        timer = threading.Timer(self.timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            return "timeout"
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode


class CliScan(CliOps):
    """``ifmsim.cli.main(argv)`` called in-process, for the scan scenarios.

    The ``cli`` and ``records`` layers cost a few ms per call, far less than
    the start-up of a fresh process, whose time on a shared host moves by
    more than a quarter between runs.  In-process they are measured without
    it.  Each period of 6 ops runs both field scans through their subcommand
    and through ``run config.json``, plus the two bad configs that run a whole
    scan; the other bad configs take about 2 ms, a size class of their own,
    and stay in ``cli_cold``.
    """

    name = "cli_scan"
    stream = 5
    PATTERN = _interleaved(
        [(s, r) for s in ("field_scan_electric", "field_scan_magnetic")
         for r in ("subcommand", "run")],
        [b for b in CliOps.BAD_CONFIGS if b[0] in ("scan_trails", "scan_phi_cc")])
    round_size = 8 * len(PATTERN)

    def warm_up(self) -> None:
        self.execute(Op(-1, "warm-up", {"argv": [
            "field-scan-electric", "--source-charge", "5.2e-06", "--seed", "0",
            "--output", str(self.work / "warm.json")]}))

    def execute(self, op: Op):
        """Exit code of ``cli.main``, with its printed output discarded."""
        from ifmsim import cli

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(op.params["argv"])
            except SystemExit as exc:
                return exc.code


WORKLOADS = {w.name: w for w in (ScanElectric, ScanMagnetic, PhotonBatch, CliCold, CliScan)}
