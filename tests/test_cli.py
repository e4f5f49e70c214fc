"""Configuration validation, record emission, determinism, and exit codes."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ifmsim import cli, fields, matter_mz, photon_mz, protocol
from ifmsim.cli import (
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    main,
    run_scenario,
)
from ifmsim.records import payload_text, record_text, scan_table_text


def make_config(scenario, seed, parameters, output_path=None) -> ScenarioConfig:
    doc = {"scenario": scenario, "seed": seed, "parameters": parameters}
    if output_path is not None:
        doc["output_path"] = output_path
    return config_from_dict(doc)


class TestParseConfig:
    def test_minimal_ev_bomb(self):
        config = config_from_dict(json.loads(
            '{"scenario": "ev_bomb", "seed": 1, "parameters": {"object_present": true}}'
        ))
        assert config.scenario == "ev_bomb"
        assert config.seed == 1
        assert config.output_path is None and callable(config.plan)

    def test_missing_seed_named(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(json.loads(
                '{"scenario": "ev_bomb", "parameters": {"object_present": true}}'))
        assert any(e.startswith("seed:") for e in err.value.errors)

    def test_zero_trials_is_range_error(self):
        doc = {
            "scenario": "field_scan_electric",
            "seed": 4,
            "parameters": {"source_charge": 5e-6, "scan": {"trials_per_position": 0}},
        }
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert any("trials_per_position" in e and ">= 1" in e for e in err.value.errors)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(json.loads('{"scenario": "warp_drive", "seed": 0}'))
        assert any(e.startswith("scenario:") for e in err.value.errors)

    def test_all_errors_collected(self):
        doc = {
            "scenario": "ev_bomb",
            "parameters": {"arm_phase": "big", "trials": 0},
            "bogus": 1,
        }
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        text = "\n".join(err.value.errors)
        assert "seed:" in text
        assert "parameters.object_present" in text
        assert "parameters.arm_phase" in text
        assert "parameters.trials" in text
        assert "bogus" in text
        assert len(err.value.errors) >= 5

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert main(["run", str(cfg)]) == 2
        assert "config: invalid JSON" in capsys.readouterr().err

    def test_invalid_seed_values(self):
        for seed in (-1, 2**64, 1.5, "7", True):
            with pytest.raises(ConfigError):
                config_from_dict(
                    {"scenario": "zeno", "seed": seed,
                     "parameters": {"n_cycles": 4, "object_present": True}}
                )

    def test_gravity_requires_some_mode(self):
        with pytest.raises(ConfigError):
            config_from_dict({"scenario": "gravity_deflection", "seed": 0, "parameters": {}})

    def test_gravity_density_needs_delta_phi(self, capsys):
        # density only sizes the delta_phi sphere; it used to be dropped silently.
        argv = ["gravity-deflection", "--mass", "1e30", "--impact-parameter", "1e9"]
        assert main([*argv, "--density", "3"]) == 2
        assert "parameters.density: " in capsys.readouterr().err
        assert main(argv) == 0

    @pytest.mark.parametrize("argv, where", [
        # 4GM/(b c^2) overflows: "deflection_rad": Infinity was written with exit 0.
        (["--mass", "1e308", "--impact-parameter", "1e-300"], "parameters.mass: "),
        # The radius overflows: "radius_km": Infinity was written with exit 0.
        (["--target-deflection", "1e300", "--density", "1e-300"], "parameters.delta_phi: "),
        # R is finite but R**3 overflows: an OverflowError exited 1.
        (["--target-deflection", "1e150", "--density", "1e-50"], "parameters.delta_phi: "),
        # R underflows to 0: the deflection check raised and exited 1.
        (["--target-deflection", "5e-324", "--density", "1e308"], "parameters.delta_phi: "),
        # 16 pi G rho underflows to 0: a ZeroDivisionError exited 1.
        (["--target-deflection", "1e-9", "--density", "5e-324"], "parameters.delta_phi: "),
    ], ids=["deflection-inf", "radius-inf", "mass-inf", "radius-zero", "density-subnormal"])
    def test_gravity_overflow_exits_2(self, argv, where, capsys):
        assert main(["gravity-deflection", *argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"configuration errors:\n  {where}")
        assert out == ""

    def test_gravity_density_defaults_to_iridium(self):
        record = run_scenario(make_config("gravity_deflection", 0, {"delta_phi": 1e-9}))
        assert record.payload["parameters"]["density"] == 22.6


def random_config(rng: np.random.Generator) -> ScenarioConfig:
    scenario = rng.choice(
        ["ev_bomb", "zeno", "matter_null", "gravity_deflection", "field_scan_electric"]
    )
    seed = int(rng.integers(0, 2**63))
    if scenario == "ev_bomb":
        params = {
            "object_present": bool(rng.integers(0, 2)),
            "object_arm": str(rng.choice(["upper", "lower"])),
            "arm_phase": float(rng.uniform(0, 6.28)),
            "trials": int(rng.integers(1, 10_000)),
        }
    elif scenario == "zeno":
        params = {"n_cycles": int(rng.integers(1, 100)), "object_present": True}
    elif scenario == "matter_null":
        p = float(rng.uniform(0.05, 1 / 3))
        g = {"p_minus1": p, "p_0": p, "p_plus1": p, "loss": 1 - 3 * p}
        params = {"g1": g, "g2": g, "g3": g, "arm_extra_phase": float(rng.uniform(0, 6.28))}
    elif scenario == "gravity_deflection":
        params = {"mass": float(rng.uniform(1e20, 1e33)), "impact_parameter": float(rng.uniform(1e5, 1e11))}
    else:
        params = {
            "source_charge": float(rng.uniform(1e-6, 1e-5)),
            "scan": {"trials_per_position": int(rng.integers(1, 300))},
        }
    output = None if rng.integers(0, 2) else f"out/{scenario}.json"
    return make_config(scenario, seed, params, output)


class TestGeneratedConfigs:
    def test_all_validate(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            config = random_config(rng)
            assert config.scenario in cli.SCENARIOS and callable(config.plan)


class TestRunScenario:
    def test_ev_bomb_dark_fraction(self):
        """A seeded million-trial run lands the dark fraction on 0.25."""
        config = make_config(
            "ev_bomb", 424242, {"object_present": True, "trials": 1_000_000}
        )
        record = run_scenario(config)
        results = record.payload["results"]
        assert results["analytic"]["dark"] == pytest.approx(0.25, abs=1e-12)
        sigma = np.sqrt(0.25 * 0.75 / 1_000_000)
        assert abs(results["frequencies"]["dark"] - 0.25) < 4 * sigma

    def test_gravity_record_reports_both_radii(self):
        config = make_config(
            "gravity_deflection", 0, {"delta_phi": 1e-9, "density": 22.6}
        )
        record = run_scenario(config)
        sphere = record.payload["results"]["sphere"]
        assert sphere["radius_km"] == pytest.approx(1887.686, rel=1e-5)
        assert sphere["reference_radius_km"] == 18_900.0
        assert sphere["ratio_to_reference"] == pytest.approx(0.09988, rel=1e-3)
        assert sphere["deflection_check"] == pytest.approx(1e-9, rel=1e-12)

    def test_zeno_payload(self):
        record = run_scenario(
            make_config("zeno", 0, {"n_cycles": 64, "object_present": True})
        )
        expected = np.cos(np.pi / 128) ** 128
        assert record.payload["results"]["p_success_detect"] == pytest.approx(
            expected, abs=1e-12
        )

    def test_matter_null_defaults(self):
        record = run_scenario(make_config("matter_null", 0, {}))
        results = record.payload["results"]
        assert results["probability_no_block"] < 1e-12
        assert results["probability_upper_blocked"] == pytest.approx(1 / 9, rel=1e-12)
        assert results["efficiency"] == pytest.approx(1 / 9, rel=1e-12)

    def test_field_scan_record_and_rows(self):
        config = make_config("field_scan_electric", 7, {"source_charge": 5e-6})
        record = run_scenario(config)
        scan = record.payload["results"]["scan"]
        assert scan["conclusive"] is True
        rows = record.payload["results"]["per_position"]
        assert len(rows) == scan["positions_scanned"]
        table = scan_table_text(rows)
        assert table.splitlines()[0].startswith("index\tdistance_cm")
        assert len(table.splitlines()) == len(rows) + 1

    def test_determinism_of_payload_bytes(self):
        for scenario, params in (
            ("ev_bomb", {"object_present": True, "trials": 50_000}),
            ("field_scan_electric", {"source_charge": 5e-6}),
            ("zeno", {"n_cycles": 16, "object_present": False}),
            ("gravity_deflection", {"delta_phi": 1e-9}),
        ):
            config = make_config(scenario, 99, params)
            first = payload_text(run_scenario(config))
            second = payload_text(run_scenario(config))
            assert first == second

    def test_record_text_contains_metadata_block(self):
        record = run_scenario(make_config("zeno", 1, {"n_cycles": 2, "object_present": True}))
        doc = json.loads(record_text(record))
        assert set(doc) == {"metadata", "payload"}
        assert doc["metadata"]["tool"] == "ifmsim"


# A complete particle block; each exit-2 case below spoils one key of it.
ELECTRON = {"q": -4.8e-10, "m": 9.11e-28, "r0": [-0.5, 0.0, 0.0], "v0": [1e9, 0.0, 0.0]}


def count_calls(monkeypatch, calls: Counter, func) -> None:
    """Count calls of ``func`` under its name, through every ``ifmsim`` module that binds it."""
    def counted(*args, **kwargs):
        calls[func.__name__] += 1
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "ifmsim" or name.startswith("ifmsim."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)


@pytest.fixture
def compute_calls(monkeypatch) -> Counter:
    """Calls of the two sampling loops; an exit-2 case must leave it empty."""
    calls: Counter = Counter()
    count_calls(monkeypatch, calls, protocol.run_field_scan)
    count_calls(monkeypatch, calls, photon_mz.run_ev_trials)
    return calls


class TestMainExitCodes:
    def test_success_and_outputs(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        out_path = tmp_path / "out" / "res.json"
        config_path.write_text(
            json.dumps(
                {
                    "scenario": "ev_bomb",
                    "seed": 5,
                    "output_path": str(out_path),
                    "parameters": {"object_present": True, "trials": 1000},
                }
            )
        )
        assert main(["run", str(config_path)]) == 0
        assert out_path.exists()
        doc = json.loads(out_path.read_text())
        assert doc["payload"]["scenario"] == "ev_bomb"
        assert "record written" in capsys.readouterr().out

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scenario": "ev_bomb", "parameters": {}}')
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "object_present" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        # The output path is a directory: one error line, no traceback.
        assert main(["zeno", "--cycles", "4", "--seed", "1", "--output", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [zeno]: cannot write {tmp_path}: ")
        assert err.count("\n") == 1

    def test_field_scan_summary_formats_step_error(self, capsys):
        argv = ["field-scan-electric", "--source-charge", "5e-6", "--cage-dv", "0.01"]
        assert main([*argv, "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "detection at distance 0.2 cm; field bound 0.000125 (step error 4.5e-05)"

    def test_signed_exponent_flag_value_in_equals_form(self, tmp_path):
        # argparse reads "-5e-6" after a space as an option; "--flag=-5e-6" passes it as a value.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "field_scan_electric", "seed": 3,
                                   "parameters": {"source_charge": -5e-6}}))
        flag = _fingerprint(["field-scan-electric", "--source-charge=-5e-6", "--seed", "3"],
                            tmp_path / "flag.json")
        assert flag == _fingerprint(["run", str(cfg)], tmp_path / "run.json")

    def test_scenario_subcommand(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(
            [
                "gravity-deflection",
                "--target-deflection",
                "1e-9",
                "--density",
                "22.6",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["results"]["sphere"]["reference_radius_km"] == 18900.0

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out1, out2, out3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "ev_bomb",
                    "seed": 5,
                    "parameters": {"object_present": True, "trials": 20_000},
                }
            )
        )
        assert main(["run", str(cfg), "--output", str(out1)]) == 0
        assert main(["run", str(cfg), "--output", str(out2), "--seed", "5"]) == 0
        assert main(["run", str(cfg), "--output", str(out3), "--seed", "6"]) == 0
        p1 = json.loads(out1.read_text())["payload"]
        p2 = json.loads(out2.read_text())["payload"]
        p3 = json.loads(out3.read_text())["payload"]
        assert p1 == p2
        assert p1["results"]["counts"] != p3["results"]["counts"]

    def test_scan_table_written(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(
            ["field-scan-electric", "--source-charge", "5e-6", "--seed", "7",
             "--output", str(out)]
        )
        assert code == 0
        table = (tmp_path / "scan.scan.tsv").read_text()
        header, *rows = table.splitlines()
        assert header.split("\t")[0] == "index"
        assert len(rows) >= 1

    @pytest.mark.parametrize("argv", [
        ["field-scan-electric", "--source-charge", "5e-6", "--seed", "7"],
        ["field-scan-magnetic", "--field-strength", "1e-3", "--seed", "7"],
    ], ids=lambda argv: argv[0])
    def test_scan_stdout_is_record_then_table(self, argv, tmp_path, capsys):
        # Without --output the record and the table go to stdout, after the summary.
        out = tmp_path / "scan.json"
        assert main([*argv, "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        table = (tmp_path / "scan.scan.tsv").read_text()
        assert stdout.endswith(table)
        record = stdout[stdout.index("{\n"):-len(table)]
        assert json.loads(record)["payload"] == json.loads(out.read_text())["payload"]

    def test_nonpositive_scan_positions_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "field_scan_electric", "seed": 1,
            "parameters": {"source_charge": 5e-6, "scan": {"positions": [0.4, 0.0, -0.2]}},
        }))
        assert main(["run", str(cfg)]) == 2
        assert "parameters.scan.positions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, parameters, field",
        [
            ("ev_bomb", {"object_present": True, "arm_phase": float("nan")},
             "parameters.arm_phase"),
            ("ev_bomb", {"object_present": True, "arm_phase": 10**400},
             "parameters.arm_phase"),
            ("field_scan_electric", {"source_charge": float("inf")},
             "parameters.source_charge"),
            ("field_scan_electric",
             {"source_charge": 5e-6,
              "particle": {"q": -4.8e-10, "m": 9.11e-28, "r0": [-0.5, 0.0, 0.0],
                           "v0": [float("nan"), 0.0, 0.0]}},
             "parameters.particle.v0"),
            ("field_scan_electric",
             {"source_charge": 5e-6, "scan": {"positions": [float("inf"), 0.3]}},
             "parameters.scan.positions"),
        ],
    )
    def test_nonfinite_numbers_exit_2(self, scenario, parameters, field, tmp_path, capsys):
        # Python's json reads and writes NaN and Infinity as extensions; an int
        # beyond float range would overflow to infinity.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": 1, "parameters": parameters}))
        assert main(["run", str(cfg)]) == 2
        assert f"{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, parameters, field",
        [
            ("field_scan_electric",
             {"source_charge": 5e-6,
              "particle": {"q": -4.8e-10, "m": 9.11e-28, "r0": [-0.5, 0.0, 0.0],
                           "v0": [3.0e8, 0.0, 0.0]}},
             "parameters.particle"),
            ("field_scan_magnetic",
             {"field_vector": [0.0, 0.0, 1e-3], "box_half_widths": [0.2, 0.0, 0.2]},
             "parameters.box_half_widths"),
            ("matter_null",
             {"g2": {"p_minus1": 0.5, "p_0": 0.5, "p_plus1": 0.5}},
             "parameters.g2"),
            # Unequal path weights leave no phase that nulls the detector.
            ("field_scan_electric",
             {"source_charge": 5e-6, "gratings": {"g1": {"p_minus1": 0.2, "p_0": 0.3,
                                                         "p_plus1": 0.25, "loss": 0.25}}},
             "parameters.gratings"),
            ("field_scan_magnetic",
             {"field_vector": [0.0, 0.0, 1e-3],
              "gratings": {"g2": {"p_minus1": 0.2, "p_0": 0.3, "p_plus1": 0.25, "loss": 0.25}}},
             "parameters.gratings"),
        ],
    )
    def test_domain_rules_exit_2(self, scenario, parameters, field, tmp_path, capsys,
                                 compute_calls):
        # |v0| at 0.01c, a flat field box and probabilities summing to 1.5 pass
        # the type checks; the domain objects reject them before any compute.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": 1, "parameters": parameters}))
        assert main(["run", str(cfg)]) == 2
        assert f"{field}: " in capsys.readouterr().err
        assert not compute_calls

    @pytest.mark.parametrize(
        "scenario, source",
        [("field_scan_electric", {"source_charge": 5e-6}),
         ("field_scan_magnetic", {"field_vector": [0.0, 0.0, 1e-3]})],
    )
    @pytest.mark.parametrize(
        "parameters, field",
        [
            ({"geometry": {"exit_plane_x": -0.6, "source_anchor": [0, 0, 0],
                           "approach_direction": [0, 1, 0]}}, "parameters.particle"),
            ({"particle": {"q": -4.8e-10, "m": 9.11e-28, "r0": [-0.5, 0, 0],
                           "v0": [-1e8, 0, 0]}}, "parameters.particle"),
            ({"particle": {"q": -4.8e-10, "m": 9.11e-28, "r0": [-0.5, 0, 0],
                           "v0": [0, 1e8, 0]}}, "parameters.particle"),
            ({"geometry": {"exit_plane_x": 0.5, "source_anchor": [0, 0, 0],
                           "approach_direction": [0, 0, 0]}}, "parameters.geometry"),
            ({"geometry": {"exit_plane_x": 0.5, "source_anchor": [0, 0, 0],
                           "approach_direction": [1.7e308, 1.7e308, 0]}}, "parameters.geometry"),
            ({"geometry": {"exit_plane_x": 0.5, "source_anchor": [0, 0, 0],
                           "approach_direction": [5e-324, 5e-324, 0]}}, "parameters.geometry"),
            ({"particle": {"q": -4.8e-10, "m": 9.11e-28, "r0": [-0.5, 0, 0],
                           "v0": [1e-323, 5e-324, 0]}}, "parameters.particle"),
        ],
        ids=["plane-behind", "moving-away", "moving-sideways", "no-approach-direction",
             "huge-approach-direction", "subnormal-approach-direction", "subnormal-speed"],
    )
    def test_bad_launch_and_geometry_exit_2(self, scenario, source, parameters, field,
                                            tmp_path, capsys, compute_calls):
        # The first four exited 1 after calibration had run.  A huge or
        # subnormal approach_direction and a subnormal |v0| ran on a wrong unit
        # vector: exit 1, or exit 0 with a wrong payload.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": 1,
                                   "parameters": {**source, **parameters}}))
        assert main(["run", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"configuration errors:\n  {field}: ")
        assert out == ""
        assert not compute_calls

    @pytest.mark.parametrize(
        "scenario, parameters, code, message",
        [
            # q*Q/m overflows: RK4 ran all 2,000,000 steps on NaN (11.8 s), exit 1.
            ("field_scan_electric", {"source_charge": 1e300}, 2, "parameters.source_charge: "),
            # (1e300)^2 overflows inside RK4: the same NaN run.
            ("field_scan_electric", {"source_charge": 5e-6, "scan": {"positions": [1e300, 0.4]}},
             1, "error [field_scan_electric]: trajectory state not finite"),
            # The orbit turns back inside the box: RK4 ran 2,000,000 steps (6.1 s).
            ("field_scan_magnetic", {"field_vector": [0.0, 0.0, 1e300]}, 1,
             "error [field_scan_magnetic]: exit plane not reached"),
            # |q B|/(m c) overflows.
            ("field_scan_magnetic", {"field_vector": [0.0, 0.0, 1e308]}, 2,
             "parameters.field_vector: "),
        ],
        ids=["charge-overflow", "far-position", "trapped-orbit", "gyrofrequency-overflow"],
    )
    def test_extreme_sources_end_at_once(self, scenario, parameters, code, message,
                                         tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": 1, "parameters": parameters}))
        start = time.perf_counter()
        assert main(["run", str(cfg)]) == code
        assert time.perf_counter() - start < 1.0
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, parameters, field",
        [
            ("field_scan_electric", {"source_charge": 5e-6, "cages": {"potential_lower": 1e300}},
             "parameters.cages"),
            ("field_scan_magnetic", {"field_vector": [0.0, 0.0, 1e-3], "enclosed_flux": 1e308},
             "parameters.enclosed_flux"),
        ],
        ids=["cage-potential", "enclosed-flux"],
    )
    def test_calibration_phase_overflow_exits_2(self, scenario, parameters, field, tmp_path,
                                                capsys, compute_calls):
        # Each exited 1 after calibration: "third_grating_phase must lie in [0, 2*pi)".
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": 1, "parameters": parameters}))
        start = time.perf_counter()
        assert main(["run", str(cfg)]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert err.startswith(f"configuration errors:\n  {field}: the ")
        assert "not a finite float" in err
        assert out == ""
        assert not compute_calls

    def test_far_magnetic_position_exits_2(self, tmp_path, capsys):
        # The box moved to 1e200 cm rounds to zero extent: it exited 1 after calibration.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "field_scan_magnetic", "seed": 1,
            "parameters": {"field_vector": [0.0, 0.0, 1e-3], "scan": {"positions": [1e200, 0.06]}},
        }))
        assert main(["run", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err == ("configuration errors:\n  parameters.scan.positions: "
                       "field region box must have positive extent\n")
        assert out == ""

    @pytest.mark.filterwarnings("error")
    def test_far_electric_position_reads_a_zero_row(self, tmp_path):
        # The squared offset overflowed in eval_fields; under -W error that exited 1.
        out = tmp_path / "out.json"
        assert main(["field-scan-electric", "--source-charge", "5e-6",
                     "--positions", "1e200,0.4", "--output", str(out)]) == 0
        row = json.loads(out.read_text())["payload"]["results"]["per_position"][0]
        assert (row["distance_cm"], row["deflection_rad"], row["field_magnitude"]) == (
            1e200, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_tiny_speed_magnetic_scan_ends_in_the_box_path(self, tmp_path, capsys):
        # The approach point divided by |v0| = 0 and raised "r must be finite".
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "field_scan_magnetic", "seed": 1,
            "parameters": {"field_vector": [0.0, 0.0, 1e-3],
                           "particle": {"q": -4.8e-10, "m": 9.11e-28, "r0": [-0.5, 0, 0],
                                        "v0": [1e-300, 0, 0]}},
        }))
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error [field_scan_magnetic]: exit plane not reached: "
            "the path turns back in the field box\n")

    @pytest.mark.parametrize(
        "doc, extra, field",
        [
            ({"scenario": ["ev_bomb"], "seed": 1}, [], "scenario"),
            ({"scenario": "field_scan_electric", "seed": 1,
              "parameters": {"source_charge": 5e-6, "scan": [0.3]}},
             ["--trials", "5"], "parameters.scan"),
            (None, ["field-scan-electric", "--source-charge", "5e-6", "--positions", "a,b"],
             "parameters.scan.positions"),
        ],
    )
    def test_malformed_input_exits_2(self, doc, extra, field, tmp_path, capsys):
        # Each of these raised a TypeError or ValueError traceback (exit 1).
        argv = extra
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = ["run", str(cfg), *extra]
        assert main(argv) == 2
        assert f"{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, lines",
        [
            ({"scenario": "field_scan_electric", "seed": 1,
              "parameters": {"source_charge": 5e-6, "particle": {**ELECTRON, "m": 0}}},
             ["parameters.particle.m: must be > 0.0, got 0"]),
            ({"scenario": "field_scan_electric", "seed": 1,
              "parameters": {"source_charge": 5e-6, "scan": {"confidence_target": 1}}},
             ["parameters.scan.confidence_target: must be < 1, got 1"]),
            ({"scenario": "ev_bomb", "seed": 1,
              "parameters": {"object_present": True, "trials": 1.5}},
             ["parameters.trials: expected an integer, got float"]),
            ({"scenario": "field_scan_electric", "seed": 1,
              "parameters": {"source_charge": 5e-6, "particle": {**ELECTRON, "r0": [-0.5, 0]}}},
             ["parameters.particle.r0: expected a list of 3 numbers"]),
            ({"scenario": "field_scan_electric", "seed": 1,
              "parameters": {"source_charge": 5e-6, "scan": {"positions": [0.2, 0.3]}}},
             ["parameters.scan.positions: must be strictly decreasing"]),
            ([], ["config: expected a JSON object at the top level"]),
            ({"seed": 1}, ["scenario: required key is missing"]),
            ({"scenario": "zeno", "seed": 1, "output_path": 5,
              "parameters": {"n_cycles": 4, "object_present": True}},
             ["output_path: expected a string path"]),
            ({"scenario": "gravity_deflection", "seed": 1, "parameters": {"mass": 1e27}},
             ["parameters.impact_parameter: required key is missing"]),
            # The mode rules used to stop at the first one broken.
            ({"scenario": "gravity_deflection", "seed": 1,
              "parameters": {"mass": 1.0, "density": 3.0}},
             ["parameters.impact_parameter: required key is missing",
              "parameters.density: only used with delta_phi, which is missing"]),
            ({"scenario": "zeno", "seed": 1, "parameters": []},
             ["parameters: expected an object",
              "parameters.n_cycles: required key is missing",
              "parameters.object_present: required key is missing"]),
        ],
    )
    def test_config_errors_are_listed_exactly(self, doc, lines, tmp_path, capsys,
                                              compute_calls):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration errors:\n" + "".join(f"  {ln}\n" for ln in lines)
        assert captured.out == ""
        assert not compute_calls

    @pytest.mark.parametrize("scenario", ["zeno", "matter_null", "gravity_deflection"])
    def test_run_trials_needs_a_trial_count(self, scenario, tmp_path, capsys):
        # --trials was ignored for these scenarios, and the run exited 0.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": 7,
                                   "parameters": PIN_RUN_PARAMETERS[scenario]}))
        assert main(["run", str(cfg), "--trials", "500"]) == 2
        assert capsys.readouterr() == (
            "", f"configuration errors:\n  --trials: scenario '{scenario}' takes no trial count\n")

    def test_overlong_int_literal_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"scenario": "ev_bomb", "seed": 1, '
            '"parameters": {"object_present": true, "arm_phase": 1' + "0" * 5000 + "}}"
        )
        assert main(["run", str(cfg)]) == 2
        # Pythons with an int-string digit limit refuse the literal while parsing.
        expected = ("config: invalid JSON" if hasattr(sys, "get_int_max_str_digits")
                    else "parameters.arm_phase: ")
        assert expected in capsys.readouterr().err


# Every key of a magnetic scan written out, but for trials_per_position, which
# the gratings and confidence_target then derive.  The three gratings differ.
WRITTEN_MAGNETIC_SCAN = {
    "field_vector": [0.0, 0.0, 1e-3],
    "box_half_widths": [0.2, 0.08, 0.2],
    "enclosed_flux": 1e-7,
    "particle": {**ELECTRON, "v0": [1e8, 0.0, 0.0]},
    "geometry": {"exit_plane_x": 0.5, "source_anchor": [0.0, 0.0, 0.0],
                 "approach_direction": [0.0, 1.0, 0.0]},
    "cages": {"transit_time": 1e-8, "potential_upper": 0.0, "potential_lower": 0.0},
    "gratings": {"g1": {"p_minus1": 1 / 3, "p_0": 1 / 3, "p_plus1": 1 / 3, "loss": 0.0},
                 "g2": {"p_minus1": 0.3, "p_0": 0.3, "p_plus1": 0.3, "loss": 0.1},
                 "g3": {"p_minus1": 0.2, "p_0": 0.2, "p_plus1": 0.2, "loss": 0.4}},
    "scan": {"positions": [0.30, 0.22, 0.15, 0.10, 0.06], "confidence_target": 0.999,
             "phi_c": 1e-5, "dt": 1e-11},
}


@pytest.mark.parametrize("route",
                         ["run-written-magnetic", "bare-electric", "ev-bomb", "matter-null"])
def test_each_domain_object_is_built_once(route, tmp_path, capsys, monkeypatch):
    # One run used to build the particle 2x, the geometry 3x, each grating
    # 4x, the field box template 2x and call required_trials 2x.
    builds: Counter = Counter()

    def count_builds(cls, key):
        original = cls.__post_init__

        def counted(self):
            original(self)
            if (name := key(self)) is not None:
                builds[name] += 1

        monkeypatch.setattr(cls, "__post_init__", counted)

    # A source template sits on the anchor (0, 0, 0); rows and placement checks do not.
    count_builds(fields.TestParticle, lambda _: "particle")
    count_builds(fields.BeamGeometry, lambda _: "geometry")
    count_builds(matter_mz.GratingSpec, lambda g: ("grating", g.p_minus1, g.p_0, g.p_plus1, g.loss))
    count_builds(fields.UniformBRegion,
                 lambda box: "template" if not any(box.position) else None)
    count_builds(fields.PointCharge,
                 lambda charge: "template" if not any(charge.position) else None)
    count_builds(photon_mz.EvSetup, lambda _: "ev_setup")
    count_calls(monkeypatch, builds, protocol.required_trials)
    count_calls(monkeypatch, builds, matter_mz.ifm_efficiency)

    default_gratings = {("grating", 1 / 3, 1 / 3, 1 / 3, 0.0): 3}  # the three default gratings
    scan = {"particle": 1, "geometry": 1, "template": 1, "required_trials": 1, "ifm_efficiency": 1}
    if route == "ev-bomb":
        argv, expected = ["ev-bomb", "--trials", "10"], {"ev_setup": 1}
    elif route == "matter-null":
        argv, expected = ["matter-null"], {"ifm_efficiency": 1, **default_gratings}
    elif route == "bare-electric":
        argv = ["field-scan-electric", "--source-charge", "5e-6"]
        expected = {**scan, **default_gratings}
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "field_scan_magnetic", "seed": 3,
                                   "parameters": WRITTEN_MAGNETIC_SCAN}))
        argv = ["run", str(cfg)]
        expected = {**scan, **{("grating", *g.values()): 1
                               for g in WRITTEN_MAGNETIC_SCAN["gratings"].values()}}
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert builds == Counter(expected)


def test_back_to_back_main_calls_carry_no_state(capsys):
    # Each call's stdout must not depend on which calls ran before it in the process.
    argvs = [["field-scan-magnetic", "--field-strength", "5e-3"],
             ["field-scan-magnetic", "--field-strength", "2e-3", "--positions", "0.3,0.1"],
             ["ev-bomb", "--trials", "10"]]
    outputs = {}
    for order in (argvs, argvs[::-1]):
        for argv in order:
            assert main(argv) == 0
            out = re.sub(r'\n *"created": [^\n]*', "", capsys.readouterr().out)
            assert outputs.setdefault(tuple(argv), out) == out, argv
    assert len(set(outputs.values())) == 3


@pytest.mark.parametrize("argv, parameters", [
    (["ev-bomb"], {"object_present": True}),
    (["zeno", "--cycles", "64"], {"n_cycles": 64, "object_present": True}),
    (["matter-null"], {}),
    (["field-scan-electric", "--source-charge", "5e-6"], {"source_charge": 5e-6}),
    (["field-scan-magnetic", "--field-strength", "5e-3"], {"field_vector": [0.0, 0.0, 5e-3]}),
    (["gravity-deflection", "--target-deflection", "1e-9"], {"delta_phi": 1e-9}),
], ids=[name.replace("_", "-") for name in cli.SCENARIOS])
def test_subcommand_defaults_are_the_spec_defaults(argv, parameters, tmp_path, capsys):
    # Flag defaults (--trials, --object-arm, the phases, --grating-p, --cage-dv,
    # --enclosed-flux) restate the spec's; a run of the bare required keys must match.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": argv[0].replace("-", "_"), "seed": 0,
                               "parameters": parameters}))
    outputs = []
    for args in (argv, ["run", str(cfg)]):
        assert main(args) == 0
        outputs.append(re.sub(r'\n *"created": [^\n]*', "", capsys.readouterr().out))
    assert outputs[0] == outputs[1]


# Gratings whose interaction-free efficiency is p1 * p2 = 1e-12.
FAINT_GRATING = {"p_minus1": 1e-6, "p_0": 1e-6, "p_plus1": 1e-6, "loss": 1 - 3e-6}
FAINT_GRATINGS = {"g1": FAINT_GRATING, "g2": FAINT_GRATING, "g3": FAINT_GRATING}


class TestInputCaps:
    """Every cap exits at its field path during validation; no extreme value runs."""

    @staticmethod
    def errors(scenario, parameters):
        with pytest.raises(ConfigError) as err:
            make_config(scenario, 1, parameters)
        return err.value.errors

    def test_trials(self):
        assert cli.MAX_TRIALS == 10**7
        make_config("ev_bomb", 1, {"object_present": True, "trials": 10**7})
        (error,) = self.errors("ev_bomb", {"object_present": True, "trials": 10**7 + 1})
        assert error.startswith("parameters.trials: must be <= 10000000")

    def test_explicit_trials_per_position(self):
        scan = {"source_charge": 5e-6, "scan": {"trials_per_position": 10**7}}
        make_config("field_scan_electric", 1, scan)
        scan["scan"]["trials_per_position"] += 1
        (error,) = self.errors("field_scan_electric", scan)
        assert error.startswith("parameters.scan.trials_per_position: must be <= 10000000")

    @pytest.mark.parametrize("scenario, source", [
        ("field_scan_electric", {"source_charge": 5e-6}),
        ("field_scan_magnetic", {"field_vector": [0.0, 0.0, 1e-3]}),
    ])
    def test_derived_trials_per_position(self, scenario, source):
        # required_trials(1e-12, 0.999) = 6,907,755,278,979 trials per position.
        (error,) = self.errors(scenario, {**source, "gratings": FAINT_GRATINGS})
        assert error.startswith("parameters.scan.trials_per_position: 6907755278979 derived")
        # An explicit count skips the derivation.
        make_config(scenario, 1, {**source, "gratings": FAINT_GRATINGS,
                                  "scan": {"trials_per_position": 10}})

    def test_zero_efficiency_cannot_derive_trials(self):
        dark = {"p_minus1": 0.5, "p_0": 0.0, "p_plus1": 0.5}
        (error,) = self.errors("field_scan_electric",
                               {"source_charge": 5e-6, "gratings": {"g1": dark}})
        assert error.startswith("parameters.scan.trials_per_position: cannot derive")

    def test_positions(self):
        assert cli.MAX_POSITIONS == 100
        positions = [1.0 - 0.005 * i for i in range(101)]
        make_config("field_scan_electric", 1,
                    {"source_charge": 5e-6, "scan": {"positions": positions[:100]}})
        (error,) = self.errors("field_scan_electric",
                               {"source_charge": 5e-6, "scan": {"positions": positions}})
        assert error == "parameters.scan.positions: at most 100 positions, got 101"

    def test_dt(self):
        assert cli.MIN_DT == 1e-13
        make_config("field_scan_magnetic", 1,
                    {"field_vector": [0.0, 0.0, 1e-3], "scan": {"dt": 1e-13}})
        (error,) = self.errors("field_scan_magnetic",
                               {"field_vector": [0.0, 0.0, 1e-3], "scan": {"dt": 9e-14}})
        assert error.startswith("parameters.scan.dt: must be >= 1e-13")

    def test_run_trials_override_is_capped(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "field_scan_electric", "seed": 1,
                                   "parameters": {"source_charge": 5e-6}}))
        assert main(["run", str(cfg), "--trials", str(10**7 + 1)]) == 2
        assert "parameters.scan.trials_per_position: must be <=" in capsys.readouterr().err

    def test_faint_gratings_scan_exits_2_at_once(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "field_scan_electric", "seed": 1,
                                   "parameters": {"source_charge": 5e-6,
                                                  "gratings": FAINT_GRATINGS}}))
        start = time.perf_counter()
        assert main(["run", str(cfg)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "parameters.scan.trials_per_position: " in capsys.readouterr().err


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_commands():
    """The ``ifmsim ...`` lines of the README's Command line block, options in [] dropped."""
    block = README.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
            for line in block.splitlines() if line.startswith("ifmsim ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_run(argv, tmp_path):
    argv = list(argv)
    if argv[0] == "run":  # the README's example configuration document
        example = README.split("```json", 1)[1].split("```", 1)[0]
        argv[1] = str(tmp_path / argv[1])
        Path(argv[1]).write_text(example)
    if "--output" in argv:
        argv[argv.index("--output") + 1] = str(tmp_path / "out.json")
    else:
        argv += ["--output", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert (tmp_path / "out.json").exists()


def test_readme_library_block_runs():
    """The README's Library block imports from the top-level ``ifmsim``, as its comments say."""
    namespace: dict = {}
    exec(README.split("```python", 1)[1].split("```", 1)[0], namespace)
    assert namespace["particle"].v0 == (100000000.0, 0.0, 0.0)
    assert namespace["counts"] == namespace["same"]  # a seed gives a Generator's counts

# ---------------------------------------------------------------------------
# Contract pins: payload bytes, scan tables and the parser surface, recorded
# from the version 0.2.0 CLI with its hand-written per-scenario code.  The
# field_scan_magnetic pins were re-recorded at 0.3.0, where box rows became
# exact: only the deflection of the row whose beam crosses the box moved.
# ---------------------------------------------------------------------------

PIN_SEEDS = (1, 7, 42)

# Each scenario once through its subcommand and once through ``run``; the
# ``run-trials`` cases add ``run --trials`` for each scenario that takes a
# trial count (the others exit 2: test_run_trials_needs_a_trial_count).
PIN_SUBCOMMANDS = {
    "ev_bomb": ["ev-bomb", "--object-arm", "lower", "--arm-phase", "0.3", "--trials", "20000"],
    "zeno": ["zeno", "--cycles", "64"],
    "matter_null": ["matter-null", "--grating-p", "0.3", "--arm-extra-phase", "0.5"],
    "field_scan_electric": ["field-scan-electric", "--source-charge", "5e-6", "--cage-dv", "0.01"],
    "field_scan_magnetic": ["field-scan-magnetic", "--field-strength", "1e-3",
                            "--enclosed-flux", "1e-7"],
    "gravity_deflection": ["gravity-deflection", "--mass", "1.989e33", "--impact-parameter",
                           "6.96e10", "--target-deflection", "1e-9", "--density", "22.6"],
}

PIN_RUN_PARAMETERS = {
    "ev_bomb": {"object_present": True, "trials": 20_000},
    "zeno": {"n_cycles": 16, "object_present": False},
    "matter_null": {"g2": {"p_minus1": 0.25, "p_0": 0.5, "p_plus1": 0.25},
                    "arm_extra_phase": 1.0},
    "field_scan_electric": {"source_charge": 4e-6,
                            "scan": {"positions": [0.4, 0.3, 0.2, 0.1], "phi_c": 2e-3}},
    "field_scan_magnetic": {"field_vector": [0.0, 0.0, 2e-3],
                            "box_half_widths": [0.2, 0.1, 0.2]},
    "gravity_deflection": {"delta_phi": 1e-9},
}

# A scan whose echoed blocks hold integers, which the payload keeps as written.
PIN_INTEGER_SCAN = {
    "source_charge": 5e-6,
    "particle": {"q": -4.8e-10, "m": 9.11e-28, "r0": [-1, 0, 0], "v0": [100000000, 0, 0]},
    "geometry": {"exit_plane_x": 1, "source_anchor": [0, 0, 0],
                 "approach_direction": [0, 1, 0]},
    "cages": {"transit_time": 1e-8, "potential_upper": 0, "potential_lower": 0},
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(argv, out):
    """SHA-256 prefixes of the record's payload text and of its scan table."""
    assert main([*argv, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    table = out.with_suffix(".scan.tsv")
    return (_digest(json.dumps(payload, sort_keys=True, indent=2) + "\n"),
            _digest(table.read_text()) if table.exists() else None)


def _pin_cases():
    for scenario in PIN_SUBCOMMANDS:
        for seed in PIN_SEEDS:
            yield f"{scenario}/subcommand/{seed}"
            yield f"{scenario}/run/{seed}"
    yield "field_scan_electric/integers/7"
    for scenario in ("ev_bomb", "field_scan_electric", "field_scan_magnetic"):
        yield f"{scenario}/run-trials/7"


def _run_pin_case(case, tmp_path):
    scenario, route, seed = case.split("/")
    out = tmp_path / "out.json"
    if route == "subcommand":
        argv = [*PIN_SUBCOMMANDS[scenario], "--seed", seed]
    else:
        params = PIN_INTEGER_SCAN if route == "integers" else PIN_RUN_PARAMETERS[scenario]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": int(seed),
                                   "parameters": params}))
        argv = ["run", str(cfg)] + (["--trials", "500"] if route == "run-trials" else [])
    return _fingerprint(argv, out)


PINNED_FINGERPRINTS = {
    "ev_bomb/subcommand/1": ("fdc1e895f6fea179", None),
    "ev_bomb/run/1": ("5f889b8754d398a3", None),
    "ev_bomb/subcommand/7": ("c9eac572e7b5018c", None),
    "ev_bomb/run/7": ("e9a1267c72a5c3bd", None),
    "ev_bomb/subcommand/42": ("c2dbea5b802ff3dc", None),
    "ev_bomb/run/42": ("06b0529cd91d4e09", None),
    "zeno/subcommand/1": ("1d08394727b1eb5a", None),
    "zeno/run/1": ("235daac434d29f68", None),
    "zeno/subcommand/7": ("a7c42e8c031d3d1c", None),
    "zeno/run/7": ("993b303f369a1501", None),
    "zeno/subcommand/42": ("786f3d6fd5b3103c", None),
    "zeno/run/42": ("df4066e9413c6a58", None),
    "matter_null/subcommand/1": ("6fe2e68112bba384", None),
    "matter_null/run/1": ("c81a02eb9cbf8b9e", None),
    "matter_null/subcommand/7": ("8d600d734d4552da", None),
    "matter_null/run/7": ("7cfb4032fdbfe6fe", None),
    "matter_null/subcommand/42": ("4cf676f926381864", None),
    "matter_null/run/42": ("8d56e4f7ec3cedcb", None),
    "field_scan_electric/subcommand/1": ("131805451f09cfa7", "1bcd89cfcd514e24"),
    "field_scan_electric/run/1": ("b88f4e360a9dd949", "b181760a16bf04ba"),
    "field_scan_electric/subcommand/7": ("b924b877b43c9164", "febdbd487562459a"),
    "field_scan_electric/run/7": ("20637970bb821b9a", "04d3cbec2d1fa632"),
    "field_scan_electric/subcommand/42": ("1065cdb2d587f2a7", "1bcd89cfcd514e24"),
    "field_scan_electric/run/42": ("ea703a138684cd03", "d6500f7f359429c0"),
    "field_scan_magnetic/subcommand/1": ("353ee1269ec0cdfa", "fd68b6eb219ff04f"),
    "field_scan_magnetic/run/1": ("7e01648b1709fcde", "f91141712663e901"),
    "field_scan_magnetic/subcommand/7": ("7a6f43500d37da8a", "b85e7312f298f55e"),
    "field_scan_magnetic/run/7": ("bc0df23114a211a9", "c00e450beeee6ce9"),
    "field_scan_magnetic/subcommand/42": ("ba5dd3c277a34a43", "fd68b6eb219ff04f"),
    "field_scan_magnetic/run/42": ("a68406d896fdab45", "98837ecf88ca991e"),
    "gravity_deflection/subcommand/1": ("e1455bb4be91ca26", None),
    "gravity_deflection/run/1": ("dcd7bcdd533bc501", None),
    "gravity_deflection/subcommand/7": ("af2e7cdfa56660af", None),
    "gravity_deflection/run/7": ("2960ec58f53d09e8", None),
    "gravity_deflection/subcommand/42": ("b9261898c354e04e", None),
    "gravity_deflection/run/42": ("e609b3c0bc7891b4", None),
    "field_scan_electric/integers/7": ("e9f107f523438e4e", "8c372f6a0b0fcbb7"),
    "ev_bomb/run-trials/7": ("7865342c57066adc", None),
    "field_scan_electric/run-trials/7": ("45284fd45e7fb8a1", "21f295963cf50110"),
    "field_scan_magnetic/run-trials/7": ("6b8fd4cdfa2cd0ca", "5a09acf95f07eeb7"),
}


@pytest.mark.parametrize("case", list(_pin_cases()))
def test_payload_and_scan_table_pinned(case, tmp_path):
    assert _run_pin_case(case, tmp_path) == PINNED_FINGERPRINTS[case]


def _parser_surface():
    from ifmsim.cli import build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.choices and a.dest == "command")
    surface = {}
    for name, sub in subparsers.choices.items():
        surface[name] = [
            (tuple(a.option_strings) or a.dest, a.default, a.required,
             tuple(a.choices) if a.choices else None, getattr(a.type, "__name__", None))
            for a in sub._actions if a.dest != "help"
        ]
    return surface


PINNED_PARSER_SURFACE = {
    "run": [
        ("config", None, True, None, None),
        (("--seed",), None, False, None, "int"),
        (("--output",), None, False, None, None),
        (("--trials",), None, False, None, "int"),
    ],
    "ev-bomb": [
        (("--object-present", "--no-object-present"), True, False, None, None),
        (("--object-arm",), "upper", False, ("upper", "lower"), None),
        (("--arm-phase",), 0.0, False, None, "float"),
        (("--trials",), 100000, False, None, "int"),
        (("--seed",), 0, False, None, "int"),
        (("--output",), None, False, None, None),
    ],
    "zeno": [
        (("--cycles",), None, True, None, "int"),
        (("--object-present", "--no-object-present"), True, False, None, None),
        (("--seed",), 0, False, None, "int"),
        (("--output",), None, False, None, None),
    ],
    "matter-null": [
        (("--grating-p",), 0.3333333333333333, False, None, "float"),
        (("--arm-extra-phase",), 0.0, False, None, "float"),
        (("--seed",), 0, False, None, "int"),
        (("--output",), None, False, None, None),
    ],
    "field-scan-electric": [
        (("--source-charge",), None, True, None, "float"),
        (("--phi-c",), None, False, None, "float"),
        (("--positions",), None, False, None, None),
        (("--trials",), None, False, None, "int"),
        (("--cage-dv",), 0.0, False, None, "float"),
        (("--seed",), 0, False, None, "int"),
        (("--output",), None, False, None, None),
    ],
    "field-scan-magnetic": [
        (("--field-strength",), None, True, None, "float"),
        (("--enclosed-flux",), 0.0, False, None, "float"),
        (("--phi-c",), None, False, None, "float"),
        (("--positions",), None, False, None, None),
        (("--trials",), None, False, None, "int"),
        (("--seed",), 0, False, None, "int"),
        (("--output",), None, False, None, None),
    ],
    "gravity-deflection": [
        (("--mass",), None, False, None, "float"),
        (("--impact-parameter",), None, False, None, "float"),
        (("--target-deflection",), None, False, None, "float"),
        (("--density",), None, False, None, "float"),
        (("--seed",), 0, False, None, "int"),
        (("--output",), None, False, None, None),
    ],
}


def test_parser_surface_pinned():
    assert _parser_surface() == PINNED_PARSER_SURFACE


# Runs cli.main with every import of numpy failing.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from ifmsim import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, code", [
    (["zeno", "--cycles", "64"], 0),
    (["matter-null"], 0),
    (["gravity-deflection", "--target-deflection", "1e-9"], 0),
    (["run", "zeno.json"], 0),
    (["--help"], 0),
    (["zeno", "--cycles", "0"], 2),
    # The control: the bomb test draws with numpy, so the block stops it.
    (["ev-bomb"], 1),
], ids=["zeno", "matter-null", "gravity", "run-zeno", "help", "zeno-exit-2", "ev-bomb-control"])
def test_runs_without_numpy(argv, code, tmp_path):
    (tmp_path / "zeno.json").write_text(json.dumps(
        {"scenario": "zeno", "seed": 7, "parameters": PIN_RUN_PARAMETERS["zeno"]}))
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert ("numpy" in done.stderr) == (code == 1)
