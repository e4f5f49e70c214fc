"""Configuration validation, record emission, determinism, and exit codes."""

import json
import sys

import numpy as np
import pytest

from ifmsim.cli import (
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    emit_config,
    main,
    parse_config,
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
        config = parse_config(
            '{"scenario": "ev_bomb", "seed": 1, "parameters": {"object_present": true}}'
        )
        assert config.scenario == "ev_bomb"
        assert config.seed == 1
        assert config.parameters == {"object_present": True}

    def test_missing_seed_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"scenario": "ev_bomb", "parameters": {"object_present": true}}')
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
            parse_config('{"scenario": "warp_drive", "seed": 0}')
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

    def test_invalid_json(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{nope")
        assert any("invalid JSON" in e for e in err.value.errors)

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


class TestRoundTrip:
    def test_emit_parse_identity_over_generated_configs(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            config = random_config(rng)
            assert parse_config(emit_config(config)) == config


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
        assert record.scan_rows is not None
        assert len(record.scan_rows) == scan["positions_scanned"]
        table = scan_table_text(record.scan_rows)
        assert table.splitlines()[0].startswith("index\tdistance_cm")
        assert len(table.splitlines()) == len(record.scan_rows) + 1

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

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # Valid configuration whose unequal path weights make a perfect null
        # impossible, so the scan refuses to run.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "field_scan_electric",
                    "seed": 1,
                    "parameters": {
                        "source_charge": 5e-6,
                        "gratings": {
                            "g1": {"p_minus1": 0.25, "p_0": 0.5, "p_plus1": 0.25},
                            "g2": {"p_minus1": 0.1, "p_0": 0.4, "p_plus1": 0.5},
                        },
                    },
                }
            )
        )
        assert main(["run", str(cfg)]) == 1
        assert "not calibrated" in capsys.readouterr().err

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
        ],
    )
    def test_domain_rules_exit_2(self, scenario, parameters, field, tmp_path, capsys):
        # |v0| at 0.01c, a flat field box and probabilities summing to 1.5 pass
        # the type checks; the domain objects reject them before any compute.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": 1, "parameters": parameters}))
        assert main(["run", str(cfg)]) == 2
        assert f"{field}: " in capsys.readouterr().err

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
