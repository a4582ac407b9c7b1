import json
import os

import numpy as np
import pytest

import hjsim
from hjsim import cli, pathio
from hjsim.model import ConfigError, model_to_dict

from helpers import reference_model, supercritical_model, two_component_model


def write_config(tmp_path, model=None, run=None, name="model.json"):
    d = model_to_dict(model or reference_model())
    if run:
        d["run"] = run
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path))
        assert cfg.grid_dt == 0.01
        assert cfg.burn_in is None
        cfg.horizon = 50.0
        assert cfg.effective_burn_in() == pytest.approx(5.0)
        assert cfg.seed == 0 and cfg.n_paths == 1

    def test_run_section_overrides_defaults(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, run={"grid_dt": 0.5, "seed": 7}))
        assert cfg.grid_dt == 0.5
        assert cfg.seed == 7

    def test_invalid_alpha_names_field(self, tmp_path):
        d = model_to_dict(reference_model())
        d["kernel"]["alpha"] = [0.0]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ConfigError) as err:
            cli.parse_config(str(p))
        assert err.value.field == "kernel.alpha[0][0]"

    def test_dimension_mismatch(self, tmp_path):
        d = model_to_dict(reference_model())
        d["M"] = 2
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ConfigError) as err:
            cli.parse_config(str(p))
        assert err.value.field == "rates"

    def test_unknown_run_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_config(tmp_path, run={"notathing": 1}))
        assert err.value.field == "run.notathing"

    def test_round_trip(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, run={"grid_dt": 0.25,
                                                           "seed": 9,
                                                           "horizon": 4.0}))
        serialized = tmp_path / "again.json"
        serialized.write_text(json.dumps(cli.serialize_config(cfg)))
        again = cli.parse_config(str(serialized))
        assert again == cfg
        assert cli.config_digest(again) == cli.config_digest(cfg)

    def test_digest_changes_with_any_field(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path))
        base = cli.config_digest(cfg)
        cfg.grid_dt = 0.123
        assert cli.config_digest(cfg) != base
        cfg.grid_dt = 0.01
        assert cli.config_digest(cfg) == base


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "runs"
        rc = cli.main(["simulate", "--config", config, "--horizon", "5",
                       "--paths", "2", "--seed", "3", "--grid-dt", "0.5",
                       "--format", "jsonl", "--out", str(out)])
        assert rc == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "path_00000.jsonl",
                                           "path_00001.jsonl"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["per_path_seeds"]) == 2
        assert not [f for f in os.listdir(out) if ".tmp" in f]

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        args = ["simulate", "--config", config, "--horizon", "5", "--paths", "2",
                "--seed", "3", "--grid-dt", "0.5", "--format", "bin"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("path_00000.hjsm", "path_00001.hjsm"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_parallel_workers_byte_identical(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        args = ["simulate", "--config", config, "--horizon", "5", "--paths", "3",
                "--seed", "5", "--grid-dt", "0.5", "--format", "jsonl"]
        monkeypatch.setenv("HJS_THREADS", "1")
        assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("HJS_THREADS", "2")
        assert cli.main(args + ["--out", str(tmp_path / "par")]) == 0
        for i in range(3):
            name = f"path_{i:05d}.jsonl"
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "par" / name).read_bytes()

    def test_binary_output_readable(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "bin"
        cli.main(["simulate", "--config", config, "--horizon", "5", "--paths", "1",
                  "--seed", "3", "--grid-dt", "0.5", "--format", "bin",
                  "--out", str(out)])
        with open(out / "path_00000.hjsm", "rb") as fh:
            path = pathio.read_binary(fh)
        assert path.horizon == 5.0

    def test_missing_horizon_reports_field(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["field"] == "run.horizon"

    @pytest.mark.parametrize("key, value", [
        ("horizon", "10"), ("seed", 1.5), ("n_paths", "2"), ("grid_dt", None),
        ("horizon", True), ("bins", 2.5), ("times", [1.0, "2"]), ("integrator", 1),
        ("horizon", 10**400)])
    def test_wrongly_typed_run_field_is_structured_error(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, run={key: value})
        rc = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("ConfigError", f"run.{key}")

    @pytest.mark.parametrize("block, key, value, field", [
        ("kernel", "c", ["a", 0.2, 0.1, 0.4], "kernel.c[0][0]"),
        ("kernel", "c", [True, 0.2, 0.1, 0.4], "kernel.c[0][0]"),
        ("kernel", "c", [[0.3, 0.2], [0.1]], "kernel.c"),
        ("kernel", "c", [[0.3, 0.2], 0.1, 0.4, 0.2], "kernel.c[0][0]"),
        ("kernel", "c", "0.3", "kernel.c"),
        ("kernel", "alpha", [1.0, 1.0, None, 1.0], "kernel.alpha[1][0]"),
        ("kernel", "alpha", [[1.0, 1.0], [1.0, {}]], "kernel.alpha[1][1]"),
        ("initial", "y", [0.0, 0.0, 0.0, False], "initial.y[1][1]"),
        ("initial", "y", [0.0, 0.0, 10**400, 0.0], "initial.y[1][0]"),
        ("initial", "y", [0.0, 0.0, 0.0], "initial.y")])
    def test_bad_matrix_entry_is_structured_error(self, tmp_path, capsys, block, key, value,
                                                  field):
        d = model_to_dict(two_component_model())
        d[block][key] = value
        d["run"] = {"horizon": 1.0}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(d))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("ConfigError", field)

    def test_oversized_grid_is_structured_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = cli.main(["simulate", "--config", config, "--horizon", "1e6",
                       "--grid-dt", "1e-9", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SimulationLimitError"


class TestOtherCommands:
    def test_check_stability_supercritical_exits_zero(self, tmp_path):
        config = write_config(tmp_path, model=supercritical_model())
        out = tmp_path / "stab.json"
        rc = cli.main(["check-stability", "--config", config, "--points", "2000",
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["stability_ok"] is False
        assert os.path.exists(str(out) + ".manifest.json")

    def test_ergodic_test(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "erg.json"
        rc = cli.main(["ergodic-test", "--config", config, "--horizon", "100",
                       "--burn-in", "10", "--g", "rate", "--grid-dt", "0.1",
                       "--integrator", "exact-ou", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["estimate"]["value"] == pytest.approx(2.0, abs=0.8)
        masses = np.asarray(report["histogram"]["bin_masses"])
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)
        assert report["histogram"]["min_mass_on_compact"] > 0

    def test_mixing_test_writes_json_and_csv(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "mix.json"
        rc = cli.main(["mixing-test", "--config", config, "--times", "0.5,1,2,3",
                       "--paths", "300", "--bins", "8",
                       "--start-a", '{"x": -3, "y": [0.0]}',
                       "--start-b", '{"x": 3, "y": [3.0]}',
                       "--grid-dt", "3", "--integrator", "exact-ou",
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert "curve" in report
        csv = (tmp_path / "mix.csv").read_text().splitlines()
        assert csv[0] == "t,tv,fit"
        assert len(csv) == 5

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_config_file_is_structured_error(self, tmp_path, capsys):
        rc = cli.main(["check-stability", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_bad_start_state_reports_field(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = cli.main(["mixing-test", "--config", config, "--times", "1,2",
                       "--paths", "10", "--start-a", "{bad json",
                       "--start-b", '{"x": 0, "y": [0]}',
                       "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "start-a"
