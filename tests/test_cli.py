import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import hjsim
from hjsim import cli, pathio
from hjsim.model import ConfigError, model_to_dict

from helpers import (constant_rate_config, make_model, pure_ou_model, reference_model,
                     supercritical_model, two_component_model)


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

    def test_streamed_jsonl_is_the_writer_text(self, tmp_path):
        # each file goes to disk block by block; its bytes are those of the
        # pinned writer, as the Euler-Maruyama and exact-OU runs give them
        config = write_config(tmp_path, model=two_component_model())
        for integrator in ("em", "exact-ou"):
            out = tmp_path / integrator
            assert cli.main(["simulate", "--config", config, "--horizon", "20", "--paths", "2",
                             "--seed", "23", "--grid-dt", "0.25", "--integrator", integrator,
                             "--em-step", "0.05", "--out", str(out)]) == 0
            integ = hjsim.IntegratorConfig(hjsim.EulerMaruyama(0.05) if integrator == "em"
                                           else hjsim.ExactOU(), 0.25)
            paths = hjsim.simulate_ensemble(two_component_model(), 20.0, integ, 23, 2)
            for i, path in enumerate(paths):
                assert (out / f"path_{i:05d}.jsonl").read_bytes() == pathio.dumps_jsonl(path)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def half_then_fail(path, fh):
            fh.write(next(pathio._jsonl_blocks(path)))
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_jsonl", half_then_fail)
        out = tmp_path / "runs"
        rc = cli.main(["simulate", "--config", write_config(tmp_path), "--horizon", "5",
                       "--paths", "2", "--seed", "3", "--grid-dt", "0.5", "--out", str(out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["message"] == "disk full"
        assert os.listdir(out) == []

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

    def test_too_many_components_is_structured_error(self, tmp_path, capsys):
        d = constant_rate_config(65)
        d["run"] = {"horizon": 1.0}
        config = tmp_path / "wide.json"
        config.write_text(json.dumps(d))
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("ConfigError", "M")
        assert "at most 64" in err["message"]

    def test_overflowing_transition_is_structured_error(self, tmp_path, capsys):
        # a repelling drift over one interval of 1000: exp(1000) overflows
        d = constant_rate_config(1)
        d["rates"] = [{"type": "constant", "level": 1e-6}]
        d["coefficients"]["drift"]["rate"] = -1.0
        config = tmp_path / "repelling.json"
        config.write_text(json.dumps(d))
        rc = cli.main(["simulate", "--config", str(config), "--horizon", "1000",
                       "--grid-dt", "1000", "--integrator", "exact-ou",
                       "--out", str(tmp_path / "x")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "OverflowError"

    def test_exact_ou_on_state_dependent_noise_is_structured_error(self, tmp_path, capsys):
        d = model_to_dict(reference_model())
        d["coefficients"]["diffusion"] = {"type": "smooth_bounded", "lo": 0.5, "hi": 1.5}
        config = tmp_path / "smooth.json"
        config.write_text(json.dumps(d))
        rc = cli.main(["simulate", "--config", str(config), "--horizon", "1",
                       "--integrator", "exact-ou", "--out", str(tmp_path / "x")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ValueError",
            "message": "exact transition requires a constant diffusion coefficient"}

    def test_oversized_grid_is_structured_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = cli.main(["simulate", "--config", config, "--horizon", "1e6",
                       "--grid-dt", "1e-9", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SimulationLimitError"

    def test_too_fine_an_em_step_is_structured_error(self, tmp_path, capsys):
        # 10**12 substeps per path, refused before anything is drawn
        config = write_config(tmp_path)
        rc = cli.main(["simulate", "--config", config, "--horizon", "1", "--grid-dt", "0.5",
                       "--em-step", "1e-12", "--out", str(tmp_path / "x")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "SimulationLimitError"
        assert err["message"] == ("an Euler-Maruyama step of 1e-12 over 1.0 gives 1e+12 "
                                  "substeps, more than 1e+08")


# what a serial run must not import: scipy is a test-only dependency, and
# only a run with workers > 1 starts a process pool
_UNLOADED = ("scipy", "concurrent.futures.process", "multiprocessing")

_IMPORT_PROBE = """\
import sys
import hjsim.cli
def heavy():
    return sorted(m for m in sys.modules if m.startswith(tuple(p + "." for p in {unloaded!r}))
                  or m in {unloaded!r})
after_import = heavy()
rc = hjsim.cli.main(["simulate", "--config", {config!r}, "--horizon", "5", "--paths", "1",
                     "--seed", "1", "--out", {out!r}])
print(after_import, rc, heavy())
"""


def test_cli_imports_neither_scipy_nor_a_process_pool(tmp_path):
    probe = _IMPORT_PROBE.format(unloaded=_UNLOADED, config=write_config(tmp_path),
                                 out=str(tmp_path / "runs"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hjsim.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.split() == ["[]", "0", "[]"]
    assert (tmp_path / "runs" / "path_00000.jsonl").exists()


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

    @staticmethod
    def _strict_json(text):
        def refuse(name):
            raise ValueError(f"{name} is not JSON")
        return json.loads(text, parse_constant=refuse)

    def _check_stability_radius(self, tmp_path, capsys, radius, model=None):
        """The exit status, stderr lines and report (None if not written) of
        check-stability on the model (the reference model by default) over a
        scan box of ``radius``; a warning counts as a stderr line."""
        out = tmp_path / "stab.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["check-stability", "--config", write_config(tmp_path, model),
                           "--scan-radius", radius, "--points", "1000", "--out", str(out)])
        lines = capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]
        return rc, lines, self._strict_json(out.read_text()) if out.exists() else None

    def test_check_stability_where_v_overflows_fails_the_fit(self, tmp_path, capsys):
        rc, lines, report = self._check_stability_radius(tmp_path, capsys, "5000")
        assert rc == 0 and lines == []
        drift = report["drift"]
        assert drift["success"] is False and drift["d1"] is None
        assert "not finite" in drift["message"]

    def test_check_stability_refuses_a_radius_whose_square_overflows(self, tmp_path, capsys):
        rc, lines, report = self._check_stability_radius(tmp_path, capsys, "1e160")
        assert rc == 1 and report is None and len(lines) == 1
        err = self._strict_json(lines[0])
        assert err == {"error": "ValueError",
                       "message": "scan_radius 1e+160 must be > 0 with a finite square"}

    @staticmethod
    def _bounded_drift_model(noise):
        """A bounded drift of amplitude 1 with constant noise ``noise``: the
        polynomial frame, where sigma_hi^2 = noise^2."""
        return make_model(
            1, [{"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 1.0}],
            [0.5], [1.0], {"type": "bounded_smooth", "amplitude": 1.0, "steepness": 1.0},
            {"type": "constant", "value": noise}, {"type": "linear_damping", "eta": 0.5})

    def test_check_stability_bounds_the_exponent_by_sigma_squared(self, tmp_path, capsys):
        # A|x|^m < 0 far out for m < 1 + 2 gamma / sigma^2; with sigma = 2 a
        # bound of 1 + 2 gamma / sigma^4 would leave no exponent above 2
        rc, lines, report = self._check_stability_radius(
            tmp_path, capsys, "20", self._bounded_drift_model(2.0))
        assert rc == 0 and lines == []
        witnesses = report["frame_witnesses"]
        assert report["frame"] == "polynomial"
        assert witnesses["m_interval"] == [2.0, 1.0 + 2.0 * witnesses["gamma"] / 4.0]
        assert report["drift"]["success"] and report["drift"]["n_violations"] == 0

    def test_check_stability_without_noise_writes_null_for_no_exponent_bound(
            self, tmp_path, capsys):
        rc, lines, report = self._check_stability_radius(
            tmp_path, capsys, "20", self._bounded_drift_model(0.0))
        assert rc == 0 and lines == []
        assert report["frame"] == "polynomial"
        assert report["frame_witnesses"]["m_interval"] == [2.0, None]

    def test_check_stability_without_noise_scans_at_twice_the_lower_exponent(
            self, tmp_path, capsys):
        # the exponent interval (2, inf) has no midpoint; m = 4 keeps
        # V1 = 1 + |x|^m finite on the scan box, where the drift holds
        rc, lines, report = self._check_stability_radius(
            tmp_path, capsys, "20", self._bounded_drift_model(0.0))
        assert rc == 0 and lines == []
        drift = report["drift"]
        assert drift["success"] is True and drift["n_violations"] == 0
        assert drift["d1"] > 0 and drift["d2"] > 0

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

    def test_ergodic_test_on_a_coarse_grid_at_a_huge_horizon(self, tmp_path):
        # the 10 grid times of step 1e19 to horizon 1e20, once refused as
        # about 1e8 samples
        config = write_config(tmp_path, pure_ou_model(rate_level=1e-300))
        out = tmp_path / "erg.json"
        rc = cli.main(["ergodic-test", "--config", config, "--integrator", "exact-ou",
                       "--horizon", "1e20", "--grid-dt", "1e19", "--out", str(out)])
        assert rc == 0
        masses = json.loads(out.read_text())["histogram"]["bin_masses"]
        assert sum(masses) == pytest.approx(1.0, abs=1e-9)

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

    def test_mixing_test_refuses_times_that_are_not_numbers(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["mixing-test", "--config", write_config(tmp_path), "--times=a,b",
                      "--start-a", '{"x": 0, "y": [0.0]}', "--start-b", '{"x": 1, "y": [0.0]}',
                      "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert info.value.code == 2 and err.startswith("usage: hjsim mixing-test")
        assert err.rstrip().endswith("argument --times: bad times list 'a,b'")
        assert not (tmp_path / "m.json").exists()

    def test_times_too_small_to_fit_give_one_error_line(self, tmp_path, capfd):
        # nothing from numpy or LAPACK reaches stdout or stderr: only the error
        config = write_config(tmp_path)
        rc = cli.main(["mixing-test", "--config", config, "--times", "0,1e-300",
                       "--paths", "50", "--bins", "4",
                       "--start-a", '{"x": -3, "y": [0.0]}',
                       "--start-b", '{"x": 3, "y": [3.0]}',
                       "--grid-dt", "0.5", "--integrator", "exact-ou",
                       "--out", str(tmp_path / "m.json")])
        out, err = capfd.readouterr()
        assert rc == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "ValueError",
             "message": "the times [0.0, 1e-300] are too small to fit a decay rate"}]

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

    def test_config_that_is_not_json_is_structured_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{bad")
        rc = cli.main(["simulate", "--config", str(config), "--horizon", "1",
                       "--out", str(tmp_path / "x")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("ConfigError", "<root>")
        assert err["message"].startswith("<root>: not valid JSON: ")

    SAME_START = ["--start-a", '{"x": 0, "y": [0.0]}', "--start-b", '{"x": 0, "y": [0.0]}']

    @pytest.mark.parametrize("argv, env, payload", [
        (["simulate", "--horizon", "1"], {"HJS_THREADS": "abc"},
         {"error": "ConfigError", "field": "HJS_THREADS",
          "message": "HJS_THREADS: must be an integer"}),
        # the only skeleton time past the burn-in of 1e-301 is the horizon
        (["ergodic-test", "--horizon", "1e-300"], {},
         {"error": "ValueError", "message": "too few skeleton samples after burn-in"}),
        (["ergodic-test", "--horizon", "10", "--grid-dt", "100"], {},
         {"error": "ValueError", "message": "no samples after burn-in"}),
        # two ensembles from one start differ by their noise alone
        (["mixing-test", "--times", "1,2,3", "--paths", "100", "--bins", "4", *SAME_START,
          "--grid-dt", "3", "--integrator", "exact-ou"], {},
         {"error": "ValueError", "message": "TV estimates sit below the noise floor at all "
                                            "but one time; shorten the times or add paths"}),
        (["mixing-test", "--times=-1,2", "--paths", "100", "--bins", "4", *SAME_START], {},
         {"error": "ValueError",
          "message": "times must be >= 0 and strictly increasing with at least 2 entries"})],
        ids=["threads_not_an_integer", "one_sample_after_burn_in", "no_grid_time_after_burn_in",
             "under_the_noise_floor", "negative_time"])
    def test_refused_runs_write_one_error_line(self, tmp_path, capsys, monkeypatch, argv, env,
                                               payload):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / "out"
        rc = cli.main([argv[0], "--config", write_config(tmp_path), *argv[1:], "--out", str(out)])
        assert rc == 1
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [payload]
        assert not out.exists()

    def test_bad_start_state_reports_field(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = cli.main(["mixing-test", "--config", config, "--times", "1,2",
                       "--paths", "10", "--start-a", "{bad json",
                       "--start-b", '{"x": 0, "y": [0]}',
                       "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "start-a"


class TestSizeGuards:
    """Runs whose arrays would not fit are refused before they allocate."""

    @staticmethod
    def _main_peak(argv):
        tracemalloc.start()
        try:
            rc = cli.main(argv)
            return rc, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_oversized_histogram_is_structured_error(self, tmp_path, capsys):
        # 200 bins over (x, 2 row sums) give 8e6 cells per histogram; 400 give 6.4e7
        config = write_config(tmp_path, model=two_component_model())
        rc, peak = self._main_peak(["mixing-test", "--config", config, "--times", "1,2",
                                    "--paths", "100000", "--bins", "400",
                                    "--start-a", '{"x": 0, "y": [0, 0, 0, 0]}',
                                    "--start-b", '{"x": 1, "y": [0, 0, 0, 0]}',
                                    "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "histogram cells" in err["message"]
        assert peak < 1_000_000
        assert not os.path.exists(tmp_path / "m.json")

    def test_oversized_mixing_block_is_structured_error(self, tmp_path, capsys):
        # 10**6 paths at 4 times of (x, 2 row sums) give 1.2e7 state entries
        config = write_config(tmp_path, model=two_component_model())
        rc, peak = self._main_peak(["mixing-test", "--config", config, "--times", "1,2,3,4",
                                    "--paths", "1000000", "--bins", "5",
                                    "--start-a", '{"x": 0, "y": [0, 0, 0, 0]}',
                                    "--start-b", '{"x": 1, "y": [0, 0, 0, 0]}',
                                    "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "state block entries" in err["message"]
        assert peak < 1_000_000
        assert not os.path.exists(tmp_path / "m.json")

    def test_oversized_drift_scan_is_structured_error(self, tmp_path, capsys):
        config = write_config(tmp_path, model=two_component_model())
        rc, peak = self._main_peak(["check-stability", "--config", config,
                                    "--points", "1000000000", "--out", str(tmp_path / "s.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "scan points" in err["message"]
        assert peak < 1_000_000

    def test_too_many_paths_is_structured_error(self, tmp_path, capsys):
        config = write_config(tmp_path, run={"horizon": 1.0, "n_paths": 10**12})
        rc, peak = self._main_peak(["simulate", "--config", config,
                                    "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["field"] == "run.n_paths"
        assert peak < 1_000_000
        assert not os.path.exists(tmp_path / "out")

    def test_too_many_bins_is_structured_error(self, tmp_path, capsys, monkeypatch):
        # ergodic-test writes every bin's edge and mass into its report
        monkeypatch.setattr(cli, "simulate_ensemble", lambda *args, **kw: pytest.fail("simulated"))
        config = write_config(tmp_path, run={"horizon": 1.0, "bins": 10**6 + 1})
        rc = cli.main(["ergodic-test", "--config", config, "--out", str(tmp_path / "e.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["field"] == "run.bins"
        assert not os.path.exists(tmp_path / "e.json")
        assert cli.parse_config(write_config(tmp_path, run={"bins": 10**6})).bins == 10**6

    def test_memory_error_is_structured_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 80.0 GiB")

        monkeypatch.setattr(cli, "stability_report", refuse)
        config = write_config(tmp_path)
        rc = cli.main(["check-stability", "--config", config, "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "MemoryError"
