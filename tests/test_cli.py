"""CLI subcommands, CSV schemas, SVG export, correlation report."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from rummage import export
from rummage.cli import main
from rummage.geometry import ScalarField, Workspace
from rummage.infogain import ReachabilityModel
from rummage.semantics import SemanticCloud, Semantics
from rummage.sim import Scenario


@pytest.fixture
def tiny_scenario_file(tmp_path):
    cfg = {
        "name": "tiny_mug",
        "true_center": [0.38, 0.0, 0.0],
        "true_yaw": 0.4,
        "prior_center": [0.38, 0.0, 0.0],
        "belief": {"gamma": 20.0, "eta": 0.6, "n_particles": 16},
        "planner": {
            "horizon": 5, "control_points": 3, "samples": 16, "rollouts": 2,
            "mini_steps": 2, "replan_interval": 2, "warm_start_iters": 1,
        },
        "surface_samples": 80,
        "n_steps": 2,
        "termination_ratio": 0.002,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return path


class TestFieldCsv:
    def test_round_trip(self, tmp_path, rng):
        ws = Workspace(bounds=((0, 0.05), (0, 0.03), (0, 0)), resolution=0.01)
        f = ws.make_field(rng.uniform(0, 1, 6 * 4))
        p = tmp_path / "f.csv"
        export.write_field_csv(f, p)
        back = export.read_field_csv(p)
        npt.assert_allclose(back.values, f.values)
        assert back.resolution == pytest.approx(f.resolution)
        npt.assert_allclose(back.origin, f.origin)

    def write_rows(self, path, xs, ys, zs, order=None):
        nodes = [(x, y, z) for x in xs for y in ys for z in zs]
        with open(path, "w") as fh:
            fh.write("x,y,z,value\n")
            for k in order if order is not None else range(len(nodes)):
                fh.write("{!r},{!r},{!r},{!r}\n".format(*nodes[k], 0.01 * int(k)))

    def test_non_uniform_spacing_rejected(self, tmp_path, capsys):
        """A grid of spacings 0.01, 0.02 and 0.03 has no one resolution."""
        p = tmp_path / "f.csv"
        self.write_rows(p, [0.0, 0.01, 0.02], [0.0, 0.02, 0.04], [0.0, 0.03])
        with pytest.raises(ValueError, match="not uniform"):
            export.read_field_csv(p)
        rc = main(["export-field", "--snapshot", str(p), "--out", str(tmp_path / "f.svg")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "f.svg").exists()

    def test_header_only_rejected(self, tmp_path, capsys):
        p = tmp_path / "f.csv"
        self.write_rows(p, [], [], [])
        rc = main(["export-field", "--snapshot", str(p), "--out", str(tmp_path / "f.svg")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: field CSV has no rows")

    def test_metrics_csv_rejected(self, tmp_path, capsys):
        """A CSV without the field columns names the ones it lacks."""
        p = tmp_path / "m.csv"
        p.write_text("step,nll,chamfer,contact,ax,ay,ayaw,reach_true\n0,1.0,0.002,0,0.0,0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="no column 'x', 'y', 'z', 'value'"):
            export.read_field_csv(p)
        rc = main(["export-field", "--snapshot", str(p), "--out", str(tmp_path / "f.svg")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: field CSV has no column 'x'")
        assert not (tmp_path / "f.svg").exists()

    def test_shuffled_rows_rejected(self, tmp_path, capsys):
        """Rows out of node order would land on the wrong nodes."""
        p = tmp_path / "f.csv"
        order = np.random.default_rng(3).permutation(18)
        self.write_rows(p, [0.0, 0.01, 0.02], [0.0, 0.01, 0.02], [0.0, 0.01], order=order)
        with pytest.raises(ValueError, match="node order"):
            export.read_field_csv(p)
        rc = main(["export-field", "--snapshot", str(p), "--out", str(tmp_path / "f.svg")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error:")


class TestSvg:
    def test_zero_field_uniform_background(self, tmp_path):
        f = ScalarField(origin=np.zeros(3), resolution=0.01, values=np.zeros((5, 5, 1)))
        out = tmp_path / "zero.svg"
        export.field_to_svg(f, out)
        text = out.read_text()
        assert text.count("<rect") == 1  # background only

    def test_single_hot_node(self, tmp_path):
        vals = np.zeros((5, 5, 1))
        vals[2, 3, 0] = 1.0
        f = ScalarField(origin=np.zeros(3), resolution=0.01, values=vals)
        out = tmp_path / "hot.svg"
        export.field_to_svg(f, out, percentile=90.0)
        assert out.read_text().count("<rect") == 2  # background + one cell

    def test_3d_without_slice_errors(self, tmp_path):
        f = ScalarField(origin=np.zeros(3), resolution=0.01, values=np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            export.field_to_svg(f, tmp_path / "x.svg")

    def test_3d_with_slice(self, tmp_path):
        vals = np.zeros((3, 3, 3))
        vals[1, 1, 2] = 1.0
        f = ScalarField(origin=np.zeros(3), resolution=0.01, values=vals)
        export.field_to_svg(f, tmp_path / "s.svg", slice_z=0.02)
        assert (tmp_path / "s.svg").exists()


class TestCloudCsv:
    def test_round_trip(self, tmp_path, rng):
        cloud = SemanticCloud.from_parts(
            free=rng.uniform(-1, 1, (5, 3)), surface=rng.uniform(-1, 1, (3, 3))
        )
        p = tmp_path / "cloud.csv"
        export.write_cloud_csv(cloud, p)
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["x", "y", "z", "semantics"]
        positions = [[float(r["x"]), float(r["y"]), float(r["z"])] for r in rows]
        npt.assert_array_equal(positions, cloud.positions)
        assert [r["semantics"] for r in rows] == [Semantics(int(k)).name for k in cloud.labels]


class TestPearson:
    def test_perfectly_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert export.pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_anti_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert export.pearson(x, [-3 * v for v in x]) == pytest.approx(-1.0)

    def test_constant_series_undefined(self):
        assert export.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


class TestRunCommand:
    def test_run_zero_steps_single_seed(self, tmp_path, tiny_scenario_file):
        out = tmp_path / "out"
        rc = main([
            "run", "--scenario", str(tiny_scenario_file), "--method", "slide",
            "--seeds", "0", "--steps", "0", "--out", str(out),
        ])
        assert rc == 0
        summary = (out / "slide_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 2  # header + the single step-0 row
        runs = (out / "slide_runs.csv").read_text().strip().splitlines()
        assert len(runs) == 2

    def test_rerun_byte_identical(self, tmp_path, tiny_scenario_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            rc = main([
                "run", "--scenario", str(tiny_scenario_file), "--method", "full",
                "--seeds", "0,1", "--out", str(out),
            ])
            assert rc == 0
        for name in ("full_seed0.csv", "full_seed1.csv", "full_runs.csv", "full_summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_scenario_is_config_error(self, tmp_path):
        rc = main(["run", "--scenario", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_non_object_scenario_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error:")

    def _run_with(self, tmp_path, tiny_scenario_file, capsys, **overrides):
        cfg = json.loads(tiny_scenario_file.read_text())
        cfg.update(overrides)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--scenario", str(path), "--method", "slide", "--out", str(tmp_path / "o")])
        return rc, capsys.readouterr().err

    def test_unknown_shape_type_is_config_error(self, tmp_path, tiny_scenario_file, capsys):
        rc, err = self._run_with(tmp_path, tiny_scenario_file, capsys, shape_config={"type": "cone"})
        assert rc == 1
        assert err.startswith("config error:") and "cone" in err
        assert not (tmp_path / "o").exists()

    def test_zero_workspace_resolution_is_config_error(self, tmp_path, tiny_scenario_file, capsys):
        rc, err = self._run_with(tmp_path, tiny_scenario_file, capsys, workspace_resolution=0)
        assert rc == 1
        assert err.startswith("config error:") and "resolution" in err

    def test_inverted_workspace_bound_is_config_error(self, tmp_path, tiny_scenario_file, capsys):
        bounds = [[0.8, 0.0], [-0.4, 0.4], [0.0, 0.0]]
        rc, err = self._run_with(tmp_path, tiny_scenario_file, capsys, workspace_bounds=bounds)
        assert rc == 1
        assert err.startswith("config error:") and "lo <= hi" in err

    def test_seed_ranges(self, tmp_path, tiny_scenario_file):
        out = tmp_path / "out"
        rc = main([
            "run", "--scenario", str(tiny_scenario_file), "--method", "slide",
            "--seeds", "0,2-3", "--steps", "0", "--out", str(out),
        ])
        assert rc == 0
        for s in (0, 2, 3):
            assert (out / f"slide_seed{s}.csv").exists()

    @pytest.mark.parametrize(
        "seeds, message", [("0,5-2", "'5-2' is reversed"), ("5-2", "'5-2' is reversed"), ("0,-1", "-1 is negative")]
    )
    def test_bad_seeds_are_config_errors(self, tmp_path, tiny_scenario_file, capsys, seeds, message):
        out = tmp_path / "out"
        rc = main([
            "run", "--scenario", str(tiny_scenario_file), "--method", "slide",
            "--seeds", seeds, "--steps", "0", "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--steps", "-3", "--steps -3 is negative"), ("--jobs", "-2", "--jobs -2 is below 1"),
         ("--jobs", "0", "--jobs 0 is below 1")],
    )
    def test_bad_counts_are_config_errors(self, tmp_path, tiny_scenario_file, capsys, flag, value, message):
        out = tmp_path / "out"
        rc = main([
            "run", "--scenario", str(tiny_scenario_file), "--method", "slide",
            "--seeds", "0", flag, value, "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key",
        [
            ("planner", "kernel"), ("robot", "max_range"), ("robot", "base"), ("belief", "planar"), ("sim", "torque_radius"),
            ("sim", "tactile_tol"), ("planner", "kernel_scale"), ("robot", "info_depth"), ("camera", "sample_spacing"),
            ("belief", "r_free"), ("sim", "substeps"), ("planner", "action_scale"),
        ],
    )
    def test_unknown_setting_is_config_error(self, tmp_path, tiny_scenario_file, capsys, section, key):
        """Settings the program does not have are errors, not ignored."""
        cfg = json.loads(tiny_scenario_file.read_text())
        value = {
            "kernel": "bspline", "max_range": 0.5, "base": [0.0, 0.0], "planar": False, "torque_radius": 0.02,
            "tactile_tol": 0.003, "kernel_scale": 2.0, "info_depth": 1, "sample_spacing": 0.01, "r_free": 0.01,
            "substeps": 8, "action_scale": {"translation": 0.05},
        }[key]
        rc, err = self._run_with(tmp_path, tiny_scenario_file, capsys, **{section: {**cfg.get(section, {}), key: value}})
        assert rc == 1
        # the sim section itself is gone, so its error names the section
        assert err.startswith("config error:") and repr("sim" if section == "sim" else key) in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "prior_mode", "surfce_centroid"), (None, "surface_samples", 0), ("camera", "n_rays", -1),
            ("belief", "n_particles", 0), ("planner", "samples", 0), ("planner", "rollouts", 0),
            ("planner", "mini_steps", 0), ("planner", "horizon", 0), ("planner", "replan_interval", 0),
            ("planner", "control_points", 0), ("planner", "temperature", 0.0), ("reachability", "psi", 0.0),
            ("reachability", "psi", -0.4), ("camera", "max_range", 0.0), ("camera", "max_range", -1.0),
            ("planner", "noise_cov", -0.5), ("planner", "opt_iters", 0), ("planner", "warm_start_iters", 0),
            ("planner", "info_weight", math.nan), ("planner", "info_weight", -math.inf),
            ("planner", "reach_weight", math.nan), ("planner", "reach_weight", math.inf),
            pytest.param("robot", "half_extents", (0.0, 0.03), id="robot-half_extents-zero"),
            pytest.param("robot", "half_extents", (0.01, -0.03), id="robot-half_extents-negative"),
            pytest.param("robot", "half_extents", (0.01,), id="robot-half_extents-one"),
            pytest.param("robot", "half_extents", (0.01, 0.03, 0.02), id="robot-half_extents-three"),
        ],
    )
    def test_bad_setting_value_is_config_error(self, tmp_path, tiny_scenario_file, capsys, section, key, value):
        """A value the loop cannot run with fails when the scenario loads,
        naming the setting and the value, rather than falling back, writing
        NaN records or failing at run time."""
        cfg = json.loads(tiny_scenario_file.read_text())
        override = {key: value} if section is None else {section: {**cfg.get(section, {}), key: value}}
        rc, err = self._run_with(tmp_path, tiny_scenario_file, capsys, **override)
        assert rc == 1
        assert err.startswith("config error:") and key in err and repr(value) in err
        assert not (tmp_path / "o").exists()

    def test_nested_settings_are_built(self, tmp_path, tiny_scenario_file, capsys):
        """A setting inside a setting is built into its own type at any
        depth, lists become tuples, and a key it lacks is a config error."""
        from rummage.discrepancy import DescentSchedule

        cfg = json.loads(tiny_scenario_file.read_text())
        cfg["belief"]["schedule"] = {"step_t": 0.02, "decay": 0.8}
        cfg["reachability"] = {"base": [0.05, 0.0, 0.0], "psi": 0.3}
        cfg["robot"] = {"half_extents": [0.01, 0.02]}
        scenario = Scenario.from_dict(cfg)
        assert scenario.belief.schedule == DescentSchedule(step_t=0.02, decay=0.8)
        assert scenario.reachability == ReachabilityModel(base=(0.05, 0.0, 0.0), psi=0.3)
        assert scenario.robot.half_extents == (0.01, 0.02)
        assert scenario.true_center == (0.38, 0.0, 0.0)
        rc, err = self._run_with(tmp_path, tiny_scenario_file, capsys, belief=cfg["belief"])
        assert rc == 0, err
        cfg["belief"]["schedule"]["step"] = 0.1
        rc, err = self._run_with(tmp_path, tiny_scenario_file, capsys, belief=cfg["belief"])
        assert rc == 1
        assert err.startswith("config error:") and "'step'" in err

    def test_artifact_exports(self, tmp_path, tiny_scenario_file):
        out = tmp_path / "out"
        rc = main([
            "run", "--scenario", str(tiny_scenario_file), "--method", "full",
            "--seeds", "0", "--steps", "1", "--out", str(out),
            "--export-fields", "--export-particles", "--export-traces",
        ])
        assert rc == 0
        adir = out / "full_seed0_artifacts"
        assert (adir / "info_step1.csv").exists()
        assert (adir / "particles_step1.csv").exists()
        assert (adir / "planner_trace.csv").exists()

    def test_scenario_files_not_mutated(self, tmp_path, tiny_scenario_file):
        before = tiny_scenario_file.read_bytes()
        main([
            "run", "--scenario", str(tiny_scenario_file), "--method", "slide",
            "--seeds", "0", "--steps", "0", "--out", str(tmp_path / "out"),
        ])
        assert tiny_scenario_file.read_bytes() == before


class TestExportFieldCommand:
    def test_field_to_svg_via_cli(self, tmp_path, rng):
        ws = Workspace(bounds=((0, 0.05), (0, 0.05), (0, 0)), resolution=0.01)
        f = ws.make_field(rng.uniform(0, 1, 36))
        csv_path = tmp_path / "field.csv"
        export.write_field_csv(f, csv_path)
        svg_path = tmp_path / "field.svg"
        rc = main(["export-field", "--snapshot", str(csv_path), "--out", str(svg_path), "--percentile", "50"])
        assert rc == 0
        assert svg_path.read_text().startswith("<svg")

    def test_missing_snapshot_config_error(self, tmp_path):
        rc = main(["export-field", "--snapshot", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")])
        assert rc == 1


class TestCorrelateCommand:
    def write_metrics(self, path, pairs):
        with open(path, "w") as fh:
            fh.write("step,nll,chamfer,contact,ax,ay,ayaw,reach_true\n")
            for i, (a, b) in enumerate(pairs):
                fh.write(f"{i},{a},{b},0,0.0,0.0,0.0,1.0\n")

    def test_linear_pairs(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        self.write_metrics(p, [(1, 2), (2, 4), (3, 6), (4, 8)])
        rc = main(["correlate", "--inputs", str(p)])
        assert rc == 0
        outp = capsys.readouterr().out
        assert "pooled,1.0" in outp

    def test_anti_linear_pairs(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        self.write_metrics(p, [(1, -1), (2, -2), (3, -3)])
        rc = main(["correlate", "--inputs", str(p)])
        assert rc == 0
        assert "pooled,-1.0" in capsys.readouterr().out

    def test_constant_series_undefined_not_crash(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        self.write_metrics(p, [(1, 5), (1, 5), (1, 5)])
        rc = main(["correlate", "--inputs", str(p), "--out", str(tmp_path / "rep.csv")])
        assert rc == 0
        assert "undefined" in capsys.readouterr().out
        assert "undefined" in (tmp_path / "rep.csv").read_text()

    def test_missing_columns_named(self, tmp_path, capsys):
        """A CSV without the metrics columns (here a field CSV) is a config
        error naming the file and every missing column."""
        p = tmp_path / "field.csv"
        p.write_text("x,y,z,value\n0.0,0.0,0.0,1.0\n")
        rc = main(["correlate", "--inputs", str(p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(p) in err
        for col in ("step", "nll", "chamfer", "contact", "ax", "ay", "ayaw", "reach_true"):
            assert repr(col) in err


    @pytest.mark.parametrize("row, message", [
        ("2,1.0\n", "line 4 has no value in column 'chamfer'"),
        ("2,abc,2.0,0,0.0,0.0,0.0,1.0\n", "line 4, column 'nll': 'abc' is not a number"),
    ], ids=["short row", "not a number"])
    def test_bad_row_named(self, tmp_path, capsys, row, message):
        """A short row or a value that is not a number is a config error
        naming the file, the line and the column."""
        p = tmp_path / "m.csv"
        self.write_metrics(p, [(1, 2), (2, 4)])
        with open(p, "a") as fh:
            fh.write(row)
        rc = main(["correlate", "--inputs", str(p)])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: metrics CSV {p} {message}\n"


@pytest.mark.parametrize("command", ["run", "correlate", "export-field"])
def test_bad_output_path_is_config_error(tmp_path, tiny_scenario_file, capsys, command):
    """An output path that cannot be made, a directory under a file or a
    file in a directory that does not exist, is a config error."""
    (tmp_path / "afile").write_text("")
    metrics = tmp_path / "m.csv"
    metrics.write_text("step,nll,chamfer,contact,ax,ay,ayaw,reach_true\n0,1.0,2.0,0,0,0,0,1\n1,2.0,4.0,0,0,0,0,1\n")
    snapshot = tmp_path / "f.csv"
    ws = Workspace(bounds=((0, 0.05), (0, 0.05), (0, 0)), resolution=0.01)
    export.write_field_csv(ws.make_field(np.ones(36)), snapshot)
    argv = {
        "run": ["run", "--scenario", str(tiny_scenario_file), "--method", "slide", "--steps", "0",
                "--out", str(tmp_path / "afile" / "sub")],
        "correlate": ["correlate", "--inputs", str(metrics), "--out", str(tmp_path / "nodir" / "x.csv")],
        "export-field": ["export-field", "--snapshot", str(snapshot), "--out", str(tmp_path / "nodir" / "x.svg")],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rummage", "correlate", "--inputs", "/nonexistent.csv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
