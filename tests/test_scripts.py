"""The example scripts run end to end on small inputs."""

import csv
import importlib.util
from pathlib import Path

import numpy as np

from rummage import export

SCRIPTS = Path(__file__).parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_mug_benchmark(tmp_path):
    rc = load("run_mug_benchmark").run(
        ["--out", str(tmp_path), "--steps", "0", "--seeds", "0", "--methods", "full", "slide"]
    )
    assert rc == 0
    for method in ("full", "slide"):
        for name in ("seed0", "runs", "summary"):
            assert (tmp_path / f"{method}_{name}.csv").exists()
    with open(tmp_path / "correlation.csv", newline="") as fh:
        series = [row["series"] for row in csv.DictReader(fh)]
    assert series == [str(tmp_path / "full_seed0.csv"), str(tmp_path / "slide_seed0.csv"), "pooled"]


def test_render_info_field(tmp_path):
    assert load("render_info_field").run(["--out", str(tmp_path), "--particles", "20"]) == 0
    for name in ("info.csv", "p_free.csv", "reach.csv", "info.svg", "reach.svg", "initial_observation.csv"):
        assert (tmp_path / name).exists()
    info = export.read_field_csv(tmp_path / "info.csv").values
    # the yaw ambiguity leaves information to gather somewhere, nowhere negative
    assert info.max() > 0.0 and np.all(info >= 0.0)
    assert (tmp_path / "info.svg").read_text().startswith("<svg")
