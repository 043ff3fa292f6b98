"""The example scripts run end to end on small inputs."""

import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


def result_line(**values):
    """A parsed loopbench result line with the given metric values."""
    metrics = {name: {"value": v, "unit": "-"} for name, v in values.items()}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


SPEED = [{"name": "step_p50_s", "better": "lower"}, {"name": "steps_per_s", "better": "higher"}]


def canned_pairs(base_p50, change_p50):
    return [
        (result_line(step_p50_s=b, steps_per_s=1.0 / b), result_line(step_p50_s=c, steps_per_s=1.0 / c))
        for b, c in zip(base_p50, change_p50)
    ]


class TestPairedBench:
    def test_claim_holds(self):
        """Ten pairs, nine won and one tied, the medians 0.1 s apart against
        a base IQR of 0.035 s."""
        base = [0.50, 0.52, 0.48, 0.55, 0.51, 0.49, 0.53, 0.50, 0.47, 0.54]
        change = [0.40, 0.42, 0.38, 0.45, 0.41, 0.39, 0.43, 0.40, 0.37, 0.54]
        rows = load("paired_bench").summarize(SPEED, canned_pairs(base, change))
        p50, rate = rows
        assert (p50["name"], p50["wins"], p50["pairs"]) == ("step_p50_s", 9, 10)
        assert p50["base_median"] == pytest.approx(0.505) and p50["change_median"] == pytest.approx(0.405)
        assert (p50["base_q1"], p50["base_q3"]) == pytest.approx((0.4925, 0.5275))
        assert p50["claim"] and rate["claim"] and rate["wins"] == 9

    def test_claim_needs_wins_pairs_and_gap(self):
        bench = load("paired_bench")
        base = [0.50, 0.52, 0.48, 0.55, 0.51, 0.49, 0.53, 0.50, 0.47, 0.54]
        # eight wins of ten: too few
        eight = [b - 0.1 for b in base[:8]] + base[8:]
        assert bench.summarize(SPEED, canned_pairs(base, eight))[0]["claim"] is False
        # ten wins, but by less than the base's IQR
        close = [b - 0.01 for b in base]
        row = bench.summarize(SPEED, canned_pairs(base, close))[0]
        assert row["wins"] == 10 and row["claim"] is False
        # every pair won by far, but fewer than ten pairs
        row = bench.summarize(SPEED, canned_pairs(base[:9], [b - 0.1 for b in base[:9]]))[0]
        assert row["wins"] == 9 and row["claim"] is False
        # a change that is worse wins nothing
        row = bench.summarize(SPEED, canned_pairs(base, [b + 0.1 for b in base]))[0]
        assert row["wins"] == 0 and row["claim"] is False

    def test_one_pair(self):
        row = load("paired_bench").summarize(SPEED, canned_pairs([0.5], [0.4]))[0]
        assert (row["wins"], row["base_q1"], row["base_q3"], row["claim"]) == (1, 0.5, 0.5, False)

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_pairs_below_one_rejected(self, pairs, capsys):
        with pytest.raises(SystemExit) as exc:
            load("paired_bench").main(["--workload", "mug-mpc", "--base", str(SCRIPTS.parent), "--pairs", pairs])
        assert exc.value.code == 2
        assert "not at least 1" in capsys.readouterr().err

    def test_missing_base_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            load("paired_bench").main(["--workload", "mug-mpc", "--base", str(tmp_path / "nowhere"), "--pairs", "3"])
        assert exc.value.code == 2
        assert "loopbench/run.py" in capsys.readouterr().err


    @pytest.mark.parametrize("seed, message", [("-1", "not at least 0"), ("x", "invalid integer value")])
    def test_bad_seed_rejected(self, seed, message, capsys):
        with pytest.raises(SystemExit) as exc:
            load("paired_bench").main(["--workload", "mug-mpc", "--base", str(SCRIPTS.parent), "--pairs", "1", "--seed", seed])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "2"], 2)])
    def test_seed_reaches_every_run(self, argv, seed, tmp_path, capsys):
        """Every run gets the seed (0 by default); the summary names it."""
        bench = load("paired_bench")
        (tmp_path / "loopbench").mkdir()
        (tmp_path / "loopbench" / "run.py").write_text("")
        calls = []

        def run_once(tree, workload, seed, seconds):
            calls.append((tree, workload, seed))
            return result_line(steps_per_s=1.0, step_p50_s=1.0, setup_s=0.1, initial_nll=120.0, peak_rss_mb=60.0)

        bench.run_once = run_once
        assert bench.main(["--workload", "mug-mpc", "--base", str(tmp_path), "--pairs", "2", *argv]) == 0
        assert [c[1:] for c in calls] == [("mug-mpc", seed)] * 4
        assert {c[0] for c in calls} == {SCRIPTS.parent.resolve(), tmp_path.resolve()}
        assert f"mug-mpc seed {seed}: 2 pairs" in capsys.readouterr().out


class TestCheckTestOnly:
    def tree(self, tmp_path, package, scripts=""):
        for top in ("src/rummage", "scripts", "loopbench", "tests"):
            (tmp_path / top).mkdir(parents=True)
        (tmp_path / "src/rummage/core.py").write_text(package)
        (tmp_path / "scripts/use.py").write_text(scripts)
        (tmp_path / "tests/test_core.py").write_text("from rummage.core import helper, Thing\nhelper(); Thing().step()\n")
        return tmp_path

    def test_repository_has_no_test_only_code(self, capsys):
        assert load("check_test_only").main() == 0
        assert capsys.readouterr().out == ""

    def test_reports_what_only_tests_name(self, tmp_path):
        package = (
            "class Thing:\n"
            "    def __init__(self):\n        pass\n"
            "    def step(self):\n        return 1\n"
            "    def looked_up(self):\n        return 2\n"
            "def helper():\n    return Thing()\n"
        )
        root = self.tree(tmp_path, package, "import core\ngetattr(core.Thing(), 'looked_up')\n")
        # Thing is named by the script, looked_up by its string lookup
        assert load("check_test_only").unused(root) == ["src/rummage/core.py:4: step", "src/rummage/core.py:8: helper"]

    def test_any_use_outside_tests_counts(self, tmp_path):
        package = "def helper():\n    return 1\nclass Thing:\n    def step(self):\n        return helper()\n"
        root = self.tree(tmp_path, package, "from rummage.core import Thing\nThing().step()\n")
        assert load("check_test_only").unused(root) == []

    def test_reports_settings_nothing_sets(self, tmp_path):
        """Of the dataclass fields with a default, those that nothing sets
        are reported, also one that a test reads."""
        package = (
            "from dataclasses import dataclass, field, replace\n"
            "@dataclass\n"
            "class Params:\n"
            "    required: int\n"
            "    by_keyword: int = 1\n"
            "    by_replace: int = 2\n"
            "    by_scenario: int = 3\n"
            "    by_dict: dict = field(default_factory=dict)\n"
            "    read_by_test: float = 0.5\n"
            "    lonely: float = 0.1\n"
            "    derived: float = field(init=False, default=0.0)\n"
            "def build():\n"
            "    return replace(Params(0, by_keyword=4), by_replace=5)\n"
            "def use(p):\n"
            "    return p.lonely + p.derived + p.by_scenario\n"
        )
        root = self.tree(tmp_path, package, "from rummage.core import build, use\nuse(build())\nCFG = {'by_dict': {}}\n")
        (root / "scenarios").mkdir()
        (root / "scenarios/s.json").write_text('{"outer": [{"by_scenario": 6}]}')
        (root / "tests/test_params.py").write_text("from rummage.core import build\nassert build().read_by_test == 0.5\n")
        check = load("check_test_only")
        assert check.unset(root) == ["src/rummage/core.py:9: Params.read_by_test", "src/rummage/core.py:10: Params.lonely"]
        # a test that sets it through a config dict's key
        (root / "tests/test_params.py").write_text("cfg = {}\ncfg['lonely'] = 0.2\n")
        assert check.unset(root) == ["src/rummage/core.py:9: Params.read_by_test"]

    def test_reports_test_imports_never_used(self, tmp_path):
        """A test module's imported name is used when the module reads it,
        also at the head of an attribute chain or inside a function;
        ``__future__`` imports bind nothing to report."""
        root = self.tree(tmp_path, "def helper():\n    return 1\nclass Thing:\n    pass\n")
        (root / "tests/test_more.py").write_text(
            "from __future__ import annotations\n"
            "import json\n"
            "import numpy.testing\n"
            "import os.path as osp\n"
            "from rummage.core import helper, Thing as T\n"
            "def test_it():\n"
            "    from rummage import core\n"
            "    numpy.testing.assert_equal(helper(), 1)\n"
        )
        assert load("check_test_only").unused_imports(root) == [
            "tests/test_more.py:2: json", "tests/test_more.py:4: osp",
            "tests/test_more.py:5: T", "tests/test_more.py:7: core",
        ]

    @pytest.mark.parametrize(
        "package, script, report",
        [
            ("def f(x, scale=2.0):\n    return x * scale\n", "f(1, scale=3.0)\n", []),
            (
                "def f(x, scale=2.0):\n    return x * scale\ndef g(scale):\n    return scale\n",
                "f(1)\ng(scale=3.0)\n",
                ["src/rummage/core.py:1: f(scale)"],
            ),
            ("def f(x, scale=2.0):\n    return x * scale\n", "f(1, 3.0)\n", []),
            (
                "class K:\n    def f(self, x, scale=2.0):\n        return x * scale\n"
                "    @staticmethod\n    def s(x, shift=0.0):\n        return x + shift\n"
                "    def t(self, x, turn=0.0):\n        return x + turn\n",
                "K().f(1, 3.0)\nK.s(1, 2.0)\nK().t(1)\n",
                ["src/rummage/core.py:7: K.t(turn)"],
            ),
            (
                "def f(x, scale=2.0):\n    return x * scale\ndef g(x, *, shift=0.0):\n    return x + shift\n",
                "args = (1, 2.0)\nf(*args)\nkw = {}\ng(1, **kw)\n",
                [],
            ),
            (
                "from dataclasses import dataclass\n@dataclass\nclass P:\n    a: int\n    b: int = 2\n    c: int = 3\n",
                "kw = {}\nP(0, 4)\nP(**kw)\n",
                ["src/rummage/core.py:6: P.c"],
            ),
        ],
        ids=["keyword", "keyword to another function", "position", "method", "splat", "field by position"],
    )
    def test_reports_defaults_no_call_passes(self, tmp_path, package, script, report):
        """A function default counts as set only when a call to that
        function passes it: by its keyword, by position (a method's self
        takes none), or through a splat.  A dataclass field is also set by
        position; a splat into a dataclass sets only the keys it was built
        with."""
        root = self.tree(tmp_path, package, script)
        assert load("check_test_only").unset(root) == report
