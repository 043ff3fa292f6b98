"""scripts/compare_records.py: seed lists and the record diff."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "compare_records.py"
_spec = importlib.util.spec_from_file_location("compare_records", SCRIPT)
compare_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_records)


def episode(seed, *records):
    return {"seed": seed, "records": [{"step": str(k), "contact": c, "nll": v} for k, (c, v) in enumerate(records)]}


def test_parse_seeds():
    assert compare_records.parse_seeds("0-2,5") == [0, 1, 2, 5]
    assert compare_records.parse_seeds("3") == [3]


@pytest.mark.parametrize("text", ["5-2", "0,,1", "", "-1", "0--1", "2-", "x"])
def test_bad_seed_lists_rejected(text, capsys):
    """Reversed, empty and negative seed lists are usage errors naming the
    text, not a pass over zero episodes or a traceback."""
    with pytest.raises(SystemExit) as exc:
        compare_records.main(["--workload", "mug-mpc", "--base", ".", "--seeds", text])
    assert exc.value.code == 2
    assert f"bad seed list {text!r}" in capsys.readouterr().err


def test_nothing_compared_fails(monkeypatch, capsys):
    monkeypatch.setattr(compare_records, "episode_spec", lambda workload, seeds: {})
    monkeypatch.setattr(compare_records, "run_tree", lambda tree, spec: [])
    assert compare_records.main(["--workload", "mug-mpc", "--base", "."]) == 1
    assert "0 records compared, nothing compared" in capsys.readouterr().out


def test_identical_records_pass():
    base = [episode(0, ("False", "1.0"), ("True", "2.0"))]
    assert compare_records.compare(base, base, False) == ([], 2)


def test_first_differing_field_reported():
    base = [episode(0, ("False", "1.0"), ("True", "2.0"), ("True", "3.0"))]
    head = [episode(0, ("False", "1.0"), ("True", "2.5"), ("True", "3.5"))]
    problems, compared = compare_records.compare(base, head, False)
    assert problems == ["seed 0 step 1: nll 2.0 != 2.5"]
    assert compared == 3


def test_before_contact_stops_at_first_contact():
    base = [episode(0, ("False", "1.0"), ("True", "2.0"))]
    head = [episode(0, ("False", "1.0"), ("True", "9.0"))]
    assert compare_records.compare(base, head, True) == ([], 1)
    # a shorter head episode is a mismatch unless only the earlier records count
    short = [episode(0, ("False", "1.0"))]
    assert compare_records.compare(base, short, True) == ([], 1)
    assert compare_records.compare(base, short, False)[0] == ["seed 0: 2 records in base, 1 in head"]


def test_drift_sizes_every_numeric_field():
    base = [
        episode(0, ("False", "1.0"), ("True", "2.0"), ("True", "4.0")),
        episode(1, ("False", "1.0"), ("False", "0.0")),
    ]
    head = [
        episode(0, ("False", "1.0"), ("True", "2.5"), ("True", "3.0")),
        episode(1, ("False", "1.0"), ("False", "-0.0")),
    ]
    for b, h in zip(base, head):
        for k, (rb, rh) in enumerate(zip(b["records"], h["records"])):
            rb["action"] = rh["action"] = "(0.5, -0.25, 0.0)"
            if (b["seed"], k) == (1, 1):
                rh["action"] = "(0.25, -0.25, 0.0)"
    # the per-episode report names only the first differing record
    problems, _ = compare_records.compare(base, head, False)
    assert problems == [
        "seed 0 step 1: nll 2.0 != 2.5",
        "seed 1 step 1: nll 0.0 != -0.0, action (0.5, -0.25, 0.0) != (0.25, -0.25, 0.0)",
    ]
    drift = compare_records.drift(base, head, False)
    # every record counts; a signed zero differs by repr at no relative size
    assert drift["nll"] == (3, 0.25)
    assert drift["action"] == (1, 0.5)
    assert drift["step"] == (0, 0.0)
    assert "contact" not in drift
    # before contact only the first record of episode 0 is compared
    assert compare_records.drift(base, head, True)["nll"] == (1, 0.0)
