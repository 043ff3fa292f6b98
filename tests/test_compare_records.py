"""scripts/compare_records.py: seed lists and the record diff."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "compare_records.py"
_spec = importlib.util.spec_from_file_location("compare_records", SCRIPT)
compare_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_records)


def episode(seed, *records):
    return {"seed": seed, "records": [{"step": str(k), "contact": c, "nll": v} for k, (c, v) in enumerate(records)]}


def test_parse_seeds():
    assert compare_records.parse_seeds("0-2,5") == [0, 1, 2, 5]
    assert compare_records.parse_seeds("3") == [3]


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
