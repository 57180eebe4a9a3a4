import json

import pytest

from oneside_levy.report import ComparisonReport


def test_rel_err_against_zero_is_null(tmp_path):
    rep = ComparisonReport("t", {}, 0)
    assert rep.add("tv", 2.7e-3, 0.0, 0.02)
    assert rep.add("gap", 1.0, 4.0, 1.0, kind="rel")
    rep.write(tmp_path / "r.json")
    metrics = json.loads((tmp_path / "r.json").read_text())["metrics"]
    assert metrics[0]["abs_err"] == 2.7e-3
    assert metrics[0]["rel_err"] is None
    assert metrics[1]["rel_err"] == 0.75
    assert not rep.add("gap2", 1.0, -4.0, 0.5, kind="rel")


def test_rel_kind_against_zero_raises():
    rep = ComparisonReport("t", {}, 0)
    with pytest.raises(ValueError, match="expected 0"):
        rep.add("tv", 1e-3, 0.0, 0.1, kind="rel")
    assert rep.metrics == []
