"""Benchmark harness: determinism, verdict agreement, and bookkeeping."""

import pytest

from coincanon import is_canonical_oracle, is_tight, loglog_slope, scaling_run
from coincanon.bench import median_elapsed, method_slope
from coincanon.generate import arithmetic_system


def test_benchmark_inputs_are_tight_and_canonical():
    # The harness skips tightness verification; justify that once here.
    for m in (6, 8, 12, 20):
        s = arithmetic_system(m, 1)
        assert is_canonical_oracle(s).canonical
        assert is_tight(s)[0]


def test_rows_shape_and_verdicts():
    rows = scaling_run(["pearson", "tight-extended"], [8, 16], trials=2)
    assert len(rows) == 2 * 2 * 2
    for row in rows:
        assert row.elapsed_ns > 0
        assert row.c_max == row.m
        assert row.verdict == "canonical"
    # all methods agree on every benchmarked input
    verdicts = {(r.m, r.verdict) for r in rows}
    assert verdicts == {(8, "canonical"), (16, "canonical")}


def test_identical_seeds_identical_inputs():
    a = scaling_run(["oracle"], [8], trials=1)
    b = scaling_run(["oracle"], [8], trials=1)
    assert [(r.method, r.m, r.c_max, r.verdict) for r in a] == [
        (r.method, r.m, r.c_max, r.verdict) for r in b
    ]


def test_median_and_slope_helpers():
    rows = scaling_run(["oracle"], [8, 16, 32], trials=3)
    med = median_elapsed(rows)
    assert set(med) == {("oracle", 8), ("oracle", 16), ("oracle", 32)}
    slope = method_slope(rows, "oracle")
    assert isinstance(slope, float)
    # perfect power law recovers its exponent
    assert abs(loglog_slope({2: 8.0, 4: 64.0, 8: 512.0}) - 3.0) < 1e-9


def test_validation():
    with pytest.raises(ValueError):
        scaling_run(["warp-drive"], [8])
    with pytest.raises(ValueError):
        scaling_run(["tight-extended"], [4])  # too few denominations
    with pytest.raises(ValueError):
        scaling_run(["oracle"], [8], trials=0)
