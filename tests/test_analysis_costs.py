"""Unit tests for the Figure 1 cost model."""

import pytest

from repro.analysis.costs import (
    COST_TRENDS,
    compressed_memory_cost_pct,
    cost_table,
)


def test_six_generations():
    assert [row.generation for row in COST_TRENDS] == [1, 2, 3, 4, 5, 6]


def test_memory_cost_grows_to_33_percent():
    values = [row.memory_pct for row in COST_TRENDS]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(33.0)


def test_memory_power_reaches_38_percent():
    assert COST_TRENDS[-1].memory_power_pct == pytest.approx(38.0)


def test_ssd_iso_capacity_stays_under_1_percent():
    for row in COST_TRENDS:
        assert row.ssd_iso_capacity_pct < 1.0


def test_compressed_memory_is_memory_over_ratio():
    row = COST_TRENDS[2]
    assert row.compressed_memory_pct(3.0) == pytest.approx(
        row.memory_pct / 3.0
    )


def test_compressed_memory_10x_ssd():
    """Section 2.1: SSD ~10x cheaper per byte than compressed memory."""
    for row in COST_TRENDS:
        ratio = row.compressed_memory_pct() / row.ssd_iso_capacity_pct
        assert 5.0 < ratio < 25.0


def test_compressed_cost_lookup():
    assert compressed_memory_cost_pct(6) == pytest.approx(11.0)
    with pytest.raises(KeyError):
        compressed_memory_cost_pct(7)


def test_invalid_ratio_rejected():
    with pytest.raises(ValueError):
        COST_TRENDS[0].compressed_memory_pct(0.5)


def test_cost_table_rows():
    rows = cost_table()
    assert len(rows) == 6
    gen, mem, comp, ssd = rows[-1]
    assert gen == 6
    assert mem > comp > ssd
