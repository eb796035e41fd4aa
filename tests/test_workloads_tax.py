"""Unit tests for the memory-tax sidecar workloads."""

import pytest

from repro.workloads.tax import (
    DATACENTER_TAX_FRAC,
    MICROSERVICE_TAX_FRAC,
    TAX_PROFILES,
    TaxWorkload,
)

from tests.helpers import make_mm

_GB = 1 << 30


def test_tax_fractions_match_figure_3():
    assert DATACENTER_TAX_FRAC == pytest.approx(0.13)
    assert MICROSERVICE_TAX_FRAC == pytest.approx(0.07)
    assert DATACENTER_TAX_FRAC + MICROSERVICE_TAX_FRAC == pytest.approx(0.20)


def test_profiles_sized_for_64gb_host():
    dc = TAX_PROFILES["Datacenter Tax"]
    ms = TAX_PROFILES["Microservice Tax"]
    assert dc.size_gb == pytest.approx(64 * 0.13)
    assert ms.size_gb == pytest.approx(64 * 0.07)


def test_taxes_are_colder_than_average_apps():
    for profile in TAX_PROFILES.values():
        assert profile.bands.cold >= 0.45


def test_unknown_tax_kind_rejected():
    mm = make_mm()
    mm.create_cgroup("side")
    with pytest.raises(KeyError):
        TaxWorkload(mm, "Robot Tax", "side", seed=1)


def test_tax_workload_runs():
    mm = make_mm()
    mm.create_cgroup("side")
    tax = TaxWorkload(mm, "Datacenter Tax", "side", seed=1)
    tax.start(0.0, size_scale=0.01)
    tick = tax.tick(0.0, 6.0)
    assert tick.name == "Datacenter Tax"
    assert tax.kind == "Datacenter Tax"
    assert len(tax.pages) > 0
