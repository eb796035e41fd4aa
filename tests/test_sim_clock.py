"""Unit tests for the virtual clock."""

import pytest

from repro.sim.clock import Clock


def test_starts_at_zero():
    assert Clock().now == 0.0


def test_starts_at_given_time():
    assert Clock(5.0).now == 5.0


def test_rejects_negative_start():
    with pytest.raises(ValueError):
        Clock(-1.0)


def test_advance_accumulates():
    clock = Clock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == pytest.approx(2.0)


def test_advance_zero_is_allowed():
    clock = Clock(3.0)
    clock.advance(0.0)
    assert clock.now == 3.0


def test_advance_rejects_negative():
    clock = Clock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_repr_mentions_time():
    assert "1.5" in repr(Clock(1.5))
