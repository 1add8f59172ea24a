"""Unit tests for the reference allocator's free-slot helpers (``lccd_oracle``)."""

import pytest

from lccd_oracle import FreeSlot, free_slots, slots_within_window, total_capacity
from repro.core import MS, IOTask, Schedule


def make_task(name="t", delta=5 * MS):
    return IOTask(name=name, wcet=2 * MS, period=20 * MS, ideal_offset=delta, theta=4 * MS)


class TestFreeSlot:
    def test_capacity(self):
        assert FreeSlot(10, 25).capacity == 15

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            FreeSlot(10, 5)

    def test_overlap(self):
        slot = FreeSlot(10, 30)
        assert slot.overlap(0, 20) == FreeSlot(10, 20)
        assert slot.overlap(15, 50) == FreeSlot(15, 30)
        assert slot.overlap(30, 40) is None

    def test_can_fit_respects_release_window(self):
        job = make_task().job(0)  # window [0, 20 ms], wcet 2 ms
        assert FreeSlot(0, 3 * MS).can_fit(job)
        assert not FreeSlot(0, 1 * MS).can_fit(job)
        assert not FreeSlot(19 * MS, 25 * MS).can_fit(job)  # only 1 ms before deadline

    def test_fit_start_earliest_vs_ideal(self):
        job = make_task(delta=10 * MS).job(0)
        slot = FreeSlot(2 * MS, 18 * MS)
        assert slot.fit_start(job) == 2 * MS
        assert slot.fit_start(job, prefer_ideal=True) == 10 * MS

    def test_fit_start_clamps_ideal_to_slot(self):
        job = make_task(delta=16 * MS).job(0)
        slot = FreeSlot(2 * MS, 10 * MS)
        assert slot.fit_start(job, prefer_ideal=True) == 8 * MS

    def test_fit_start_none_when_too_small(self):
        job = make_task().job(0)
        assert FreeSlot(0, 1 * MS).fit_start(job) is None


class TestFreeSlots:
    def test_slots_around_busy_intervals(self):
        a, b = make_task("a", delta=5 * MS), make_task("b", delta=10 * MS)
        schedule = Schedule()
        schedule.set_start(a.job(0), 5 * MS)
        schedule.set_start(b.job(0), 10 * MS)
        slots = free_slots(schedule, 20 * MS)
        assert slots == [
            FreeSlot(0, 5 * MS),
            FreeSlot(7 * MS, 10 * MS),
            FreeSlot(12 * MS, 20 * MS),
        ]

    def test_slots_within_window(self):
        slots = [FreeSlot(0, 5), FreeSlot(10, 20), FreeSlot(30, 40)]
        clipped = slots_within_window(slots, 3, 32)
        assert clipped == [FreeSlot(3, 5), FreeSlot(10, 20), FreeSlot(30, 32)]

    def test_total_capacity(self):
        assert total_capacity([FreeSlot(0, 5), FreeSlot(10, 12)]) == 7
