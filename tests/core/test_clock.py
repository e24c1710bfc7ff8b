"""Tests for the step-controlled :class:`FakeClock` the streaming suites run on.

Time moves only when a test advances it (or a sleep auto-advances it), and
a parked sleeper wakes only on an advance past its deadline or an explicit
``wake()`` — the properties every fake-clock ingest test relies on.
"""

from __future__ import annotations

import threading

import pytest

import streamtest_utils as stu

FakeClock = stu.FakeClock


class TestFakeClock:
    def test_monotonic_advances_only_on_demand(self):
        clock = FakeClock(start=100.0)
        assert clock.monotonic() == 100.0
        clock.advance(2.5)
        assert clock.monotonic() == 102.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_auto_advance_sleep_jumps_time(self):
        clock = FakeClock(auto_advance=True)
        clock.sleep(3.0)
        assert clock.monotonic() == 3.0

    def test_step_sleep_parks_until_advanced(self):
        clock = FakeClock()
        woke = threading.Event()

        def sleeper():
            clock.sleep(1.0)
            woke.set()

        thread = threading.Thread(target=sleeper)
        thread.start()
        clock.wait_for_sleepers(1)
        assert not woke.is_set()
        clock.advance(0.5)
        assert not woke.wait(timeout=0)  # deadline not reached yet
        clock.advance(0.5)
        assert woke.wait(timeout=10.0)
        thread.join(timeout=10.0)

    def test_wake_without_sleepers_leaves_no_residue(self):
        """A wake with nobody parked is a pure no-op (stop() re-issues
        wakes on its join loop instead of the clock remembering them), so
        a later sleep still parks normally."""
        clock = FakeClock()
        clock.wake()
        woke = threading.Event()

        def sleeper():
            clock.sleep(1.0)
            woke.set()

        thread = threading.Thread(target=sleeper)
        thread.start()
        clock.wait_for_sleepers(1)
        assert not woke.is_set()  # the earlier wake was not consumed here
        clock.advance(1.0)
        assert woke.wait(timeout=10.0)
        thread.join(timeout=10.0)

    def test_wake_unparks_current_sleepers(self):
        clock = FakeClock()
        woke = threading.Event()

        def sleeper():
            clock.sleep(1e9)
            woke.set()

        thread = threading.Thread(target=sleeper)
        thread.start()
        clock.wait_for_sleepers(1)
        clock.wake()
        assert woke.wait(timeout=10.0)
        thread.join(timeout=10.0)
        assert clock.monotonic() == 0.0  # wake moves threads, not time
