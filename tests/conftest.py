"""Shared fixtures for the test suite.

Expensive artefacts (corpora, fitted embedders, running simulators) are
session-scoped so the suite stays fast while still exercising real objects.
"""

from __future__ import annotations

import faulthandler
import importlib.util
import os
import sys

import pytest

from repro.cloudsim import TransportService
from repro.datagen import CorpusConfig, CorpusGenerator, generate_corpus
from repro.handlers import default_registry
from repro.incidents import IncidentStore
from repro.telemetry import TelemetryHub

# ------------------------------------------------------------ deadlock guard
# pytest.ini sets pytest-timeout's keys.  Where the plugin is not installed
# they would be unknown options and nothing would stop a deadlocked test, so
# this registers them and arms the stdlib's watchdog around each test
# instead: after ``timeout`` seconds it dumps every thread's stack to the
# terminal and exits the process, as the plugin's thread method does.
# ``timeout_method`` and ``session_timeout`` are read by the plugin alone.
_PLUGIN_KEYS = ("timeout", "timeout_method", "session_timeout")
_HAVE_PLUGIN = importlib.util.find_spec("pytest_timeout") is not None
_terminal_fd = pytest.StashKey()


def pytest_addoption(parser):
    if not _HAVE_PLUGIN:
        for key in _PLUGIN_KEYS:
            parser.addini(key, f"pytest-timeout's {key} (tests/conftest.py stands in for the plugin)")


def pytest_configure(config):
    if not _HAVE_PLUGIN:
        # Output capture is suspended here, so this is the real terminal.
        config.stash[_terminal_fd] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    if _terminal_fd in config.stash:
        os.close(config.stash[_terminal_fd])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    config = item.config
    seconds = float(config.getini("timeout") or 0) if _terminal_fd in config.stash else 0.0
    if seconds <= 0:
        yield
        return
    faulthandler.dump_traceback_later(seconds, exit=True, file=config.stash[_terminal_fd])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def tiny_corpus() -> IncidentStore:
    """A very small corpus for unit tests that just need labelled incidents."""
    return generate_corpus(
        total_incidents=40, total_categories=12, seed=11, duration_days=60.0
    )


@pytest.fixture(scope="session")
def small_corpus() -> IncidentStore:
    """A small-but-realistic corpus for retrieval / pipeline tests."""
    return generate_corpus(
        total_incidents=90, total_categories=25, seed=23, duration_days=120.0
    )


@pytest.fixture(scope="session")
def corpus_split(small_corpus):
    """(train, test) chronological split of the small corpus."""
    return small_corpus.chronological_split(0.75)


@pytest.fixture()
def hub() -> TelemetryHub:
    """A fresh, empty telemetry hub."""
    return TelemetryHub()


@pytest.fixture(scope="session")
def warm_service() -> TransportService:
    """A Transport simulation warmed up with background traffic."""
    service = TransportService(seed=101)
    service.warm_up(hours=1.0)
    return service


@pytest.fixture(scope="session")
def registry():
    """The built-in handler registry."""
    return default_registry()
