"""Repo-wide pytest hooks: the deadlock guard for every suite under the root.

``pytest tests``, ``pytest bench/tests`` and ``pytest benchmarks/...`` all
load this file, so each of them reads pytest.ini's timeout keys.
"""

from __future__ import annotations

import faulthandler
import importlib.util
import os
import sys

import pytest

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
            parser.addini(key, f"pytest-timeout's {key} (conftest.py stands in for the plugin)")


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
