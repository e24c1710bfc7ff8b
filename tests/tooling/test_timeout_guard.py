"""The suite's deadlock guard works with or without the pytest-timeout plugin.

``pytest.ini`` sets the plugin's keys; where the plugin is missing
``tests/conftest.py`` registers them and enforces ``timeout`` itself.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_timeout_keys_are_known_options(pytestconfig):
    assert float(pytestconfig.getini("timeout")) > 0
    assert pytestconfig.getini("timeout_method") == "thread"
    assert float(pytestconfig.getini("session_timeout")) > 0


def test_a_stuck_test_is_killed_with_a_stack_dump():
    child = subprocess.run(
        [sys.executable, "-m", "pytest", os.path.join(HERE, "hanging_case.py"), "-q"]
        + ["-o", "timeout=1", "-p", "no:cacheprovider"],
        cwd=os.path.dirname(os.path.dirname(HERE)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode != 0
    output = child.stdout + child.stderr
    assert "Timeout" in output and "test_waits_forever" in output
