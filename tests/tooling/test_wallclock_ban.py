"""Lint: no wall-clock reads or sleeps in the library outside the clock module.

The record/replay bus's determinism guarantee rests on every time read and
every wait going through an injectable :class:`repro.core.clock.Clock` —
one stray ``time.time()`` re-introduces the wall clock into a replay and
silently breaks faster-than-real-time playback.  This suite walks the AST
of every module under ``src/repro/`` and fails on any call to
``time.time`` or ``time.sleep`` (through any import alias) anywhere except
``core/clock.py``, where the real-clock implementations live.

``time.monotonic`` and ``time.perf_counter`` stay allowed: they measure
*durations* for telemetry and never gate behaviour on the wall clock.
"""

from __future__ import annotations

import ast
import os
from typing import List, Set, Tuple

#: The only functions of the ``time`` module the library may not call.
BANNED = {"time", "sleep"}

#: The one module allowed to touch the real clock.
ALLOWED_RELATIVE = {os.path.join("core", "clock.py")}


def repro_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)), "src", "repro")


def banned_calls(path: str) -> List[Tuple[int, str]]:
    """(line, rendered call) for every banned wall-clock call in one file."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)

    time_aliases: Set[str] = set()  # `import time` / `import time as t`
    banned_names: Set[str] = set()  # `from time import time, sleep` (+aliases)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in BANNED:
                        banned_names.add(alias.asname or alias.name)

    hits: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in BANNED
            and isinstance(func.value, ast.Name)
            and func.value.id in time_aliases
        ):
            hits.append((node.lineno, f"{func.value.id}.{func.attr}()"))
        elif isinstance(func, ast.Name) and func.id in banned_names:
            hits.append((node.lineno, f"{func.id}()"))
    return hits


def test_no_wallclock_calls_outside_clock_module():
    root = repro_root()
    assert os.path.isdir(root), root
    offences: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, root)
            if relative in ALLOWED_RELATIVE:
                continue
            for line, call in banned_calls(path):
                offences.append(
                    f"src/repro/{relative}:{line}: {call} — inject a "
                    "repro.core.clock.Clock instead"
                )
    assert not offences, "\n".join(offences)


def test_lint_walk_covers_the_bus_package():
    """Regression: packages are linted by virtue of the os.walk — pin that
    the record/replay bus, whose determinism the lint exists for, is in
    its scope."""
    root = repro_root()
    walked = {
        os.path.relpath(os.path.join(dirpath, filename), root)
        for dirpath, _dirnames, filenames in os.walk(root)
        for filename in filenames
        if filename.endswith(".py")
    }
    for expected in ("recorder.py", "replayer.py", "__init__.py"):
        assert os.path.join("bus", expected) in walked


def test_the_detector_itself_catches_every_alias_form():
    """Self-test: the AST walk sees every way of spelling the banned calls."""
    import tempfile

    source = (
        "import time\n"
        "import time as t\n"
        "from time import time as now, sleep\n"
        "from time import monotonic, perf_counter\n"
        "time.time()\n"
        "t.sleep(1)\n"
        "now()\n"
        "sleep(2)\n"
        "monotonic()\n"  # allowed
        "perf_counter()\n"  # allowed
        "time.monotonic()\n"  # allowed
    )
    with tempfile.NamedTemporaryFile("w", suffix=".py", delete=False) as handle:
        handle.write(source)
        path = handle.name
    try:
        hits = banned_calls(path)
    finally:
        os.unlink(path)
    assert [call for _line, call in hits] == [
        "time.time()",
        "t.sleep()",
        "now()",
        "sleep()",
    ]
