"""A test that never returns, for ``test_timeout_guard.py`` to run in a child pytest.

Not named ``test_*.py``: only collected when passed by path.
"""

import threading


def test_waits_forever():
    threading.Event().wait()
