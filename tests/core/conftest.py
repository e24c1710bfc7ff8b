"""Path setup: the core suite checks retrieval against the vectordb oracle."""

from __future__ import annotations

import os
import sys

# pytest puts each test file's own directory on sys.path; the brute-force
# retrieval oracle lives next to the vectordb suite, one directory over.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "vectordb"))
