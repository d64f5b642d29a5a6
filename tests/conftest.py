"""Shared hypothesis strategies for random graphs."""

import sys
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

# The same examples on every run, and no example database left behind;
# a test's own ``@settings`` (max_examples, deadline) still applies on top.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

from graphck import Graph

ENTRY_POOL = [0, 0, 0, 1, 1, 2, "inf"]


@st.composite
def graphs(draw, max_vertices=5, entries=tuple(ENTRY_POOL)):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    rows = [
        [draw(st.sampled_from(entries)) for _ in range(n)] for _ in range(n)
    ]
    return Graph([f"v{i}" for i in range(n)], rows)
