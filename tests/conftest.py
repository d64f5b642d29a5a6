"""Shared hypothesis strategies for random graphs."""

import importlib
import pkgutil
import sys
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

# Derandomized, and no example database left behind; a test's own
# ``@settings`` (max_examples, deadline) still applies on top.  The examples
# repeat from run to run of the same sources, but not across source changes:
# Hypothesis mixes the literals of every loaded non-test module (strings of
# 1-20 characters, ints outside -99..99, finite floats) into its draws.  So a
# changed literal in ``src/graphck`` can change a test's examples.  Literals
# in test files, docstrings and f-strings do not count.  The package loads its
# modules lazily, so every one of them is loaded here, and the draws do not
# depend on which other tests run in the same session.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

import graphck

for _module in pkgutil.iter_modules(graphck.__path__):
    if _module.name != "__main__":  # it runs the CLI
        importlib.import_module(f"graphck.{_module.name}")

from graphck import Graph

ENTRY_POOL = [0, 0, 0, 1, 1, 2, "inf"]


@st.composite
def graphs(draw, max_vertices=5, entries=tuple(ENTRY_POOL)):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    rows = [
        [draw(st.sampled_from(entries)) for _ in range(n)] for _ in range(n)
    ]
    return Graph([f"v{i}" for i in range(n)], rows)
