"""Seeded move lists and out-splits, drawn the way ``graphck.corpus`` draws them.

``random_move`` builds only the move it picks; the helpers here build every
candidate, so tests can check each move it could have drawn.  They make the
same ``rng`` calls as the library's draws, which ``DRAWS_GOLDEN`` pins.
"""

import random

from graphck import Graph
from graphck.corpus import _candidates, _draw_split, _params, _split_classes


def applicable_moves(g: Graph, rng: random.Random) -> list:
    """Every move ``random_move`` draws from, as (kind, params) pairs in its order.

    ``random_move(g, rng)`` equals ``rng.choice(applicable_moves(g, rng))``,
    or None when the list is empty, and leaves ``rng`` in the same state.
    """
    return [_params(g, c) for c in _candidates(g, rng)]


def _random_split(g: Graph, u: str, rng: random.Random):
    """A random valid two-class partition of the out-edges of ``u``, or None."""
    i = g.index(u)
    drawn = _draw_split(g._rows[i], rng)
    return None if drawn is None else _split_classes(g, i, drawn)
