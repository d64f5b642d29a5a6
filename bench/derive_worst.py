"""The pinned inputs of the ``worst`` workload, and how they were found.

Each pinned input is item ``item`` of the seeded corpus ``seed`` with at
most 8 vertices, drawn as ``graphck.corpus.verify_corpus`` draws it.

    python3 bench/derive_worst.py              # re-derive and compare every pin
    python3 bench/derive_worst.py --scan 0 48  # time the items of seeds 0 to 47

``--scan FROM TO`` times ``canonicalize`` plus ``is_stably_complete`` on
the first ``SCAN_ITEMS`` items of the seeds in ``[FROM, TO)``, skips items
that pass ``SCAN_LIMIT_S`` seconds, and prints the ``SCAN_TOP`` slowest as
JSON lines to choose pins from.  A pin that no longer matches its draw
fails the compare; changing a pin is an edit to ``worst_inputs.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from graphck import canonicalize, is_stably_complete, random_graph  # noqa: E402

PINS = BENCH / "worst_inputs.json"
MAX_VERTICES = 8
SCAN_ITEMS = 60
SCAN_LIMIT_S = 12
SCAN_TOP = 20


def draw(seed: int, item: int):
    """Item ``item`` of the corpus ``seed``, as ``verify_corpus`` draws it."""
    rng = random.Random(seed)
    for _ in range(item):
        rng.getrandbits(64)
    return random_graph(random.Random(rng.getrandbits(64)), max_vertices=MAX_VERTICES)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def scan(first: int, last: int) -> None:
    signal.signal(signal.SIGALRM, _alarm)
    found = []
    for seed in range(first, last):
        for item in range(SCAN_ITEMS):
            g = draw(seed, item)
            signal.alarm(SCAN_LIMIT_S)
            t0 = perf_counter()
            try:
                out, _ = canonicalize(g)
                is_stably_complete(out)
            except _Timeout:
                print(json.dumps({"seed": seed, "item": item, "over_s": SCAN_LIMIT_S}), file=sys.stderr)
                continue
            finally:
                signal.alarm(0)
            found.append((perf_counter() - t0, seed, item, g.n))
    for seconds, seed, item, n in sorted(found, reverse=True)[:SCAN_TOP]:
        print(json.dumps({"seed": seed, "item": item, "vertices": n, "ms": round(seconds * 1e3, 1)}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scan", nargs=2, type=int, metavar=("FROM", "TO"))
    args = parser.parse_args(argv)
    if args.scan:
        scan(*args.scan)
        return 0
    pins = json.loads(PINS.read_text(encoding="utf-8"))["inputs"]
    stale = 0
    for pin in pins:
        if draw(pin["seed"], pin["item"]).to_json() != pin["graph"]:
            stale += 1
            print(f"seed {pin['seed']} item {pin['item']}: the pinned graph differs from the draw")
    if not stale:
        print(f"all {len(pins)} pinned inputs match their draws")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
