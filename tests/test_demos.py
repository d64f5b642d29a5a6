"""The user-facing documents: every demo under ``demos/`` runs to completion
and prints its pinned output, and the README names every public name."""

import hashlib
import re
import runpy
from pathlib import Path

import pytest

import graphck

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: SHA-256 of each demo's stdout.  Demo 05 prints K₀ classes as residues,
#: so it also pins the residues a user sees.
STDOUT_SHA256 = {
    "01_graphs_and_structure": "98f6cccaeb6b246910a0fca69c5a331af4fe98f2506dcda1add9f7b972451a1b",
    "02_moves_with_provenance": "58e2d41f321964b332d153df95ed2b24734e989842a478f3af8535e2b8aa0627",
    "03_canonical_form": "b53048541fa737f5d54625c70e8037ba8ec45adc411679086f6bbade5fd2b614",
    "04_ideal_lattice": "08cd2eb8ba2e2e0328b7c3a3f5bd46da11a5af8721e1defc24fc2c57d1c103dc",
    "05_projection_calculus": "194c23f7957a657a75d3798d3e1f3399d32bbdb6abb5c45305dfed5ef5c1f7f6",
    "06_corners_and_unitization": "e9dc3caba01af049c54a95853345bd1d5d83919efc4a7cf61450b0b287e305ba",
    "07_ktheory_oracle": "f751e0be63564da92158f87b2d8d08a491052e110ff589dadc6f1dbdf9173537",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[demo.stem]


def test_readme_names_every_public_name():
    """Each ``graphck.__all__`` name is a word of some inline code span of the
    README, outside its fenced code blocks."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(encoding="utf-8"),
                  flags=re.DOTALL | re.MULTILINE)
    words = {w for span in re.findall(r"`([^`]+)`", text) for w in re.findall(r"\w+", span)}
    assert sorted(set(graphck.__all__) - words) == []
