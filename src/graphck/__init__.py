"""graphck: directed multigraphs with multiplicities in ℕ ∪ {∞}.

A toolkit for the move calculus on such graphs: elementary moves with
replayable provenance, rewriting into stably complete form, the lattice
of admissible pairs, a symbolic calculus of projection coefficient
systems producing corner graphs, spike and star unitization graphs, and
an independent integer-matrix K-theory oracle that certifies every
transformation.

Importing the package loads none of its modules: a public name is looked
up in its home module on first use (PEP 562) and kept here after that.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_HOMES = {
    "canonical": ("StablyCompleteReport", "canonicalize", "is_stably_complete"),
    "corners": (
        "CornerGraph", "build_EH", "corner_graph", "make_corner", "realize", "stabilize",
        "unitize",
    ),
    "corpus": ("random_graph", "verify_corpus"),
    "errors": (
        "CannotRealizeError", "DomainError", "GraphCKError", "InternalError", "MoveError",
        "NotFoundError", "ValidationError",
    ),
    "extnat": ("INF", "ExtNat"),
    "graph": (
        "EdgeRef", "Graph", "VertexClass", "condition_K", "dominates", "hereditary_closure",
        "is_hereditary", "is_saturated", "make_graph", "reaches", "saturate",
        "simple_cycle_count_at", "vertex_class",
    ),
    "ideals": (
        "AdmissiblePair", "IdealLattice", "admissible_pairs", "breaking_vertices",
        "restriction_graph", "saturated_hereditary_sets",
    ),
    "ktheory": (
        "K0Class", "KTheoryPair", "k0_reduce", "k_groups", "reg_matrix", "smith_normal_form",
    ),
    "moves": (
        "REMAINDER", "MoveRecord", "Partition", "apply_move", "collapse", "column_add",
        "column_ops_along_path", "move_T", "out_split", "remove_regular_sources", "replay",
        "split_breaking",
    ),
    "projcalc": (
        "CoefficientSystem", "ProjectionSequence", "corner_pipeline",
        "eliminate_dominated_emitter", "eliminate_loop_emitter", "eliminate_undominated_emitter",
        "fullify", "head_k0_class", "is_full", "k0_class_of", "make_partitioned",
        "normalize_multiplicities", "tail_instance", "to_multiplicities", "undominated_k0_action",
    ),
}

_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
