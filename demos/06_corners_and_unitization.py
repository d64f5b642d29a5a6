"""Corner graphs, their finite realizations, and unitization graphs.

A multiplicity vector n with every n_v >= 1 determines a corner graph:
the base plus a head of length n_v - 1 on each vertex, sitting inside
the full stabilization (all heads ∞).  Finite heads expand to honest
graphs; the star graph funnels every head path through one new vertex,
which is regular when every head is finite and one is positive, and an
infinite emitter, as for the minimal unitization, when a head is ∞.
"""

from graphck import (
    INF,
    build_EH,
    corner_graph,
    k_groups,
    make_graph,
    realize,
    stabilize,
    unitize,
)

g = make_graph(["a", "b"], [[2, 1], [0, 1]])
print("base graph:", g.to_json())
print("stabilization heads:", {v: h.to_json() for v, h in stabilize(g).heads})
print()

cg = corner_graph(g, {"a": 3, "b": 1})
print("corner graph for multiplicities {a: 3, b: 1}:")
print("  heads:", {v: h.to_json() for v, h in cg.heads})
expanded = realize(cg)
print("  realized:", expanded.to_json())
print("  K-theory preserved:", k_groups(expanded) == k_groups(g))
print()

print("spike graph over the realized corner (one spike per head vertex):")
spiked = build_EH(expanded, set(g.vertices))
print(" ", sorted(spiked.vertices))
print()

star = unitize(cg)
print("star graph (minimal unitization):", star.to_json())
print("the star vertex is regular here since all heads are finite")
print()

star_inf = unitize(corner_graph(g, {"a": INF, "b": 2}))
print("with an infinite multiplicity the star becomes an infinite emitter:")
print(" ", star_inf.to_json())
