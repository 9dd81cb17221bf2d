"""Independent test-side oracles.

These deliberately re-derive results through different code paths than the
package: plain index-wise permutation application, coset digraphs built
from canonical representatives taken as minima over gH, Edmonds-Karp
max-flow over dict-based residual graphs, and a full 2^n subset scan for
atoms.  The per-sink flow sweep runs the package's merged pass with one
sink at a time, a plain max-flow, as the reference for the merged-source
pass over all sinks that replaced it.  The full-pass κ runs that pass over
every orbit's non-neighbor, as the reference for the one pass over a
breadth-first prefix that replaced it.  The closure scan computes each
subgroup candidate <H, S0> as a subgroup of G, as the reference for the
scan over vertex orbits that replaced it.  The sub-instance oracle builds
the instance on <H, S0> from a spec of its own, enumerating <H, S0> afresh,
as the reference for the sub-instance read off the parent instance.  The
orbit-minima oracle joins the vertices by union-find, as the reference for
the orbits of the flow routines' sinks, which come from one breadth-first
walk over ``perms.orbit``.  The plain ordering search tries every strictly
growing generator ordering, as the reference for the search that skips a
subgroup from which no ordering completes.  The right- and left-table
oracles multiply image tuples and look each product up, as the reference
for the tables read off the enumeration's breadth-first tree, and the
enumeration oracle forms each product as a tuple, as the reference for the
enumeration's per-element getters.  The atom
oracle runs the package's one-size subset scan at sizes 1, 2, ... until
one hits: the atoms of a digraph, for the tests that need them whole.

The last block holds small readers of a built instance that only tests
call: the smallest winning atom candidate, the neighbor count and
generator split of a reported base atom, the automorphism check of a
left translation, the out-edge count of a vertex set and the minimality
of the connection set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from cosetkit import (AtomCandidate, CosetDigraphSpec, GroupError, atoms_bruteforce, build,
                      inverse, neighbor_set, subgroup_atom_scan, transpose, transpose_spec)
from cosetkit.digraph import _vertex_split_network


def apply_then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Index-wise oracle for the product 'apply p first, then q' on
    1-based image tuples."""
    return tuple(q[v - 1] for v in p)


def closure_images(degree: int, gens) -> list[tuple[int, ...]]:
    """The group generated by the image tuples ``gens``, in breadth-first
    discovery order under right multiplication (identity first)."""
    identity = tuple(range(1, degree + 1))
    elements, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        new_frontier = []
        for g in frontier:
            for s in gens:
                w = apply_then(g, s)
                if w not in seen:
                    seen.add(w)
                    elements.append(w)
                    new_frontier.append(w)
        frontier = new_frontier
    return elements


def right_table_oracle(G, p) -> list[int]:
    """``table[i]`` = id of G.elements[i] * p, by one tuple product and one
    index lookup per element."""
    return [G.index[apply_then(x.image, p.image)] for x in G.elements]


def left_table_oracle(G, g: int) -> list[int]:
    """``table[i]`` = id of G.elements[g] * G.elements[i], by one tuple
    product and one index lookup per element."""
    x = G.elements[g].image
    return [G.index[apply_then(x, p.image)] for p in G.elements]


def enumeration_oracle(degree: int, gens):
    """(images, generator tables, BFS parents, BFS steps) of the closure of
    the Permutations ``gens`` under right multiplication, in first-in
    first-out discovery order, one tuple product per element and generator."""
    images = [tuple(range(1, degree + 1))]
    index = {images[0]: 0}
    tables, parent, step = [[] for _ in gens], [], []
    for x_id, x in enumerate(images):
        for s, g in enumerate(gens):
            w = apply_then(x, g.image)
            if w not in index:
                index[w] = len(images)
                images.append(w)
                parent.append(x_id)
                step.append(s)
            tables[s].append(index[w])
    return images, tables, parent, step


@dataclass(frozen=True)
class CosetDigraphOracle:
    reps: tuple[tuple[int, ...], ...]
    base_vertex: int
    degrees: dict[str, int]
    edge_class: dict[str, frozenset[tuple[int, int]]]


def coset_digraph_oracle(spec) -> CosetDigraphOracle:
    """The coset digraph of ``spec`` by the object path: the canonical
    representative of gH is the least image tuple over g*h, h in H; the
    representatives are taken in G's element order; generators are
    deduplicated by double coset, first label wins; and u -> v is an edge
    for s when some rep(u)*h*s lies in coset v."""
    G = closure_images(spec.degree, [p.image for p in spec.group_generators])
    H = closure_images(spec.degree, [p.image for p in spec.subgroup_generators])

    def rep(g):
        return min(apply_then(g, h) for h in H)

    reps, seen = [], set()
    for g in G:
        if g not in seen:
            coset = [apply_then(g, h) for h in H]
            reps.append(min(coset))
            seen.update(coset)
    vertex = {r: i for i, r in enumerate(reps)}

    def double_coset(s):
        return {apply_then(apply_then(h1, s), h2) for h1 in H for h2 in H}

    connection, double_cosets = {}, []
    for lbl, p in spec.connection_set:
        if not any(p.image in dc for dc in double_cosets):
            connection[lbl] = p.image
            double_cosets.append(double_coset(p.image))

    degrees, edge_class = {}, {}
    for (lbl, s), dc in zip(connection.items(), double_cosets):
        degrees[lbl] = len(dc) // len(H)
        edge_class[lbl] = frozenset((u, vertex[rep(apply_then(apply_then(g, h), s))])
                                    for u, g in enumerate(reps) for h in H)
    return CosetDigraphOracle(tuple(reps), vertex[rep(G[0])], degrees, edge_class)


def assert_matches_object_path(cd) -> None:
    """``cd`` agrees with ``coset_digraph_oracle`` of its spec in
    representatives and their order, base vertex, degrees, edge classes
    and adjacency rows, each row the sorted union of the classes at u."""
    want = coset_digraph_oracle(cd.spec)
    assert tuple(p.image for p in cd.vertices) == want.reps
    assert cd.base_vertex == want.base_vertex
    assert cd.degrees == want.degrees
    assert {lbl: frozenset((u, v) for u, row in enumerate(cd.successors(lbl)) for v in row)
            for lbl in cd.labels} == want.edge_class
    rows = [set() for _ in want.reps]
    for edges in want.edge_class.values():
        for u, v in edges:
            rows[u].add(v)
    assert [list(row) for row in cd.graph.adj] == [sorted(row) for row in rows]


def sub_instance_oracle(cd, labels):
    """The instance on <H, labels> with the same subgroup H, built from a
    spec whose group generators are H's generators and those of ``labels``."""
    gens = tuple(cd.connection[lbl] for lbl in labels)
    spec = CosetDigraphSpec(cd.spec.degree,
                            cd.spec.subgroup_generators + gens,
                            cd.spec.subgroup_generators,
                            tuple((lbl, cd.connection[lbl]) for lbl in labels),
                            cd.spec.enumeration_cap)
    return build(spec)


def closure_scan_oracle(cd, side: str = "forward") -> list:
    """The subgroup atom scan by closures in G, unpruned: one candidate per
    S0 with K = <H, S0> a proper subgroup, whose vertex set is the cosets
    of K and whose neighbors are the cosets of x*s (x*s^-1 on the
    transpose) over x in K and s outside S0, minus the candidate; a part
    when the two together miss a vertex."""
    coset_of = cd.subgroup.cosets().coset_of
    suffix = "^-1" if side == "transpose" else ""
    candidates = []
    for r in range(len(cd.labels)):
        for chosen in combinations(cd.labels, r):
            sub = cd.closure(chosen)
            if len(sub) == len(cd.group):
                continue
            inside = {coset_of[x] for x in sub.ids}
            tables = [cd.group.right(inverse(s) if suffix else s)
                      for lbl, s in cd.connection.items() if lbl not in chosen]
            reached = {coset_of[t[x]] for t in tables for x in sub.ids} - inside
            candidates.append(AtomCandidate(
                tuple(lbl + suffix for lbl in chosen), tuple(sorted(inside)),
                len(inside) + len(reached) < len(cd.vertices), len(reached)))
    return candidates


def assert_scan_matches_closure_scan(cd) -> None:
    """Both sides of ``subgroup_atom_scan`` equal the closure scan, and its
    transpose side equals the forward scan of the transpose instance."""
    forward, backward = subgroup_atom_scan(cd)
    assert forward == closure_scan_oracle(cd, "forward"), "forward"
    assert backward == closure_scan_oracle(cd, "transpose"), "transpose"
    assert backward == subgroup_atom_scan(transpose_spec(cd))[0]


def hierarchical_order_oracle(cd):
    """First generator ordering (lexicographic in spec order) making the
    partial subgroups <H, s_1..s_i> strictly grow, or None, by a plain
    depth-first search over every such ordering."""
    labels = cd.labels

    def extend(prefix, current: int):
        if len(prefix) == len(labels):
            return prefix
        for lbl in labels:
            if lbl in prefix:
                continue
            grown = len(cd.closure(prefix + (lbl,)))
            if grown > current:
                hit = extend(prefix + (lbl,), grown)
                if hit is not None:
                    return hit
        return None

    return extend((), len(cd.subgroup))


def orbit_minima_oracle(g, base: int, symmetries) -> list[int]:
    """Least vertex of each orbit but {base} of the group generated by the
    vertex permutations ``symmetries``, in breadth-first order from
    ``base``: each symmetry joins u with its image in a union-find whose
    roots are the least vertices."""
    n = g.vertex_count
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for phi in symmetries:
        for u in range(n):
            a, b = find(u), find(phi[u])
            if a != b:
                root[max(a, b)] = min(a, b)
    order, seen = [base], {base}
    for u in order:
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return [v for v in order[1:] if find(v) == v]


def reachable(adj, start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def edmonds_karp(n: int, arcs: list[tuple[int, int, int]], s: int, t: int) -> int:
    """Independent max-flow: BFS augmenting paths over a dict residual."""
    return _augment(_residual(n, arcs), s, t, None)


def _residual(n: int, arcs: list[tuple[int, int, int]]) -> list[dict[int, int]]:
    residual = [dict() for _ in range(n)]
    for u, v, cap in arcs:
        residual[u][v] = residual[u].get(v, 0) + cap
        residual[v].setdefault(u, 0)
    return residual


def _augment(residual: list[dict[int, int]], s: int, t: int, limit: int | None) -> int:
    """Edmonds-Karp on ``residual``, which it consumes, stopped once the
    flow reaches ``limit`` when one is given."""
    flow = 0
    while limit is None or flow < limit:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push
    return flow


def _split_network(g) -> list[dict[int, int]]:
    n = g.vertex_count
    arcs = [(2 * v, 2 * v + 1, 1) for v in range(n)]
    arcs += [(2 * u + 1, 2 * v, n) for u, v in g.edges()]
    return _residual(2 * n, arcs)


def local_vertex_connectivity_oracle(g, s: int, t: int) -> int:
    """Menger via Edmonds-Karp on an independently built split network."""
    return _augment(_split_network(g), 2 * s + 1, 2 * t, None)


def vertex_connectivity_oracle(g) -> int:
    """Even (1975): a minimum separator S misses one of any |S| + 1
    vertices, say v, and then S separates v from some vertex or some vertex
    from v.  So flows from and to v_0, v_1, ... while i <= the running
    minimum give the minimum over all pairs, on any digraph; pairs with an
    earlier v_j were already run in both directions.  A flow that reaches
    the running minimum cannot lower it, so it stops there."""
    n = g.vertex_count
    network = _split_network(g)
    best = n - 1
    v = 0
    while v < n and v <= best:
        for w in range(v + 1, n):
            for s, t in ((v, w), (w, v)):
                if t not in g.adj[s]:
                    best = _augment([dict(row) for row in network], 2 * s + 1, 2 * t, best)
        v += 1
    return best


def _vertex_connectivity_all_pairs(g) -> int:
    n = g.vertex_count
    best = n - 1
    for s in range(n):
        for t in range(n):
            if s != t and t not in g.adj[s]:
                best = min(best, local_vertex_connectivity_oracle(g, s, t))
    return best


def edge_connectivity_oracle(g) -> int:
    n = g.vertex_count
    arcs = [(u, v, 1) for u, v in g.edges()]
    best = min(len(row) for row in g.adj)
    for t in range(1, n):
        best = min(best, edmonds_karp(n, arcs, 0, t), edmonds_karp(n, arcs, t, 0))
    return best


def least_cut_per_sink_oracle(net, source: int, sinks, bound: int):
    """The per-sink sweep that the merged pass replaced, on a package flow
    network ``net``: a fresh single-sink max-flow from ``source`` to each
    sink, each stopped once it reaches the best value so far (starting from
    ``bound``).  The flow to the best sink, the first in sweep order to
    reach the least value, is re-run until no augmenting path is left, and
    its value, that sink and the source's residual-reachable set are
    returned."""
    best, best_sink = bound, None
    for t in sinks:
        net.reset()
        f = net.merged_pass(source, (t,), best)
        if f < best:
            best, best_sink = f, t
    if best_sink is None:
        raise AssertionError(f"no sink has a flow below the bound {bound}")
    net.reset()
    if net.merged_pass(source, (best_sink,), best + 1) != best:
        raise AssertionError("re-run max-flow disagrees with the sweep's minimum")
    return best, best_sink, net.residual_reachable(source)


def full_pass_kappa_oracle(g, base: int, symmetries=()) -> int:
    """Vertex connectivity of a vertex-transitive digraph by the flow route
    that the prefix passes replaced: one merged pass from the out-node of
    ``base`` into the in-node of the least vertex of every orbit of the
    symmetries that is not a neighbor of ``base``, in breadth-first order."""
    n = g.vertex_count
    if g.is_complete():
        return n - 1
    sinks = [2 * t for t in orbit_minima_oracle(g, base, symmetries) if t not in g.adj[base]]
    return _vertex_split_network(g).merged_pass(2 * base + 1, sinks, n - 1)


def atoms_fullscan_oracle(g, kappa: int) -> set[frozenset[int]]:
    """All minimum parts with |N(A)| = kappa by scanning every subset."""
    n = g.vertex_count
    best_size = None
    hits: set[frozenset[int]] = set()
    for mask in range(1, 2 ** n):
        members = [v for v in range(n) if mask >> v & 1]
        nbrs = set()
        for v in members:
            nbrs.update(g.adj[v])
        nbrs.difference_update(members)
        if len(nbrs) != kappa or len(members) + len(nbrs) >= n:
            continue
        if best_size is None or len(members) < best_size:
            best_size = len(members)
            hits = {frozenset(members)}
        elif len(members) == best_size:
            hits.add(frozenset(members))
    return hits


def atoms_oracle(g, kappa: int) -> tuple[frozenset[int], ...]:
    """All minimum-cardinality parts A with |N(A)| = kappa, by the one-size
    scan at each size in turn; a non-complete strongly connected digraph
    has some, so finding none fails."""
    for size in range(1, g.vertex_count - kappa):
        atoms = atoms_bruteforce(g, kappa, size)
        if atoms:
            return atoms
    raise AssertionError("no atom found in a non-complete digraph")


def e_atoms_fullscan_oracle(g, lam: int) -> set[frozenset[int]]:
    n = g.vertex_count
    best_size = None
    hits: set[frozenset[int]] = set()
    for mask in range(1, 2 ** n - 1):
        members = {v for v in range(n) if mask >> v & 1}
        out_edges = sum(1 for u, v in g.edges() if u in members and v not in members)
        if out_edges != lam:
            continue
        if best_size is None or len(members) < best_size:
            best_size = len(members)
            hits = {frozenset(members)}
        elif len(members) == best_size:
            hits.add(frozenset(members))
    return hits


def is_strongly_connected_oracle(adj) -> bool:
    n = len(adj)
    if n <= 1:
        return True
    radj = [[] for _ in range(n)]
    for u, row in enumerate(adj):
        for v in row:
            radj[v].append(u)
    return len(reachable(adj, 0)) == n and len(reachable(radj, 0)) == n


def base_atom_candidate(winners) -> AtomCandidate | None:
    """Smallest of one side's winning candidates: the atom containing the
    base vertex on this side, when the side achieves kappa."""
    return min(winners, key=lambda c: (len(c.vertex_set), c.labels), default=None)


def base_atom_split(cd, report) -> tuple[int, tuple[str, ...], int]:
    """|N(A0)| on its side for the base atom A0 of a ``verify_atom_theory``
    report, the labels S0 of the s with sH in A0, and d_S1, the degree
    through the other labels."""
    graph = cd.graph if report.side == "forward" else transpose(cd.graph)
    nbrs, _ = neighbor_set(graph, report.base_atom)
    s0 = tuple(lbl for lbl, p in cd.connection.items() if cd.vertex_of(p) in report.base_atom)
    return len(nbrs), s0, sum(d for lbl, d in cd.degrees.items() if lbl not in s0)


def verify_automorphism(cd, g) -> bool:
    """True iff left translation by g preserves every labeled edge class."""
    if g not in cd.group:
        raise GroupError(f"{g} is not an element of G")
    phi = cd.left_translation(cd.group.id_of(g))
    if len(set(phi)) != len(phi):
        return False
    for lbl in cd.labels:
        rows = cd.successors(lbl)
        if any(sorted(phi[v] for v in row) != rows[phi[u]] for u, row in enumerate(rows)):
            return False
    return True


def out_edge_count(g, vertices) -> int:
    """Number of edges leaving the vertex set."""
    inside = set(vertices)
    return sum(w not in inside for v in inside for w in g.adj[v])


def is_minimal(cd) -> bool:
    """True iff no proper subset of the connection set generates G with H."""
    return all(len(cd.closure(lbl for lbl in cd.labels if lbl != dropped))
               < len(cd.group) for dropped in cd.labels)
