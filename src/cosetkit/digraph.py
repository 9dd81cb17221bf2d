"""Generic finite digraph engine.

Strong connectivity, neighbor sets, exact vertex/edge connectivity of
vertex-transitive digraphs by merged-source augmenting-path passes from one
base vertex over the orbits of the given automorphisms fixing it (for κ, over
a breadth-first prefix on each side), with a minimum-cut certificate from a
re-run max-flow, and brute-force atom / e-atom enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, CompleteDigraphError, CrossCheckError, NotStronglyConnected
from .perms import orbit

DEFAULT_BRUTEFORCE_CAP = 18
DEFAULT_SUBSET_BUDGET = 2_000_000


class Digraph:
    """Immutable digraph on vertices 0..n-1; no loops, no parallel edges.
    Its strongly connected components are computed once, on first use, and
    so are the flow routines' sinks for each base vertex and symmetries."""

    __slots__ = ("adj", "_scc", "_sinks")

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        n = len(adjacency)
        adj = []
        for u, row in enumerate(adjacency):
            row = tuple(row)
            if len(set(row)) != len(row):
                raise ValueError(f"duplicate out-neighbors at vertex {u}")
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"neighbor {v} out of range at vertex {u}")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
            adj.append(row)
        self.adj = tuple(adj)
        self._scc: tuple[tuple[int, ...], ...] | None = None
        self._sinks: dict[tuple, tuple[int, ...]] = {}

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.adj):
            for v in row:
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def strong_components(self) -> tuple[tuple[int, ...], ...]:
        """``strongly_connected_components`` of this digraph, cached."""
        if self._scc is None:
            self._scc = tuple(map(tuple, strongly_connected_components(self)))
        return self._scc

    def is_complete(self) -> bool:
        n = self.vertex_count
        return all(len(row) == n - 1 for row in self.adj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Digraph) and \
            tuple(map(frozenset, self.adj)) == tuple(map(frozenset, other.adj))

    def __hash__(self) -> int:
        return hash(tuple(map(frozenset, self.adj)))

    def __repr__(self) -> str:
        return f"<digraph n={self.vertex_count} m={self.edge_count}>"


@dataclass(frozen=True)
class CutCertificate:
    """A witnessing minimum separator.  ``separator`` is a vertex set for
    kind 'vertex' and an edge set for kind 'edge'."""
    kind: str
    size: int
    separator: tuple
    separated_pair: tuple[int, int]


@dataclass(frozen=True)
class AtomSet:
    members: tuple[frozenset[int], ...]

    @property
    def size(self) -> int | None:
        return len(self.members[0]) if self.members else None


def transpose(g: Digraph) -> Digraph:
    """The edge-reversed digraph; it has g's strongly connected components,
    so it shares them once g has computed them."""
    rows: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges():
        rows[v].append(u)
    out = Digraph([sorted(r) for r in rows])
    out._scc = g._scc
    return out


def strongly_connected_components(g: Digraph) -> list[list[int]]:
    """Kosaraju's algorithm, iterative.  Components are returned sorted by
    their minimum vertex, members ascending."""
    n = g.vertex_count
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        seen[root] = True
        while stack:
            u, i = stack[-1]
            if i < len(g.adj[u]):
                stack[-1] = (u, i + 1)
                v = g.adj[u][i]
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, 0))
            else:
                order.append(u)
                stack.pop()
    gt = transpose(g)
    comp = [-1] * n
    comps: list[list[int]] = []
    for u in reversed(order):
        if comp[u] >= 0:
            continue
        members = [u]
        comp[u] = len(comps)
        for x in members:               # the list grows as it is read
            for v in gt.adj[x]:
                if comp[v] < 0:
                    comp[v] = len(comps)
                    members.append(v)
        comps.append(sorted(members))
    return sorted(comps, key=lambda c: c[0])


def is_strongly_connected(g: Digraph) -> bool:
    if g.vertex_count <= 1:
        return True
    return len(g.strong_components()) == 1


def neighbor_set(g: Digraph, vertices: Iterable[int]) -> tuple[frozenset[int], bool]:
    """Out-neighbors of the set (excluding the set itself) and whether the
    set is a part, i.e. V minus (A and its neighbors) is non-empty."""
    a = frozenset(vertices)
    nbrs: set[int] = set()
    for v in a:
        nbrs.update(g.adj[v])
    nbrs -= a
    return frozenset(nbrs), len(a) + len(nbrs) < g.vertex_count


class _UnitFlow:
    """Merged-source augmenting-path pass (with one sink, a plain bounded
    max-flow) on small integer-capacity networks, reset from a snapshot."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self._cap0: list[int] | None = None

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def freeze(self) -> None:
        self._cap0 = list(self.cap)

    def reset(self) -> None:
        self.cap[:] = self._cap0

    def merged_pass(self, source: int, sinks: Iterable[int], bound: int,
                    reverse: bool = False) -> int:
        """Least over ``sinks`` of the max flow into each from ``source`` and
        the sinks before it (out of each into them, with ``reverse``), each
        stopped at the least so far (at first ``bound``), in one flow never
        reset (Hao & Orlin).  After the one-arc paths, each augmenting path
        comes from searches from both ends, growing the smaller frontier by a
        layer.  Only the sink node then joins the merged set: in-node 2t
        (out-node 2t+1 with ``reverse``) on a split network.  Exact in any
        sink order: a step is a min cut between the merged set and its sink,
        at least the one from ``source``; for a min cut (X, Y) from ``source``
        to a minimising sink, the first sink in Y follows only sinks in X, so
        its step is at most the cut.  A separator vertex v has 2v in X and
        2v+1 in Y, so 2v+1 may not join."""
        to, cap, head = self.to, self.cap, self.head
        b = 0 if reverse else 1         # for an arc e out of a node, the sink's
        f = b ^ 1                       # search walks e ^ b, the merged set's e ^ f
        # search tree arcs (-1 at roots), last search at a node (joined if merged)
        via, fvia, seen, fseen = [0] * self.n, [0] * self.n, [0] * self.n, [0] * self.n
        joined, members, search, best = 1 << 62, [source], 0, bound
        fseen[source], fvia[source] = joined, -1
        for t in sinks:
            flow, via[t] = 0, -1
            for e in head[t]:           # one-arc paths from merged nodes
                while fseen[to[e]] == joined and cap[e ^ b] > 0 and flow < best:
                    cap[e ^ b] -= 1
                    cap[e ^ f] += 1
                    flow += 1
            while flow < best:
                search += 1
                seen[t], back, fore, meet = search, [t], members, -1
                while meet < 0 and back and fore:
                    if len(back) <= len(fore):
                        front, mine, tree, other, flip = back, seen, via, fseen, b
                    else:
                        front, mine, tree, other, flip = fore, fseen, fvia, seen, f
                    layer = []
                    for u in front:
                        for e in head[u]:
                            x = to[e]
                            if mine[x] < search and cap[e ^ flip] > 0:
                                mine[x], tree[x] = search, e ^ flip
                                if other[x] >= search:
                                    meet = x
                                    break
                                layer.append(x)
                        if meet >= 0:
                            break
                    back, fore = (layer, fore) if front is back else (back, layer)
                if meet < 0:
                    break               # no merged node is reachable
                for x, tree, step in ((meet, via, f), (meet, fvia, b)):
                    while tree[x] >= 0:         # augment from the meeting node
                        e = tree[x]
                        cap[e] -= 1
                        cap[e ^ 1] += 1
                        x = to[e ^ step]
                flow += 1
            best = min(best, flow)
            fseen[t], fvia[t] = joined, -1
            members.append(t)
        return best

    def residual_reachable(self, s: int) -> set[int]:
        seen, order = {s}, [s]
        for u in order:                 # the list grows as it is read
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    order.append(v)
        return seen


def _vertex_split_network(g: Digraph) -> _UnitFlow:
    # node 2v = v_in, 2v+1 = v_out; split arcs carry capacity 1
    n = g.vertex_count
    net = _UnitFlow(2 * n)
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for u, v in g.edges():
        net.add_edge(2 * u + 1, 2 * v, n)
    net.freeze()
    return net


def _edge_network(g: Digraph) -> _UnitFlow:
    net = _UnitFlow(g.vertex_count)
    for u, v in g.edges():
        net.add_edge(u, v, 1)
    net.freeze()
    return net


def _require_strongly_connected(g: Digraph) -> None:
    if not is_strongly_connected(g):
        raise NotStronglyConnected("digraph is not strongly connected")


def _orbit_minima(g: Digraph, base: int,
                  symmetries: Iterable[Sequence[int]]) -> list[int]:
    """Least vertex of each orbit but {base} of the group generated by
    ``symmetries``, in breadth-first order from ``base``.  Each must be an
    automorphism of ``g`` fixing ``base``, so that local connectivities from
    ``base`` are constant on orbits; checked here, else CrossCheckError."""
    n = g.vertex_count
    symmetries = list(symmetries)
    for phi in symmetries:
        if sorted(phi) != list(range(n)):
            raise CrossCheckError("a symmetry is not a permutation of the vertices")
        if phi[base] != base:
            raise CrossCheckError(f"a symmetry moves the base vertex {base}")
        if any({phi[v] for v in g.adj[u]} != set(g.adj[phi[u]]) for u in range(n)):
            raise CrossCheckError("a symmetry is not an automorphism of the digraph")
    least = [-1] * n
    for u in range(n):                  # ascending, so u is its orbit's least vertex
        if least[u] < 0:
            for v in orbit(symmetries, [u]):
                least[v] = u
    order, seen = [base], {base}
    for u in order:                     # the list grows as it is read
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return [v for v in order[1:] if least[v] == v]


def _sink_orbits(g: Digraph, base: int,
                 symmetries: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """``_orbit_minima``, computed once per digraph, base and symmetries, so
    that κ and λ from one base share the symmetry checks, and λ's sinks."""
    key = (base, tuple(map(tuple, symmetries)))
    sinks = g._sinks.get(key)
    if sinks is None:
        sinks = g._sinks[key] = tuple(_orbit_minima(g, base, key[1]))
    return sinks


def _prefix_sinks(net: _UnitFlow, base: int, symmetries: Sequence[Sequence[int]],
                  reverse: bool) -> list[int]:
    """The in-node (out-node and reversed edges with ``reverse``) on ``net`` of
    the first of each orbit of ``symmetries`` among the non-neighbors of
    ``base`` in its first 2d + 1 places in breadth-first order."""
    def row(u: int) -> list[int]:
        return [net.to[e] >> 1 for e in net.head[2 * u + 1 - reverse] if e & 1 == reverse]

    order, sinks, covered = [base], [], {base, *row(base)}
    size = 2 * len(covered) - 1         # 2d + 1, d the degree of base
    for u in order:                     # the list grows as it is read
        for v in row(u):
            if len(order) < size and v not in order:
                order.append(v)
                if v not in covered:
                    sinks.append(2 * v + reverse)
                    covered.update(orbit(symmetries, [v]))
    return sinks


def _certificate(net: _UnitFlow, pairs: Sequence[tuple[int, int]], best: int,
                 bound: int) -> tuple[tuple[int, int], set[int]]:
    """The first of the (source, sink) ``pairs`` whose fresh max-flow, stopped
    at best + 1, equals ``best``, a merged pass's least value below ``bound``,
    with its source's residual-reachable set: the least source side of a
    minimum cut.  Else, or on a flow below ``best``, CrossCheckError."""
    if best >= bound:
        raise CrossCheckError(f"no sink has a flow below the bound {bound}")
    for s, t in pairs:
        net.reset()
        flow = net.merged_pass(s, (t,), best + 1)
        if flow < best:
            raise CrossCheckError(f"a re-run max-flow of {flow} lies below the "
                                  f"merged pass's minimum {best}: the pass missed a cut")
        if flow == best:
            return (s, t), net.residual_reachable(s)
    raise CrossCheckError("no re-run max-flow reaches the merged pass's minimum")


def vertex_connectivity_transitive(g: Digraph, base: int,
                                   symmetries: Sequence[Sequence[int]] = ()
                                   ) -> tuple[int, CutCertificate | None]:
    """Vertex connectivity of a vertex-transitive digraph, with a minimum
    separator as certificate (n-1 and none if complete): the lesser of one
    merged pass from ``base`` and one into it, each over its
    ``_prefix_sinks``.  Where the atom A containing ``base`` is smaller,
    |A| <= kappa <= d (Hamidoune), so the prefix reaches past A and its
    kappa neighbors.  The certificate is the lesser side's (forward on a tie)
    first sink whose fresh flow equals kappa.  ``symmetries`` are
    automorphisms fixing ``base``, verified here: one sink per orbit."""
    _require_strongly_connected(g)
    n = g.vertex_count
    if g.is_complete():
        return n - 1, None
    _sink_orbits(g, base, symmetries)   # checks the symmetries once, shared with λ
    net = _vertex_split_network(g)
    fwd, rev = (_prefix_sinks(net, base, symmetries, r) for r in (False, True))
    best = net.merged_pass(2 * base + 1, fwd, n - 1)
    net.reset()
    kappa = net.merged_pass(2 * base, rev, best, True)
    pairs = [(s, 2 * base) for s in rev] if kappa < best else [(2 * base + 1, t) for t in fwd]
    (s, t), reach = _certificate(net, pairs, kappa, n - 1)
    separator = tuple(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach)
    if len(separator) != kappa:
        raise CrossCheckError("vertex min-cut extraction disagrees with max-flow value")
    return kappa, CutCertificate("vertex", kappa, separator, (s // 2, t // 2))


def edge_connectivity(g: Digraph, base: int,
                      symmetries: Iterable[Sequence[int]] = ()
                      ) -> tuple[int, CutCertificate | None]:
    """Edge connectivity of a vertex-transitive digraph: the least local
    edge connectivity from ``base`` to another vertex, with a minimum edge
    cut as certificate.  A minimum cut separates some pair (x, y), and an
    automorphism taking x to ``base`` turns it into a cut from ``base``, so
    flows into ``base`` are not needed.  ``symmetries`` are automorphisms
    fixing ``base``, as for ``vertex_connectivity_transitive``: one sink per
    orbit.  A one-vertex digraph yields 0 with no certificate."""
    _require_strongly_connected(g)
    n = g.vertex_count
    if n <= 1:
        return 0, None
    net, sinks, bound = _edge_network(g), _sink_orbits(g, base, symmetries), len(g.adj[base]) + 1
    lam = net.merged_pass(base, sinks, bound)
    (_, sink), reach = _certificate(net, [(base, t) for t in sorted(sinks)], lam, bound)
    cut = tuple((u, v) for u, v in g.edges() if u in reach and v not in reach)
    if len(cut) != lam:
        raise CrossCheckError("edge min-cut extraction disagrees with max-flow value")
    return lam, CutCertificate("edge", lam, cut, (base, sink))


def _scan_minimum_subsets(g: Digraph, accept, max_size: int,
                          budget: int) -> tuple[tuple[frozenset[int], ...], int]:
    """Scan subsets by increasing size; return all hits of the first size
    with any, along with that size.  Equivalent to a full subset scan for
    minimum-cardinality targets, but stops as soon as the minimum is known."""
    n = g.vertex_count
    examined = 0
    for k in range(1, max_size + 1):
        hits = []
        for combo in combinations(range(n), k):
            examined += 1
            if examined > budget:
                raise CapExceeded(
                    f"subset scan exceeded budget {budget} at size {k}",
                    count=examined)
            if accept(combo):
                hits.append(frozenset(combo))
        if hits:
            return tuple(hits), k
    return (), max_size


def atoms_bruteforce(g: Digraph, kappa: int,
                     cap: int = DEFAULT_BRUTEFORCE_CAP,
                     max_size: int | None = None,
                     budget: int = DEFAULT_SUBSET_BUDGET) -> AtomSet:
    """All minimum-cardinality parts A with |N(A)| = kappa.

    ``max_size``, when given, bounds the search: an empty AtomSet means no
    atom of size <= max_size exists (used for the two-sided size-assumption
    scan); with the default bound atoms always exist for a non-complete
    strongly connected digraph.
    """
    _require_strongly_connected(g)
    if g.is_complete():
        raise CompleteDigraphError("complete digraphs have no atoms")
    n = g.vertex_count
    if n > cap:
        raise CapExceeded(f"digraph has {n} vertices, brute-force cap is {cap}")
    adj = g.adj
    limit = n - kappa - 1 if max_size is None else min(max_size, n - kappa - 1)

    def accept(combo: tuple[int, ...]) -> bool:
        nbrs: set[int] = set()
        for v in combo:
            nbrs.update(adj[v])
        nbrs.difference_update(combo)
        return len(nbrs) == kappa and len(combo) + kappa < n

    members, _ = _scan_minimum_subsets(g, accept, limit, budget)
    if not members and max_size is None:
        raise CrossCheckError("no atom found in a non-complete digraph")
    return AtomSet(members)


def e_atoms_bruteforce(g: Digraph, lam: int,
                       cap: int = DEFAULT_BRUTEFORCE_CAP,
                       budget: int = DEFAULT_SUBSET_BUDGET) -> AtomSet:
    """All minimum-cardinality proper nonempty subsets with exactly lambda
    outgoing edges; none on one vertex, which has no such subset."""
    _require_strongly_connected(g)
    n = g.vertex_count
    if n > cap:
        raise CapExceeded(f"digraph has {n} vertices, brute-force cap is {cap}")
    adj = g.adj

    def accept(combo: tuple[int, ...]) -> bool:
        inside = set(combo)
        out_edges = sum(w not in inside for v in combo for w in adj[v])
        return out_edges == lam

    members, _ = _scan_minimum_subsets(g, accept, n - 1, budget)
    if not members and n > 1:
        raise CrossCheckError("no e-atom found in a strongly connected digraph")
    return AtomSet(members)

