"""Generic finite digraph engine.

Strong connectivity, neighbor sets, exact vertex/edge connectivity of
vertex-transitive digraphs by one merged-source augmenting-path pass from
one base vertex over the orbits of the given automorphisms fixing it, with
a minimum-cut certificate from one re-run max-flow, and brute-force atom /
e-atom enumeration.
"""

from __future__ import annotations

from collections import deque
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
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for v in gt.adj[x]:
                if comp[v] < 0:
                    comp[v] = len(comps)
                    members.append(v)
                    queue.append(v)
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

    def merged_pass(self, source: int, sinks: Iterable[int], bound: int) -> int:
        """Least over ``sinks`` of the max flow into each from ``source`` and
        the sinks before it, each stopped at the least so far (at first
        ``bound``), in one flow never reset (Hao & Orlin).  A sink gets
        augmenting paths from backward breadth-first searches that stop at
        the first source-set node, then joins the source set: only the sink
        node, so in-node 2t on the vertex-split network.  Exact from a fixed
        source s in any sink order: all flow runs between source-set nodes,
        so a step's value is the min cut from the source set to its sink, at
        least the one from s; for a min cut (X, Y) from s to a minimising
        sink, the first sink not in X is in Y and the earlier ones in X, so
        that step is at most the cut.  A separator vertex v has 2v in X and
        2v+1 in Y, so 2v+1 may not join."""
        to, cap, head = self.to, self.cap, self.head
        merged = [False] * self.n
        merged[source] = True
        via = [0] * self.n              # arc from a searched node towards the sink
        seen = [0] * self.n             # number of the last search to reach a node
        search, best = 0, bound
        for t in sinks:
            flow = 0
            while flow < best:
                search += 1
                seen[t], queue, hit = search, [t], -1
                for u in queue:         # the list grows as it is read
                    for e in head[u]:
                        x = to[e]
                        if seen[x] != search and cap[e ^ 1] > 0:
                            seen[x], via[x] = search, e ^ 1
                            if merged[x]:
                                hit = x
                                break
                            queue.append(x)
                    if hit >= 0:
                        break
                if hit < 0:
                    break               # no source-set node is reachable
                while hit != t:
                    e = via[hit]
                    cap[e] -= 1
                    cap[e ^ 1] += 1
                    hit = to[e]
                flow += 1
            best = min(best, flow)
            merged[t] = True
        return best

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
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
    that κ and λ from one base share their sinks and the symmetry checks."""
    key = (base, tuple(map(tuple, symmetries)))
    sinks = g._sinks.get(key)
    if sinks is None:
        sinks = g._sinks[key] = tuple(_orbit_minima(g, base, key[1]))
    return sinks


def _certified_cut(net: _UnitFlow, source: int, sinks: Sequence[int],
                   bound: int) -> tuple[int, int, set[int]]:
    """Least max-flow from ``source`` into one of ``sinks`` by the merged
    pass from ``bound``, with its certificate: the first sink in ascending
    order whose fresh flow, the pass with that sink alone stopped at best + 1,
    equals it, and the source's residual-reachable set in that flow (the least
    source side of a minimum cut, the same for every maximum flow).  A fresh
    flow below the pass's value, or none equal to it, raises CrossCheckError."""
    best = net.merged_pass(source, sinks, bound)
    if best >= bound:
        raise CrossCheckError(f"no sink has a flow below the bound {bound}")
    for t in sorted(sinks):
        net.reset()
        flow = net.merged_pass(source, (t,), best + 1)
        if flow < best:
            raise CrossCheckError(f"a re-run max-flow of {flow} lies below the "
                                  f"merged pass's minimum {best}: the pass missed a cut")
        if flow == best:
            return best, t, net.residual_reachable(source)
    raise CrossCheckError("no re-run max-flow reaches the merged pass's minimum")


def vertex_connectivity_transitive(g: Digraph, base: int,
                                   symmetries: Iterable[Sequence[int]] = ()
                                   ) -> tuple[int, CutCertificate | None]:
    """Vertex connectivity of a vertex-transitive digraph: the least local
    connectivity from ``base`` to a non-neighbor, with a minimum separator
    as certificate.  Complete digraphs yield n-1 with no certificate.

    ``symmetries`` are automorphisms fixing ``base`` (vertex permutations,
    verified here); one sink per orbit of the group they generate suffices,
    and the certificate is the one that every vertex as a sink would give."""
    _require_strongly_connected(g)
    n = g.vertex_count
    if g.is_complete():
        return n - 1, None
    # automorphisms fixing base preserve adjacency to base, so an orbit is
    # a non-neighbor exactly when its least vertex is
    sinks = [2 * t for t in _sink_orbits(g, base, symmetries) if not g.has_edge(base, t)]
    kappa, sink, reach = _certified_cut(_vertex_split_network(g), 2 * base + 1, sinks, n - 1)
    separator = tuple(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach)
    if len(separator) != kappa:
        raise CrossCheckError("vertex min-cut extraction disagrees with max-flow value")
    return kappa, CutCertificate("vertex", kappa, separator, (base, sink // 2))


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
    lam, sink, reach = _certified_cut(_edge_network(g), base,
                                      _sink_orbits(g, base, symmetries),
                                      len(g.adj[base]) + 1)
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

