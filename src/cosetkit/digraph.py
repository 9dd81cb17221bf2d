"""Generic finite digraph engine.

Strong connectivity, neighbor sets, exact vertex/edge connectivity of
vertex-transitive digraphs by merged-source augmenting-path passes from one
base vertex over the orbits of the given automorphisms fixing it (for κ, over
a breadth-first prefix), with a minimum-cut certificate from the pass's
first step or a re-run max-flow, and brute-force atom / e-atom enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, CrossCheckError, NotStronglyConnected
from .perms import orbit

SUBSET_BUDGET = 2_000_000


class Digraph:
    """Immutable digraph on vertices 0..n-1; no loops, no parallel edges.
    Its transpose and strongly connected components are computed once, on
    first use, and so is each check of symmetries."""

    __slots__ = ("adj", "_scc", "_transpose", "_checked")

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        adj = tuple(map(tuple, adjacency))
        vertices = set(range(len(adj)))
        for u, row in enumerate(adj):
            nbrs = set(row)
            if len(nbrs) != len(row):
                raise ValueError(f"duplicate out-neighbors at vertex {u}")
            if u in nbrs or not nbrs <= vertices:
                v = next(v for v in row if v == u or v not in vertices)
                raise ValueError(f"self-loop at vertex {u}" if v == u else
                                 f"neighbor {v} out of range at vertex {u}")
        self.adj = adj
        self._scc: tuple[tuple[int, ...], ...] | None = None
        self._transpose: Digraph | None = None
        self._checked: set[tuple] = set()

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.adj):
            for v in row:
                yield (u, v)

    def strong_components(self) -> tuple[tuple[int, ...], ...]:
        """``strongly_connected_components``, cached and shared with the transpose."""
        if self._scc is None:
            scc = tuple(map(tuple, strongly_connected_components(self)))
            self._scc = transpose(self)._scc = scc
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
        return f"<digraph n={self.vertex_count} m={sum(map(len, self.adj))}>"


@dataclass(frozen=True)
class CutCertificate:
    """A witnessing minimum separator of ``separated_pair``: a vertex set
    from ``vertex_connectivity_transitive``, an edge set from
    ``edge_connectivity``."""
    separator: tuple
    separated_pair: tuple[int, int]


def transpose(g: Digraph) -> Digraph:
    """The edge-reversed digraph, rows ascending, built once per digraph;
    its transpose is ``g`` itself."""
    if g._transpose is None:
        rows: list[list[int]] = [[] for _ in g.adj]
        for u, row in enumerate(g.adj):
            for v in row:
                rows[v].append(u)
        gt = g._transpose = Digraph.__new__(Digraph)    # reversed rows need no checks
        gt.adj, gt._scc, gt._transpose, gt._checked = tuple(map(tuple, rows)), None, g, set()
    return g._transpose


def strongly_connected_components(g: Digraph) -> list[list[int]]:
    """Kosaraju's algorithm, iterative.  Components are returned sorted by
    their minimum vertex, members ascending."""
    n = g.vertex_count
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, iter(g.adj[root]))]    # each frame resumes its row
        seen[root] = True
        while stack:
            u, row = stack[-1]
            for v in row:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(g.adj[v])))
                    break
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
    max-flow) on small integer-capacity networks, reset from a snapshot.
    Arc e runs from the node whose ``head`` lists it to ``to[e]``; arc e ^ 1
    is its reverse."""

    def __init__(self, head: list[list[int]], to: list[int], cap: list[int]):
        self.n, self.head, self.to, self.cap = len(head), head, to, cap
        self._cap0 = list(cap)
        self.first: tuple[int, set[int]] | None = None

    def reset(self) -> None:
        self.cap[:] = self._cap0

    def merged_pass(self, source: int, sinks: Iterable[int], bound: int) -> int:
        """Least over ``sinks`` of the max flow into each from ``source`` and
        the sinks before it, each stopped at the least so far (at first
        ``bound``), in one flow never reset (Hao & Orlin).  The first step, a
        max-flow from ``source`` alone, leaves in ``first`` its value and the
        source's residual-reachable set.  Each step first takes the paths of
        at most three arcs from merged nodes; each further augmenting path
        comes from searches from both ends, growing the smaller frontier by a
        layer.  Only the sink node then joins the merged set: in-node 2t on a
        split network.  Exact in any sink order: a step is a min cut between
        the merged set and its sink, at least the one from ``source``; for a
        min cut (X, Y) from ``source`` to a minimising sink, the first sink in
        Y follows only sinks in X, so its step is at most the cut.  A
        separator vertex v has 2v in X and 2v+1 in Y, so 2v+1 may not join."""
        to, cap, head = self.to, self.cap, self.head
        # searches walk e ^ 1 from the sink, e from the merged set; search
        # tree arcs (-1 at roots), last search at a node (joined if merged)
        via, fvia, seen, fseen = [0] * self.n, [0] * self.n, [0] * self.n, [0] * self.n
        joined, members, search, best = 1 << 62, [source], 0, bound
        fseen[source], fvia[source] = joined, -1
        for t in sinks:
            flow, via[t] = 0, -1
            for e in head[t]:           # paths x -> t, y -> x -> t, z -> y -> x -> t
                x = to[e]
                if fseen[x] == joined:
                    while cap[e ^ 1] > 0 and flow < best:
                        flow = _push(cap, (e ^ 1,), flow)
                    continue
                for f in head[x]:
                    if not cap[e ^ 1] or flow == best:
                        break
                    if cap[f ^ 1]:
                        if fseen[to[f]] == joined:
                            flow = _push(cap, (f ^ 1, e ^ 1), flow)
                            continue
                        for g in head[to[f]]:
                            if fseen[to[g]] == joined and cap[g ^ 1]:
                                flow = _push(cap, (g ^ 1, f ^ 1, e ^ 1), flow)
                                break
            while flow < best:
                search += 1
                seen[t], back, fore, meet = search, [t], members, -1
                while meet < 0 and back and fore:
                    if len(back) <= len(fore):
                        front, mine, tree, other, flip = back, seen, via, fseen, 1
                    else:
                        front, mine, tree, other, flip = fore, fseen, fvia, seen, 0
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
                for x, tree, step in ((meet, via, 0), (meet, fvia, 1)):
                    while tree[x] >= 0:         # augment from the meeting node
                        e = tree[x]
                        cap[e] -= 1
                        cap[e ^ 1] += 1
                        x = to[e ^ step]
                flow += 1
            if len(members) == 1:
                self.first = flow, self.residual_reachable(source)
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


def _push(cap: list[int], path: tuple[int, ...], flow: int) -> int:
    """Push a unit along the residual arcs ``path``; ``flow`` plus one."""
    for e in path:
        cap[e] -= 1
        cap[e ^ 1] += 1
    return flow + 1


def _vertex_split_network(g: Digraph) -> _UnitFlow:
    # node 2v = v_in, 2v+1 = v_out; arc 2v is v's split arc, of capacity 1
    n = g.vertex_count
    head, to = [[e] for e in range(2 * n)], [e ^ 1 for e in range(2 * n)]
    into = head[0::2]                   # the in-nodes' arc lists
    for u, row in enumerate(g.adj):
        head[2 * u + 1] += range(len(to), len(to) + 2 * len(row), 2)
        for v in row:
            into[v].append(len(to) + 1)
            to += 2 * v, 2 * u + 1
    return _UnitFlow(head, to, [1, 0] * n + [n, 0] * (len(to) // 2 - n))


def _edge_network(g: Digraph) -> _UnitFlow:
    head, to = [[] for _ in g.adj], []
    for u, row in enumerate(g.adj):
        for v in row:
            head[u].append(len(to))
            head[v].append(len(to) + 1)
            to += v, u
    return _UnitFlow(head, to, [1, 0] * (len(to) // 2))


def _require_strongly_connected(g: Digraph) -> None:
    if not is_strongly_connected(g):
        raise NotStronglyConnected("digraph is not strongly connected")


def _check_automorphisms(g: Digraph, base: int, symmetries: tuple[tuple[int, ...], ...]) -> None:
    n = g.vertex_count
    for phi in symmetries:
        if sorted(phi) != list(range(n)):
            raise CrossCheckError("a symmetry is not a permutation of the vertices")
        if phi[base] != base:
            raise CrossCheckError(f"a symmetry moves the base vertex {base}")
        if any({phi[v] for v in g.adj[u]} != set(g.adj[phi[u]]) for u in range(n)):
            raise CrossCheckError("a symmetry is not an automorphism of the digraph")
    g._checked.add((base, symmetries))


def _sinks(g: Digraph, base: int, symmetries: Sequence[Sequence[int]], size: int,
           skip: Iterable[int] = ()) -> list[int]:
    """The first vertex of each orbit of ``symmetries`` outside ``base`` and
    ``skip`` among the first ``size`` places in breadth-first order from
    ``base`` along ``g``.  Each symmetry must be an automorphism fixing
    ``base``, so that local connectivities from ``base`` are constant on
    orbits: checked once per digraph."""
    key = (base, tuple(map(tuple, symmetries)))
    if key not in g._checked:
        _check_automorphisms(g, *key)
    order, seen, sinks, covered = [base], {base}, [], {base, *skip}
    for u in order:                     # the list grows as it is read
        for v in g.adj[u]:
            if len(order) < size and v not in seen:
                seen.add(v)
                order.append(v)
                if v not in covered:
                    sinks.append(v)
                    covered.update(orbit(symmetries, [v]))
    return sinks


def _certificate(net: _UnitFlow, source: int, sinks: Sequence[int], best: int,
                 bound: int) -> tuple[int, set[int]]:
    """The first of ``sinks`` whose max-flow from ``source``, stopped at
    best + 1, equals ``best``, a merged pass's least value below ``bound``,
    with the source's residual-reachable set: the least source side of a
    minimum cut.  The pass's first step is that flow for the first sink; a
    fresh one runs for each later sink.  Else, or on a flow below ``best``,
    CrossCheckError."""
    if best >= bound:
        raise CrossCheckError(f"no sink has a flow below the bound {bound}")
    for i, t in enumerate(sinks):
        if i:
            net.reset()
            net.merged_pass(source, (t,), best + 1)
        flow, reach = net.first
        if flow < best:
            raise CrossCheckError(f"a re-run max-flow of {flow} lies below the "
                                  f"merged pass's minimum {best}: the pass missed a cut")
        if flow == best:
            return t, reach
    raise CrossCheckError("no re-run max-flow reaches the merged pass's minimum")


def vertex_connectivity_transitive(g: Digraph, base: int,
                                   symmetries: Sequence[Sequence[int]] = ()
                                   ) -> tuple[int, CutCertificate | None]:
    """Vertex connectivity of a vertex-transitive digraph, with a minimum
    separator as certificate (n-1 and none if complete): one merged pass
    from ``base`` over the ``_sinks`` among the first 2d + 1 breadth-first
    places, ``symmetries`` being automorphisms fixing ``base``; the
    certificate's sink is the first whose fresh flow is kappa.  Exact: on
    the side where atoms are smaller they have at most kappa vertices
    (Hamidoune), so a fragment F with |F| <= kappa holds ``base``.  If F is
    positive, N+(F) cuts ``base`` from all outside F u N+(F).  If negative,
    read g as the coset digraph of Aut(g) over the stabiliser H of ``base``
    (Sabidussi): N-(F) cuts each xH outside F u N-(F) from ``base``, so by
    left translation ``base`` from x'^-1 H for each x' in xH.  A yH left over
    has Hy^-1 inside the union U of the cosets in F u N-(F): at most
    |U|/|H| = |F| + kappa of them.  Either way at most 2 kappa <= 2d vertices,
    ``base`` and its out-neighbors among them, are not cut from ``base`` by
    kappa vertices, so the prefix holds a non-neighbor t with
    kappa(base, t) = kappa, and the first vertex of its orbit is a sink."""
    _require_strongly_connected(g)
    n = g.vertex_count
    if g.is_complete():
        return n - 1, None
    net, nbrs = _vertex_split_network(g), g.adj[base]
    sinks = [2 * t for t in _sinks(g, base, symmetries, 2 * len(nbrs) + 1, nbrs)]
    kappa = net.merged_pass(2 * base + 1, sinks, n - 1)
    t, reach = _certificate(net, 2 * base + 1, sinks, kappa, n - 1)
    separator = tuple(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach)
    if len(separator) != kappa:
        raise CrossCheckError("vertex min-cut extraction disagrees with max-flow value")
    return kappa, CutCertificate(separator, (base, t // 2))


def edge_connectivity(g: Digraph, base: int,
                      symmetries: Sequence[Sequence[int]] = ()
                      ) -> tuple[int, CutCertificate | None]:
    """Edge connectivity of a vertex-transitive digraph: the least local
    edge connectivity from ``base`` to another vertex, with a minimum edge
    cut as certificate.  A minimum cut separates some pair (x, y), and an
    automorphism taking x to ``base`` turns it into a cut from ``base``, so
    flows into ``base`` are not needed.  ``symmetries`` are automorphisms
    fixing ``base``, as for ``vertex_connectivity_transitive``: one sink per
    orbit, its first in breadth-first order, so the certificate's sink is the
    first in that order whose flow is lambda.  One vertex yields 0, uncertified."""
    _require_strongly_connected(g)
    n = g.vertex_count
    if n <= 1:
        return 0, None
    net, sinks, bound = _edge_network(g), _sinks(g, base, symmetries, n), len(g.adj[base]) + 1
    lam = net.merged_pass(base, sinks, bound)
    sink, reach = _certificate(net, base, sinks, lam, bound)
    cut = tuple((u, v) for u, v in g.edges() if u in reach and v not in reach)
    if len(cut) != lam:
        raise CrossCheckError("edge min-cut extraction disagrees with max-flow value")
    return lam, CutCertificate(cut, (base, sink))


def atoms_bruteforce(g: Digraph, kappa: int, size: int) -> tuple[frozenset[int], ...]:
    """The parts of ``size`` vertices with exactly kappa neighbors, possibly
    none: the atoms when no smaller part has kappa neighbors, as in the
    two-sided size-assumption search, which scans each size once per side.
    A scan of more than SUBSET_BUDGET subsets is refused before it starts."""
    n = g.vertex_count
    if size + kappa >= n:
        return ()
    if comb(n, size) > SUBSET_BUDGET:
        raise CapExceeded(f"subset scan exceeded budget {SUBSET_BUDGET} at size {size}")
    adj = g.adj
    hits = []
    for combo in combinations(range(n), size):
        nbrs: set[int] = set()
        for v in combo:
            nbrs.update(adj[v])
        nbrs.difference_update(combo)
        if len(nbrs) == kappa:
            hits.append(frozenset(combo))
    return tuple(hits)


def e_atoms_bruteforce(g: Digraph, lam: int) -> tuple[frozenset[int], ...]:
    """All minimum-cardinality proper nonempty subsets with exactly lambda
    outgoing edges, scanning sizes upward under one cumulative budget of
    SUBSET_BUDGET subsets; none on one vertex, which has no such subset."""
    _require_strongly_connected(g)
    n = g.vertex_count
    adj = g.adj
    examined = 0
    for k in range(1, n):
        hits = []
        for combo in combinations(range(n), k):
            examined += 1
            if examined > SUBSET_BUDGET:
                raise CapExceeded(f"subset scan exceeded budget {SUBSET_BUDGET} at size {k}")
            inside = set(combo)
            if sum(w not in inside for v in combo for w in adj[v]) == lam:
                hits.append(frozenset(combo))
        if hits:
            return tuple(hits)
    if n > 1:
        raise CrossCheckError("no e-atom found in a strongly connected digraph")
    return ()
