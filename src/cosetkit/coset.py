"""Cayley coset digraph construction.

Vertices are canonical left-coset representatives of H in G; there is an
edge gH -> g'H labeled by generator s exactly when g^-1 g' lies in the
double coset HsH.  Generators are deduplicated to one representative per
double coset before building, so the labeled edge classes partition the
edge set and the uniform out-degree is the sum of the coset indices d_s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (Digraph, strongly_connected_components,
                      vertex_connectivity_transitive)
from .errors import CrossCheckError, GroupError
from .perms import (DEFAULT_ENUM_CAP, GroupContext, Permutation, SubgroupHandle,
                    canonical_coset_rep, compose, double_coset, double_coset_index,
                    enumerate_closure, inverse, left_coset_reps, print_cycles,
                    subgroup_generated, trivial_subgroup)


@dataclass(frozen=True)
class CosetDigraphSpec:
    degree: int
    group_generators: tuple[Permutation, ...]
    subgroup_generators: tuple[Permutation, ...]
    connection_set: tuple[tuple[str, Permutation], ...]
    enumeration_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        for p in self.group_generators + self.subgroup_generators:
            if p.degree != self.degree:
                raise GroupError(f"generator degree {p.degree} != {self.degree}")
        labels = [lbl for lbl, _ in self.connection_set]
        if len(set(labels)) != len(labels):
            raise GroupError(f"duplicate connection-set labels: {labels}")
        for lbl, p in self.connection_set:
            if p.degree != self.degree:
                raise GroupError(f"connection permutation {lbl!r} has degree "
                                 f"{p.degree} != {self.degree}")


def labeled(perms, labels=None) -> tuple[tuple[str, Permutation], ...]:
    """Pair permutations with labels, defaulting to cycle notation."""
    if labels is None:
        return tuple((print_cycles(p), p) for p in perms)
    return tuple(zip(labels, perms))


class CosetDigraph:
    """A built instance: group data plus the labeled digraph.  The closures
    <H, S0>, connectivity, stabiliser translations, flow kappa and transpose
    are cached on first use."""

    def __init__(self, spec: CosetDigraphSpec, group: GroupContext,
                 subgroup: SubgroupHandle, vertices: list[Permutation],
                 graph: Digraph, edge_class: dict[str, frozenset[tuple[int, int]]],
                 degrees: dict[str, int], connection: dict[str, Permutation]):
        self.spec = spec
        self.group = group
        self.subgroup = subgroup
        self.vertices = tuple(vertices)
        self.vertex_index = {p: i for i, p in enumerate(vertices)}
        self.graph = graph
        self.edge_class = edge_class
        self.degrees = degrees
        self.connection = connection           # surviving label -> permutation
        self.base_vertex = self.vertex_index[canonical_coset_rep(group.identity, subgroup)]
        self._transpose: CosetDigraph | None = None
        self._closures: dict[frozenset[str], SubgroupHandle] = {}
        self._connectivity: tuple[bool, SubgroupHandle, list[list[int]]] | None = None
        self._kappa: int | None = None
        self._translations: tuple[tuple[int, ...], ...] | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.connection)

    @property
    def degree(self) -> int:
        return sum(self.degrees.values())

    def closure(self, labels) -> SubgroupHandle:
        """<H, S0> for the connection labels S0, closed over the generators
        of H and the chosen connection permutations."""
        key = frozenset(labels)
        if key not in self._closures:
            unknown = key - self.connection.keys()
            if unknown:
                raise GroupError(f"unknown connection labels {sorted(unknown)}")
            gens = self.spec.subgroup_generators + tuple(
                p for lbl, p in self.connection.items() if lbl in key)
            self._closures[key] = subgroup_generated(self.group, None, gens)
        return self._closures[key]

    def vertex_of(self, g: Permutation) -> int:
        """Vertex index of the coset gH."""
        return self.vertex_index[canonical_coset_rep(g, self.subgroup)]

    def coset_elements(self, vertex: int) -> frozenset[Permutation]:
        rep = self.vertices[vertex]
        return frozenset(compose(rep, h) for h in self.subgroup.members)

    def union_of_cosets(self, vertices) -> frozenset[Permutation]:
        out: set[Permutation] = set()
        for v in vertices:
            out.update(self.coset_elements(v))
        return frozenset(out)

    def __repr__(self) -> str:
        return (f"<coset digraph |G|={len(self.group)} |H|={len(self.subgroup)} "
                f"|V|={len(self.vertices)} d={self.degree}>")


def dedupe_generators(H: SubgroupHandle, perms) -> list[Permutation]:
    """One representative per double coset HsH, first occurrence wins."""
    survivors: list[Permutation] = []
    cosets: list[frozenset[Permutation]] = []
    for s in perms:
        if s in H.member_set:
            raise GroupError(f"connection permutation {s} lies in H")
        if any(s in dc for dc in cosets):
            continue
        survivors.append(s)
        cosets.append(double_coset(H, s))
    return survivors


def build(spec: CosetDigraphSpec) -> CosetDigraph:
    group = enumerate_closure(spec.degree, spec.group_generators, spec.enumeration_cap)
    subgroup = subgroup_generated(group, trivial_subgroup(group),
                                  spec.subgroup_generators)
    for lbl, p in spec.connection_set:
        if p not in group:
            raise GroupError(f"connection permutation {lbl!r} = {p} is not in G")

    surviving = dedupe_generators(subgroup, [p for _, p in spec.connection_set])
    surviving_set = set(surviving)
    connection: dict[str, Permutation] = {}
    for lbl, p in spec.connection_set:
        if p in surviving_set and p not in connection.values():
            connection[lbl] = p

    degrees = {lbl: double_coset_index(subgroup, p) for lbl, p in connection.items()}

    vertices = left_coset_reps(group, subgroup)
    vertex_index = {p: i for i, p in enumerate(vertices)}
    h_members = subgroup.members

    edge_class: dict[str, frozenset[tuple[int, int]]] = {}
    adjacency: list[set[int]] = [set() for _ in vertices]
    for lbl, s in connection.items():
        edges = []
        for u, g in enumerate(vertices):
            targets = {vertex_index[canonical_coset_rep(compose(compose(g, h), s), subgroup)]
                       for h in h_members}
            if len(targets) != degrees[lbl]:
                raise CrossCheckError(
                    f"vertex {u} has {len(targets)} out-edges for {lbl!r}, "
                    f"expected d_s = {degrees[lbl]}")
            if adjacency[u] & targets:
                raise CrossCheckError(f"edge classes overlap at vertex {u}")
            adjacency[u].update(targets)
            edges.extend((u, t) for t in sorted(targets))
        edge_class[lbl] = frozenset(edges)

    graph = Digraph([sorted(row) for row in adjacency])
    return CosetDigraph(spec, group, subgroup, vertices, graph,
                        edge_class, degrees, connection)


def generation_connectivity(cd: CosetDigraph):
    """Connectivity decided group-theoretically: the digraph is connected
    iff H and the connection set generate G, and in general the components
    are the coset sets (g<H,S>)/H.  Cross-checked against the digraph's
    strongly connected components; computed once per instance."""
    if cd._connectivity is not None:
        return cd._connectivity
    generated = cd.closure(cd.labels)
    connected = len(generated) == len(cd.group)
    if connected:
        components = [list(range(len(cd.vertices)))]
    else:
        comp_of_rep: dict[Permutation, list[int]] = {}
        for vertex, rep in enumerate(cd.vertices):
            key = canonical_coset_rep(rep, generated)
            comp_of_rep.setdefault(key, []).append(vertex)
        components = sorted(comp_of_rep.values(), key=lambda c: c[0])

    scc = strongly_connected_components(cd.graph)
    if sorted(map(frozenset, scc)) != sorted(map(frozenset, components)):
        raise CrossCheckError("group-theoretic components disagree with SCCs")
    cd._connectivity = (connected, generated, components)
    return cd._connectivity


def stabiliser_translations(cd: CosetDigraph) -> tuple[tuple[int, ...], ...]:
    """Left translations by the generators of H as vertex permutations.
    They fix the base vertex H, so the flow routines need one sink per
    orbit of H (a double coset HgH); empty when H is trivial.  Computed
    once per instance."""
    if cd._translations is None:
        cd._translations = tuple(
            tuple(cd.vertex_of(compose(h, rep)) for rep in cd.vertices)
            for h in cd.spec.subgroup_generators if not h.is_identity())
    return cd._translations


def oracle_kappa(cd: CosetDigraph) -> int:
    """Vertex connectivity by Dinic flows from the base vertex (valid since
    coset digraphs are vertex-transitive), one per H-orbit of sinks;
    computed once per instance."""
    if cd._kappa is None:
        cd._kappa, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex,
                                                      stabiliser_translations(cd))
    return cd._kappa


def verify_automorphism(cd: CosetDigraph, g: Permutation) -> bool:
    """True iff left translation by g preserves every labeled edge class."""
    if g not in cd.group:
        raise GroupError(f"{g} is not an element of G")
    phi = [cd.vertex_of(compose(g, rep)) for rep in cd.vertices]
    if len(set(phi)) != len(phi):
        return False
    for edges in cd.edge_class.values():
        if {(phi[u], phi[v]) for u, v in edges} != edges:
            return False
    return True


def transpose_spec(cd: CosetDigraph) -> CosetDigraph:
    """Build the transpose instance, generated by the inverses of the
    connection set; its digraph must equal the edge-reversal of cd's."""
    if cd._transpose is not None:
        return cd._transpose
    inverted = tuple((lbl + "^-1", inverse(p)) for lbl, p in cd.connection.items())
    spec = CosetDigraphSpec(cd.spec.degree, cd.spec.group_generators,
                            cd.spec.subgroup_generators, inverted,
                            cd.spec.enumeration_cap)
    built = build(spec)
    reversed_edges = {(v, u) for u, v in cd.graph.edges()}
    if set(built.graph.edges()) != reversed_edges:
        raise CrossCheckError("transpose instance does not equal the reversed digraph")
    cd._transpose = built
    return built
