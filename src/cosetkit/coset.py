"""Cayley coset digraph construction.

Vertices are canonical left-coset representatives of H in G; there is an
edge gH -> g'H labeled by generator s exactly when g^-1 g' lies in the
double coset HsH.  Generators are deduplicated to one representative per
double coset before building, so the labeled edge classes partition the
edge set and the uniform out-degree is the sum of the coset indices d_s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, transpose, vertex_connectivity_transitive
from .errors import CrossCheckError, GroupError
from .perms import (DEFAULT_ENUM_CAP, GroupContext, Permutation, SubgroupHandle,
                    double_coset_cosets, double_coset_index, enumerate_closure, inverse,
                    left_coset_reps, subgroup_generated, trivial_subgroup)
from .perms import compose  # noqa: F401  (kept importable as coset.compose)


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


class CosetDigraph:
    """A built instance: group data plus the labeled digraph.  Vertex v is
    coset v of H's coset table, with ``vertices[v]`` its canonical
    representative.  The closures <H, S0>, connectivity, stabiliser
    translations and flow kappa are cached on first use; equal closures
    share one handle."""

    def __init__(self, spec: CosetDigraphSpec, group: GroupContext,
                 subgroup: SubgroupHandle, vertices: list[Permutation], graph: Digraph,
                 degrees: dict[str, int], connection: dict[str, Permutation]):
        self.spec = spec
        self.group = group
        self.subgroup = subgroup
        self.vertices = tuple(vertices)
        self.graph = graph
        self.degrees = degrees
        self.connection = connection           # surviving label -> permutation
        self.base_vertex = self.vertex_of(group.identity)
        self._closures: dict[frozenset[str], SubgroupHandle] = {}
        self._subgroups: dict[tuple[int, ...], SubgroupHandle] = {}
        self._connectivity: tuple[bool, list[list[int]]] | None = None
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
            sub = subgroup_generated(self.group, None, gens)
            self._closures[key] = self._subgroups.setdefault(sub.ids, sub)
        return self._closures[key]

    def successors(self, label: str) -> list[list[int]]:
        """Row u: the out-neighbors of vertex u in the edge class of
        ``label``, ascending."""
        return _targets(self.group, self.subgroup, self.connection[label])

    def vertex_of(self, g: Permutation) -> int:
        """Vertex index of the coset gH."""
        return self.subgroup.cosets().coset_of[self.group.id_of(g)]

    def left_translation(self, g: int) -> list[int]:
        """Left translation xH -> gxH by the element with id g, as a vertex
        permutation."""
        table, product = self.subgroup.cosets(), self.group.product_id
        return [table.coset_of[product(g, rep)] for rep in table.rep_ids]

    def __repr__(self) -> str:
        return (f"<coset digraph |G|={len(self.group)} |H|={len(self.subgroup)} "
                f"|V|={len(self.vertices)} d={self.degree}>")


def dedupe_generators(H: SubgroupHandle, perms) -> list[Permutation]:
    """One representative per double coset HsH, first occurrence wins: s
    lies in an earlier HtH exactly when its coset sH is one of HtH's."""
    survivors: list[Permutation] = []
    cosets: list[set[int]] = []
    for s in perms:
        if s in H:
            raise GroupError(f"connection permutation {s} lies in H")
        coset = H.cosets().coset_of[H.parent.id_of(s)]
        if any(coset in dc for dc in cosets):
            continue
        survivors.append(s)
        cosets.append(double_coset_cosets(H, s))
    return survivors


def _targets(group: GroupContext, subgroup: SubgroupHandle,
             s: Permutation) -> list[list[int]]:
    """Row u: the cosets of x*s over x in coset u of ``subgroup``, ascending;
    the out-neighbors of vertex u under s."""
    right_s, table = group.right(s), subgroup.cosets()
    coset_of = table.coset_of
    return [sorted({coset_of[right_s[x]] for x in coset}) for coset in table.members]


def build(spec: CosetDigraphSpec) -> CosetDigraph:
    group = enumerate_closure(spec.degree, spec.group_generators, spec.enumeration_cap)
    subgroup = subgroup_generated(group, trivial_subgroup(group),
                                  spec.subgroup_generators)
    return _build_on(spec, group, subgroup)


def _build_on(spec: CosetDigraphSpec, group: GroupContext,
              subgroup: SubgroupHandle) -> CosetDigraph:
    """The instance of ``spec`` on an already enumerated G and H: the
    targets of vertex u under s are the cosets of x*s over x in coset u."""
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

    adjacency: list[set[int]] = [set() for _ in subgroup.cosets().members]
    for lbl, s in connection.items():
        for u, targets in enumerate(_targets(group, subgroup, s)):
            if len(targets) != degrees[lbl]:
                raise CrossCheckError(
                    f"vertex {u} has {len(targets)} out-edges for {lbl!r}, "
                    f"expected d_s = {degrees[lbl]}")
            if not adjacency[u].isdisjoint(targets):
                raise CrossCheckError(f"edge classes overlap at vertex {u}")
            adjacency[u].update(targets)

    graph = Digraph([sorted(row) for row in adjacency])
    return CosetDigraph(spec, group, subgroup, left_coset_reps(group, subgroup), graph,
                        degrees, connection)


def generation_connectivity(cd: CosetDigraph) -> tuple[bool, list[list[int]]]:
    """(connected, components), decided group-theoretically: the digraph is
    connected iff H and the connection set generate G, and in general the
    components are the coset sets (g<H,S>)/H.  Cross-checked against the
    digraph's strongly connected components; computed once per instance."""
    if cd._connectivity is not None:
        return cd._connectivity
    generated = cd.closure(cd.labels)
    connected = len(generated) == len(cd.group)
    if connected:
        components = [list(range(len(cd.vertices)))]
    else:
        # the component of vertex xH is the coset x<H,S>; vertices are
        # visited in order, so components come out sorted by least vertex
        component_of = generated.cosets().coset_of
        by_coset: dict[int, list[int]] = {}
        for vertex, rep in enumerate(cd.subgroup.cosets().rep_ids):
            by_coset.setdefault(component_of[rep], []).append(vertex)
        components = list(by_coset.values())

    scc = cd.graph.strong_components()
    if sorted(map(frozenset, scc)) != sorted(map(frozenset, components)):
        raise CrossCheckError("group-theoretic components disagree with SCCs")
    cd._connectivity = (connected, components)
    return cd._connectivity


def stabiliser_translations(cd: CosetDigraph) -> tuple[tuple[int, ...], ...]:
    """Left translations by the generators of H as vertex permutations.
    They fix the base vertex H, so the flow routines need one sink per
    orbit of H (a double coset HgH); empty when H is trivial.  Computed
    once per instance."""
    if cd._translations is None:
        cd._translations = tuple(tuple(cd.left_translation(cd.group.id_of(h)))
                                 for h in cd.spec.subgroup_generators
                                 if not h.is_identity())
    return cd._translations


def oracle_kappa(cd: CosetDigraph) -> int:
    """Vertex connectivity by max-flow from the base vertex (valid since
    coset digraphs are vertex-transitive), with one sink per H-orbit;
    computed once per instance."""
    if cd._kappa is None:
        cd._kappa, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex,
                                                      stabiliser_translations(cd))
    return cd._kappa


def transpose_spec(cd: CosetDigraph) -> CosetDigraph:
    """Build the transpose instance, generated by the inverses of the
    connection set, on cd's G and H; its edges come from the right tables
    of the inverses themselves, so its digraph equalling the edge-reversal
    of cd's is a real check.  A test reference: the library never calls it."""
    inverted = tuple((lbl + "^-1", inverse(p)) for lbl, p in cd.connection.items())
    spec = CosetDigraphSpec(cd.spec.degree, cd.spec.group_generators,
                            cd.spec.subgroup_generators, inverted,
                            cd.spec.enumeration_cap)
    built = _build_on(spec, cd.group, cd.subgroup)
    if built.graph != transpose(cd.graph):
        raise CrossCheckError("transpose instance does not equal the reversed digraph")
    return built
