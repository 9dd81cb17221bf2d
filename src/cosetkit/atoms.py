"""Subgroup-structured atom analysis.

The atom containing the base vertex of a connected Cayley coset digraph is
the coset set of a subgroup <H, S0> for some subset S0 of the connection
set, so vertex connectivity can be computed group-theoretically by scanning
all 2^|S| subgroup candidates on the digraph and on its transpose, and
taking the minimum neighbor count over the candidates that are parts
(together with the degree).  The scan is cross-checked candidate by
candidate against the digraph's neighbor sets, and the resulting kappa is
validated against the flow oracle wherever the oracle runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coset import CosetDigraph, generation_connectivity, oracle_kappa, transpose_spec
from .digraph import DEFAULT_BRUTEFORCE_CAP, atoms_bruteforce, neighbor_set
from .errors import CapExceeded, CrossCheckError, GroupError
from .perms import SubgroupHandle

MAX_SCAN_GENERATORS = 12


@dataclass(frozen=True)
class AtomCandidate:
    """A candidate atom <H, S0>/H with its group-theoretic neighbor count."""
    labels: tuple[str, ...]
    subgroup: SubgroupHandle
    vertex_set: tuple[int, ...]
    is_part: bool
    neighbor_count: int

    @property
    def size(self) -> int:
        return len(self.vertex_set)


@dataclass(frozen=True)
class AtomAnalysis:
    side: str                                   # "forward" | "transpose"
    kappa_group: int                            # combined over both sides
    winning_candidates: tuple[AtomCandidate, ...]
    size_assumption_ok: bool
    oracle_kappa: int | None


def subgroup_atom_scan(cd: CosetDigraph) -> list[AtomCandidate]:
    """One candidate per S0 with <H, S0> a proper subgroup of G.

    The neighbor count is |(U A) S1 H / H| minus the candidate's own
    cosets, computed group-theoretically and cross-checked against the
    digraph's neighbor set.
    """
    labels = cd.labels
    if len(labels) > MAX_SCAN_GENERATORS:
        raise CapExceeded(f"connection set has {len(labels)} generators, above "
                          f"the scan cap MAX_SCAN_GENERATORS = {MAX_SCAN_GENERATORS}",
                          count=len(labels))
    coset_of = cd.subgroup.cosets().coset_of
    candidates = []
    for r in range(len(labels)):
        for chosen in combinations(labels, r):
            sub = cd.closure(chosen)
            if len(sub) == len(cd.group):
                continue
            vertex_set = sorted({coset_of[x] for x in sub.ids})
            inside = set(vertex_set)
            s1 = [cd.group.right(cd.connection[lbl]) for lbl in labels if lbl not in chosen]
            reached = {coset_of[right_s[x]] for right_s in s1 for x in sub.ids}
            reached -= inside
            digraph_nbrs, is_part = neighbor_set(cd.graph, vertex_set)
            if reached != digraph_nbrs:
                raise CrossCheckError(
                    f"group-side neighbors of <H,{chosen}> disagree with the digraph")
            candidates.append(AtomCandidate(chosen, sub, tuple(vertex_set),
                                            is_part, len(reached)))
    return candidates


def base_atom_candidate(analysis: AtomAnalysis) -> AtomCandidate | None:
    """Smallest winning candidate: the atom containing the base vertex on
    this side, when the side achieves kappa."""
    if not analysis.winning_candidates:
        return None
    return min(analysis.winning_candidates, key=lambda c: (c.size, c.labels))


def kappa_group_theoretic(cd: CosetDigraph,
                          oracle_kappa: int | None = None) -> tuple[AtomAnalysis, AtomAnalysis]:
    """Vertex connectivity from the subgroup scan on both the digraph and
    its transpose: kappa = min(d, neighbor counts of part candidates).

    When ``oracle_kappa`` is provided, disagreement raises CrossCheckError.
    Returns the (forward, transpose) analyses, both carrying the combined
    kappa.
    """
    connected, _, _ = generation_connectivity(cd)
    if not connected:
        raise GroupError("digraph is disconnected; kappa is undefined")
    n = cd.graph.vertex_count
    forward = subgroup_atom_scan(cd)
    backward = subgroup_atom_scan(transpose_spec(cd))
    kappa = cd.degree
    for cand in (*forward, *backward):
        if cand.is_part and cand.neighbor_count < kappa:
            kappa = cand.neighbor_count
    if oracle_kappa is not None and kappa != oracle_kappa:
        raise CrossCheckError(
            f"group-theoretic kappa {kappa} != flow-oracle kappa {oracle_kappa}")

    def analysis(side: str, cands: list[AtomCandidate]) -> AtomAnalysis:
        winners = tuple(c for c in cands if c.is_part and c.neighbor_count == kappa)
        ok = any(2 * c.size <= n - kappa for c in winners)
        return AtomAnalysis(side, kappa, winners, ok, oracle_kappa)

    return analysis("forward", forward), analysis("transpose", backward)


@dataclass(frozen=True)
class AtomTheoryReport:
    side: str
    kappa: int
    atom_size: int
    atom_count: int
    partition_ok: bool
    base_atom: tuple[int, ...]
    s0_labels: tuple[str, ...]
    neighbor_count: int
    d_s1: int


def verify_atom_theory(cd: CosetDigraph,
                       bruteforce_cap: int = DEFAULT_BRUTEFORCE_CAP) -> AtomTheoryReport:
    """Brute-force the atoms on whichever side satisfies the size
    assumption and check the structure theory against them:

    (a) the atoms partition the vertices, (b) every atom is a coset
    translate of <H, S0>/H where S0 is the generator split of the atom
    containing the base vertex, (c) |N(A0)| is a multiple of |A0| and
    (d) |N(A0)| >= max(|A0|, d_S1); the edges induced on A0 use only S0.

    Atoms of size at most (n - kappa)/2 must exist on at least one side;
    both sides failing would falsify the size lemma and raises.
    """
    n = cd.graph.vertex_count
    if n > bruteforce_cap:
        raise CapExceeded(f"{n} vertices exceeds the brute-force cap "
                          f"bruteforce_cap = {bruteforce_cap}", count=n)
    if cd.graph.is_complete():
        raise GroupError("complete digraph: no atoms to verify")
    kappa = oracle_kappa(cd)
    limit = (n - kappa) // 2
    sides = (("forward", cd), ("transpose", transpose_spec(cd)))

    chosen = None
    for k in range(1, limit + 1):
        for side, inst in sides:
            found = atoms_bruteforce(inst.graph, kappa=kappa, cap=bruteforce_cap,
                                     max_size=k, side=side)
            if found.members:
                chosen = (side, inst, found)
                break
        if chosen:
            break
    if chosen is None:
        raise CrossCheckError(
            f"no atom of size <= (n-kappa)/2 = {limit} on either side")
    side, inst, atom_set = chosen

    atoms = atom_set.members
    covered: set[int] = set()
    for a in atoms:
        if covered & a:
            raise CrossCheckError("distinct atoms intersect")
        covered |= a
    if covered != set(range(n)):
        raise CrossCheckError("atoms do not cover the vertex set")

    base_atom = next(a for a in atoms if inst.base_vertex in a)
    union = inst.union_of_cosets(base_atom)
    s0 = tuple(lbl for lbl, p in inst.connection.items() if inst.group.id_of(p) in union)
    if inst.closure(s0).id_set != union:
        raise CrossCheckError("union of the base atom is not <H, S0>")

    base_sorted = sorted(base_atom)
    rep_ids = inst.subgroup.cosets().rep_ids
    for a in atoms:
        phi = inst.left_translation(rep_ids[min(a)])
        translate = {phi[v] for v in base_sorted}
        if translate != a:
            raise CrossCheckError("an atom is not a coset translate of the base atom")

    nbrs, _ = neighbor_set(inst.graph, base_atom)
    d_s1 = sum(d for lbl, d in inst.degrees.items() if lbl not in s0)
    if len(nbrs) % len(base_atom) != 0:
        raise CrossCheckError("|N(A0)| is not a multiple of |A0|")
    if len(nbrs) < max(len(base_atom), d_s1):
        raise CrossCheckError("|N(A0)| < max(|A0|, d_S1)")

    for lbl in inst.labels:
        if lbl in s0:
            continue
        rows = inst.successors(lbl)
        if any(v in base_atom for u in base_atom for v in rows[u]):
            raise CrossCheckError(f"edge class {lbl!r} induces an edge inside A0")

    return AtomTheoryReport(side, kappa, atom_set.size, len(atoms), True,
                            tuple(base_sorted), s0, len(nbrs), d_s1)
