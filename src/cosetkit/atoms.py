"""Subgroup-structured atom analysis.

The atom containing the base vertex of a connected Cayley coset digraph is
the coset set of a subgroup K = <H, S0> for some subset S0 of the
connection set (Hamidoune 1977), so vertex connectivity can be computed
group-theoretically by scanning all 2^|S| subgroup candidates on the
digraph and on its transpose, and taking the minimum neighbor count over
the candidates that are parts (together with the degree), each an orbit
of K acting on G/H by left translation.  The scan is cross-checked
candidate by candidate against the digraph's neighbor sets, and kappa is
validated against the flow oracle wherever the oracle runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coset import (CosetDigraph, generation_connectivity, oracle_kappa,
                    stabiliser_translations)
from .digraph import DEFAULT_BRUTEFORCE_CAP, atoms_bruteforce, neighbor_set, transpose
from .errors import CapExceeded, CrossCheckError, GroupError
from .perms import inverse

MAX_SCAN_GENERATORS = 12


@dataclass(frozen=True)
class AtomCandidate:
    """A candidate atom <H, S0>/H with its group-theoretic neighbor count."""
    labels: tuple[str, ...]
    vertex_set: tuple[int, ...]
    is_part: bool
    neighbor_count: int

    @property
    def size(self) -> int:
        return len(self.vertex_set)


@dataclass(frozen=True)
class AtomAnalysis:
    kappa_group: int                            # combined over both sides
    winning_candidates: tuple[AtomCandidate, ...]
    oracle_kappa: int | None


def _orbit(moves, seeds) -> set[int]:
    """The union of the orbits of ``seeds`` under the group generated by
    the vertex permutations ``moves``."""
    found, queue = set(seeds), list(seeds)
    for v in queue:
        for phi in moves:
            w = phi[v]
            if w not in found:
                found.add(w)
                queue.append(w)
    return found


def subgroup_atom_scan(cd: CosetDigraph) -> tuple[list[AtomCandidate], list[AtomCandidate]]:
    """The (forward, transpose) candidates, one each per S0 with K = <H, S0>
    a proper subgroup of G (transpose labels suffixed "^-1").  Both share A,
    the K-orbit of the base vertex, as <H, S0^-1> = <H, S0>; its neighbors
    are the K-orbits of sH (s^-1 H on the transpose), s in S - S0, minus A,
    cross-checked against the digraph or its reversal.  Supersets of a
    generating S0 are skipped."""
    labels = cd.labels
    if len(labels) > MAX_SCAN_GENERATORS:
        raise CapExceeded(f"connection set has {len(labels)} generators, above "
                          f"the scan cap MAX_SCAN_GENERATORS = {MAX_SCAN_GENERATORS}",
                          count=len(labels))
    gens = list(cd.connection.values())
    moves = [cd.left_translation(cd.group.id_of(s)) for s in gens]
    forward, backward = [], []
    sides = ((cd.graph, "", [cd.vertex_of(s) for s in gens], forward),
             (transpose(cd.graph), "^-1", [cd.vertex_of(inverse(s)) for s in gens], backward))
    spanning: list[set[int]] = []       # the S0 with <H, S0> = G
    for r in range(len(labels)):
        for chosen in combinations(range(len(labels)), r):
            if any(sp.issubset(chosen) for sp in spanning):
                continue
            k_moves = [*stabiliser_translations(cd), *(moves[i] for i in chosen)]
            inside = _orbit(k_moves, [cd.base_vertex])
            if len(inside) == len(cd.vertices):
                spanning.append(set(chosen))
                continue
            for graph, suffix, heads, candidates in sides:
                reached = _orbit(k_moves, {heads[i] for i in range(len(labels))
                                           if i not in chosen} - inside)
                names = tuple(labels[i] + suffix for i in chosen)
                digraph_nbrs, is_part = neighbor_set(graph, inside)
                if reached != digraph_nbrs:
                    raise CrossCheckError(
                        f"group-side neighbors of <H,{names}> disagree with the digraph")
                candidates.append(AtomCandidate(names, tuple(sorted(inside)), is_part,
                                                len(reached)))
    return forward, backward


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
    forward, backward = subgroup_atom_scan(cd)
    kappa = cd.degree
    for cand in (*forward, *backward):
        if cand.is_part and cand.neighbor_count < kappa:
            kappa = cand.neighbor_count
    if oracle_kappa is not None and kappa != oracle_kappa:
        raise CrossCheckError(
            f"group-theoretic kappa {kappa} != flow-oracle kappa {oracle_kappa}")

    def analysis(cands: list[AtomCandidate]) -> AtomAnalysis:
        winners = tuple(c for c in cands if c.is_part and c.neighbor_count == kappa)
        return AtomAnalysis(kappa, winners, oracle_kappa)

    return analysis(forward), analysis(backward)


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
    Both sides read S0 and E_s from cd, as <H, S0^-1> = <H, S0>.

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
    sides = (("forward", cd.graph), ("transpose", transpose(cd.graph)))

    chosen = None
    for k in range(1, limit + 1):
        for side, graph in sides:
            found = atoms_bruteforce(graph, kappa=kappa, cap=bruteforce_cap, max_size=k)
            if found.members:
                chosen = (side, graph, found)
                break
        if chosen:
            break
    if chosen is None:
        raise CrossCheckError(
            f"no atom of size <= (n-kappa)/2 = {limit} on either side")
    side, graph, atom_set = chosen

    atoms = atom_set.members
    covered: set[int] = set()
    for a in atoms:
        if covered & a:
            raise CrossCheckError("distinct atoms intersect")
        covered |= a
    if covered != set(range(n)):
        raise CrossCheckError("atoms do not cover the vertex set")

    base_atom = next(a for a in atoms if cd.base_vertex in a)
    s0 = tuple(lbl for lbl, p in cd.connection.items() if cd.vertex_of(p) in base_atom)
    table = cd.subgroup.cosets()
    if {table.coset_of[x] for x in cd.closure(s0).ids} != base_atom:
        raise CrossCheckError("the cosets of <H, S0> are not the base atom")

    base_sorted = sorted(base_atom)
    for a in atoms:
        phi = cd.left_translation(table.rep_ids[min(a)])
        translate = {phi[v] for v in base_sorted}
        if translate != a:
            raise CrossCheckError("an atom is not a coset translate of the base atom")

    nbrs, _ = neighbor_set(graph, base_atom)
    d_s1 = sum(d for lbl, d in cd.degrees.items() if lbl not in s0)
    if len(nbrs) % len(base_atom) != 0:
        raise CrossCheckError("|N(A0)| is not a multiple of |A0|")
    if len(nbrs) < max(len(base_atom), d_s1):
        raise CrossCheckError("|N(A0)| < max(|A0|, d_S1)")

    for lbl in cd.labels:
        if lbl in s0:
            continue
        rows = cd.successors(lbl)
        if any(v in base_atom for u in base_atom for v in rows[u]):
            raise CrossCheckError(f"edge class {lbl!r} induces an edge inside A0")

    suffix = "^-1" if side == "transpose" else ""
    return AtomTheoryReport(side, kappa, atom_set.size, len(atoms), True, tuple(base_sorted),
                            tuple(lbl + suffix for lbl in s0), len(nbrs), d_s1)
