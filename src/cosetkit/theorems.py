"""Mechanical hypothesis checkers for the connectivity theorems.

Every checker evaluates the stated hypotheses in order, with a concrete
witness for each failure, and then verifies the stated conclusion against
the flow oracle instead of trusting it: a conclusion that fails while the
hypotheses hold is an inconsistency, never silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coset import (CosetDigraph, generation_connectivity, oracle_kappa,
                    stabiliser_translations)
from .digraph import Digraph, edge_connectivity, vertex_connectivity_transitive
from .errors import CrossCheckError, GroupError
from .perms import SubgroupHandle, double_coset_cosets, inverse

THEOREM_IDS = ("decomposition", "corollary1", "corollary1_1", "hierarchical_gen",
               "hier1", "hierarchical_cayley", "hierarchical_gen_c", "edgec")


@dataclass(frozen=True)
class Hypothesis:
    description: str
    holds: bool
    witness: str | None = None


@dataclass(frozen=True)
class HypothesisReport:
    theorem_id: str
    hypotheses: tuple[Hypothesis, ...]
    applicable: bool
    implied_bound: int | None
    computed_kappa: int | None
    consistent: bool


def sub_instance(cd: CosetDigraph, labels) -> tuple[Digraph, tuple[tuple[int, ...], ...]]:
    """The instance on G' = <H, labels> with the same H, read off ``cd``,
    with H's left translations restricted to it.  Its vertices are cd's
    cosets inside G', ascending, so the base vertex stays 0; row v holds the
    cosets of x*s over x in coset v and s in ``labels``."""
    table = cd.subgroup.cosets()
    coset_of, members = table.coset_of, table.members
    inside = sorted({coset_of[x] for x in cd.closure(labels).ids})
    local = {c: i for i, c in enumerate(inside)}
    rights = [cd.group.right(cd.connection[lbl]) for lbl in labels]
    rows = [{coset_of[right[x]] for right in rights for x in members[c]} for c in inside]
    if not set().union(*rows) <= local.keys():
        raise CrossCheckError(f"an edge leaves <H, {', '.join(labels)}>")
    moves = tuple(tuple(local[phi[c]] for c in inside) for phi in stabiliser_translations(cd))
    return Digraph([sorted(map(local.__getitem__, row)) for row in rows]), moves


def _require_connected(cd: CosetDigraph) -> None:
    if not generation_connectivity(cd)[0]:
        raise GroupError("instance is disconnected")


def _require_partition(cd: CosetDigraph, blocks) -> None:
    flat = [lbl for block in blocks for lbl in block]
    if sorted(flat) != sorted(cd.labels):
        raise GroupError(f"blocks {blocks} do not partition the connection set "
                         f"{cd.labels}")


def _chain(cd: CosetDigraph, blocks) -> list[SubgroupHandle]:
    """The partial subgroups G_i = <H, S_1 u ... u S_i>, one per block."""
    used: list[str] = []
    chain = []
    for block in blocks:
        used.extend(block)
        chain.append(cd.closure(used))
    return chain


def _first_repeat(chain) -> int | None:
    """First i with G_i = G_i+1 (the chain is nested, so equal orders
    mean equal subgroups), or None when the chain strictly grows."""
    return next((i for i in range(len(chain) - 1)
                 if len(chain[i]) == len(chain[i + 1])), None)


def _double_coset_clash(cd: CosetDigraph, gp: SubgroupHandle, labels,
                        name: str) -> str | None:
    """Witness for the first pair a, b of labels with gp a gp = gp b gp but
    <H, a> != <H, b>, writing gp as ``name``; None when no pair clashes."""
    for a, b in combinations(labels, 2):
        coset_b = gp.cosets().coset_of[cd.group.id_of(cd.connection[b])]
        if coset_b in double_coset_cosets(gp, cd.connection[a]) and \
                cd.closure([a]) != cd.closure([b]):
            return f"{name}{a}{name} = {name}{b}{name} but <H,{a}> != <H,{b}>"
    return None


def _index_covers_d2(cd: CosetDigraph, chain, d_cum) -> Hypothesis:
    """|G_1/H| >= d_2, vacuous below two steps; the index is the witness."""
    index = len(chain[0]) // len(cd.subgroup) if len(chain) > 1 else None
    ok = index is None or index >= d_cum[1]
    return Hypothesis("|G_1/H| >= d_2", ok,
                      None if ok else f"|G_1/H| = {index} < d_2 = {d_cum[1]}")


def _conclude(theorem_id: str, cd: CosetDigraph, hyps, bound: int) -> HypothesisReport:
    """Report for a theorem concluding kappa = bound, verified against the
    flow oracle whenever every hypothesis holds."""
    applicable = all(h.holds for h in hyps)
    computed = oracle_kappa(cd)
    return HypothesisReport(theorem_id, tuple(hyps), applicable,
                            bound if applicable else None, computed,
                            computed == bound if applicable else True)


def check_decomposition(cd: CosetDigraph, r1, r2) -> HypothesisReport:
    """kappa(G) >= min(|V(G')|, kappa(G') + d_R2) for G' = <H, R1>, when
    G' avoids R2 and R2 generators from one G'-double-coset generate the
    same subgroup with H."""
    r1, r2 = tuple(r1), tuple(r2)
    _require_partition(cd, (r1, r2))
    _require_connected(cd)
    gp = cd.closure(r1)

    offenders = [lbl for lbl in r2 if cd.connection[lbl] in gp]
    hyp1 = Hypothesis("G' = <H, R1> contains no member of R2", not offenders,
                      f"{offenders[0]} lies in G'" if offenders else None)

    witness = _double_coset_clash(cd, gp, r2, "G'")
    hyp2 = Hypothesis("same G'-double-coset members of R2 generate equal <H, r>",
                      witness is None, witness)

    applicable = hyp1.holds and hyp2.holds
    computed = oracle_kappa(cd)
    bound = None
    if applicable:
        sub, moves = sub_instance(cd, r1)
        kappa_sub, _ = vertex_connectivity_transitive(sub, 0, moves)
        d_r2 = sum(cd.degrees[lbl] for lbl in r2)
        bound = min(sub.vertex_count, kappa_sub + d_r2)
    consistent = (computed >= bound) if applicable else True
    return HypothesisReport("decomposition", (hyp1, hyp2), applicable,
                            bound, computed, consistent)


def check_tower(cd: CosetDigraph, blocks, variant: str = "corollary1") -> HypothesisReport:
    """Tower corollaries: an ordered partition S_1,...,S_k whose partial
    subgroups grow at every step forces kappa = d_S, given the degree and
    index conditions of the chosen variant."""
    if variant not in ("corollary1", "corollary1_1"):
        raise GroupError(f"unknown tower variant {variant!r}")
    blocks = [tuple(b) for b in blocks]
    _require_partition(cd, blocks)
    _require_connected(cd)
    k = len(blocks)
    h_order = len(cd.subgroup)

    chain = _chain(cd, blocks)
    d_block = [sum(cd.degrees[lbl] for lbl in block) for block in blocks]
    d_cum = [sum(d_block[:i + 1]) for i in range(k)]

    hyps = []
    repeat = _first_repeat(chain)
    hyps.append(Hypothesis("the subgroups G_i are distinct", repeat is None,
                           None if repeat is None else
                           f"G_{repeat + 1} = G_{repeat + 2}"))

    clashes = (_double_coset_clash(cd, chain[i - 1], blocks[i], f"G_{i}")
               for i in range(1, k))
    witness = next(filter(None, clashes), None)
    hyps.append(Hypothesis("same-double-coset members of S_i+1 generate equal <H, r>",
                           witness is None, witness))

    base, moves = sub_instance(cd, blocks[0])
    kappa_base, _ = vertex_connectivity_transitive(base, 0, moves)
    hyps.append(Hypothesis("kappa(G(G_1, H, S_1)) = d_1", kappa_base == d_cum[0],
                           None if kappa_base == d_cum[0] else
                           f"kappa = {kappa_base}, d_1 = {d_cum[0]}"))

    if variant == "corollary1":
        bad = next((i for i in range(k - 1)
                    if len(chain[i]) // h_order < d_cum[i + 1]), None)
        hyps.append(Hypothesis("|G_i/H| >= d_i+1 for every i", bad is None,
                               None if bad is None else
                               f"|G_{bad + 1}/H| = {len(chain[bad]) // h_order} "
                               f"< d_{bad + 2} = {d_cum[bad + 1]}"))
    else:
        hyps.append(_index_covers_d2(cd, chain, d_cum))
        bad = next((i for i in range(k - 1) if d_block[i + 1] > d_cum[i]), None)
        hyps.append(Hypothesis("d_S_i+1 <= d_i for every i", bad is None,
                               None if bad is None else
                               f"d_S_{bad + 2} = {d_block[bad + 1]} > d_{bad + 1} "
                               f"= {d_cum[bad]}"))

    return _conclude(variant, cd, hyps, cd.degree)


def hierarchical_order_search(cd: CosetDigraph):
    """First generator ordering (lexicographic in spec order) making the
    partial subgroups <H, s_1..s_i> strictly grow, or None.  A prefix that
    can complete has used just the generators its subgroup holds, so the
    subgroup decides whether it does: one that failed is not searched again."""
    ids = {lbl: cd.group.id_of(p) for lbl, p in cd.connection.items()}
    failed: set[tuple[int, ...]] = set()

    def extend(prefix: tuple[str, ...], current: SubgroupHandle):
        rest = [lbl for lbl in cd.labels if lbl not in prefix]
        if current.ids in failed or any(ids[lbl] in current.id_set for lbl in rest):
            return None                 # an unused generator would never grow it
        if not rest:
            return prefix
        for lbl in rest:
            hit = extend(prefix + (lbl,), cd.closure(prefix + (lbl,)))
            if hit is not None:
                return hit
        failed.add(current.ids)
        return None

    return extend((), cd.subgroup)


def _ordering_exists(ordering) -> Hypothesis:
    """The searched ordering as the witness, or its absence as a failure."""
    return Hypothesis("a hierarchical ordering exists", ordering is not None,
                      "no generator ordering grows at every step" if ordering is None
                      else ",".join(ordering))


def check_hierarchical_gen(cd: CosetDigraph, ordering=None,
                           variant: str = "hierarchical_gen") -> HypothesisReport:
    """Hierarchical ordering plus degree conditions force kappa = d.  The
    hier1 variant replaces |G_1/H| >= d_2 with Hs_1^-1 H != Hs_1 H.  With
    no ``ordering``, the first hierarchical one is searched for."""
    if variant not in ("hierarchical_gen", "hier1"):
        raise GroupError(f"unknown variant {variant!r}")
    if ordering is None:
        _require_connected(cd)
        ordering = hierarchical_order_search(cd)
        if ordering is None:
            return _conclude(variant, cd, (_ordering_exists(None),), cd.degree)
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(cd.labels):
        raise GroupError(f"{ordering} is not an ordering of {cd.labels}")
    _require_connected(cd)
    k = len(ordering)

    chain = _chain(cd, [(lbl,) for lbl in ordering])
    d_cum = [sum(cd.degrees[lbl] for lbl in ordering[:i + 1]) for i in range(k)]

    hyps = []
    repeat = _first_repeat(chain)
    hyps.append(Hypothesis("the ordering is hierarchical (subgroups all distinct)",
                           repeat is None,
                           None if repeat is None else
                           f"<H,{','.join(ordering[:repeat + 1])}> = "
                           f"<H,{','.join(ordering[:repeat + 2])}>"))

    bad = next((i for i in range(k - 1)
                if cd.degrees[ordering[i + 1]] > d_cum[i]), None)
    hyps.append(Hypothesis("d_s_i+1 <= d_i for every i", bad is None,
                           None if bad is None else
                           f"d_{ordering[bad + 1]} = {cd.degrees[ordering[bad + 1]]} "
                           f"> d_{bad + 1} = {d_cum[bad]}"))

    if variant == "hierarchical_gen":
        hyps.append(_index_covers_d2(cd, chain, d_cum))
    else:
        if not ordering:
            raise GroupError("hier1 needs a generator s_1: the connection set is empty")
        s1 = cd.connection[ordering[0]]
        distinct = (double_coset_cosets(cd.subgroup, s1)
                    != double_coset_cosets(cd.subgroup, inverse(s1)))
        hyps.append(Hypothesis("Hs_1^-1 H != Hs_1 H", distinct,
                               None if distinct else
                               f"Hs_1H = Hs_1^-1H for s_1 = {ordering[0]}"))

    return _conclude(variant, cd, hyps, cd.degree)


def verify_hierarchical_cayley(cd: CosetDigraph) -> HypothesisReport:
    """Hierarchical Cayley digraphs (trivial H) are optimally connected:
    kappa = |S|."""
    if len(cd.subgroup) != 1:
        raise GroupError("not a Cayley digraph: H is nontrivial")
    _require_connected(cd)
    ordering = hierarchical_order_search(cd)
    hyps = (Hypothesis("H is trivial", True), _ordering_exists(ordering))
    return _conclude("hierarchical_cayley", cd, hyps, len(cd.labels))


def check_hierarchical_gen_c(cd: CosetDigraph, s_labels, sprime_labels) -> HypothesisReport:
    """Cayley digraph on S and some inverses S' of order >= 3: if S is
    hierarchical in the given order and |<s_1, s_2>| != 4, then
    kappa = |S u S'|."""
    if len(cd.subgroup) != 1:
        raise GroupError("not a Cayley digraph: H is nontrivial")
    s_labels, sprime_labels = tuple(s_labels), tuple(sprime_labels)
    if set(s_labels) & set(sprime_labels):
        raise GroupError("S and S' overlap")
    _require_partition(cd, (s_labels, sprime_labels))
    _require_connected(cd)
    if not s_labels:
        raise GroupError("S is empty")

    s_images = {cd.connection[lbl].image for lbl in s_labels}
    hyps = []

    stray = [lbl for lbl in sprime_labels
             if inverse(cd.connection[lbl]).image not in s_images]
    hyps.append(Hypothesis("S' is a subset of S^-1", not stray,
                           f"{stray[0]} is not the inverse of any member of S"
                           if stray else None))

    low = [lbl for lbl in sprime_labels if cd.connection[lbl].order() < 3]
    hyps.append(Hypothesis("every member of S' has order at least 3", not low,
                           f"{low[0]} has order {cd.connection[low[0]].order()}"
                           if low else None))

    chain = _chain(cd, [(lbl,) for lbl in s_labels])
    witness = ("<S> != G" if len(chain[-1]) != len(cd.group) else
               "a subgroup repeats" if _first_repeat(chain) is not None else None)
    hyps.append(Hypothesis("G(G, {e}, S) is hierarchical in the given order",
                           witness is None, witness))

    pair = cd.closure(s_labels[:2])
    hyps.append(Hypothesis("|<s_1, s_2>| != 4", len(pair) != 4,
                           None if len(pair) != 4 else f"|<s_1,s_2>| = 4"))

    return _conclude("hierarchical_gen_c", cd, hyps, len(cd.labels))


def verify_edge_connectivity(cd: CosetDigraph) -> HypothesisReport:
    """Edge connectivity equals the degree, and every e-atom is a single
    vertex.  Unconditional for connected instances.  Every vertex has
    exactly d out-edges, so the e-atoms are singletons exactly when
    lambda = d: that one comparison checks both."""
    _require_connected(cd)
    lam, _ = edge_connectivity(cd.graph, cd.base_vertex, stabiliser_translations(cd))
    d = cd.degree
    hyps = (Hypothesis("instance is connected", True),)
    return HypothesisReport("edgec", hyps, True, d, lam, lam == d)
