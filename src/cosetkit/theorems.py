"""Mechanical hypothesis checkers for the connectivity theorems.

Every checker evaluates the stated hypotheses in order, with a concrete
witness for each failure (a hypothesis holds exactly when it has none), and
then verifies the stated conclusion against the flow oracle instead of
trusting it: a conclusion that fails while the hypotheses hold is an
inconsistency, never silently accepted.  The chain checkers read one walk
up the tower of partial subgroups G_i = <H, S_1 u ... u S_i>.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coset import (CosetDigraph, coset_rows, generation_connectivity, oracle_kappa,
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
    cosets of rep_v * r over the representatives r of HsH/H, s in ``labels``."""
    coset_of = cd.subgroup.cosets().coset_of
    inside = sorted({coset_of[x] for x in cd.closure(labels).ids})
    local = {c: i for i, c in enumerate(inside)}
    rows = coset_rows(cd.group, cd.subgroup, [cd.connection[lbl] for lbl in labels], inside)
    if not set().union(*rows) <= local.keys():
        raise CrossCheckError(f"an edge leaves <H, {', '.join(labels)}>")
    moves = tuple(tuple(local[phi[c]] for c in inside) for phi in stabiliser_translations(cd))
    return Digraph([[local[v] for v in row] for row in rows]), moves


def _require_connected(cd: CosetDigraph) -> None:
    if not generation_connectivity(cd)[0]:
        raise GroupError("instance is disconnected")


def _require_cayley(cd: CosetDigraph) -> None:
    if len(cd.subgroup) != 1:
        raise GroupError("not a Cayley digraph: H is nontrivial")


def _require_partition(cd: CosetDigraph, blocks) -> None:
    flat = [lbl for block in blocks for lbl in block]
    if sorted(flat) != sorted(cd.labels):
        raise GroupError(f"blocks {blocks} do not partition the connection set "
                         f"{cd.labels}")


def _holds(description: str, witness: str | None) -> Hypothesis:
    """A hypothesis that holds exactly when it has no failure witness."""
    return Hypothesis(description, witness is None, witness)


def _tower(cd: CosetDigraph, blocks) -> tuple[list[SubgroupHandle], list[int], int | None]:
    """The partial subgroups G_i = <H, S_1 u ... u S_i>, the cumulative
    degrees d_i = d_S_1 + ... + d_S_i, and the first index i with chain[i] =
    chain[i + 1] (the chain is nested, so equal orders mean equal
    subgroups), or None when the chain strictly grows."""
    used: list[str] = []
    chain, d_cum = [], []
    for block in blocks:
        used.extend(block)
        chain.append(cd.closure(used))
        d_cum.append(sum(cd.degrees[lbl] for lbl in used))
    repeat = next((i for i in range(len(chain) - 1)
                   if len(chain[i]) == len(chain[i + 1])), None)
    return chain, d_cum, repeat


def _low_index(cd: CosetDigraph, chain, d_cum, steps: int) -> str | None:
    """Witness for the first i < ``steps`` with |G_i/H| < d_i+1; None when
    each of them covers (vacuous on a one-step chain)."""
    h_order = len(cd.subgroup)
    indices = (len(g) // h_order for g in chain[:steps])
    return next((f"|G_{i + 1}/H| = {index} < d_{i + 2} = {d_next}"
                 for i, (index, d_next) in enumerate(zip(indices, d_cum[1:]))
                 if index < d_next), None)


def _steep_step(d_cum, names) -> str | None:
    """Witness for the first i with d_S_i+1 > d_i, where step i+1 adds the
    degree d_cum[i+1] - d_cum[i] and is written d_``names[i+1]``."""
    return next((f"d_{names[i + 1]} = {d_next - d} > d_{i + 1} = {d}"
                 for i, (d, d_next) in enumerate(zip(d_cum, d_cum[1:]))
                 if d_next - d > d), None)


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
    hyps = (_holds("G' = <H, R1> contains no member of R2",
                   next((f"{lbl} lies in G'" for lbl in r2 if cd.connection[lbl] in gp), None)),
            _holds("same G'-double-coset members of R2 generate equal <H, r>",
                   _double_coset_clash(cd, gp, r2, "G'")))

    applicable = all(h.holds for h in hyps)
    computed = oracle_kappa(cd)
    bound = None
    if applicable:
        sub, moves = sub_instance(cd, r1)
        kappa_sub, _ = vertex_connectivity_transitive(sub, 0, moves)
        d_r2 = sum(cd.degrees[lbl] for lbl in r2)
        bound = min(sub.vertex_count, kappa_sub + d_r2)
    consistent = (computed >= bound) if applicable else True
    return HypothesisReport("decomposition", hyps, applicable, bound, computed, consistent)


def check_tower(cd: CosetDigraph, blocks, variant: str = "corollary1") -> HypothesisReport:
    """Tower corollaries: an ordered partition S_1,...,S_k whose partial
    subgroups grow at every step forces kappa = d_S, given the degree and
    index conditions of the chosen variant."""
    if variant not in ("corollary1", "corollary1_1"):
        raise GroupError(f"unknown tower variant {variant!r}")
    blocks = [tuple(b) for b in blocks]
    _require_partition(cd, blocks)
    _require_connected(cd)
    chain, d_cum, repeat = _tower(cd, blocks)

    clashes = (_double_coset_clash(cd, chain[i - 1], blocks[i], f"G_{i}")
               for i in range(1, len(blocks)))
    hyps = [_holds("the subgroups G_i are distinct",
                   None if repeat is None else f"G_{repeat + 1} = G_{repeat + 2}"),
            _holds("same-double-coset members of S_i+1 generate equal <H, r>",
                   next(filter(None, clashes), None))]

    base, moves = sub_instance(cd, blocks[0])
    kappa_base, _ = vertex_connectivity_transitive(base, 0, moves)
    hyps.append(_holds("kappa(G(G_1, H, S_1)) = d_1", None if kappa_base == d_cum[0]
                       else f"kappa = {kappa_base}, d_1 = {d_cum[0]}"))

    if variant == "corollary1":
        hyps.append(_holds("|G_i/H| >= d_i+1 for every i",
                           _low_index(cd, chain, d_cum, len(chain))))
    else:
        hyps.append(_holds("|G_1/H| >= d_2", _low_index(cd, chain, d_cum, 1)))
        hyps.append(_holds("d_S_i+1 <= d_i for every i",
                           _steep_step(d_cum, [f"S_{i + 1}" for i in range(len(blocks))])))

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
    if ordering is not None:
        ordering = tuple(ordering)
        if sorted(ordering) != sorted(cd.labels):
            raise GroupError(f"{ordering} is not an ordering of {cd.labels}")
    _require_connected(cd)
    if ordering is None:
        ordering = hierarchical_order_search(cd)
        if ordering is None:
            return _conclude(variant, cd, (_ordering_exists(None),), cd.degree)
    chain, d_cum, repeat = _tower(cd, [(lbl,) for lbl in ordering])

    hyps = [_holds("the ordering is hierarchical (subgroups all distinct)",
                   None if repeat is None else
                   f"<H,{','.join(ordering[:repeat + 1])}> = "
                   f"<H,{','.join(ordering[:repeat + 2])}>"),
            _holds("d_s_i+1 <= d_i for every i", _steep_step(d_cum, ordering))]

    if variant == "hierarchical_gen":
        hyps.append(_holds("|G_1/H| >= d_2", _low_index(cd, chain, d_cum, 1)))
    else:
        if not ordering:
            raise GroupError("hier1 needs a generator s_1: the connection set is empty")
        s1 = cd.connection[ordering[0]]
        same = (double_coset_cosets(cd.subgroup, s1)
                == double_coset_cosets(cd.subgroup, inverse(s1)))
        hyps.append(_holds("Hs_1^-1 H != Hs_1 H",
                           f"Hs_1H = Hs_1^-1H for s_1 = {ordering[0]}" if same else None))

    return _conclude(variant, cd, hyps, cd.degree)


def verify_hierarchical_cayley(cd: CosetDigraph) -> HypothesisReport:
    """Hierarchical Cayley digraphs (trivial H) are optimally connected:
    kappa = |S|."""
    _require_cayley(cd)
    _require_connected(cd)
    ordering = hierarchical_order_search(cd)
    hyps = (_holds("H is trivial", None), _ordering_exists(ordering))
    return _conclude("hierarchical_cayley", cd, hyps, len(cd.labels))


def check_hierarchical_gen_c(cd: CosetDigraph, s_labels, sprime_labels) -> HypothesisReport:
    """Cayley digraph on S and some inverses S' of order >= 3: if S is
    hierarchical in the given order and |<s_1, s_2>| != 4, then
    kappa = |S u S'|."""
    _require_cayley(cd)
    s_labels, sprime_labels = tuple(s_labels), tuple(sprime_labels)
    if set(s_labels) & set(sprime_labels):
        raise GroupError("S and S' overlap")
    _require_partition(cd, (s_labels, sprime_labels))
    _require_connected(cd)
    if not s_labels:
        raise GroupError("S is empty")

    s_images = {cd.connection[lbl].image for lbl in s_labels}
    orders = {lbl: cd.connection[lbl].order() for lbl in sprime_labels}
    chain, _, repeat = _tower(cd, [(lbl,) for lbl in s_labels])
    hyps = (_holds("S' is a subset of S^-1",
                   next((f"{lbl} is not the inverse of any member of S" for lbl in sprime_labels
                         if inverse(cd.connection[lbl]).image not in s_images), None)),
            _holds("every member of S' has order at least 3",
                   next((f"{lbl} has order {order}" for lbl, order in orders.items()
                         if order < 3), None)),
            _holds("G(G, {e}, S) is hierarchical in the given order",
                   "<S> != G" if len(chain[-1]) != len(cd.group) else
                   "a subgroup repeats" if repeat is not None else None),
            _holds("|<s_1, s_2>| != 4",
                   "|<s_1,s_2>| = 4" if len(cd.closure(s_labels[:2])) == 4 else None))

    return _conclude("hierarchical_gen_c", cd, hyps, len(cd.labels))


def verify_edge_connectivity(cd: CosetDigraph) -> HypothesisReport:
    """Edge connectivity equals the degree, and every e-atom is a single
    vertex.  Unconditional for connected instances.  Every vertex has
    exactly d out-edges, so the e-atoms are singletons exactly when
    lambda = d: that one comparison checks both."""
    _require_connected(cd)
    lam, _ = edge_connectivity(cd.graph, cd.base_vertex, stabiliser_translations(cd))
    d = cd.degree
    hyps = (_holds("instance is connected", None),)
    return HypothesisReport("edgec", hyps, True, d, lam, lam == d)
