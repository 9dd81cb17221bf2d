"""The cycle-prefix graph family CP(n, k).

CP(n, k) is the coset instance on S_n whose subgroup H_k fixes the first
n-k points and whose connection set is gamma(2)..gamma(n-k+1), where
gamma(j) cyclically shifts 1..j to the right.  Degree is n-1: each
gamma(j) with j <= n-k contributes one edge class coset, gamma(n-k+1)
contributes k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .coset import CosetDigraph, CosetDigraphSpec
from .errors import CrossCheckError, GroupError
from .perms import DEFAULT_ENUM_CAP, Permutation, SubgroupHandle, normalizes


@dataclass(frozen=True)
class CPParams:
    n: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise GroupError(f"n must be at least 2, got {self.n}")
        if not 1 <= self.k <= self.n - 1:
            raise GroupError(f"k must satisfy 1 <= k <= n-1, got k={self.k}")


def gamma(k: int, n: int) -> Permutation:
    """One-line form k 1 2 .. (k-1) (k+1) .. n: shift 1..k cyclically right."""
    if not 2 <= k <= n:
        raise GroupError(f"gamma({k}) needs 2 <= k <= n = {n}")
    return Permutation([k] + list(range(1, k)) + list(range(k + 1, n + 1)))


def gamma_label(k: int) -> str:
    return f"γ({k})"


def cp_spec(p: CPParams, enumeration_cap: int = DEFAULT_ENUM_CAP) -> CosetDigraphSpec:
    n, k = p.n, p.k
    full_cycle = Permutation(list(range(2, n + 1)) + [1])
    transposition = gamma(2, n)
    subgroup_gens = tuple(
        Permutation(list(range(1, j)) + [j + 1, j] + list(range(j + 2, n + 1)))
        for j in range(n - k + 1, n))
    connection = tuple((gamma_label(j), gamma(j, n)) for j in range(2, n - k + 2))
    return CosetDigraphSpec(n, (transposition, full_cycle), subgroup_gens,
                            connection, enumeration_cap)


def cp_degree_profile(p: CPParams, cd: CosetDigraph) -> None:
    """Check the degree table of the built instance against the closed
    form d_gamma(i) = 1 for i <= n-k and d_gamma(n-k+1) = k."""
    expected = {gamma_label(j): 1 for j in range(2, p.n - p.k + 1)}
    expected[gamma_label(p.n - p.k + 1)] = p.k
    if cd.degrees != expected:
        raise CrossCheckError(f"degree profile {cd.degrees} != expected {expected}")
    if sum(cd.degrees.values()) != p.n - 1:
        raise CrossCheckError("degree profile does not sum to n-1")


def verify_neighbor_multiplier(p: CPParams, F: SubgroupHandle, cd: CosetDigraph) -> bool:
    """For H <= F <= G' = <H, gamma(2)..gamma(n-k)>: the neighbors of F/H
    due to gamma(n-k+1) number exactly |F/H| * k, verified by enumeration."""
    h = cd.subgroup
    gprime = cd.closure(gamma_label(j) for j in range(2, p.n - p.k + 1))
    if F.parent is not cd.group or not h.id_set <= F.id_set <= gprime.id_set:
        raise GroupError("F must satisfy H <= F <= G'")
    right_top = cd.group.right(gamma(p.n - p.k + 1, p.n))
    coset_of = h.cosets().coset_of
    reached = {coset_of[right_top[f]] for f in F.ids}
    return len(reached) == (len(F) // len(h)) * p.k


def verify_prefix_structure(p: CPParams, cd: CosetDigraph) -> None:
    """Structural facts about G' = <H, gamma(2)..gamma(n-k)> for
    1 < k < n-1, each raising CrossCheckError when it fails: every gamma(j)
    with j <= n-k normalizes H, G'/H has (n-k)! cosets, and the instance on
    G' is isomorphic to CP(n-k, 1) via deterministic label-directed BFS."""
    n, k = p.n, p.k
    if not 1 < k < n - 1:
        raise GroupError(f"prefix structure needs 1 < k < n-1, got n={n} k={k}")
    h = cd.subgroup

    for j in range(2, n - k + 1):
        if not normalizes(gamma(j, n), h):
            raise CrossCheckError(f"gamma({j}) does not normalize H")

    prefix_labels = tuple(gamma_label(j) for j in range(2, n - k + 1))
    gprime_count = len(cd.closure(prefix_labels)) // len(h)
    m = n - k
    if gprime_count != factorial(m):
        raise CrossCheckError(f"|G'/H| = {gprime_count} != ({m})! = {factorial(m)}")

    pairs = [(gamma_label(j), gamma(j, m)) for j in range(2, m + 1)]
    if not _labeled_bfs_isomorphic(cd, pairs):
        raise CrossCheckError(f"G' instance is not isomorphic to CP({m},1)")


def verify_cp_argument(p: CPParams, cd: CosetDigraph) -> None:
    """The facts of the paper's proof that CP(n, k) is optimally connected:
    degree profile, multiplier for F = H and F = G', prefix structure."""
    cp_degree_profile(p, cd)
    gprime = cd.closure(gamma_label(j) for j in range(2, p.n - p.k + 1))
    for name, f in (("H", cd.subgroup), ("G'", gprime)):
        if not verify_neighbor_multiplier(p, f, cd):
            raise CrossCheckError(f"F = {name} does not have |F/H| * k neighbors "
                                  f"through gamma({p.n - p.k + 1})")
    if 1 < p.k < p.n - 1:
        verify_prefix_structure(p, cd)


def _labeled_bfs_isomorphic(cd: CosetDigraph, pairs) -> bool:
    """Isomorphism check between the instance on <H, labels> inside ``cd``
    and the Cayley digraph of S_m with edges x -> x*t, for the (label, t)
    ``pairs``, every t on m points, when those edge classes of ``cd`` all
    have d_s = 1: labels then direct a unique BFS pairing from the base
    vertex and the identity.  The walk reads one edge per label of each
    coset it reaches and checks it against x*t, so a pairing that is a
    bijection onto S_m preserves every edge class."""
    if {cd.degrees[lbl] for lbl, _ in pairs} - {1}:
        raise GroupError("labeled BFS isomorphism requires every d_s = 1")
    table = cd.subgroup.cosets()
    steps = [(cd.group.right(cd.connection[lbl]), t) for lbl, t in pairs]
    m = pairs[0][1].degree
    pairing, queue = {cd.base_vertex: Permutation.identity(m)}, [cd.base_vertex]
    for u in queue:                     # the list grows as it is read
        x, y = table.rep_ids[u], pairing[u]
        for right, t in steps:
            va, vb = table.coset_of[right[x]], y * t
            if va not in pairing:
                pairing[va] = vb
                queue.append(va)
            elif pairing[va] != vb:
                return False
    return len(pairing) == factorial(m) and len(set(pairing.values())) == len(pairing)
