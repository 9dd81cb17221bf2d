"""Benchmark workloads: the operations each one runs, built from a seed.

An operation is one ``cosetkit`` command line (``analyze`` or ``check``)
together with the spec document it reads and what its answer must satisfy.
Everything here is plain Python on permutation tuples and never imports
``cosetkit``, so the expectations do not come from the code under test.

Permutations are tuples of 0-based images with the right-action product
used by cosetkit: ``mul(p, q)`` applies p first, then q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

WORKLOADS = {
    "cayley_flow": "CP(6,1): 720 vertices with trivial H, so Dinic flows and "
                   "compose dominate and every stabiliser orbit is one vertex",
    "coset_group": "CP(7,4): |G| = 5040 over 210 cosets, so group arithmetic "
                   "dominates and flows take under a tenth of the time",
    "check_ladder": "the eight theorem checkers, each rebuilding its instance "
                    "and recomputing connectivity and flow kappa",
    "random_sweep": "hundreds of distinct small S4/S5 instances, so per-command "
                    "costs, brute-force atoms and disconnected cases show",
}

SWEEP_SIZE = 240


@dataclass
class Operation:
    """One command: ``argv`` names the spec as ``{spec}``."""
    argv: list[str]
    spec: dict
    expect: dict

    def resolved_argv(self, spec_path: str) -> list[str]:
        return [spec_path if arg == "{spec}" else arg for arg in self.argv]


# ---------------------------------------------------------------- permutations

def mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[i] for i in p)


def inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def cycles_text(p: tuple[int, ...]) -> str:
    """1-based disjoint-cycle notation, ``()`` for the identity."""
    seen, parts = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur + 1)
            cur = p[cur]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def closure(gens, n: int) -> set[tuple[int, ...]]:
    """Every element of the group generated by ``gens`` on n points."""
    e = identity(n)
    members, frontier = {e}, [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def gamma(j: int, n: int) -> tuple[int, ...]:
    """CP's gamma(j): shift points 1..j cyclically right (one-line j 1 .. j-1)."""
    return tuple(v - 1 for v in [j, *range(1, j), *range(j + 1, n + 1)])


def symmetric_generators(n: int) -> list[str]:
    return [cycles_text(gamma(2, n)), "(" + " ".join(map(str, range(1, n + 1))) + ")"]


def conjugate(p: tuple[int, ...], by: tuple[int, ...]) -> tuple[int, ...]:
    """by^-1 p by: the same permutation with its points renamed by ``by``."""
    return mul(mul(inv(by), p), by)


# ------------------------------------------------------------------- workloads

def cayley_flow(rng: random.Random) -> list[Operation]:
    return [Operation(["analyze", "{spec}"], {"family": "cp", "n": 6, "k": 1},
                      {"kind": "cp", "n": 6, "k": 1})]


def coset_group(rng: random.Random) -> list[Operation]:
    return [Operation(["analyze", "{spec}"], {"family": "cp", "n": 7, "k": 4},
                      {"kind": "cp", "n": 7, "k": 4})]


def _explicit_spec(n: int, subgroup, connection, rng: random.Random) -> dict:
    """An explicit spec on S_n with its points renamed at random, so that no
    two commands read the same document; the instance is isomorphic."""
    by = tuple(rng.sample(range(n), n))
    return {
        "degree": n,
        "group_generators": symmetric_generators(n),
        "subgroup_generators": [cycles_text(conjugate(h, by)) for h in subgroup],
        "connection_set": [{"label": lbl, "perm": cycles_text(conjugate(p, by))}
                           for lbl, p in connection],
    }


def _cp_connection(n: int, k: int):
    subgroup = []
    for j in range(n - k + 1, n):        # transpositions (j j+1) fixing 1..n-k
        img = list(range(n))
        img[j - 1], img[j] = img[j], img[j - 1]
        subgroup.append(tuple(img))
    return subgroup, [(f"γ({j})", gamma(j, n)) for j in range(2, n - k + 2)]


def check_ladder(rng: random.Random) -> list[Operation]:
    """Every theorem id once.  CP(6,2) has kappa = n - 1 = 5; the S5 Cayley
    digraph on gamma(2..5) is hierarchical, so kappa = |S| = 4, and adding
    S' = {gamma(5)^-1} (order 5) gives kappa = |S u S'| = 5.  hier1 fails
    its hypothesis because gamma(2) is an involution (Hs1H = Hs1^-1H)."""
    cp_h, cp_s = _cp_connection(6, 2)
    s5 = [(f"γ({j})", gamma(j, 5)) for j in range(2, 6)]
    s5_c = s5 + [("γ(5)^-1", inv(gamma(5, 5)))]
    singletons = "γ(2)|γ(3)|γ(4)|γ(5)"
    plan = [
        ("decomposition", ["--partition", "γ(2),γ(3),γ(4)|γ(5)"], "cp", 5, 0),
        ("corollary1", ["--partition", singletons], "cp", 5, 0),
        ("corollary1_1", ["--partition", singletons], "cp", 5, 0),
        ("hierarchical_gen", [], "cp", 5, 0),
        ("edgec", [], "cp", 5, 0),
        ("hierarchical_cayley", [], "s5", 4, 0),
        ("hier1", [], "s5", 4, 3),
        ("hierarchical_gen_c", ["--order", "γ(2),γ(3),γ(4),γ(5)",
                                "--sprime", "γ(5)^-1"], "s5_c", 5, 0),
    ]
    ops = []
    for theorem, extra, base, kappa, code in plan:
        if base == "cp":
            spec = _explicit_spec(6, cp_h, cp_s, rng)
        else:
            spec = _explicit_spec(5, [], s5 if base == "s5" else s5_c, rng)
        ops.append(Operation(["check", theorem, "{spec}", *extra], spec,
                             {"kind": "check", "theorem": theorem,
                              "kappa": kappa, "exit": code}))
    return ops


def _is_even(p: tuple[int, ...]) -> bool:
    seen, cycles = set(), 0
    for start in range(len(p)):
        if start not in seen:
            cycles += 1
            cur = start
            while cur not in seen:
                seen.add(cur)
                cur = p[cur]
    return (len(p) - cycles) % 2 == 0


def _with_cycle_type(n: int, lengths: tuple[int, ...], rng: random.Random):
    """A random permutation of S_n whose nontrivial cycles have ``lengths``."""
    img, point = list(range(n)), 0
    for length in lengths:
        for i in range(length):
            img[point + i] = point + (i + 1) % length
        point += length
    return conjugate(tuple(img), tuple(rng.sample(range(n), n)))


# One block of the sweep: (kind, n, cycle type of H's generator).  Fixed
# quotas keep the mix, and with it the sweep's cost, the same for every seed:
# 10 of 30 are S4 with nontrivial H (6-12 vertices, so atoms are
# brute-forced), 3 use only even permutations (disconnected), and 17 are
# connected with 20-60 vertices.
SWEEP_BLOCK = (
    [("connected", 4, t) for t in ((2,), (2, 2), (3,), (4,))] * 2
    + [("connected", 4, (2,)), ("connected", 4, (3,))]
    + [("disconnected", 4, (3,)), ("disconnected", 5, ()), ("disconnected", 5, (2, 2))]
    + [("connected", 4, ())] * 6
    + [("connected", 5, t) for t in ((2,), (3,), (2, 2), (4,), (5,), (3, 2))]
    + [("connected", 5, t) for t in ((2,), (3,), (2, 2), (4,), (5,))]
)


def random_instance(n: int, h_type: tuple[int, ...], count: int, connected: bool,
                    rng: random.Random):
    """H = <h> with h of cycle type ``h_type`` and ``count`` random
    generators outside H that, with H, generate S_n exactly when
    ``connected``; disconnected instances draw only even permutations."""
    h = _with_cycle_type(n, h_type, rng)
    h_elems = closure([h], n)
    full = factorial(n)
    while True:
        gens: list[tuple[int, ...]] = []
        while len(gens) < count:
            p = tuple(rng.sample(range(n), n))
            if p not in h_elems and p not in gens and (connected or _is_even(p)):
                gens.append(p)
        if (len(closure([h, *gens], n)) == full) == connected:
            return h, tuple(gens), full // len(h_elems)


def random_sweep(rng: random.Random, size: int = SWEEP_SIZE) -> list[Operation]:
    ops, seen = [], set()
    while len(ops) < size:
        i = len(ops)
        kind, n, h_type = SWEEP_BLOCK[i % len(SWEEP_BLOCK)]
        count = 2 + (i + i // len(SWEEP_BLOCK)) % 2
        h, gens, vertices = random_instance(n, h_type, count, kind == "connected", rng)
        key = (n, frozenset(closure([h], n)), frozenset(gens))
        if key in seen:
            continue
        seen.add(key)
        spec = {
            "degree": n,
            "group_generators": symmetric_generators(n),
            "subgroup_generators": [cycles_text(h)] if h_type else [],
            "connection_set": [{"perm": cycles_text(p)} for p in gens],
        }
        ops.append(Operation(["analyze", "{spec}"], spec,
                             {"kind": "random", "vertices": vertices}))
    return ops


_OPS_BY_WORKLOAD = {"cayley_flow": cayley_flow, "coset_group": coset_group,
                    "check_ladder": check_ladder, "random_sweep": random_sweep}


def operations(workload: str, seed: int) -> list[Operation]:
    """The workload's operations; the same seed gives the same operations."""
    return _OPS_BY_WORKLOAD[workload](random.Random(f"{workload}:{seed}"))
