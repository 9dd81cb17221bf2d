"""Shared corpus of instances used across the test suite.

Everything here is deterministic: fixed generators, fixed labels, and a
seeded RNG for the randomized coset specs.  Instances are cached per
process so expensive builds happen once.
"""

from __future__ import annotations

import random
from functools import lru_cache

from cosetkit import (CosetDigraph, CosetDigraphSpec, Permutation, build,
                      compose, enumerate_closure, generation_connectivity,
                      parse_cycles, subgroup_generated, trivial_subgroup)
from cosetkit.cp import CPParams, cp_spec

# quaternion group acting on itself by right multiplication;
# point order: 1, -1, i, -i, j, -j, k, -k
Q8_I = Permutation([3, 4, 2, 1, 8, 7, 5, 6])
Q8_J = Permutation([5, 6, 7, 8, 2, 1, 4, 3])


def mixed_gens_spec(n: int) -> CosetDigraphSpec:
    """G(S_n, {e}, {a, b, ba}) with a = (1 2), b = (1 2 .. n)."""
    a = parse_cycles("(1 2)", n)
    b = Permutation(list(range(2, n + 1)) + [1])
    ba = compose(b, a)
    return CosetDigraphSpec(n, (a, b), (), (("a", a), ("b", b), ("ba", ba)))


def cayley_spec(degree: int, labeled_gens) -> CosetDigraphSpec:
    perms = tuple(p for _, p in labeled_gens)
    return CosetDigraphSpec(degree, perms, (), tuple(labeled_gens))


def _labeled(degree: int, pairs) -> tuple[tuple[str, Permutation], ...]:
    return tuple((lbl, parse_cycles(text, degree)) for lbl, text in pairs)


def q8_spec() -> CosetDigraphSpec:
    return cayley_spec(8, (("i", Q8_I), ("j", Q8_J)))


def d4_spec() -> CosetDigraphSpec:
    return cayley_spec(4, _labeled(4, [("r", "(1 2 3 4)"), ("f", "(2 4)")]))


def d5_spec() -> CosetDigraphSpec:
    return cayley_spec(5, _labeled(5, [("r", "(1 2 3 4 5)"), ("f", "(2 5)(3 4)")]))


def z2_cubed_spec() -> CosetDigraphSpec:
    return cayley_spec(6, _labeled(6, [("x", "(1 2)"), ("y", "(3 4)"), ("z", "(5 6)")]))


def s4_two_gens_spec() -> CosetDigraphSpec:
    return cayley_spec(4, _labeled(4, [("t", "(1 2)"), ("c", "(1 2 3 4)")]))


def s4_transpositions_spec() -> CosetDigraphSpec:
    return cayley_spec(4, _labeled(4, [("t1", "(1 2)"), ("t2", "(2 3)"), ("t3", "(3 4)")]))


def z6_spec() -> CosetDigraphSpec:
    return cayley_spec(6, _labeled(6, [("r", "(1 2 3 4 5 6)")]))


def s4_transpose_atom_spec() -> CosetDigraphSpec:
    """G = S_4, H = <(1 2)(3 4)>, S = {(3 4), (1 3 4 2), (1 3 4)}: 12
    vertices, d = 5 and kappa = 4.  The forward atom <H, s1>/H has 4
    vertices and the transpose atom <H, s0>/H has 2, so the atom theory
    holds on the transpose side, and H is not trivial."""
    return CosetDigraphSpec(4, (parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)),
                            (parse_cycles("(1 2)(3 4)", 4),),
                            _labeled(4, [("s0", "(3 4)"), ("s1", "(1 3 4 2)"),
                                         ("s2", "(1 3 4)")]))


def s4_late_sink_spec() -> CosetDigraphSpec:
    """G = S_4, H = <(2 3)>, S = {(1 2), (1 3 2 4)}: 12 vertices, d = 4 and
    kappa = 3, where the first flow-kappa sink in breadth-first order has
    local connectivity 4, so a later sink certifies kappa."""
    return CosetDigraphSpec(4, (parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)),
                            (parse_cycles("(2 3)", 4),),
                            _labeled(4, [("a", "(1 2)"), ("b", "(1 3 2 4)")]))


def z6_disconnected_spec() -> CosetDigraphSpec:
    """Deliberately disconnected: G is Z_6 but the only connection
    generator is the square of the 6-cycle, which generates an index-2
    subgroup, so the instance splits into two directed 3-cycles."""
    r = parse_cycles("(1 2 3 4 5 6)", 6)
    s = compose(r, r)
    return CosetDigraphSpec(6, (r,), (), (("s", s),))


@lru_cache(maxsize=None)
def random_coset_specs(count: int = 3, seed: int = 90413) -> tuple[CosetDigraphSpec, ...]:
    """Seeded random coset instances on S_5 with a small nontrivial H."""
    rng = random.Random(seed)
    a = parse_cycles("(1 2)", 5)
    b = parse_cycles("(1 2 3 4 5)", 5)
    ctx = enumerate_closure(5, (a, b))
    specs = []
    while len(specs) < count:
        h_gen = ctx.elements[rng.randrange(len(ctx))]
        subgroup = subgroup_generated(ctx, trivial_subgroup(ctx), [h_gen])
        if not 2 <= len(subgroup) <= 12:
            continue
        s1 = ctx.elements[rng.randrange(len(ctx))]
        s2 = ctx.elements[rng.randrange(len(ctx))]
        if s1 in subgroup or s2 in subgroup or s1 == s2:
            continue
        spec = CosetDigraphSpec(5, (a, b), (h_gen,), (("s1", s1), ("s2", s2)))
        cd = build(spec)
        if not generation_connectivity(cd)[0]:
            continue
        specs.append(spec)
    return tuple(specs)


CORPUS_CP = {(n, k): cp_spec(CPParams(n, k))
             for n, k in [(3, 1), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]}

CORPUS_SPECS = {
    "s4_mixed": lambda: mixed_gens_spec(4),
    "s5_mixed": lambda: mixed_gens_spec(5),
    "cp_3_1": lambda: CORPUS_CP[(3, 1)],
    "cp_4_1": lambda: CORPUS_CP[(4, 1)],
    "cp_4_2": lambda: CORPUS_CP[(4, 2)],
    "cp_4_3": lambda: CORPUS_CP[(4, 3)],
    "cp_5_2": lambda: CORPUS_CP[(5, 2)],
    "cp_5_3": lambda: CORPUS_CP[(5, 3)],
    "q8": q8_spec,
    "d4": d4_spec,
    "d5": d5_spec,
    "z2_cubed": z2_cubed_spec,
    "s4_two_gens": s4_two_gens_spec,
    "s4_transpositions": s4_transpositions_spec,
    "s4_transpose_atom": s4_transpose_atom_spec,
    "z6": z6_spec,
    "random_0": lambda: random_coset_specs()[0],
    "random_1": lambda: random_coset_specs()[1],
    "random_2": lambda: random_coset_specs()[2],
}

CORPUS_NAMES = tuple(CORPUS_SPECS)

HIERARCHICAL_CAYLEY_NAMES = ("q8", "d4", "d5", "z2_cubed", "s4_two_gens",
                             "s4_transpositions", "z6", "cp_4_1")

SMALL_NAMES = tuple(n for n in CORPUS_NAMES if n not in ("s5_mixed", "cp_5_2"))


@lru_cache(maxsize=None)
def instance(name: str) -> CosetDigraph:
    return build(CORPUS_SPECS[name]())


@lru_cache(maxsize=None)
def cp_instance(n: int, k: int) -> CosetDigraph:
    return build(cp_spec(CPParams(n, k)))
