"""Permutation arithmetic, closure enumeration, cosets and double cosets."""

import functools
import random
from itertools import permutations

import pytest

from cosetkit import (CapExceeded, GroupError, Permutation, canonical_coset_rep,
                      compose, double_coset, double_coset_index,
                      enumerate_closure, inverse, left_coset_reps, normalizes,
                      parse_cycles, print_cycles, subgroup_generated,
                      trivial_subgroup)
from corpus import CORPUS_SPECS
from cosetkit.cp import CPParams, cp_spec
from cosetkit.perms import orbit
from helpers import apply_then, enumeration_oracle, left_table_oracle, right_table_oracle


def perm(text, n):
    return parse_cycles(text, n)


class TestCompose:
    def test_identity_absorbs(self):
        e = Permutation.identity(4)
        p = perm("(1 3 2)", 4)
        assert compose(e, p) == p
        assert compose(p, e) == p

    def test_product_b_then_a_is_short_cycle(self):
        # one-line oracle: apply b = (1 2 3 4) first, then a = (1 2)
        a, b = perm("(1 2)", 4), perm("(1 2 3 4)", 4)
        expected = apply_then(b.image, a.image)
        got = compose(b, a)
        assert got.image == expected
        assert got == perm("(2 3 4)", 4)
        assert len(got.cycles()[0]) == 3  # a cycle of length n-1

    def test_a_then_b(self):
        a, b = perm("(1 2)", 4), perm("(1 2 3 4)", 4)
        assert compose(a, b) == perm("(1 3 4)", 4)
        assert compose(a, b).image == apply_then(a.image, b.image)

    def test_degree_mismatch(self):
        with pytest.raises(GroupError):
            compose(Permutation.identity(3), Permutation.identity(4))

    def test_associativity_sampled(self):
        rng = random.Random(7)
        pool = [Permutation(p) for p in permutations(range(1, 6))]
        for _ in range(200):
            x, y, z = (pool[rng.randrange(len(pool))] for _ in range(3))
            assert compose(compose(x, y), z) == compose(x, compose(y, z))


class TestInverse:
    def test_identity(self):
        e = Permutation.identity(5)
        assert inverse(e) == e

    def test_involution(self):
        t = perm("(1 2)", 4)
        assert inverse(t) == t

    def test_cycle_reversal(self):
        assert inverse(perm("(1 2 3)", 3)) == perm("(1 3 2)", 3)

    def test_right_inverse_property(self):
        rng = random.Random(11)
        for _ in range(100):
            img = list(range(1, 7))
            rng.shuffle(img)
            p = Permutation(img)
            assert compose(p, inverse(p)).is_identity()
            assert compose(inverse(p), p).is_identity()


class TestOrbit:
    def test_breadth_first_discovery_order(self):
        # 0 -> 1 under the first map, 0 -> 2 under the second, then 1 -> 3
        first, second = [1, 3, 2, 0, 4], [2, 1, 0, 3, 4]
        assert orbit([first, second], [0]) == [0, 1, 2, 3]

    def test_seeds_first_once_each(self):
        rotate = [1, 2, 0, 4, 3, 5]
        assert orbit([rotate], [5, 3, 5]) == [5, 3, 4]
        assert orbit([rotate], [2, 4]) == [2, 4, 0, 3, 1]

    def test_no_maps_and_no_seeds(self):
        assert orbit([], [4, 1, 4]) == [4, 1]
        assert orbit([[1, 0]], []) == []


class TestCycleNotation:
    def test_parse_basic(self):
        assert parse_cycles("(1 2)(3 4)", 4).image == (2, 1, 4, 3)

    def test_parse_identity(self):
        assert parse_cycles("()", 5).is_identity()

    def test_repeated_point(self):
        with pytest.raises(GroupError, match="repeated"):
            parse_cycles("(1 2)(2 3)", 4)

    def test_out_of_range(self):
        with pytest.raises(GroupError, match="range"):
            parse_cycles("(1 5)", 4)

    def test_malformed(self):
        for bad in ["(1 2", "1 2)", "(1 (2))", "nonsense"]:
            with pytest.raises(GroupError):
                parse_cycles(bad, 4)

    def test_round_trip_canonical(self):
        rng = random.Random(13)
        for _ in range(100):
            img = list(range(1, 8))
            rng.shuffle(img)
            p = Permutation(img)
            assert parse_cycles(print_cycles(p), 7) == p

    def test_print_sorted_rotated(self):
        p = parse_cycles("(4 3)(2 1)", 4)
        assert print_cycles(p) == "(1 2)(3 4)"


class TestClosure:
    def test_empty_generators(self):
        ctx = enumerate_closure(3, [])
        assert len(ctx) == 1 and ctx.identity.is_identity()

    def test_cyclic(self):
        ctx = enumerate_closure(4, [perm("(1 2 3 4)", 4)])
        assert len(ctx) == 4

    def test_s3_bruteforce(self):
        # oracle: S_3 is exactly the 6 bijections on 3 points
        ctx = enumerate_closure(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
        expected = {p for p in permutations(range(1, 4))}
        assert {g.image for g in ctx} == expected

    def test_cap_reports_partial(self):
        with pytest.raises(CapExceeded, match=r"exceeded cap 10 \(10 elements found so far\)$"):
            enumerate_closure(5, [perm("(1 2)", 5), perm("(1 2 3 4 5)", 5)], cap=10)

    def test_deterministic_order(self):
        gens = [perm("(1 2)", 4), perm("(1 2 3 4)", 4)]
        ctx1 = enumerate_closure(4, gens)
        ctx2 = enumerate_closure(4, gens)
        assert [g.image for g in ctx1] == [g.image for g in ctx2]


class TestEnumerationProducts:
    """The enumeration's getter products give the elements, generator
    tables and breadth-first tree of one tuple product per element and
    generator.  Degree 1 has its own case: a getter of one index returns a
    scalar."""

    @pytest.mark.parametrize("degree, gens", [
        (1, []),
        (1, ["()"]),
        (2, ["(1 2)"]),
        (2, ["()", "(1 2)"]),
        (5, ["(1 2)", "(1 2 3 4 5)"]),
        (7, ["(1 2)", "(1 2 3 4 5 6 7)"]),
    ])
    def test_matches_tuple_products(self, degree, gens):
        gens = [perm(g, degree) for g in gens]
        G = enumerate_closure(degree, gens)
        images, tables, parent, step = enumeration_oracle(degree, gens)
        assert [g.image for g in G.elements] == images
        assert G.index == {image: i for i, image in enumerate(images)}
        assert G._tables == tables
        assert [list(a) for a in G._tree] == [parent, step]


GROUP_SPECS = dict(CORPUS_SPECS, **{f"cp_{n}": functools.partial(cp_spec, CPParams(n, 1))
                                    for n in range(2, 7)})


@functools.cache
def fresh_group(name):
    """The group of a corpus spec or of CP(n, 1), enumerated apart from the
    corpus instances, so that its right tables are computed here."""
    spec = GROUP_SPECS[name]()
    return enumerate_closure(spec.degree, spec.group_generators)


class TestRightTables:
    """Right tables read off the breadth-first tree by integer recurrences
    equal the tuple products, and so does the inverse table they rest on.
    Every CP(n, k) spec has the generators (1 2) and (1 2 .. n), so one
    k per n covers its group."""

    @pytest.mark.parametrize("name", GROUP_SPECS)
    def test_every_element_matches_the_oracle(self, name):
        G = fresh_group(name)
        assert all(G.right(p) == right_table_oracle(G, p) for p in G.elements)

    @pytest.mark.parametrize("name", GROUP_SPECS)
    def test_inverse_table(self, name):
        G = fresh_group(name)
        inv, e = G._inverses(), G.identity.image
        assert all(inv[inv[x]] == x for x in range(len(G)))
        assert all(apply_then(p.image, G.elements[inv[x]].image) == e
                   for x, p in enumerate(G.elements))

    def test_random_elements_of_s7(self):
        s7 = enumerate_closure(7, [perm("(1 2)", 7), perm("(1 2 3 4 5 6 7)", 7)])
        rng = random.Random(7)
        for p in rng.sample(s7.elements, 12):
            assert s7.right(p) == right_table_oracle(s7, p)


class TestLeftTables:
    """L_g read off the breadth-first tree equals the tuple products."""

    def test_every_element_of_s5(self):
        s5 = fresh_group("cp_5")
        assert all(s5.left(g) == left_table_oracle(s5, g) for g in range(len(s5)))

    def test_random_elements_of_s7(self):
        s7 = enumerate_closure(7, [perm("(1 2)", 7), perm("(1 2 3 4 5 6 7)", 7)])
        for g in random.Random(7).sample(range(len(s7)), 12):
            assert s7.left(g) == left_table_oracle(s7, g)


class TestSubgroups:
    def setup_method(self):
        self.s4 = enumerate_closure(4, [perm("(1 2)", 4), perm("(1 2 3 4)", 4)])

    def test_trivial(self):
        sub = subgroup_generated(self.s4, trivial_subgroup(self.s4), [])
        assert len(sub) == 1

    def test_transposition_plus_cycle_is_s4(self):
        seed = subgroup_generated(self.s4, trivial_subgroup(self.s4),
                                  [perm("(1 2)", 4)])
        sub = subgroup_generated(self.s4, seed, [perm("(1 2 3 4)", 4)])
        assert len(sub) == 24

    def test_commuting_pair_order_4(self):
        seed = subgroup_generated(self.s4, trivial_subgroup(self.s4),
                                  [perm("(3 4)", 4)])
        sub = subgroup_generated(self.s4, seed, [perm("(1 2)", 4)])
        assert len(sub) == 4

    def test_element_not_in_parent(self):
        z4 = enumerate_closure(4, [perm("(1 2 3 4)", 4)])
        with pytest.raises(GroupError):
            subgroup_generated(z4, trivial_subgroup(z4), [perm("(1 2)", 4)])

    def test_lagrange_over_random_subgroups(self):
        rng = random.Random(17)
        for _ in range(20):
            gen = self.s4.elements[rng.randrange(len(self.s4))]
            sub = subgroup_generated(self.s4, trivial_subgroup(self.s4), [gen])
            assert len(self.s4) % len(sub) == 0


class TestCosets:
    def setup_method(self):
        self.s3 = enumerate_closure(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
        self.h = subgroup_generated(self.s3, trivial_subgroup(self.s3),
                                    [perm("(1 2)", 3)])

    def test_trivial_subgroup_rep_is_self(self):
        triv = trivial_subgroup(self.s3)
        for g in self.s3:
            assert canonical_coset_rep(g, triv) == g

    def test_subgroup_element_reps_to_identity(self):
        for h in self.h.members:
            assert canonical_coset_rep(h, self.h).is_identity()

    def test_rep_stable_under_right_multiplication(self):
        for g in self.s3:
            for h in self.h.members:
                assert canonical_coset_rep(compose(g, h), self.h) == \
                    canonical_coset_rep(g, self.h)

    def test_rep_equality_iff_same_coset(self):
        for g1 in self.s3:
            for g2 in self.s3:
                same = compose(inverse(g1), g2) in self.h
                assert (canonical_coset_rep(g1, self.h) ==
                        canonical_coset_rep(g2, self.h)) == same

    def test_rep_counts(self):
        assert len(left_coset_reps(self.s3, self.h)) == 3
        whole = subgroup_generated(self.s3, self.h, [perm("(1 2 3)", 3)])
        assert len(left_coset_reps(self.s3, whole)) == 1
        assert len(left_coset_reps(self.s3, trivial_subgroup(self.s3))) == 6


class TestDoubleCosets:
    def test_trivial_subgroup(self):
        s3 = enumerate_closure(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
        triv = trivial_subgroup(s3)
        s = perm("(1 2 3)", 3)
        assert double_coset(triv, s) == frozenset([s])
        assert double_coset_index(triv, s) == 1

    def test_s3_example_bruteforce(self):
        # oracle: enumerate h1*s*h2 with the index-wise helper
        s3 = enumerate_closure(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
        h = subgroup_generated(s3, trivial_subgroup(s3), [perm("(1 2)", 3)])
        s = perm("(1 2 3)", 3)
        expected = {apply_then(apply_then(h1.image, s.image), h2.image)
                    for h1 in h.members for h2 in h.members}
        assert len(expected) == 4
        assert {p.image for p in double_coset(h, s)} == expected
        assert double_coset_index(h, s) == 2

    def test_cp_degree_case(self):
        # H = {e, (3 4)} in S_4 and s = gamma(3): two cosets in HsH
        s4 = enumerate_closure(4, [perm("(1 2)", 4), perm("(1 2 3 4)", 4)])
        h = subgroup_generated(s4, trivial_subgroup(s4), [perm("(3 4)", 4)])
        s = Permutation([3, 1, 2, 4])
        assert double_coset_index(h, s) == 2

    def test_lemma4_and_partition_sampled(self):
        rng = random.Random(19)
        s4 = enumerate_closure(4, [perm("(1 2)", 4), perm("(1 2 3 4)", 4)])
        for _ in range(30):
            h_gen = s4.elements[rng.randrange(len(s4))]
            h = subgroup_generated(s4, trivial_subgroup(s4), [h_gen])
            s = s4.elements[rng.randrange(len(s4))]
            dc = double_coset(h, s)
            assert len(dc) % len(h) == 0
            # the Lemma 4 cross-check runs inside double_coset_index
            assert double_coset_index(h, s) == len(dc) // len(h)
            s2 = s4.elements[rng.randrange(len(s4))]
            dc2 = double_coset(h, s2)
            assert dc & dc2 in (frozenset(), dc)


class TestNormalizes:
    def test_trivial_subgroup(self):
        s3 = enumerate_closure(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
        triv = trivial_subgroup(s3)
        assert all(normalizes(g, triv) for g in s3)

    def test_gamma2_normalizes_h2(self):
        s4 = enumerate_closure(4, [perm("(1 2)", 4), perm("(1 2 3 4)", 4)])
        h = subgroup_generated(s4, trivial_subgroup(s4), [perm("(3 4)", 4)])
        assert normalizes(perm("(1 2)", 4), h)

    def test_cycle_does_not_normalize(self):
        s3 = enumerate_closure(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)])
        h = subgroup_generated(s3, trivial_subgroup(s3), [perm("(1 2)", 3)])
        assert not normalizes(perm("(1 2 3)", 3), h)
