"""Cycle-prefix family: generators, shapes, degree profiles, proof facts."""

from math import factorial

import pytest

from corpus import cp_instance
from cosetkit import (CosetDigraphSpec, CrossCheckError, GroupError, Permutation, build, coset,
                      hierarchical_order_search, perms, subgroup_generated,
                      verify_neighbor_multiplier, verify_prefix_structure)
from cosetkit.cp import (CPParams, _labeled_bfs_isomorphic, cp_degree_profile, gamma,
                         gamma_label)


class TestGamma:
    def test_gamma2_is_transposition(self):
        assert gamma(2, 4).image == (2, 1, 3, 4)
        assert gamma(2, 4).cycles() == [(1, 2)]

    def test_gamma3_one_line(self):
        assert gamma(3, 4).image == (3, 1, 2, 4)

    def test_gamma_n_boundary(self):
        for n in (2, 4, 6):
            assert gamma(n, n).image == tuple([n] + list(range(1, n)))

    def test_out_of_range(self):
        with pytest.raises(GroupError):
            gamma(1, 4)
        with pytest.raises(GroupError):
            gamma(5, 4)


class TestParams:
    def test_bounds(self):
        with pytest.raises(GroupError):
            CPParams(1, 1)
        with pytest.raises(GroupError):
            CPParams(4, 4)
        with pytest.raises(GroupError):
            CPParams(4, 0)

    def test_vertex_count_formula(self):
        # |G/H| = n!/k!, as G = S_n and H = S_k on the last k points
        for n in range(2, 7):
            for k in range(1, n):
                cd = cp_instance(n, k)
                assert (len(cd.group), len(cd.subgroup)) == (factorial(n), factorial(k))


class TestBuildShapes:
    def test_cp42(self):
        cd = cp_instance(4, 2)
        assert len(cd.vertices) == 12
        assert cd.degree == 3

    def test_vertex_counts_match_formula(self):
        for n in range(2, 6):
            for k in range(1, n):
                cd = cp_instance(n, k)
                assert len(cd.vertices) == factorial(n) // factorial(k), (n, k)
                assert cd.degree == n - 1, (n, k)

    def test_cp_n_minus_1_is_complete(self):
        for n in (3, 4, 5):
            cd = cp_instance(n, n - 1)
            assert len(cd.vertices) == n
            assert cd.graph.is_complete()

    def test_cp_k1_is_hierarchical_cayley(self):
        for n in (3, 4, 5):
            cd = cp_instance(n, 1)
            assert len(cd.subgroup) == 1
            ordering = hierarchical_order_search(cd)
            assert ordering == tuple(gamma_label(j) for j in range(2, n + 1))

    def test_subgroup_fixes_prefix(self):
        # H_k consists of exactly the permutations fixing points 1..n-k
        for n, k in [(4, 2), (5, 3), (5, 2)]:
            cd = cp_instance(n, k)
            assert len(cd.subgroup) == factorial(k)
            for h in cd.subgroup.members:
                assert all(h(i) == i for i in range(1, n - k + 1)), (n, k)


class TestDegreeProfile:
    def test_cp42(self):
        cd = cp_instance(4, 2)
        assert cp_degree_profile(CPParams(4, 2), cd) is None
        assert cd.degrees == {gamma_label(2): 1, gamma_label(3): 2}

    def test_cp53(self):
        cd = cp_instance(5, 3)
        assert cp_degree_profile(CPParams(5, 3), cd) is None
        assert cd.degrees == {gamma_label(2): 1, gamma_label(3): 3}

    def test_cp_k1_all_ones(self):
        for n in (3, 4, 5):
            cd = cp_instance(n, 1)
            assert cp_degree_profile(CPParams(n, 1), cd) is None
            assert set(cd.degrees.values()) == {1}
            assert sum(cd.degrees.values()) == n - 1


class TestProofFacts:
    def test_top_generator_spans_with_h(self):
        # <H, gamma(n-k+1)> = S_n
        for n, k in [(4, 2), (5, 2), (5, 3), (6, 4)]:
            cd = cp_instance(n, k)
            sub = subgroup_generated(cd.group, cd.subgroup,
                                     [gamma(n - k + 1, n)])
            assert len(sub) == factorial(n), (n, k)

    def test_neighbor_multiplier_base_case(self):
        # F = H has exactly k neighbors through the top generator
        for n, k in [(4, 2), (5, 2), (5, 3)]:
            cd = cp_instance(n, k)
            assert verify_neighbor_multiplier(CPParams(n, k), cd.subgroup, cd) is None

    def test_neighbor_multiplier_whole_prefix_group(self):
        cd = cp_instance(5, 2)
        gp = subgroup_generated(cd.group, cd.subgroup,
                                [gamma(2, 5), gamma(3, 5)])
        assert len(gp) // len(cd.subgroup) == 6
        assert verify_neighbor_multiplier(CPParams(5, 2), gp, cd) is None

    def test_neighbor_multiplier_intermediate(self):
        cd = cp_instance(4, 2)
        f = subgroup_generated(cd.group, cd.subgroup, [gamma(2, 4)])
        assert verify_neighbor_multiplier(CPParams(4, 2), f, cd) is None

    def test_neighbor_multiplier_raises_on_a_miscount(self):
        # read with k = 1 on CP(5, 2), F = H reaches 2 cosets through
        # gamma(5), not |F/H| * k = 1
        cd = cp_instance(5, 2)
        with pytest.raises(CrossCheckError, match=r"has 2 neighbors through gamma\(5\)"):
            verify_neighbor_multiplier(CPParams(5, 1), cd.subgroup, cd)

    def test_neighbor_multiplier_rejects_outside_range(self):
        cd = cp_instance(4, 2)
        outside = subgroup_generated(cd.group, cd.subgroup, [gamma(3, 4)])
        with pytest.raises(GroupError):
            verify_neighbor_multiplier(CPParams(4, 2), outside, cd)

    @staticmethod
    def _prefix_cosets(n: int, k: int) -> int:
        """|G'/H| once verify_prefix_structure, which raises on a failed
        fact, has passed on CP(n, k)."""
        cd = cp_instance(n, k)
        assert verify_prefix_structure(CPParams(n, k), cd) is None
        return len(cd.closure(gamma_label(j) for j in range(2, n - k + 1))) // len(cd.subgroup)

    def test_prefix_structure_cp52(self):
        assert self._prefix_cosets(5, 2) == 6

    def test_prefix_structure_cp42(self):
        assert self._prefix_cosets(4, 2) == 2

    def test_prefix_structure_cp63(self):
        assert self._prefix_cosets(6, 3) == 6

    def test_prefix_structure_range_enforced(self):
        with pytest.raises(GroupError):
            verify_prefix_structure(CPParams(4, 1), cp_instance(4, 1))
        with pytest.raises(GroupError):
            verify_prefix_structure(CPParams(4, 3), cp_instance(4, 3))

    def test_prefix_structure_enumerates_nothing(self, monkeypatch):
        # CP(m, 1) is walked alongside the parent's cosets, not built
        cd = cp_instance(6, 3)
        calls = []
        original = perms.enumerate_closure
        for module in (perms, coset):
            monkeypatch.setattr(module, "enumerate_closure",
                                lambda *args: calls.append(args) or original(*args))
        verify_prefix_structure(CPParams(6, 3), cd)
        assert calls == []

    def test_swapped_targets_are_not_isomorphic(self):
        # on CP(5,2), gamma(2) acts as an involution on G'/H and gamma(3)
        # on 3 points has order 3; no automorphism of S_3 swaps the two
        cd = cp_instance(5, 2)
        two, three = gamma_label(2), gamma_label(3)
        assert _labeled_bfs_isomorphic(cd, [(two, gamma(2, 3)), (three, gamma(3, 3))])
        assert not _labeled_bfs_isomorphic(cd, [(two, gamma(3, 3)), (three, gamma(2, 3))])
        assert not _labeled_bfs_isomorphic(cd, [(two, gamma(3, 3))])
        assert not _labeled_bfs_isomorphic(cd, [(three, gamma(2, 3))])

    def test_walk_checks_edges_off_its_tree(self):
        # C_6 = <x> with labels x and x^2 against S_3 with (1 2) and (1 3 2):
        # the walk's tree reaches six distinct elements of S_3, but x*x = x^2
        # while (1 2)(1 2) is not (1 3 2); C_6 is abelian and S_3 is not
        x = Permutation([2, 3, 4, 5, 6, 1])
        cd = build(CosetDigraphSpec(6, (x,), (), (("x", x), ("x2", x * x))))
        assert not _labeled_bfs_isomorphic(cd, [("x", gamma(2, 3)), ("x2", gamma(3, 3))])

    def test_labeled_walk_needs_single_edge_classes(self):
        # gamma(3) is the top generator of CP(4,2), with d = 2
        cd = cp_instance(4, 2)
        with pytest.raises(GroupError, match="every d_s = 1"):
            _labeled_bfs_isomorphic(cd, [(gamma_label(3), gamma(2, 2))])
