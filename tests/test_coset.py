"""Coset digraph construction, edge classes, connectivity by generation."""

import random
from collections import Counter
from itertools import combinations

import pytest

import helpers
from corpus import (CORPUS_SPECS, cp_instance, instance, mixed_gens_spec,
                    z6_disconnected_spec, z6_spec, CORPUS_NAMES, SMALL_NAMES)
from cosetkit import coset
from cosetkit import (CosetDigraphSpec, CrossCheckError, GroupError,
                      build, compose, dedupe_generators, double_coset,
                      enumerate_closure, generation_connectivity, inverse,
                      is_strongly_connected, parse_cycles, subgroup_generated,
                      transpose, transpose_spec, trivial_subgroup)
from helpers import verify_automorphism


def perm(text, n):
    return parse_cycles(text, n)


class TestDedupe:
    def setup_method(self):
        self.s4 = enumerate_closure(4, [perm("(1 2)", 4), perm("(1 2 3 4)", 4)])

    def test_trivial_subgroup_keeps_distinct(self):
        triv = trivial_subgroup(self.s4)
        pairs = [("a", perm("(1 2)", 4)), ("b", perm("(1 3)", 4))]
        assert dedupe_generators(triv, pairs) == pairs

    def test_same_double_coset_collapses(self):
        h = subgroup_generated(self.s4, trivial_subgroup(self.s4),
                               [perm("(3 4)", 4)])
        s = perm("(1 2 3 4)", 4)
        hsh = compose(compose(perm("(3 4)", 4), s), perm("(3 4)", 4))
        assert dedupe_generators(h, [("s", s), ("hsh", hsh)]) == [("s", s)]

    def test_cp_generators_survive(self):
        h = subgroup_generated(self.s4, trivial_subgroup(self.s4),
                               [perm("(3 4)", 4)])
        g2, g3 = perm("(1 2)", 4), perm("(1 3 2)", 4)
        assert dedupe_generators(h, [("g2", g2), ("g3", g3)]) == [("g2", g2), ("g3", g3)]

    def test_generator_in_h_rejected(self):
        h = subgroup_generated(self.s4, trivial_subgroup(self.s4),
                               [perm("(3 4)", 4)])
        with pytest.raises(GroupError):
            dedupe_generators(h, [("t", perm("(3 4)", 4))])


class TestBuild:
    def test_z4_cycle(self):
        s = perm("(1 2 3 4)", 4)
        cd = build(CosetDigraphSpec(4, (s,), (), (("s", s),)))
        assert len(cd.vertices) == 4
        assert sorted(cd.graph.edges()) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_s4_mixed_shape(self):
        cd = instance("s4_mixed")
        assert len(cd.vertices) == 24
        assert cd.degree == 3
        assert all(len(row) == 3 for row in cd.graph.adj)

    def test_cp42_shape(self):
        cd = instance("cp_4_2")
        assert len(cd.vertices) == 12
        assert cd.degree == 3

    def test_connection_not_in_group(self):
        z4 = perm("(1 2 3 4)", 4)
        with pytest.raises(GroupError):
            build(CosetDigraphSpec(4, (z4,), (), (("t", perm("(1 2)", 4)),)))

    def test_connection_in_h_rejected(self):
        a, b = perm("(1 2)", 4), perm("(1 2 3 4)", 4)
        with pytest.raises(GroupError):
            build(CosetDigraphSpec(4, (a, b), (a,), (("a", a),)))

    def test_a_repeated_representative_fails_the_row_check(self, monkeypatch):
        # CP(4, 2)'s γ(3) has d_s = 2; its last table becomes its first
        tables = coset._tables
        monkeypatch.setattr(coset, "_tables",
                            lambda group, sub, p: (t := tables(group, sub, p))[:-1] + t[:1])
        with pytest.raises(CrossCheckError,
                           match=r"^vertex 0 has 2 distinct out-neighbors, expected d = 3$"):
            build(CORPUS_SPECS["cp_4_2"]())

    def test_loop_free_and_degrees(self):
        for name in SMALL_NAMES:
            cd = instance(name)
            n = len(cd.vertices)
            for u, row in enumerate(cd.graph.adj):
                assert u not in row, name
                assert len(row) == cd.degree, name
            in_deg = Counter(v for _, v in cd.graph.edges())
            assert all(in_deg[v] == cd.degree for v in range(n)), name

    def test_edge_iff_double_coset_membership(self):
        # Lemma 1(ii): (u, v) in E_s iff rep(u)^-1 rep(v) in HsH
        for name in ("cp_4_2", "d4", "z6"):
            cd = instance(name)
            for lbl, s in cd.connection.items():
                hsh = double_coset(cd.subgroup, s)
                edges = {(u, v) for u, row in enumerate(cd.successors(lbl)) for v in row}
                for u in range(len(cd.vertices)):
                    for v in range(len(cd.vertices)):
                        quotient = compose(inverse(cd.vertices[u]), cd.vertices[v])
                        assert ((u, v) in edges) == (quotient in hsh), name

    def test_edge_classes_partition(self):
        for name in SMALL_NAMES:
            cd = instance(name)
            union = set()
            for lbl in cd.labels:
                edges = {(u, v) for u, row in enumerate(cd.successors(lbl)) for v in row}
                assert not (union & edges), name
                union |= edges
            assert union == set(cd.graph.edges()), name


class TestGenerationConnectivity:
    def test_connected_instances(self):
        for name in SMALL_NAMES:
            cd = instance(name)
            connected, components = generation_connectivity(cd)
            assert connected, name
            assert len(cd.closure(cd.labels)) == len(cd.group), name
            assert components == [sorted(range(len(cd.vertices)))], name

    def test_z6_square_two_components(self):
        cd = build(z6_disconnected_spec())
        connected, components = generation_connectivity(cd)
        assert not connected
        assert len(cd.closure(cd.labels)) == 3
        assert len(components) == 2
        assert all(len(c) == 3 for c in components)
        # each component is a directed 3-cycle
        for comp in components:
            comp_set = set(comp)
            for u in comp:
                assert set(cd.graph.adj[u]) <= comp_set
                assert len(cd.graph.adj[u]) == 1

    def test_empty_connection_set(self):
        a = perm("(1 2)", 3)
        cd = build(CosetDigraphSpec(3, (a,), (), ()))
        connected, components = generation_connectivity(cd)
        assert not connected
        assert components == [[0], [1]]
        cd_h_equals_g = build(CosetDigraphSpec(3, (a,), (a,), ()))
        connected, components = generation_connectivity(cd_h_equals_g)
        assert connected and components == [[0]]

    def test_strong_connectivity_matches_group_verdict(self):
        for spec in (z6_spec(), z6_disconnected_spec(), mixed_gens_spec(4)):
            cd = build(spec)
            assert is_strongly_connected(cd.graph) == generation_connectivity(cd)[0]

    def test_weak_equals_strong_on_transitive(self):
        # on vertex-transitive digraphs, weak connectivity implies strong
        cd = build(z6_disconnected_spec())
        sym = [sorted(set(cd.graph.adj[u]) | {v for v, row in enumerate(cd.graph.adj)
                                              if u in row})
               for u in range(len(cd.vertices))]
        weak_comps = set()
        seen = set()
        for start in range(len(cd.vertices)):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in sym[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            weak_comps.add(frozenset(comp))
        _, components = generation_connectivity(cd)
        assert weak_comps == {frozenset(c) for c in components}


class TestAutomorphisms:
    def test_identity_map(self):
        cd = instance("d4")
        assert verify_automorphism(cd, cd.group.identity)

    def test_base_image(self):
        cd = instance("cp_4_2")
        for g in list(cd.group)[:6]:
            assert cd.vertex_of(g) == cd.vertex_of(compose(g, cd.group.identity))

    def test_random_elements_are_automorphisms(self):
        rng = random.Random(61)
        for name in SMALL_NAMES:
            cd = instance(name)
            for _ in range(5):
                g = cd.group.elements[rng.randrange(len(cd.group))]
                assert verify_automorphism(cd, g), name

    def test_translations_act_transitively(self):
        cd = instance("cp_4_2")
        images = {cd.vertex_of(g) for g in cd.group}
        assert images == set(range(len(cd.vertices)))

    def test_non_member_rejected(self):
        cd = instance("z6")
        with pytest.raises(GroupError):
            verify_automorphism(cd, perm("(1 2)", 6))


class TestTransposeSpec:
    def test_symmetric_connection_set_self_transpose(self):
        cd = instance("z2_cubed")
        tr = transpose_spec(cd)
        assert tr.graph == cd.graph

    def test_s4_mixed_transpose_base_neighbors(self):
        cd = instance("s4_mixed")
        tr = transpose_spec(cd)
        a, b = perm("(1 2)", 4), perm("(1 2 3 4)", 4)
        expected = {tr.vertex_of(a), tr.vertex_of(inverse(b)),
                    tr.vertex_of(compose(a, inverse(b)))}
        assert set(tr.graph.adj[tr.base_vertex]) == expected

    def test_transpose_equals_reversed_graph(self):
        for name in SMALL_NAMES:
            cd = instance(name)
            tr = transpose_spec(cd)
            assert tr.graph == transpose(cd.graph), name

    @pytest.mark.parametrize("name", ["s4_mixed", "cp_4_2", "d5"])
    def test_forward_tables_in_place_of_inverse_ones_raise(self, name, monkeypatch):
        # only the rows read the forward tables: deduplication and the
        # degrees still see the inverses, so the build itself passes
        cd = build(CORPUS_SPECS[name]())
        tables = coset._tables
        monkeypatch.setattr(coset, "_tables",
                            lambda group, sub, p: tables(group, sub, inverse(p)))
        with pytest.raises(CrossCheckError, match="reversed digraph"):
            transpose_spec(cd)

    def test_shares_the_group_enumeration(self):
        cd = build(CORPUS_SPECS["cp_4_2"]())
        tr = transpose_spec(cd)
        assert tr.group is cd.group and tr.subgroup is cd.subgroup

    def test_degree_multiset_preserved(self):
        for name in SMALL_NAMES:
            cd = instance(name)
            tr = transpose_spec(cd)
            assert sorted(cd.degrees.values()) == sorted(tr.degrees.values()), name


class TestClosure:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_matches_closure_seeded_with_all_of_h(self, name):
        cd = instance(name)
        for r in range(len(cd.labels) + 1):
            for chosen in combinations(cd.labels, r):
                seeded = subgroup_generated(cd.group, cd.subgroup,
                                            [cd.connection[lbl] for lbl in chosen])
                assert cd.closure(chosen) == seeded
                assert cd.closure(reversed(chosen)) is cd.closure(chosen)

    @pytest.mark.parametrize("name", ("cp_5_2", "s4_mixed"))
    def test_equal_closures_share_one_handle(self, name):
        cd = instance(name)
        label_sets = [chosen for r in range(len(cd.labels) + 1)
                      for chosen in combinations(cd.labels, r)]
        whole = cd.closure(cd.labels)
        generating = [c for c in label_sets if len(cd.closure(c)) == len(cd.group)]
        assert len(generating) >= 2, name
        assert all(cd.closure(c) is whole for c in generating), name
        by_ids = {}
        for chosen in label_sets:
            sub = by_ids.setdefault(cd.closure(chosen).ids, cd.closure(chosen))
            assert cd.closure(chosen) is sub, (name, chosen)
        assert len(by_ids) < len(label_sets), name

    def test_unknown_label_rejected(self):
        with pytest.raises(GroupError):
            instance("s4_mixed").closure(["a", "no-such-label"])


class TestObjectPathOracle:
    @pytest.mark.parametrize("name", CORPUS_NAMES + ("cp_6_2",))
    def test_build_and_transpose_match(self, name):
        cd = cp_instance(6, 2) if name == "cp_6_2" else instance(name)
        helpers.assert_matches_object_path(cd)
        helpers.assert_matches_object_path(transpose_spec(cd))
