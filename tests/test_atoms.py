"""Subgroup atom scan, group-theoretic kappa, and the atom structure lemmas."""

import itertools
import sys
from collections import Counter

import pytest

import helpers
from corpus import CORPUS_NAMES, CORPUS_SPECS, SMALL_NAMES, instance, z6_disconnected_spec
from cosetkit import (CapExceeded, CosetDigraphSpec, CrossCheckError, GroupError,
                      build, enumerate_closure,
                      generation_connectivity, kappa_group_theoretic, neighbor_set,
                      parse_cycles, stabiliser_translations, subgroup_atom_scan,
                      transpose, transpose_spec, vertex_connectivity_transitive,
                      verify_atom_theory)
from cosetkit import atoms, coset, digraph, perms
from helpers import base_atom_candidate


class TestSubgroupScan:
    def test_s4_mixed_transpose_candidates(self):
        # candidate subgroups <>, <a>, <b>, <ba> on the transpose side with
        # neighbor counts 3, 2, >= n, >= n-1
        cd = instance("s4_mixed")
        tr = transpose_spec(cd)
        scan = {c.labels: c for c in subgroup_atom_scan(tr)[0]}
        n = 4
        assert scan[()].neighbor_count == 3
        assert scan[("a^-1",)].neighbor_count == 2
        assert scan[("b^-1",)].neighbor_count >= n
        assert scan[("ba^-1",)].neighbor_count >= n - 1
        # pairs of generators already generate S_4, so no other candidates
        assert set(scan) == {(), ("a^-1",), ("b^-1",), ("ba^-1",)}

    def test_s4_mixed_forward_candidates(self):
        cd = instance("s4_mixed")
        scan = {c.labels: c for c in subgroup_atom_scan(cd)[0]}
        assert scan[()].neighbor_count == 3          # N_1 = {a, b, ba}
        assert scan[("a",)].neighbor_count == 4      # N_2 = {b, ba, ab, aba}

    def test_single_generator_only_trivial_candidate(self):
        cd = instance("z6")
        scan, _ = subgroup_atom_scan(cd)
        assert len(scan) == 1
        assert scan[0].labels == ()
        assert scan[0].vertex_set == (cd.base_vertex,)

    def test_scan_cap_is_a_cap(self):
        # 13 distinct elements of S_4 with trivial H: one label over the cap
        gens = (parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4))
        elements = [p for p in enumerate_closure(4, gens).elements if p.order() > 1]
        connection = tuple((f"g{i}", p) for i, p in enumerate(elements[:13]))
        cd = build(CosetDigraphSpec(4, gens, (), connection))
        assert len(cd.labels) == 13
        with pytest.raises(CapExceeded, match="MAX_SCAN_GENERATORS = 12"):
            subgroup_atom_scan(cd)

    def test_cp52_prefix_subgroup_size(self):
        # <H, gamma(2), gamma(3)> in CP(5,2) has (n-k)! = 6 cosets
        cd = instance("cp_5_2")
        scan = {c.labels: c for c in subgroup_atom_scan(cd)[0]}
        cand = scan[("γ(2)", "γ(3)")]
        assert len(cand.vertex_set) == 6

    def test_group_side_equals_digraph_side(self):
        # the scan cross-checks internally; also assert here explicitly
        for name in SMALL_NAMES:
            cd = instance(name)
            for graph, cands in zip((cd.graph, transpose(cd.graph)), subgroup_atom_scan(cd)):
                for cand in cands:
                    nbrs, is_part = neighbor_set(graph, cand.vertex_set)
                    assert cand.neighbor_count == len(nbrs), name
                    assert cand.is_part == is_part, name

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_equals_closure_scan(self, name):
        helpers.assert_scan_matches_closure_scan(instance(name))

    @pytest.mark.parametrize("name", ["s4_mixed", "cp_4_2", "d5"])
    def test_forward_heads_in_place_of_inverse_ones_raise(self, name, monkeypatch):
        cd = build(CORPUS_SPECS[name]())
        monkeypatch.setattr(atoms, "inverse", lambda p: p)
        with pytest.raises(CrossCheckError, match="disagree with the digraph"):
            subgroup_atom_scan(cd)

    def test_neighbor_count_multiple_of_candidate_size(self):
        # the neighbor set of a subgroup candidate is a union of right
        # cosets of that subgroup, so its size is a multiple of |A|
        for name in SMALL_NAMES:
            cd = instance(name)
            for cand in subgroup_atom_scan(cd)[0]:
                if cand.is_part:
                    assert cand.neighbor_count % len(cand.vertex_set) == 0, name


class TestKappaGroupTheoretic:
    def test_s4_mixed_value_and_side(self):
        cd = instance("s4_mixed")
        analysis = kappa_group_theoretic(cd)
        assert analysis.kappa_group == 2
        # achieved by <a> on the transpose side only
        assert not analysis.forward
        winner = base_atom_candidate(analysis.transpose)
        assert winner.labels == ("a^-1",)
        assert len(winner.vertex_set) == 2

    def test_every_single_generator_spans_implies_optimal(self):
        # <H, s> = G for every s forces kappa = d
        cd = instance("s4_transpositions")
        assert kappa_group_theoretic(cd).kappa_group == cd.degree == 3

    def test_directed_cycle(self):
        cd = instance("z6")
        assert kappa_group_theoretic(cd).kappa_group == 1

    def test_disconnected_rejected(self):
        cd = build(z6_disconnected_spec())
        with pytest.raises(GroupError):
            kappa_group_theoretic(cd)

    def test_matches_flow_oracle_on_corpus(self):
        for name in CORPUS_NAMES:
            cd = instance(name)
            oracle, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex)
            assert kappa_group_theoretic(cd).kappa_group == oracle, name

    @staticmethod
    def _counted(monkeypatch, originals) -> Counter:
        """Calls to each of ``originals``, patched into every ``cosetkit``
        module binding and into ``CosetDigraph``'s methods."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        owners = [module for key, module in list(sys.modules.items())
                  if key == "cosetkit" or key.startswith("cosetkit.")]
        for owner in (*owners, coset.CosetDigraph):
            for name, fn in originals.items():
                if getattr(owner, name, None) is fn:
                    monkeypatch.setattr(owner, name, counted(name, fn))
        return calls

    def test_no_closure_and_no_transpose_instance(self, monkeypatch):
        # after the connectivity stage that analyze runs first, the scan
        # on both sides needs no subgroup of G and no second instance
        cd = build(CORPUS_SPECS["cp_5_2"]())
        generation_connectivity(cd)
        calls = self._counted(monkeypatch, {
            "subgroup_generated": perms.subgroup_generated,
            "transpose_spec": coset.transpose_spec, "_build_on": coset._build_on})
        assert kappa_group_theoretic(cd).kappa_group == cd.degree
        assert calls == Counter()
        coset.transpose_spec(cd)        # the counters do count
        assert calls["transpose_spec"] == calls["_build_on"] == 1

    def test_one_scan_translates_each_generator_once(self, monkeypatch):
        # both sides share one pass over S0: one left translation per
        # generator of S and one reversed digraph
        cd = build(CORPUS_SPECS["cp_5_2"]())
        generation_connectivity(cd)
        stabiliser_translations(cd)
        calls = self._counted(monkeypatch, {
            "left_translation": coset.CosetDigraph.left_translation,
            "transpose": digraph.transpose})
        kappa_group_theoretic(cd)
        assert calls == Counter(left_translation=len(cd.labels), transpose=1)

    def test_atom_size_below_degree(self):
        # atoms are strictly smaller than the degree whenever d > 1
        for name in CORPUS_NAMES:
            cd = instance(name)
            if cd.degree <= 1:
                continue
            analysis = kappa_group_theoretic(cd)
            for winners in (analysis.forward, analysis.transpose):
                winner = base_atom_candidate(winners)
                if winner is not None:
                    assert len(winner.vertex_set) < cd.degree, name


class TestVerifyAtomTheory:
    def test_s4_mixed_twelve_translates(self):
        cd = instance("s4_mixed")
        report = verify_atom_theory(cd)
        assert report.side == "transpose"
        assert report.atom_size == 2
        assert report.atom_count == 12
        assert helpers.base_atom_split(cd, report)[:2] == (2, ("a",))    # kappa, S0
        a = parse_cycles("(1 2)", 4)
        tr = transpose_spec(cd)
        assert set(report.base_atom) == {tr.base_vertex, tr.vertex_of(a)}

    def test_directed_cycle_singletons(self):
        cd = instance("z6")
        report = verify_atom_theory(cd)
        assert report.atom_size == 1
        assert report.atom_count == 6

    def test_neighbor_lower_bound_on_corpus(self):
        # |N(A0)| >= max(|A0|, d_S1), and a multiple of |A0|
        for name in SMALL_NAMES:
            cd = instance(name)
            if cd.graph.is_complete():
                continue
            report = verify_atom_theory(cd)
            neighbor_count, _, d_s1 = helpers.base_atom_split(cd, report)
            assert neighbor_count >= max(report.atom_size, d_s1), name
            assert neighbor_count % report.atom_size == 0, name

    def test_side_search_scans_each_size_once_per_side(self, monkeypatch):
        # transpose atoms of size 2 on 12 vertices: sizes 1 and 2 are each
        # scanned once forward and once on the transpose, 2 * (12 + 66) = 156
        # subsets, where rescanning sizes 1..k for each k would take 180
        examined = Counter()

        def counted(pool, k):
            for combo in itertools.combinations(pool, k):
                examined[k] += 1
                yield combo

        monkeypatch.setattr(digraph, "combinations", counted)
        report = verify_atom_theory(instance("s4_transpose_atom"))
        assert (report.side, report.atom_size) == ("transpose", 2)
        assert examined == Counter({1: 2 * 12, 2: 2 * 66})

    def test_complete_digraph_rejected(self):
        cd = instance("cp_4_3")
        with pytest.raises(GroupError):
            verify_atom_theory(cd)
