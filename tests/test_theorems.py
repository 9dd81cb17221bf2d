"""Theorem checkers: hypotheses, witnesses, bounds, conclusions."""

from itertools import combinations

import pytest

from corpus import (CORPUS_NAMES, HIERARCHICAL_CAYLEY_NAMES, SMALL_NAMES, cayley_spec,
                    cp_instance, instance, Q8_I, Q8_J)
from cosetkit import (CosetDigraph, CosetDigraphSpec, GroupError, build, check_decomposition,
                      check_hierarchical_gen, check_hierarchical_gen_c,
                      check_tower, hierarchical_order_search, inverse,
                      parse_cycles, verify_edge_connectivity, verify_hierarchical_cayley)
from cosetkit.cp import gamma_label
from helpers import hierarchical_order_oracle, is_minimal


class TestDecomposition:
    def test_cp52_achieves_bound(self):
        cd = cp_instance(5, 2)
        report = check_decomposition(cd, [gamma_label(2), gamma_label(3)],
                                     [gamma_label(4)])
        assert report.applicable
        assert report.implied_bound == 4
        assert report.computed_kappa == 4
        assert report.consistent

    def test_s4_mixed_hypothesis_fails_with_witness(self):
        cd = instance("s4_mixed")
        report = check_decomposition(cd, ["a"], ["b", "ba"])
        assert not report.applicable
        failing = [h for h in report.hypotheses if not h.holds]
        assert len(failing) == 1
        assert "b" in failing[0].witness and "ba" in failing[0].witness
        assert report.consistent  # kappa = 2 < 3 violates nothing
        assert report.computed_kappa == 2

    def test_empty_r2_degenerates(self):
        cd = instance("d4")
        report = check_decomposition(cd, ["r", "f"], [])
        assert report.applicable
        assert report.implied_bound == min(len(cd.vertices),
                                           report.computed_kappa)
        assert report.consistent

    def test_not_a_partition_rejected(self):
        cd = instance("d4")
        with pytest.raises(GroupError):
            check_decomposition(cd, ["r"], ["r", "f"])

    def test_bound_never_violated_on_corpus(self):
        # every hypothesis-satisfying invocation has kappa >= bound
        for name in SMALL_NAMES:
            cd = instance(name)
            labels = cd.labels
            for r in range(len(labels) + 1):
                for r1 in combinations(labels, r):
                    r2 = [lbl for lbl in labels if lbl not in r1]
                    report = check_decomposition(cd, list(r1), r2)
                    assert report.consistent, (name, r1)


class TestTower:
    def test_cp62_natural_singletons(self):
        cd = cp_instance(6, 2)
        blocks = [[gamma_label(j)] for j in range(2, 6)]
        report = check_tower(cd, blocks, "corollary1_1")
        assert report.applicable
        assert report.computed_kappa == 5
        assert report.implied_bound == 5
        assert report.consistent

    def test_cp62_corollary1_variant(self):
        cd = cp_instance(6, 2)
        blocks = [[gamma_label(j)] for j in range(2, 6)]
        report = check_tower(cd, blocks, "corollary1")
        assert report.applicable and report.consistent

    def test_s4_mixed_chain_repeats(self):
        cd = instance("s4_mixed")
        report = check_tower(cd, [["a"], ["b"], ["ba"]], "corollary1")
        assert not report.applicable
        failing = [h for h in report.hypotheses if not h.holds]
        assert any("G_" in (h.witness or "") for h in failing)

    def test_single_block_reduces_to_condition3(self):
        cd = instance("d5")
        report = check_tower(cd, [["r", "f"]], "corollary1")
        assert report.applicable == (report.hypotheses[2].holds)
        if report.applicable:
            assert report.computed_kappa == cd.degree

    def test_applicable_implies_exact(self):
        # kappa equals d_S exactly whenever a tower applies
        for name in ("q8", "d4", "d5", "z2_cubed", "s4_two_gens"):
            cd = instance(name)
            blocks = [[lbl] for lbl in cd.labels]
            for variant in ("corollary1", "corollary1_1"):
                report = check_tower(cd, blocks, variant)
                if report.applicable:
                    assert report.computed_kappa == cd.degree, (name, variant)
                assert report.consistent, (name, variant)


class TestHierarchicalSearch:
    def test_cp_natural_order(self):
        for n, k in [(4, 2), (5, 2), (5, 3)]:
            cd = cp_instance(n, k)
            ordering = hierarchical_order_search(cd)
            assert ordering == tuple(gamma_label(j) for j in range(2, n - k + 2))

    def test_subgroup_reached_early_does_not_block_a_later_prefix(self):
        # Z_30 x Z_2: u generates Z_30 at once, with x (order 5) and y (order
        # 3) unused inside it, while x, y, u reach Z_30 one step at a time
        cd = build(cayley_spec(12, (
            ("u", parse_cycles("(1 2)(3 4 5)(6 7 8 9 10)", 12)),
            ("x", parse_cycles("(6 7 8 9 10)", 12)),
            ("y", parse_cycles("(3 4 5)", 12)),
            ("e", parse_cycles("(11 12)", 12)))))
        assert hierarchical_order_search(cd) == ("x", "y", "u", "e")

    def test_search_equals_plain_search(self):
        # the first ordering, or none, as with every ordering tried
        cases = [instance(name) for name in CORPUS_NAMES]
        cases += [cp_instance(n, k) for n in range(2, 7) for k in range(1, n)]
        found = 0
        for cd in cases:
            ordering = hierarchical_order_search(cd)
            assert ordering == hierarchical_order_oracle(cd), cd
            found += ordering is not None
        assert 0 < found < len(cases)

    def test_s4_mixed_has_no_ordering(self):
        assert hierarchical_order_search(instance("s4_mixed")) is None

    def test_single_generator(self):
        cd = instance("z6")
        assert hierarchical_order_search(cd) == ("r",)
        assert is_minimal(cd)

    def test_s4_mixed_not_minimal(self):
        assert not is_minimal(instance("s4_mixed"))

    def test_cp41_hierarchical_but_not_minimal(self):
        # gamma(3) and gamma(4) alone already generate S_4
        cd = cp_instance(4, 1)
        assert hierarchical_order_search(cd) is not None
        assert not is_minimal(cd)

    def test_minimal_instances(self):
        assert is_minimal(instance("q8"))
        assert is_minimal(instance("z2_cubed"))


class TestHierarchicalGen:
    def test_q8(self):
        cd = instance("q8")
        report = check_hierarchical_gen(cd, ["i", "j"], "hierarchical_gen")
        assert report.applicable
        assert report.computed_kappa == 2
        assert report.consistent

    def test_cp62(self):
        cd = cp_instance(6, 2)
        ordering = [gamma_label(j) for j in range(2, 6)]
        report = check_hierarchical_gen(cd, ordering, "hierarchical_gen")
        assert report.applicable
        assert report.computed_kappa == 5 and report.consistent

    def test_z3_hier1(self):
        r = parse_cycles("(1 2 3)", 3)
        cd = build(cayley_spec(3, (("r", r),)))
        report = check_hierarchical_gen(cd, ["r"], "hier1")
        assert report.applicable
        assert report.computed_kappa == 1 and report.consistent

    def test_hier1_rejects_involution_first(self):
        cd = instance("s4_two_gens")  # t = (1 2) is an involution
        report = check_hierarchical_gen(cd, ["t", "c"], "hier1")
        assert not report.applicable
        failing = [h for h in report.hypotheses if not h.holds]
        assert "Hs_1" in failing[0].description

    def test_ordering_searched_when_not_given(self):
        cd = instance("q8")
        assert check_hierarchical_gen(cd) == check_hierarchical_gen(cd, ["i", "j"])
        report = check_hierarchical_gen(instance("s4_mixed"), variant="hier1")
        assert report.theorem_id == "hier1"
        assert [(h.description, h.holds, h.witness) for h in report.hypotheses] == \
            [("a hierarchical ordering exists", False,
              "no generator ordering grows at every step")]
        assert (report.applicable, report.implied_bound, report.computed_kappa,
                report.consistent) == (False, None, 2, True)

    def test_bad_ordering_rejected(self):
        cd = instance("q8")
        with pytest.raises(GroupError):
            check_hierarchical_gen(cd, ["i"], "hierarchical_gen")


class TestHierarchicalCayley:
    def test_corpus_values(self):
        expected = {"q8": 2, "d4": 2, "d5": 2, "z2_cubed": 3,
                    "s4_two_gens": 2, "s4_transpositions": 3, "z6": 1,
                    "cp_4_1": 3}
        for name in HIERARCHICAL_CAYLEY_NAMES:
            report = verify_hierarchical_cayley(instance(name))
            assert report.applicable, name
            assert report.computed_kappa == expected[name], name
            assert report.consistent, name

    def test_nontrivial_subgroup_rejected(self):
        with pytest.raises(GroupError):
            verify_hierarchical_cayley(cp_instance(4, 2))

    def test_non_hierarchical_rejected(self):
        # no hierarchical ordering is a failed hypothesis, as in hierarchical_gen
        report = verify_hierarchical_cayley(instance("s4_mixed"))
        assert [(h.description, h.witness) for h in report.hypotheses if not h.holds] == \
            [("a hierarchical ordering exists", "no generator ordering grows at every step")]
        assert not report.applicable and report.consistent


class TestHierarchicalGenC:
    def test_q8_with_inverses(self):
        spec = cayley_spec(8, (("i", Q8_I), ("j", Q8_J),
                               ("i^-1", inverse(Q8_I)), ("j^-1", inverse(Q8_J))))
        cd = build(spec)
        report = check_hierarchical_gen_c(cd, ["i", "j"], ["i^-1", "j^-1"])
        assert report.applicable
        assert report.implied_bound == 4
        assert report.computed_kappa == 4
        assert report.consistent

    def test_d5_with_rotation_inverse(self):
        r = parse_cycles("(1 2 3 4 5)", 5)
        f = parse_cycles("(2 5)(3 4)", 5)
        cd = build(cayley_spec(5, (("r", r), ("f", f), ("r^-1", inverse(r)))))
        report = check_hierarchical_gen_c(cd, ["r", "f"], ["r^-1"])
        assert report.applicable
        assert report.computed_kappa == 3 and report.consistent

    def test_klein_four_fails_order_hypothesis(self):
        x = parse_cycles("(1 2)", 4)
        y = parse_cycles("(3 4)", 4)
        cd = build(cayley_spec(4, (("x", x), ("y", y))))
        report = check_hierarchical_gen_c(cd, ["x", "y"], [])
        assert not report.applicable
        failing = [h for h in report.hypotheses if not h.holds]
        assert any("4" in h.description for h in failing)
        assert report.consistent

    def test_sprime_not_inverse_rejected_as_hypothesis(self):
        # f is its own inverse but r^-1 labeled as S' member of something
        # not in S^-1: use j as S' for S = {i}; j is not i^-1
        spec = cayley_spec(8, (("i", Q8_I), ("j", Q8_J)))
        cd = build(spec)
        report = check_hierarchical_gen_c(cd, ["i"], ["j"])
        assert not report.applicable
        failing = [h for h in report.hypotheses if not h.holds]
        assert "S^-1" in failing[0].description


def _sym(n: int, subgroup: str, connection) -> CosetDigraph:
    """The instance on S_n over H = <subgroup>, with connection set the
    (label, cycles) pairs."""
    full_cycle = "(" + " ".join(map(str, range(1, n + 1))) + ")"
    spec = CosetDigraphSpec(n, (parse_cycles("(1 2)", n), parse_cycles(full_cycle, n)),
                            (parse_cycles(subgroup, n),),
                            tuple((lbl, parse_cycles(text, n)) for lbl, text in connection))
    return build(spec)


def _klein() -> CosetDigraph:
    return build(cayley_spec(4, (("x", parse_cycles("(1 2)", 4)),
                                 ("y", parse_cycles("(3 4)", 4)))))


_DISTINCT = "the subgroups G_i are distinct"
_CLASH = "same-double-coset members of S_i+1 generate equal <H, r>"
_BASE = "kappa(G(G_1, H, S_1)) = d_1"
_HIERARCHICAL = "the ordering is hierarchical (subgroups all distinct)"
_DEGREES = "d_s_i+1 <= d_i for every i"
_INDEX = "|G_1/H| >= d_2"
_STRAY = "S' is a subset of S^-1"
_LOW = "every member of S' has order at least 3"
_GEN_C = "G(G, {e}, S) is hierarchical in the given order"
_PAIR = "|<s_1, s_2>| != 4"

# every failing branch of every checker, with the whole hypothesis list it
# reports: (description, holds, witness), witness None exactly where it holds
WITNESS_TABLE = [
    pytest.param(lambda: check_decomposition(instance("s4_mixed"), ["a", "b"], ["ba"]),
                 [("G' = <H, R1> contains no member of R2", False, "ba lies in G'"),
                  ("same G'-double-coset members of R2 generate equal <H, r>", True, None)],
                 id="decomposition-offender"),
    pytest.param(lambda: check_decomposition(instance("s4_mixed"), ["a"], ["b", "ba"]),
                 [("G' = <H, R1> contains no member of R2", True, None),
                  ("same G'-double-coset members of R2 generate equal <H, r>", False,
                   "G'bG' = G'baG' but <H,b> != <H,ba>")],
                 id="decomposition-clash"),
    pytest.param(lambda: check_tower(instance("s4_mixed"), [["a"], ["b"], ["ba"]]),
                 [(_DISTINCT, False, "G_2 = G_3"), (_CLASH, True, None), (_BASE, True, None),
                  ("|G_i/H| >= d_i+1 for every i", True, None)],
                 id="tower-repeat"),
    pytest.param(lambda: check_tower(instance("s4_mixed"), [["a"], ["b", "ba"]]),
                 [(_DISTINCT, True, None),
                  (_CLASH, False, "G_1bG_1 = G_1baG_1 but <H,b> != <H,ba>"),
                  (_BASE, True, None),
                  ("|G_i/H| >= d_i+1 for every i", False, "|G_1/H| = 2 < d_2 = 3")],
                 id="tower-clash"),
    pytest.param(lambda: check_tower(instance("s4_mixed"), [["a", "b", "ba"]], "corollary1_1"),
                 [(_DISTINCT, True, None), (_CLASH, True, None),
                  (_BASE, False, "kappa = 2, d_1 = 3"), (_INDEX, True, None),
                  ("d_S_i+1 <= d_i for every i", True, None)],
                 id="tower-base-kappa"),
    pytest.param(lambda: check_tower(instance("s4_transpositions"), [["t1"], ["t2", "t3"]]),
                 [(_DISTINCT, True, None), (_CLASH, True, None), (_BASE, True, None),
                  ("|G_i/H| >= d_i+1 for every i", False, "|G_1/H| = 2 < d_2 = 3")],
                 id="corollary1-index"),
    pytest.param(lambda: check_tower(instance("s4_transpositions"), [["t1"], ["t2", "t3"]],
                                     "corollary1_1"),
                 [(_DISTINCT, True, None), (_CLASH, True, None), (_BASE, True, None),
                  (_INDEX, False, "|G_1/H| = 2 < d_2 = 3"),
                  ("d_S_i+1 <= d_i for every i", False, "d_S_2 = 2 > d_1 = 1")],
                 id="corollary1_1-index-and-degree"),
    pytest.param(lambda: check_hierarchical_gen(instance("s4_mixed"), ["a", "b", "ba"]),
                 [(_HIERARCHICAL, False, "<H,a,b> = <H,a,b,ba>"), (_DEGREES, True, None),
                  (_INDEX, True, None)],
                 id="hierarchical_gen-repeat"),
    pytest.param(lambda: check_hierarchical_gen(
                     _sym(5, "(4 5)", [("s", "(1 3 2)"), ("t", "(1 4 5)(2 3)")]), ["s", "t"]),
                 [(_HIERARCHICAL, True, None), (_DEGREES, False, "d_t = 2 > d_1 = 1"),
                  (_INDEX, True, None)],
                 id="hierarchical_gen-degree"),
    pytest.param(lambda: check_hierarchical_gen(
                     _sym(4, "(3 4)", [("s", "(2 3)"), ("t", "(1 2 3)")]), ["s", "t"]),
                 [(_HIERARCHICAL, True, None), (_DEGREES, True, None),
                  (_INDEX, False, "|G_1/H| = 3 < d_2 = 4")],
                 id="hierarchical_gen-index"),
    pytest.param(lambda: check_hierarchical_gen(instance("s4_two_gens"), ["t", "c"], "hier1"),
                 [(_HIERARCHICAL, True, None), (_DEGREES, True, None),
                  ("Hs_1^-1 H != Hs_1 H", False, "Hs_1H = Hs_1^-1H for s_1 = t")],
                 id="hier1"),
    pytest.param(lambda: check_hierarchical_gen(instance("s4_mixed")),
                 [("a hierarchical ordering exists", False,
                   "no generator ordering grows at every step")],
                 id="no-ordering"),
    pytest.param(lambda: check_hierarchical_gen_c(_klein(), ["x"], ["y"]),
                 [(_STRAY, False, "y is not the inverse of any member of S"),
                  (_LOW, False, "y has order 2"), (_GEN_C, False, "<S> != G"),
                  (_PAIR, True, None)],
                 id="hierarchical_gen_c-stray-and-low-order"),
    pytest.param(lambda: check_hierarchical_gen_c(instance("q8"), ["i"], ["j"]),
                 [(_STRAY, False, "j is not the inverse of any member of S"),
                  (_LOW, True, None), (_GEN_C, False, "<S> != G"),
                  (_PAIR, False, "|<s_1,s_2>| = 4")],
                 id="hierarchical_gen_c-not-generating"),
    pytest.param(lambda: check_hierarchical_gen_c(instance("s4_mixed"), ["a", "b", "ba"], []),
                 [(_STRAY, True, None), (_LOW, True, None),
                  (_GEN_C, False, "a subgroup repeats"), (_PAIR, True, None)],
                 id="hierarchical_gen_c-repeat"),
    pytest.param(lambda: check_hierarchical_gen_c(_klein(), ["x", "y"], []),
                 [(_STRAY, True, None), (_LOW, True, None), (_GEN_C, True, None),
                  (_PAIR, False, "|<s_1,s_2>| = 4")],
                 id="hierarchical_gen_c-pair-of-order-four"),
]


class TestFailureWitnesses:
    @pytest.mark.parametrize("check, expected", WITNESS_TABLE)
    def test_witness_table(self, check, expected):
        report = check()
        assert [(h.description, h.holds, h.witness) for h in report.hypotheses] == expected
        assert not report.applicable and report.implied_bound is None and report.consistent

    def test_double_coset_clash_witness_text(self):
        cd = instance("s4_mixed")
        tower = check_tower(cd, [["a"], ["b", "ba"]], "corollary1")
        assert not tower.hypotheses[1].holds
        assert tower.hypotheses[1].witness == \
            "G_1bG_1 = G_1baG_1 but <H,b> != <H,ba>"
        decomposition = check_decomposition(cd, ["a"], ["b", "ba"])
        assert not decomposition.hypotheses[1].holds
        assert decomposition.hypotheses[1].witness == \
            "G'bG' = G'baG' but <H,b> != <H,ba>"

    def test_every_failed_hypothesis_carries_a_witness(self):
        reports = [
            check_decomposition(instance("s4_mixed"), ["a"], ["b", "ba"]),
            check_tower(instance("s4_mixed"), [["a"], ["b"], ["ba"]], "corollary1"),
            check_hierarchical_gen(instance("s4_two_gens"), ["t", "c"], "hier1"),
        ]
        cd = build(cayley_spec(4, (("x", parse_cycles("(1 2)", 4)),
                                   ("y", parse_cycles("(3 4)", 4)))))
        reports.append(check_hierarchical_gen_c(cd, ["x", "y"], []))
        for report in reports:
            failing = [h for h in report.hypotheses if not h.holds]
            assert failing, report.theorem_id
            for h in failing:
                assert h.witness, report.theorem_id


class TestEdgeConnectivityTheorem:
    def test_s4_mixed(self):
        report = verify_edge_connectivity(instance("s4_mixed"))
        assert report.computed_kappa == 3  # lambda
        assert report.implied_bound == 3   # degree
        assert report.consistent

    def test_cp42(self):
        report = verify_edge_connectivity(cp_instance(4, 2))
        assert report.computed_kappa == 3 and report.consistent

    def test_directed_cycle(self):
        report = verify_edge_connectivity(instance("z6"))
        assert report.computed_kappa == 1 and report.consistent

    def test_unconditional_on_corpus(self):
        for name in SMALL_NAMES:
            report = verify_edge_connectivity(instance(name))
            assert report.consistent, name
            assert report.computed_kappa == instance(name).degree, name

    def test_one_vertex_instance(self):
        # H = G and no connection set: lambda = d = 0, and the lone vertex
        # leaves no proper subset, so there is no e-atom to contradict it
        a, b = parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)
        cd = build(CosetDigraphSpec(3, (a, b), (a, b), ()))
        report = verify_edge_connectivity(cd)
        assert (report.computed_kappa, report.implied_bound, report.consistent) == (0, 0, True)
