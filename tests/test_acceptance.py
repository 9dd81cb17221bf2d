"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS lines.
All tolerances are exact; the timed criteria assert their budgets.
"""

import json
import random
import time
from math import factorial

from corpus import (CORPUS_NAMES, HIERARCHICAL_CAYLEY_NAMES, cp_instance,
                    instance, mixed_gens_spec, z6_disconnected_spec)
from cosetkit import (Permutation, build, canonical_coset_rep,
                      check_decomposition, cli, compose, e_atoms_bruteforce,
                      edge_connectivity, enumerate_closure,
                      generation_connectivity, hierarchical_order_search,
                      inverse, kappa_group_theoretic, neighbor_set,
                      parse_cycles, stabiliser_translations,
                      subgroup_generated, transpose_spec, trivial_subgroup,
                      verify_atom_theory,
                      verify_edge_connectivity,
                      verify_hierarchical_cayley,
                      vertex_connectivity_transitive)
from cosetkit.cp import CPParams, cp_degree_profile, gamma_label
from helpers import atoms_oracle, base_atom_split, out_edge_count, verify_automorphism

_MODULE_T0 = time.perf_counter()


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS — {detail}")


def test_criterion_1_mixed_generator_instances():
    t0 = time.perf_counter()
    for n in (4, 5):
        cd = build(mixed_gens_spec(n))
        tr = transpose_spec(cd)
        a = parse_cycles("(1 2)", n)
        b = Permutation(list(range(2, n + 1)) + [1])
        ba = compose(b, a)
        b_inv = inverse(b)
        ab_inv = compose(a, b_inv)

        oracle, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex)
        assert oracle == 2 and kappa_group_theoretic(cd).kappa_group == 2

        theory = verify_atom_theory(cd)
        assert theory.side == "transpose"
        assert set(theory.base_atom) == {tr.base_vertex, tr.vertex_of(a)}

        v = cd.vertex_of  # tr shares the vertex labeling
        base = cd.base_vertex
        assert neighbor_set(cd.graph, {base})[0] == {v(a), v(b), v(ba)}
        assert neighbor_set(tr.graph, {base})[0] == {v(a), v(b_inv), v(ab_inv)}
        two = {base, v(a)}
        assert neighbor_set(cd.graph, two)[0] == \
            {v(b), v(ba), v(compose(a, b)), v(compose(compose(a, b), a))}
        assert neighbor_set(tr.graph, two)[0] == {v(b_inv), v(ab_inv)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"mixed-generator S_4/S_5 instances: kappa=2, atom {{e,a}}, all "
               f"four neighbor sets element-exact ({elapsed:.2f}s)")


def test_criterion_2_cp_family():
    t0 = time.perf_counter()
    count = 0
    for n in range(2, 7):
        for k in range(1, n):
            p = CPParams(n, k)
            cd = cp_instance(n, k)
            assert len(cd.vertices) == factorial(n) // factorial(k), (n, k)
            assert cp_degree_profile(p, cd) is None
            expected = {gamma_label(j): 1 for j in range(2, n - k + 1)}
            expected[gamma_label(n - k + 1)] = k
            assert cd.degrees == expected, (n, k)
            kappa, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex)
            lam, _ = edge_connectivity(cd.graph, cd.base_vertex)
            assert kappa == n - 1 and lam == n - 1, (n, k)
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, f"{count} CP instances: |V| = n!/k!, degree profile exact, "
               f"kappa = lambda = n-1 ({elapsed:.1f}s)")


def test_cp7_family_optimal():
    # criterion 2's kappa(CP(n, k)) = n - 1 at n = 7, with the symmetries
    # the CLI passes; CP(7, 1) has 5040 vertices
    t0 = time.perf_counter()
    for k in range(1, 7):
        cd = cp_instance(7, k)
        symmetries = stabiliser_translations(cd)
        kappa, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex, symmetries)
        lam, _ = edge_connectivity(cd.graph, cd.base_vertex, symmetries)
        assert kappa == lam == 6, k
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 (n = 7): PASS — CP(7, k) for k = 1..6: "
          f"kappa = lambda = 6 ({elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    assert len(CORPUS_NAMES) >= 15
    for name in CORPUS_NAMES:
        cd = instance(name)
        oracle, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex)
        assert kappa_group_theoretic(cd).kappa_group == oracle, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(3, f"group-theoretic kappa = flow kappa on {len(CORPUS_NAMES)} "
               f"instances ({elapsed:.1f}s)")


def test_criterion_4_edge_connectivity():
    for name in CORPUS_NAMES:
        cd = instance(name)
        report = verify_edge_connectivity(cd)
        assert report.computed_kappa == sum(cd.degrees.values()), name
        assert report.consistent, name  # includes singleton e-atoms
        n = cd.graph.vertex_count
        eatoms = e_atoms_bruteforce(cd.graph, lam=report.computed_kappa)
        assert eatoms == tuple(frozenset([v]) for v in range(n)), name
    _report(4, f"lambda = sum d_s and singleton e-atoms on "
               f"{len(CORPUS_NAMES)} instances")


def test_criterion_5_hierarchical_cayley():
    assert len(HIERARCHICAL_CAYLEY_NAMES) >= 6
    for name in HIERARCHICAL_CAYLEY_NAMES:
        cd = instance(name)
        assert hierarchical_order_search(cd) is not None, name
        report = verify_hierarchical_cayley(cd)
        assert report.applicable and report.consistent, name
        assert report.computed_kappa == len(cd.labels), name
    _report(5, f"kappa = |S| for {len(HIERARCHICAL_CAYLEY_NAMES)} "
               f"hierarchical Cayley digraphs")


def test_criterion_6_decomposition_bound():
    checked = 0
    for name in CORPUS_NAMES:
        cd = instance(name)
        labels = cd.labels
        for r2 in labels:
            r1 = [lbl for lbl in labels if lbl != r2]
            report = check_decomposition(cd, r1, [r2])
            assert report.consistent, (name, r2)
            if report.applicable:
                assert report.computed_kappa >= report.implied_bound, (name, r2)
                checked += 1
    cp52 = check_decomposition(cp_instance(5, 2),
                               [gamma_label(2), gamma_label(3)], [gamma_label(4)])
    assert cp52.applicable and cp52.implied_bound == 4
    assert cp52.computed_kappa == 4 and cp52.consistent
    _report(6, f"kappa >= implied bound on {checked} applicable invocations; "
               f"CP(5,2) attains bound 4 = kappa")


def test_criterion_7_double_coset_index_identity():
    rng = random.Random(424243)
    pairs = 0
    contexts = {n: enumerate_closure(
        n, [parse_cycles("(1 2)", n), Permutation(list(range(2, n + 1)) + [1])])
        for n in (3, 4, 5, 6)}
    while pairs < 100:
        n = (3, 4, 5, 6)[pairs % 4]
        ctx = contexts[n]
        h_gen = ctx.elements[rng.randrange(len(ctx))]
        subgroup = subgroup_generated(ctx, trivial_subgroup(ctx), [h_gen])
        if len(subgroup) > 60:
            continue
        s = ctx.elements[rng.randrange(len(ctx))]
        # left-coset count inside HsH, computed directly
        reps = {canonical_coset_rep(compose(h, s), subgroup).image
                for h in subgroup.members}
        s_inv = inverse(s)
        stabilizer = sum(1 for h in subgroup.members
                         if compose(compose(s, h), s_inv) in subgroup)
        assert len(reps) == len(subgroup) // stabilizer
        pairs += 1
    _report(7, f"|HsH/H| = |H|/|H n sHs^-1| over {pairs} randomized pairs, "
               f"n up to 6")


def test_criterion_8_atom_structure_lemmas():
    cap_names = [n for n in CORPUS_NAMES if not instance(n).graph.is_complete()]
    for name in cap_names:
        cd = instance(name)
        report = verify_atom_theory(cd)
        neighbor_count, _, d_s1 = base_atom_split(cd, report)
        assert neighbor_count % report.atom_size == 0, name
        assert neighbor_count >= max(report.atom_size, d_s1), name

    rng = random.Random(8675309)
    for name in ("q8", "d5", "cp_4_2", "s4_two_gens", "z6"):
        cd = instance(name)
        g = cd.graph
        n = g.vertex_count
        kappa, _ = vertex_connectivity_transitive(g, cd.base_vertex)
        atoms = atoms_oracle(g, kappa)
        # exchange inequality on sampled (atom, part) pairs
        for _ in range(200):
            b = frozenset(rng.sample(range(n), rng.randrange(1, n)))
            nb, is_part = neighbor_set(g, b)
            if not is_part:
                continue
            for a in atoms:
                if a & b and a - b:
                    na, _ = neighbor_set(g, a)
                    assert len(na - (b | nb)) < len(nb & a), name
        # e-atom trichotomy on every sampled lambda-boundary set
        lam, _ = edge_connectivity(g, cd.base_vertex)
        eatoms = e_atoms_bruteforce(g, lam=lam)
        candidates = [frozenset([v]) for v in range(n)]
        candidates += [frozenset(range(n)) - {v} for v in range(n)]
        for b in candidates:
            if out_edge_count(g, b) != lam:
                continue
            for a in eatoms:
                assert a <= b or not (a & b) or a | b == set(range(n)), name
    _report(8, f"atom partition, subgroup structure, neighbor bounds and "
               f"exchange lemmas on {len(cap_names)} instances")


def test_criterion_9_transitivity_facts():
    rng = random.Random(515151)
    for name in CORPUS_NAMES:
        cd = instance(name)
        for _ in range(5):
            g = cd.group.elements[rng.randrange(len(cd.group))]
            assert verify_automorphism(cd, g), name
        connected, _ = generation_connectivity(cd)
        assert connected == (len(cd.closure(cd.labels)) == len(cd.group)), name

    cd = build(z6_disconnected_spec())
    connected, components = generation_connectivity(cd)
    generated = cd.closure(cd.labels)
    assert not connected
    assert len(generated) == 3
    coset_components = set()
    for g in cd.group:
        coset_components.add(frozenset(
            cd.vertex_of(compose(g, x)) for x in generated.members))
    assert {frozenset(c) for c in components} == coset_components
    _report(9, "edge-label-preserving automorphisms and Lemma 2 components, "
               "including a deliberately disconnected instance")


def test_criterion_10_determinism_and_budget(tmp_path, capsys):
    spec_path = tmp_path / "mixed.json"
    spec_path.write_text(json.dumps({
        "degree": 4,
        "group_generators": ["(1 2)", "(1 2 3 4)"],
        "connection_set": [{"label": "a", "perm": "(1 2)"},
                           {"label": "b", "perm": "(1 2 3 4)"},
                           {"label": "ba", "perm": "(2 3 4)"}],
        "settings": {"bruteforce_cap": 24},
    }), encoding="utf-8")
    outputs = []
    for _ in range(2):
        assert cli.main(["analyze", str(spec_path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    exports = []
    for _ in range(2):
        assert cli.main(["export", str(spec_path), "--format", "edges"]) == 0
        exports.append(capsys.readouterr().out)
    assert exports[0] == exports[1]

    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 300.0
    _report(10, f"byte-identical reports and exports; acceptance wall clock "
                f"{elapsed:.1f}s < 300s")
