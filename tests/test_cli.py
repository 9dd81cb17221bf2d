"""Command-line interface: commands, exit codes, schemas, determinism."""

import hashlib
import json
import sys
from collections import Counter

import pytest

from corpus import s4_transpose_atom_spec
from cosetkit import CrossCheckError, atoms, cli, coset, cp, digraph, perms
from cosetkit.cp import CPParams, gamma_label

S4_MIXED_SPEC = {
    "degree": 4,
    "group_generators": ["(1 2)", "(1 2 3 4)"],
    "subgroup_generators": [],
    "connection_set": [
        {"label": "a", "perm": "(1 2)"},
        {"label": "b", "perm": "(1 2 3 4)"},
        {"label": "ba", "perm": "(2 3 4)"},
    ],
    "settings": {"bruteforce_cap": 24},
}

CP42_SPEC = {"family": "cp", "n": 4, "k": 2}

# Z_3 x Z_2 on the points 1..3 and 4..5: the block {0} x Z_2 has the two
# out-neighbours {1} x Z_2 and misses {2} x Z_2, so kappa = 2 < d = 3
THIN_CUT_SPEC = {
    "degree": 5,
    "group_generators": ["(1 2 3)", "(4 5)"],
    "connection_set": [{"label": "0,1", "perm": "(4 5)"},
                       {"label": "1,0", "perm": "(1 2 3)"},
                       {"label": "1,1", "perm": "(1 2 3)(4 5)"}],
}

DISCONNECTED_SPEC = {
    "degree": 6,
    "group_generators": ["(1 2 3 4 5 6)"],
    "subgroup_generators": [],
    "connection_set": [{"label": "s", "perm": "(1 3 5)(2 4 6)"}],
}

EMPTY_S_SPEC = {"degree": 3, "group_generators": ["(1 2)"],
                "subgroup_generators": ["(1 2)"], "connection_set": []}

S3_CAYLEY_SPEC = {
    "degree": 3,
    "group_generators": ["(1 2)", "(1 2 3)"],
    "connection_set": [{"label": "a", "perm": "(1 2)"},
                       {"label": "b", "perm": "(1 2 3)"},
                       {"label": "t", "perm": "(1 3 2)"}],
}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_enumerations(monkeypatch, calls, enumerate_too=True):
    """Append each ``enumerate_closure`` call's arguments to ``calls``;
    with ``enumerate_too`` false, the group is not enumerated at all."""
    original = perms.enumerate_closure

    def counted(*args):
        calls.append(args)
        return original(*args) if enumerate_too else None
    for module in (perms, coset):
        monkeypatch.setattr(module, "enumerate_closure", counted)


class TestAnalyze:
    def test_s4_mixed(self, tmp_path, capsys):
        path = write_spec(tmp_path, S4_MIXED_SPEC)
        code, out, err = run(capsys, "analyze", path)
        assert code == 0
        report = json.loads(out)
        assert report["instance"]["group_order"] == 24
        assert report["instance"]["vertex_count"] == 24
        assert report["instance"]["connected"] is True
        assert report["kappa"] == {"oracle": 2, "group_theoretic": 2, "agree": True}
        assert report["lambda"] == 3
        assert report["atoms"]["transpose"]["found"] is True
        assert report["atoms"]["transpose"]["size"] == 2
        assert report["atoms"]["partition_ok"] is True
        assert "kappa" in err

    def test_transpose_side_witness(self, tmp_path, capsys):
        # the smaller atom lies on the transpose side, with H nontrivial
        path = write_spec(tmp_path, cli.spec_to_document(s4_transpose_atom_spec()))
        code, out, err = run(capsys, "analyze", path)
        assert code == 0
        report = json.loads(out)
        assert (report["instance"]["vertex_count"], report["instance"]["degree"]) == (12, 5)
        assert report["kappa"] == {"oracle": 4, "group_theoretic": 4, "agree": True}
        assert report["atoms"]["forward"]["found"] is False
        assert report["atoms"]["transpose"] == {"found": True, "size": 2, "count": 6,
                                                "base_atom": [0, 1]}
        assert err.splitlines()[-1] == "atoms (transpose side): 6 of size 2, partition ok"

    def test_cp_family_shorthand(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        report = json.loads(out)
        assert report["instance"]["vertex_count"] == 12
        assert report["instance"]["degree"] == 3
        assert report["kappa"]["oracle"] == 3
        assert report["lambda"] == 3

    def test_disconnected_is_exit_zero(self, tmp_path, capsys):
        path = write_spec(tmp_path, DISCONNECTED_SPEC)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        report = json.loads(out)
        assert report["instance"]["connected"] is False
        assert len(report["instance"]["components"]) == 2
        assert report["kappa"] is None
        assert report["lambda"] is None

    def test_byte_deterministic(self, tmp_path, capsys):
        path = write_spec(tmp_path, S4_MIXED_SPEC)
        _, out1, _ = run(capsys, "analyze", path)
        _, out2, _ = run(capsys, "analyze", path)
        assert out1 == out2

    def test_report_round_trips(self, tmp_path, capsys):
        path = write_spec(tmp_path, S4_MIXED_SPEC)
        _, out, _ = run(capsys, "analyze", path)
        assert cli.json_bytes(json.loads(out)) == out

    def test_bad_json_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "error" in err

    def test_bad_cycle_string_is_exit_one(self, tmp_path, capsys):
        doc = dict(S4_MIXED_SPEC, group_generators=["(1 9)"])
        path = write_spec(tmp_path, doc)
        code, _, _ = run(capsys, "analyze", path)
        assert code == 1

    def test_unknown_field_rejected(self, tmp_path, capsys):
        doc = dict(S4_MIXED_SPEC)
        doc["degre"] = 4
        path = write_spec(tmp_path, doc)
        code, _, _ = run(capsys, "analyze", path)
        assert code == 1

    def test_oracle_disagreement_is_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "oracle_kappa", lambda cd: 99)
        path = write_spec(tmp_path, CP42_SPEC)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 2
        assert json.loads(out)["kappa"]["agree"] is False

    @pytest.mark.parametrize("members, message", [
        ((frozenset({0, 1}), frozenset({1, 2})), "distinct atoms intersect"),
        ((frozenset({0}),), "atoms do not cover the vertex set"),
    ], ids=("overlapping", "non_covering"))
    def test_atoms_that_do_not_partition_are_exit_two(self, tmp_path, capsys, monkeypatch,
                                                       members, message):
        # the atom theory raises on a broken partition, so the report's
        # "partition_ok" can only be true
        monkeypatch.setattr(atoms, "atoms_bruteforce",
                            lambda *args, **kwargs: members)
        path = write_spec(tmp_path, CP42_SPEC)
        spec, _ = cli.load_spec_document(path)
        with pytest.raises(CrossCheckError, match=message):
            atoms.verify_atom_theory(coset.build(spec))
        assert run(capsys, "analyze", path) == (2, "", f"internal inconsistency: {message}\n")

    @pytest.mark.parametrize("doc, oracle_is_d, kappa, code", [
        (CP42_SPEC, False, 3, 0),
        (S4_MIXED_SPEC, False, 2, 0),
        (THIN_CUT_SPEC, False, 2, 0),
        (S4_MIXED_SPEC, True, 3, 2),
    ], ids=("kappa_is_d", "s4_mixed", "thin_cut", "disagreement"))
    def test_analyze_runs_no_lambda_flow(self, tmp_path, capsys, monkeypatch,
                                         doc, oracle_is_d, kappa, code):
        # lambda = d = 3 by the theorem, with no flow, whatever kappa is; the
        # disagreement has the flow route say d where the group route says 2.
        # The flow is counted wherever edge_connectivity is bound.
        calls = []
        original = digraph.edge_connectivity

        def counted(*args):
            calls.append(args)
            return original(*args)
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "cosetkit" and \
                    getattr(module, "edge_connectivity", None) is original:
                monkeypatch.setattr(module, "edge_connectivity", counted)
        if oracle_is_d:
            monkeypatch.setattr(cli, "oracle_kappa", lambda cd: cd.degree)
        exit_code, out, _ = run(capsys, "analyze", write_spec(tmp_path, doc))
        report = json.loads(out)
        assert (exit_code, len(calls)) == (code, 0)
        assert (report["kappa"]["oracle"], report["lambda"]) == (kappa, 3)

    def test_connectivity_and_flow_kappa_computed_once(self, tmp_path, capsys,
                                                        monkeypatch):
        calls = Counter()
        for module, name in ((coset, "vertex_connectivity_transitive"),
                             (digraph, "strongly_connected_components")):
            def counted(*args, _name=name, _original=getattr(module, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(module, name, counted)
        path = write_spec(tmp_path, S4_MIXED_SPEC)
        code, _, _ = run(capsys, "analyze", path)
        assert code == 0
        assert calls == {"vertex_connectivity_transitive": 1,
                         "strongly_connected_components": 1}

    def test_one_reversed_digraph_per_analyze(self, tmp_path, capsys, monkeypatch):
        # Kosaraju, the subgroup scan and the atom theory all read the one
        # cached transpose, which transpose() builds without Digraph()
        built, transposes = [], []
        original = digraph.Digraph.__init__

        def recorded(self, adjacency):
            original(self, adjacency)
            built.append(self)
        monkeypatch.setattr(digraph.Digraph, "__init__", recorded)
        for module in (digraph, atoms, coset):
            def counted(g, _original=module.transpose):
                transposes.append(_original(g))
                return transposes[-1]
            monkeypatch.setattr(module, "transpose", counted)
        code, out, _ = run(capsys, "analyze", write_spec(tmp_path, S4_MIXED_SPEC))
        assert code == 0 and json.loads(out)["atoms"]["forward"] is not None
        reversed_edges = {(v, u) for u, v in built[0].edges()}
        assert reversed_edges != set(built[0].edges())
        assert not any(set(g.edges()) == reversed_edges for g in built)
        assert len({id(g) for g in transposes if set(g.edges()) == reversed_edges}) == 1
        assert len(transposes) >= 3

    @pytest.mark.parametrize("argv", [("analyze", "S4_MIXED"), ("analyze", "CP42"),
                                      ("cp", "--n", "5", "--k", "2")],
                             ids=("s4_mixed", "cp42", "cp52"))
    def test_sink_orbits_computed_once(self, tmp_path, capsys, monkeypatch, argv):
        # flow kappa, the one flow analyze runs, checks the stabiliser
        # translations once
        calls = []
        original = digraph._check_automorphisms
        monkeypatch.setattr(digraph, "_check_automorphisms",
                            lambda *args: calls.append(args) or original(*args))
        docs = {"S4_MIXED": S4_MIXED_SPEC, "CP42": CP42_SPEC}
        argv = [write_spec(tmp_path, docs[a]) if a in docs else a for a in argv]
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert code == 0 and report["instance"]["connected"]
        assert report["kappa"]["oracle"] < report["instance"]["vertex_count"] - 1
        assert len(calls) == 1

    @pytest.mark.parametrize("doc, env, field", [
        ({"family": "cp", "n": "x"}, None, "n must be"),
        (dict(S4_MIXED_SPEC, settings={"enumeration_cap": "big"}), None,
         "settings.enumeration_cap"),
        (dict(S4_MIXED_SPEC, settings={"bruteforce_cap": "x"}), None,
         "settings.bruteforce_cap"),
        (dict(S4_MIXED_SPEC, connection_set=[{"label": 5, "perm": "(1 2)"}]),
         None, "label"),
        (dict(S4_MIXED_SPEC, connection_set=[{"label": "a", "perm": 5}]),
         None, "cycle string"),
        (dict(S4_MIXED_SPEC, degree=True), None, "degree"),
        (S4_MIXED_SPEC, "-5", cli.ENUM_CAP_ENV),
        (dict(S4_MIXED_SPEC, settings={"enumeraton_cap": 5}), None,
         "enumeraton_cap"),
        ({"family": "cp", "n": 4, "k": 2, "settings": {"cap": 5}}, None, "cap"),
        (dict(S4_MIXED_SPEC, connection_set=[{"perm": "(1 2)", "lable": "a"}]),
         None, "lable"),
    ], ids=["cp_n_string", "enumeration_cap_string", "bruteforce_cap_string",
            "label_integer", "perm_integer", "degree_boolean", "env_cap_negative",
            "settings_unknown_key", "cp_settings_unknown_key",
            "connection_entry_unknown_key"])
    def test_hostile_input_is_one_line_error(self, tmp_path, capsys, monkeypatch,
                                             doc, env, field):
        if env is not None:
            monkeypatch.setenv(cli.ENUM_CAP_ENV, env)
        path = write_spec(tmp_path, doc)
        code, out, err = run(capsys, "analyze", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    def test_enum_cap_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENUM_CAP_ENV, "10")
        path = write_spec(tmp_path, S4_MIXED_SPEC)
        code, _, err = run(capsys, "analyze", path)
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("env", [None, "100"], ids=("no_env", "env_set"))
    def test_malformed_cap_setting_is_rejected_with_or_without_env(
            self, tmp_path, capsys, monkeypatch, env):
        # the setting is validated before the environment variable overrides it
        if env is not None:
            monkeypatch.setenv(cli.ENUM_CAP_ENV, env)
        path = write_spec(tmp_path, dict(CP42_SPEC, settings={"enumeration_cap": "x"}))
        assert run(capsys, "analyze", path) == (
            1, "", "error: settings.enumeration_cap must be an integer >= 1, got 'x'\n")

    def test_env_cap_overrides_a_valid_setting(self, tmp_path, capsys, monkeypatch):
        path = write_spec(tmp_path, dict(CP42_SPEC, settings={"enumeration_cap": 10}))
        code, _, err = run(capsys, "analyze", path)
        assert code == 1 and "cap" in err
        monkeypatch.setenv(cli.ENUM_CAP_ENV, "100")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0 and json.loads(out)["instance"]["group_order"] == 24

    def test_timings_flag_populates(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        code, out, _ = run(capsys, "analyze", path, "--timings")
        assert code == 0
        timings = json.loads(out)["timings"]
        assert set(timings) == {"build_s", "connectivity_s", "kappa_flow_s",
                                "kappa_group_s", "lambda_s", "atoms_s"}

    @pytest.mark.parametrize("doc, stages", [
        (DISCONNECTED_SPEC, {"build_s", "connectivity_s"}),
        ({"family": "cp", "n": 5, "k": 2},          # 60 vertices, above the cap
         {"build_s", "connectivity_s", "kappa_flow_s", "kappa_group_s", "lambda_s"}),
    ], ids=["disconnected", "above_bruteforce_cap"])
    def test_timings_name_only_the_stages_run(self, tmp_path, capsys, doc, stages):
        path = write_spec(tmp_path, doc)
        code, out, _ = run(capsys, "analyze", path, "--timings")
        report = json.loads(out)
        assert code == 0 and report["atoms"] is None
        assert set(report["timings"]) == stages


class TestCheck:
    def test_decomposition_cp52(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"family": "cp", "n": 5, "k": 2})
        partition = f"{gamma_label(2)},{gamma_label(3)}|{gamma_label(4)}"
        code, out, _ = run(capsys, "check", "decomposition", path,
                           "--partition", partition)
        assert code == 0
        report = json.loads(out)
        assert report["applicable"] is True
        assert report["implied_bound"] == 4
        assert report["computed_kappa"] == 4

    def test_decomposition_s4_mixed_hypotheses_fail(self, tmp_path, capsys):
        path = write_spec(tmp_path, S4_MIXED_SPEC)
        code, out, err = run(capsys, "check", "decomposition", path,
                             "--partition", "a|b,ba")
        assert code == 3
        report = json.loads(out)
        assert report["applicable"] is False
        witnesses = [h["witness"] for h in report["hypotheses"] if not h["holds"]]
        assert any("b" in w and "ba" in w for w in witnesses)

    def test_edgec_unconditional(self, tmp_path, capsys):
        for doc in (S4_MIXED_SPEC, CP42_SPEC):
            path = write_spec(tmp_path, doc)
            code, out, _ = run(capsys, "check", "edgec", path)
            assert code == 0
            assert json.loads(out)["consistent"] is True

    def test_hierarchical_gen_defaults_to_search(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"family": "cp", "n": 5, "k": 2})
        code, out, _ = run(capsys, "check", "hierarchical_gen", path)
        assert code == 0
        assert json.loads(out)["computed_kappa"] == 4

    def test_hierarchical_gen_degree_condition_fails_on_cp42(self, tmp_path, capsys):
        # d_gamma(3) = 2 exceeds d_1 = 1, so the theorem does not apply even
        # though CP(4,2) is optimally connected
        path = write_spec(tmp_path, CP42_SPEC)
        code, out, _ = run(capsys, "check", "hierarchical_gen", path)
        assert code == 3
        report = json.loads(out)
        assert report["applicable"] is False and report["consistent"] is True

    def test_hierarchical_gen_no_ordering_exists(self, tmp_path, capsys):
        path = write_spec(tmp_path, S4_MIXED_SPEC)
        code, out, _ = run(capsys, "check", "hierarchical_gen", path)
        assert code == 3
        assert json.loads(out)["applicable"] is False

    def test_hierarchical_cayley_no_ordering_exists(self, tmp_path, capsys):
        # a failed hypothesis, exit 3, as for hierarchical_gen: not an input error
        path = write_spec(tmp_path, S4_MIXED_SPEC)
        code, out, err = run(capsys, "check", "hierarchical_cayley", path)
        assert code == 3
        assert json.loads(out)["applicable"] is False
        assert err == ("hierarchical_cayley: hypotheses not satisfied: a hierarchical "
                       "ordering exists [no generator ordering grows at every step]\n")

    def test_hierarchical_gen_search_skips_failed_subgroups(self, tmp_path, capsys):
        # Z_2^5 with its 31 nonzero elements has no ordering, as any two of
        # them hold their unused sum; a search over every strictly growing
        # ordering did not end within 60 s
        basis = ["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"]
        elements = [{"label": f"e{mask}",
                     "perm": "".join(c for i, c in enumerate(basis) if mask >> i & 1)}
                    for mask in range(1, 32)]
        path = write_spec(tmp_path, {"degree": 10, "group_generators": basis,
                                     "subgroup_generators": [],
                                     "connection_set": elements})
        code, out, err = run(capsys, "check", "hierarchical_gen", path)
        assert code == 3
        assert json.loads(out)["applicable"] is False
        assert err == ("hierarchical_gen: hypotheses not satisfied: a hierarchical "
                       "ordering exists [no generator ordering grows at every step]\n")

    @pytest.mark.parametrize("theorem, blocks", [
        ("decomposition", ((2, 3, 4), (5,))),
        ("corollary1", ((2,), (3,), (4,), (5,))),
        ("corollary1_1", ((2,), (3,), (4,), (5,))),
    ])
    def test_one_enumeration_per_check(self, tmp_path, capsys, monkeypatch, theorem,
                                       blocks):
        # the sub-instance on G_1 is read off the instance: G is enumerated once
        calls = []
        original = perms.enumerate_closure
        for module in (perms, coset):
            monkeypatch.setattr(module, "enumerate_closure",
                                lambda *args: calls.append(args) or original(*args))
        path = write_spec(tmp_path, {"family": "cp", "n": 6, "k": 2})
        partition = "|".join(",".join(map(gamma_label, b)) for b in blocks)
        code, _, err = run(capsys, "check", theorem, path, "--partition", partition)
        assert (code, err) == (0, f"{theorem}: applicable and consistent "
                                  f"(bound 5, computed 5)\n")
        assert len(calls) == 1

    def test_hierarchical_search_on_disconnected_instance(self, tmp_path, capsys):
        # <(1 2 3)> is a proper subgroup of S_4 and no ordering of the two
        # generators grows at every step: the search must not reach the flow
        doc = {"degree": 4, "group_generators": ["(1 2)", "(1 2 3 4)"],
               "connection_set": [{"perm": "(1 2 3)"}, {"perm": "(1 3 2)"}]}
        path = write_spec(tmp_path, doc)
        for theorem in ("hierarchical_gen", "hier1"):
            code, out, err = run(capsys, "check", theorem, path)
            assert (code, out, err) == (1, "", "error: instance is disconnected\n")

    def test_tower_with_partition(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"family": "cp", "n": 5, "k": 2})
        partition = f"{gamma_label(2)}|{gamma_label(3)}|{gamma_label(4)}"
        code, out, _ = run(capsys, "check", "corollary1_1", path,
                           "--partition", partition)
        assert code == 0
        assert json.loads(out)["computed_kappa"] == 4

    def test_hier1_variant(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"degree": 3,
                                     "group_generators": ["(1 2 3)"],
                                     "connection_set": [{"label": "r",
                                                         "perm": "(1 2 3)"}]})
        code, out, _ = run(capsys, "check", "hier1", path, "--order", "r")
        assert code == 0
        assert json.loads(out)["computed_kappa"] == 1

    def test_hierarchical_gen_c(self, tmp_path, capsys):
        path = write_spec(tmp_path, {
            "degree": 5,
            "group_generators": ["(1 2 3 4 5)", "(2 5)(3 4)"],
            "connection_set": [{"label": "r", "perm": "(1 2 3 4 5)"},
                               {"label": "f", "perm": "(2 5)(3 4)"},
                               {"label": "r^-1", "perm": "(1 5 4 3 2)"}],
        })
        code, out, _ = run(capsys, "check", "hierarchical_gen_c", path,
                           "--order", "r,f", "--sprime", "r^-1")
        assert code == 0
        assert json.loads(out)["computed_kappa"] == 3

    def test_hierarchical_gen_c_requires_args(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        code, _, _ = run(capsys, "check", "hierarchical_gen_c", path)
        assert code == 1

    @pytest.mark.parametrize("doc, argv, code, line", [
        (EMPTY_S_SPEC, ["hierarchical_gen"], 0,
         "hierarchical_gen: applicable and consistent (bound 0, computed 0)"),
        (EMPTY_S_SPEC, ["hier1"], 1,
         "error: hier1 needs a generator s_1: the connection set is empty"),
        (S3_CAYLEY_SPEC, ["hierarchical_gen_c", "--order", "", "--sprime", "a,b,t"], 1,
         "error: S is empty"),
    ], ids=("hierarchical_gen", "hier1", "hierarchical_gen_c"))
    def test_empty_connection_set_ends_in_one_line(self, tmp_path, capsys, doc, argv,
                                                   code, line):
        # an empty S (or S in hierarchical_gen_c) gives an answer or a
        # one-line error, never a traceback
        path = write_spec(tmp_path, doc)
        got, _, err = run(capsys, "check", argv[0], path, *argv[1:])
        assert (got, err) == (code, line + "\n")
        assert "Traceback" not in err

    def test_unknown_theorem_is_exit_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        code, _, err = run(capsys, "check", "nonsense", path)
        assert code == 1
        assert "unknown theorem" in err

    def test_unknown_theorem_is_rejected_before_the_spec(self, tmp_path, capsys,
                                                         monkeypatch):
        calls = []
        for module in (perms, coset):
            monkeypatch.setattr(module, "enumerate_closure",
                                lambda *args: calls.append(args))
        expected = ("error: unknown theorem 'nosuch'; choose from decomposition, "
                    "corollary1, corollary1_1, hierarchical_gen, hier1, "
                    "hierarchical_cayley, hierarchical_gen_c, edgec\n")
        path = write_spec(tmp_path, CP42_SPEC)
        for spec in (path, str(tmp_path / "missing.json")):
            assert run(capsys, "check", "nosuch", spec) == (1, "", expected)
        assert calls == []

    @pytest.mark.parametrize("argv, line", [
        (["decomposition"], "check decomposition requires --partition R1|R2"),
        (["corollary1"], "check corollary1 requires --partition S1|S2|..."),
        (["corollary1_1"], "check corollary1_1 requires --partition S1|S2|..."),
        (["hierarchical_gen_c", "--sprime", "a"], "check hierarchical_gen_c requires "
         "--order (S, in order) and --sprime (S')"),
        (["hierarchical_gen_c", "--order", "a"], "check hierarchical_gen_c requires "
         "--order (S, in order) and --sprime (S')"),
        (["corollary1", "--partition", "a||b"], "empty block in partition 'a||b'"),
        (["decomposition", "--partition", "a|,|b"], "empty block in partition 'a|,|b'"),
        (["decomposition", "--partition", "a|b|c"],
         "decomposition takes exactly two blocks R1|R2"),
        (["decomposition", "--partition", "a,b"],
         "decomposition takes exactly two blocks R1|R2"),
    ], ids=("decomposition", "corollary1", "corollary1_1", "gen_c_no_order",
            "gen_c_no_sprime", "empty_block", "empty_block_commas", "three_blocks",
            "one_block"))
    def test_usage_errors_are_rejected_before_the_spec(self, tmp_path, capsys,
                                                       monkeypatch, argv, line):
        # a missing or malformed option fails before G is enumerated; with a
        # missing spec as well, the error names the option
        calls = []
        count_enumerations(monkeypatch, calls, enumerate_too=False)
        path = write_spec(tmp_path, CP42_SPEC)
        for spec in (path, str(tmp_path / "missing.json")):
            got = run(capsys, "check", argv[0], spec, *argv[1:])
            assert got == (1, "", f"error: {line}\n")
        assert calls == []

    def test_missing_partition_is_exit_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        code, _, _ = run(capsys, "check", "decomposition", path)
        assert code == 1


class TestExport:
    def test_dot_output(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        code, out, _ = run(capsys, "export", path, "--format", "dot")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "digraph coset {" and lines[-1] == "}"
        node_lines = [l for l in lines if "label=" in l and "->" not in l]
        edge_lines = [l for l in lines if "->" in l]
        assert len(node_lines) == 12
        assert len(edge_lines) == 36

    def test_edges_output(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"degree": 4,
                                     "group_generators": ["(1 2 3 4)"],
                                     "connection_set": [{"label": "s",
                                                         "perm": "(1 2 3 4)"}]})
        code, out, _ = run(capsys, "export", path, "--format", "edges")
        assert code == 0
        assert out.splitlines() == ["0 1 s", "1 2 s", "2 3 s", "3 0 s"]

    # sha256 of the full output on CP(4,2): 12 vertices and 36 edges, in
    # label order then by (u, v) for dot, and by (u, v) for edges
    @pytest.mark.parametrize("fmt, lines, first_edge, digest", [
        ("dot", 50, '  v0 -> v1 [label="γ(2)"];',
         "f1fa494870c63dac6d60de912f69c53c99fef8467f3c5a903d05685cb2f0768f"),
        ("edges", 36, "0 1 γ(2)",
         "0d70f1a6f2b4544248cf9f6b2abb1dcbc9d139ede8ff162b7d8f8d7f17af2b9e"),
    ], ids=("dot", "edges"))
    def test_cp42_golden_bytes(self, tmp_path, capsys, fmt, lines, first_edge, digest):
        path = write_spec(tmp_path, CP42_SPEC)
        code, out, _ = run(capsys, "export", path, "--format", fmt)
        assert code == 0
        assert len(out.splitlines()) == lines
        assert first_edge in out.splitlines()
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_identical_bytes(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        _, out1, _ = run(capsys, "export", path, "--format", "dot")
        _, out2, _ = run(capsys, "export", path, "--format", "dot")
        assert out1 == out2

    def test_invalid_format_is_exit_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        code, _, _ = run(capsys, "export", path, "--format", "gml")
        assert code == 1

    def test_invalid_format_is_rejected_before_the_spec(self, tmp_path, capsys,
                                                        monkeypatch):
        calls = []
        for module in (perms, coset):
            monkeypatch.setattr(module, "enumerate_closure",
                                lambda *args: calls.append(args))
        path = write_spec(tmp_path, CP42_SPEC)
        assert run(capsys, "export", path, "--format", "bogus") == \
            (1, "", "error: unknown export format 'bogus'; choose dot or edges\n")
        assert calls == []


class TestCpCommand:
    def test_emit_spec_round_trip(self, tmp_path, capsys):
        code, out, _ = run(capsys, "cp", "--n", "4", "--k", "2", "--emit-spec")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 4
        assert len(doc["connection_set"]) == 2
        # the emitted explicit spec analyzes identically to the shorthand
        path = write_spec(tmp_path, doc)
        code, out_explicit, _ = run(capsys, "analyze", path)
        assert code == 0
        path2 = write_spec(tmp_path, CP42_SPEC, name="family.json")
        _, out_family, _ = run(capsys, "analyze", path2)
        assert out_explicit == out_family

    def test_analyze_mode(self, capsys):
        code, out, _ = run(capsys, "cp", "--n", "4", "--k", "3")
        assert code == 0
        report = json.loads(out)
        assert report["instance"]["vertex_count"] == 4
        assert report["kappa"]["oracle"] == 3

    @pytest.mark.parametrize("n, k, prefix", [(5, 2, 1), (5, 1, 0), (4, 3, 0), (6, 3, 1)])
    def test_cp_runs_the_cp_argument(self, capsys, monkeypatch, n, k, prefix):
        # the degree profile, the multiplier for F = H and F = G', and the
        # prefix structure when 1 < k < n-1, all on the one enumerated G
        calls, facts = [], Counter()
        count_enumerations(monkeypatch, calls)
        for name in ("cp_degree_profile", "verify_neighbor_multiplier",
                     "verify_prefix_structure"):
            def counted(*args, _name=name, _original=getattr(cp, name)):
                facts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(cp, name, counted)
        code, out, err = run(capsys, "cp", "--n", str(n), "--k", str(k))
        assert code == 0 and "(agree)" in err
        assert json.loads(out)["kappa"]["oracle"] == n - 1
        assert len(calls) == 1
        assert facts == Counter(cp_degree_profile=1, verify_neighbor_multiplier=2,
                                verify_prefix_structure=prefix)
        run(capsys, "cp", "--n", str(n), "--k", str(k), "--emit-spec")
        assert sum(facts.values()) == 3 + prefix

    @pytest.mark.parametrize("fact", ["degree_profile", "multiplier", "normalizer",
                                      "prefix_iso"])
    def test_a_failed_cp_fact_is_exit_two(self, capsys, monkeypatch, fact):
        if fact == "degree_profile":
            original = cp.cp_degree_profile
            monkeypatch.setattr(cp, "cp_degree_profile",
                                lambda p, cd: original(CPParams(p.n, p.k + 1), cd))
        elif fact == "multiplier":
            original = cp.verify_neighbor_multiplier
            monkeypatch.setattr(cp, "verify_neighbor_multiplier",
                                lambda p, f, cd: original(CPParams(p.n, p.k - 1), f, cd))
        elif fact == "normalizer":
            monkeypatch.setattr(cp, "normalizes", lambda g, h: False)
        else:
            monkeypatch.setattr(cp, "_labeled_bfs_isomorphic", lambda cd, pairs: False)
        code, out, err = run(capsys, "cp", "--n", "5", "--k", "2")
        assert (code, out) == (2, "")
        assert err.startswith("internal inconsistency: ") and err.count("\n") == 1

    def test_bad_params_exit_one(self, capsys):
        code, _, _ = run(capsys, "cp", "--n", "4", "--k", "9")
        assert code == 1


class TestParser:
    def test_usage_error_is_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze"])  # missing spec path
        assert exc.value.code == 1

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_after_usage_errors_print_the_same_bytes(self, tmp_path, capsys):
        path = write_spec(tmp_path, CP42_SPEC)
        commands = (["analyze", path], ["check", "edgec", path],
                    ["cp", "--n", "4", "--k", "2", "--emit-spec"])
        before = [run(capsys, *argv) for argv in commands]
        assert [code for code, _, _ in before] == [0, 0, 0]
        for bad in (["analyze"], ["analyze", path, "--bogus"], ["nosuch"],
                    ["cp", "--n", "x", "--k", "2"], ["check", "edgec"], []):
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 1
            assert capsys.readouterr().err.startswith("usage: cosetkit")
        assert [run(capsys, *argv) for argv in commands] == before
