"""Randomised properties of κ and λ on small Cayley coset digraphs.

Each example draws H = <h> and one to three connection permutations in S_4
or S_5.  On a connected draw, the flow κ, with and without the stabiliser
translations the CLI passes, must equal both Even's Edmonds-Karp oracle
and the subgroup scan, λ (both ways) must equal its oracle and the degree,
and each certificate must separate its pair.  On every draw, the built
instance and its transpose must equal the min-over-gH object path, and the
subgroup scan over vertex orbits must equal the closure scan on both sides,
and the sub-instance on each nonempty label subset, read off the instance,
must equal a fresh build of it in vertex and edge count, κ and λ.  On every
connected draw of these specs and of the thin-cut specs (κ < d by
construction), flow κ from the two passes over breadth-first prefixes must
equal the full pass over every orbit, with a certificate that separates its
pair, and κ must equal networkx's node connectivity of the exported edge
list, a third oracle that shares no code with cosetkit's flows.

Fuzzed spec documents on two to four points, some of them invalid, must
end every command in exit code 0, 1 or 3 and never raise out of
``cli.main``.  Two ``analyze`` runs of one drawn spec in one process must
print the same bytes.  Each command line in a drawn sequence, valid or a
usage error, must parse on the CLI's shared parser exactly as on a freshly
built one.

The one orbit routine both κ routes rest on, ``perms.orbit``, must equal
sympy's orbits on random index permutations, and the flow routines' sinks,
the orbit minima of the stabiliser translations, must equal the union-find
oracle's.

Separately, on random digraphs with 3 to 10 vertices (mostly neither
vertex-transitive nor strongly connected), the merged-source flow pass from
a fixed source must equal the per-sink flow sweep and Edmonds-Karp, and the
pass with a single sink must be Edmonds-Karp's max-flow stopped at its
bound, with a cut of that capacity below it.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import helpers  # noqa: E402
from cosetkit import (CosetDigraphSpec, Digraph, NotStronglyConnected,  # noqa: E402
                      Permutation, build, cli, edge_connectivity, enumerate_closure,
                      generation_connectivity, kappa_group_theoretic, oracle_kappa,
                      parse_cycles, print_cycles, stabiliser_translations,
                      sub_instance, subgroup_generated, transpose_spec,
                      verify_atom_theory, vertex_connectivity_transitive)
from cosetkit.digraph import _edge_network, _orbit_minima, _vertex_split_network  # noqa: E402
from cosetkit.perms import orbit  # noqa: E402
from cosetkit.theorems import THEOREM_IDS  # noqa: E402

GENERATORS = {n: (parse_cycles("(1 2)", n), Permutation(list(range(2, n + 1)) + [1]))
              for n in (4, 5)}
GROUPS = {n: enumerate_closure(n, gens) for n, gens in GENERATORS.items()}


@st.composite
def coset_specs(draw):
    n = draw(st.sampled_from(sorted(GROUPS)))
    group = GROUPS[n]
    # |H| >= 2 in S_5 keeps the all-pairs oracle to at most 60 vertices
    h = draw(st.sampled_from([p for p in group.elements if n == 4 or p.order() > 1]))
    h_group = subgroup_generated(group, None, [h])
    outside = st.sampled_from(group.elements).filter(lambda p: p not in h_group)
    connection = draw(st.lists(outside, min_size=1, max_size=3, unique=True))
    return CosetDigraphSpec(n, GENERATORS[n], (h,),
                            tuple((f"s{i}", p) for i, p in enumerate(connection)))


def _reaches(adj, s, t, removed_vertices=(), removed_edges=()):
    removed_edges = set(removed_edges)
    pruned = [[] if u in removed_vertices else
              [v for v in row if v not in removed_vertices and (u, v) not in removed_edges]
              for u, row in enumerate(adj)]
    return t in helpers.reachable(pruned, s)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(coset_specs())
def test_kappa_and_lambda_agree_with_oracles(spec):
    cd = build(spec)
    g = cd.graph
    connected, _, _ = generation_connectivity(cd)
    if not connected:
        with pytest.raises(NotStronglyConnected):
            vertex_connectivity_transitive(g, cd.base_vertex)
        with pytest.raises(NotStronglyConnected):
            edge_connectivity(g, cd.base_vertex)
        return

    symmetries = stabiliser_translations(cd)
    kappa, vcert = vertex_connectivity_transitive(g, cd.base_vertex)
    orbit_kappa, _ = vertex_connectivity_transitive(g, cd.base_vertex, symmetries)
    forward, _ = kappa_group_theoretic(cd)
    assert kappa == orbit_kappa == helpers.vertex_connectivity_oracle(g) \
        == forward.kappa_group
    if vcert is not None:
        s, t = vcert.separated_pair
        assert len(vcert.separator) == kappa
        assert not _reaches(g.adj, s, t, removed_vertices=set(vcert.separator))

    lam, ecert = edge_connectivity(g, cd.base_vertex)
    orbit_lam, _ = edge_connectivity(g, cd.base_vertex, symmetries)
    assert lam == orbit_lam == helpers.edge_connectivity_oracle(g) == cd.degree
    s, t = ecert.separated_pair
    assert len(ecert.separator) == lam
    assert not _reaches(g.adj, s, t, removed_edges=ecert.separator)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(coset_specs())
def test_build_matches_object_path_oracle(spec):
    cd = build(spec)
    helpers.assert_matches_object_path(cd)
    helpers.assert_matches_object_path(transpose_spec(cd))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(coset_specs())
def test_orbit_scan_equals_closure_scan(spec):
    helpers.assert_scan_matches_closure_scan(build(spec))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(coset_specs())
def test_sub_instance_equals_fresh_build(spec):
    cd = build(spec)
    for r in range(1, len(cd.labels) + 1):
        for labels in combinations(cd.labels, r):
            sub, moves = sub_instance(cd, labels)
            fresh = helpers.sub_instance_oracle(cd, labels)
            lam, _ = edge_connectivity(fresh.graph, fresh.base_vertex,
                                       stabiliser_translations(fresh))
            assert (sub.vertex_count, sub.edge_count,
                    vertex_connectivity_transitive(sub, 0, moves)[0],
                    edge_connectivity(sub, 0, moves)[0]) == \
                (fresh.graph.vertex_count, fresh.graph.edge_count, oracle_kappa(fresh),
                 lam), labels


@settings(max_examples=60, derandomize=True, deadline=None)
@given(coset_specs())
def test_orbit_minima_equal_union_find(spec):
    # H's generators, then every element of H: both fix the base vertex
    cd = build(spec)
    for symmetries in (stabiliser_translations(cd),
                       [cd.left_translation(h) for h in cd.subgroup.ids]):
        assert _orbit_minima(cd.graph, cd.base_vertex, symmetries) == \
            helpers.orbit_minima_oracle(cd.graph, cd.base_vertex, symmetries)


@st.composite
def thin_cut_specs(draw):
    """Cayley digraphs of Z_n x Z_m, as permutations of n + m points, whose
    connection set is all of {0} x Z_m (but the identity) and A x Z_m, for
    some A in Z_n - 0 that generates Z_n with 1 <= |A| <= n - 2.  The block
    {0} x Z_m has the |A| m out-neighbours A x Z_m, fewer than the degree
    m - 1 + |A| m, and misses a vertex, so kappa < d by construction.  At
    most 18 vertices and at most 12 connection elements, the scan's cap."""
    n, m = draw(st.sampled_from([(n, m) for n in range(3, 10) for m in range(2, 7)
                                 if n * m <= 18]))
    most = min(n - 2, (13 - m) // m)
    a = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=most)
             .filter(lambda a: gcd(n, *a) == 1))

    def element(x, y):
        return Permutation([(i + x) % n + 1 for i in range(n)]
                           + [n + (j + y) % m + 1 for j in range(m)])

    pairs = [(0, y) for y in range(1, m)] + [(x, y) for x in sorted(a) for y in range(m)]
    return CosetDigraphSpec(n + m, (element(1, 0), element(0, 1)), (),
                            tuple((f"{x},{y}", element(x, y)) for x, y in pairs))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(thin_cut_specs())
def test_thin_cut_instances_keep_the_atom_theory(spec):
    cd = build(spec)
    kappa = oracle_kappa(cd)
    forward, _ = kappa_group_theoretic(cd)
    assert kappa < cd.degree
    assert kappa == helpers.vertex_connectivity_oracle(cd.graph) == forward.kappa_group
    assert edge_connectivity(cd.graph, cd.base_vertex)[0] == cd.degree
    assert verify_atom_theory(cd).kappa == kappa


@pytest.mark.parametrize("specs", [coset_specs(), thin_cut_specs()],
                         ids=["coset", "thin_cut"])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_prefix_passes_equal_the_full_pass(specs, data):
    # kappa from the two passes over breadth-first prefixes, with and without
    # the stabiliser translations, equals the one pass over every orbit, and
    # its certificate separates a non-adjacent pair through the base
    cd = build(data.draw(specs))
    g, base = cd.graph, cd.base_vertex
    if not generation_connectivity(cd)[0]:
        return
    for symmetries in ((), stabiliser_translations(cd)):
        kappa, cert = vertex_connectivity_transitive(g, base, symmetries)
        assert kappa == helpers.full_pass_kappa_oracle(g, base, symmetries)
        if cert is not None:
            s, t = cert.separated_pair
            assert base in (s, t) and s != t and not g.has_edge(s, t)
            assert len(cert.separator) == kappa
            assert not _reaches(g.adj, s, t, removed_vertices=set(cert.separator))


@pytest.mark.parametrize("specs", [coset_specs(), thin_cut_specs()],
                         ids=["coset", "thin_cut"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_kappa_agrees_with_networkx(specs, data):
    # a third oracle: networkx's node connectivity of the exported edge list
    # (0 on a disconnected draw), which shares no code with cosetkit's flows
    nx = pytest.importorskip("networkx")
    spec = data.draw(specs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cli.spec_to_document(spec), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["export", path, "--format", "edges"]) == 0
    cd = build(spec)
    exported = nx.DiGraph()
    exported.add_nodes_from(range(cd.graph.vertex_count))
    exported.add_edges_from(tuple(map(int, line.split()[:2]))
                            for line in out.getvalue().splitlines())
    connected = generation_connectivity(cd)[0]
    assert nx.node_connectivity(exported) == (oracle_kappa(cd) if connected else 0)


@st.composite
def index_maps(draw):
    """One to three permutations of 0..n-1, n from 1 to 8, and a list of
    seeds, possibly repeated."""
    n = draw(st.integers(1, 8))
    maps = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return maps, draw(st.lists(st.integers(0, n - 1), max_size=4))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(index_maps())
def test_orbit_equals_sympy_orbits(drawn):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    maps, seeds = drawn
    group = combinatorics.PermutationGroup([combinatorics.Permutation(m) for m in maps])
    found = orbit(maps, seeds)
    assert len(found) == len(set(found))
    assert found[:len(set(seeds))] == list(dict.fromkeys(seeds))
    assert set(found) == set().union(*(group.orbit(v) for v in seeds))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(coset_specs())
def test_analyze_prints_the_same_bytes_twice(spec):
    doc = {"degree": spec.degree,
           "group_generators": [print_cycles(p) for p in spec.group_generators],
           "subgroup_generators": [print_cycles(p) for p in spec.subgroup_generators],
           "connection_set": [{"label": lbl, "perm": print_cycles(p)}
                              for lbl, p in spec.connection_set]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["analyze", path])
            runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1]


@st.composite
def spec_runs(draw):
    """A spec document on 2 to 4 points, with 0 to 2 group generators, an
    optional H generator and 0 to 3 labelled connection permutations, plus
    a theorem and the check options cut from a shuffle of the labels."""
    n = draw(st.integers(2, 4))
    perms = st.permutations(range(1, n + 1)).map(lambda img: print_cycles(Permutation(img)))
    labels = draw(st.lists(st.sampled_from("abc"), max_size=3))
    doc = {"degree": n, "group_generators": draw(st.lists(perms, max_size=2)),
           "subgroup_generators": draw(st.lists(perms, max_size=1)),
           "connection_set": [{"label": lbl, "perm": draw(perms)} for lbl in labels]}
    shuffled = draw(st.permutations(labels))
    cuts = sorted(draw(st.lists(st.integers(0, len(shuffled)), max_size=3)))
    bounds = [0, *cuts, len(shuffled)]
    split = cuts[0] if cuts else len(shuffled)
    options = {"--partition": "|".join(",".join(shuffled[a:b])
                                       for a, b in zip(bounds, bounds[1:])),
               "--order": ",".join(shuffled[:split]),
               "--sprime": ",".join(shuffled[split:])}
    argv = [arg for flag, value in options.items() if draw(st.booleans())
            for arg in (flag, value)]
    return doc, draw(st.sampled_from(THEOREM_IDS)), argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spec_runs())
def test_fuzzed_specs_end_in_an_exit_code(run):
    doc, theorem, options = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["analyze", path], ["export", path, "--format", "edges"],
                     ["check", theorem, path, *options]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 3), argv


USAGE_ERRORS = ([], ["nosuch"], ["analyze"], ["analyze", "spec.json", "--bogus"],
                ["check", "edgec"], ["export", "spec.json", "--format"],
                ["cp", "--n", "4"], ["cp", "--n", "x", "--k", "2"], ["--timings"],
                ["cp", "-h"])


@st.composite
def cli_argvs(draw):
    """One command line: analyze, check, export or cp with a drawn subset
    of its options in a drawn order, or a usage error."""
    command = draw(st.sampled_from(["analyze", "check", "export", "cp", "usage"]))
    if command == "usage":
        return draw(st.sampled_from(USAGE_ERRORS))
    word = st.sampled_from(["spec.json", "a|b,c", "b,a", "s0", "7"])
    positional, options = {
        "analyze": ([word], {"--timings": None}),
        "check": ([st.sampled_from(THEOREM_IDS), word],
                  {"--partition": word, "--order": word, "--sprime": word}),
        "export": ([word], {"--format": st.sampled_from(["dot", "edges", "gml"])}),
        "cp": ([], {"--n": st.integers(2, 9).map(str), "--k": st.integers(1, 9).map(str),
                    "--emit-spec": None, "--timings": None}),
    }[command]
    chosen = [flag for flag in options
              if flag in ("--n", "--k") or draw(st.booleans())]
    argv = [command, *(draw(value) for value in positional)]
    for flag in draw(st.permutations(chosen)):
        argv += [flag] if options[flag] is None else [flag, draw(options[flag])]
    return argv


def _parsed(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(cli_argvs(), min_size=1, max_size=6))
def test_shared_parser_parses_like_a_fresh_one(argvs):
    shared = cli.build_parser()
    for argv in argvs:
        assert _parsed(shared, argv) == _parsed(cli.build_parser.__wrapped__(), argv), argv
    assert cli.build_parser() is shared


@st.composite
def digraphs(draw):
    n = draw(st.integers(3, 10))
    return Digraph([sorted(draw(st.sets(st.sampled_from([v for v in range(n) if v != u]))))
                    for u in range(n)])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(digraphs(), st.data())
def test_merged_pass_equals_per_sink_sweep(g, data):
    n = g.vertex_count
    base = data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        order = [base]                  # breadth-first, then the unreachable
        for u in order:
            order += [v for v in g.adj[u] if v not in order]
        order += [v for v in range(n) if v not in order]
    else:
        order = data.draw(st.permutations(range(n)))
    far = [t for t in order if t != base and not g.has_edge(base, t)]
    arcs = [(u, v, 1) for u, v in g.edges()]
    for net, source, sinks, local in (
            (_vertex_split_network(g), 2 * base + 1, [2 * t for t in far],
             [helpers.local_vertex_connectivity_oracle(g, base, t) for t in far]),
            (_edge_network(g), base, [t for t in order if t != base],
             [helpers.edmonds_karp(n, arcs, base, t) for t in order if t != base])):
        if not sinks:
            continue
        expected, _, _ = helpers.least_cut_per_sink_oracle(net, source, sinks, n)
        assert expected == min(local)
        net.reset()
        assert net.merged_pass(source, sinks, n) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(digraphs(), st.data())
def test_single_sink_pass_is_a_bounded_max_flow(g, data):
    # with one sink on a fresh network, the merged pass is a max-flow
    # stopped at ``limit``; below it, the source's residual-reachable set
    # is the source side of a cut of that capacity
    n = g.vertex_count
    a, b = data.draw(st.permutations(range(n)))[:2]
    limit = data.draw(st.integers(1, 2 * n))
    split_arcs = [(2 * v, 2 * v + 1, 1) for v in range(n)]
    split_arcs += [(2 * u + 1, 2 * v, n) for u, v in g.edges()]
    for net, nodes, arcs, s, t in (
            (_vertex_split_network(g), 2 * n, split_arcs, 2 * a + 1, 2 * b),
            (_edge_network(g), n, [(u, v, 1) for u, v in g.edges()], a, b)):
        value = net.merged_pass(s, (t,), limit)
        assert value == min(limit, helpers.edmonds_karp(nodes, arcs, s, t))
        if value < limit:
            reach = net.residual_reachable(s)
            assert t not in reach
            assert sum(c for u, v, c in arcs if u in reach and v not in reach) == value
