"""Digraph engine: connectivity oracles, cuts, brute-force atoms."""

import random
import re
from itertools import combinations

import pytest

import helpers
from corpus import CORPUS_NAMES, SMALL_NAMES, cp_instance, instance, s4_late_sink_spec
from cosetkit import digraph
from cosetkit import (CapExceeded, CosetDigraphSpec, CrossCheckError,
                      Digraph, NotStronglyConnected, atoms_bruteforce, build, compose,
                      e_atoms_bruteforce, edge_connectivity,
                      is_strongly_connected, neighbor_set, parse_cycles,
                      stabiliser_translations, strongly_connected_components,
                      transpose, vertex_connectivity_transitive)
from cosetkit.digraph import _UnitFlow, _vertex_split_network
from helpers import out_edge_count


def directed_cycle(n):
    return Digraph([[(v + 1) % n] for v in range(n)])


def complete_digraph(n):
    return Digraph([[u for u in range(n) if u != v] for v in range(n)])


def random_strongly_connected(rng, n, extra_edges):
    adj = [{(v + 1) % n} for v in range(n)]
    for _ in range(extra_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
    return Digraph([sorted(row) for row in adj])


def random_circulant(rng, n, extra_jumps):
    """Cay(Z_n, {1} plus random jumps): vertex-transitive and strongly
    connected, so the one-base-vertex routines apply."""
    jumps = {1} | {rng.randrange(2, n) for _ in range(extra_jumps)}
    return Digraph([sorted((v + j) % n for j in jumps) for v in range(n)])


class TestBasics:
    def test_validation(self):
        # the first bad entry of the first bad row is named, a duplicate
        # before any entry
        for rows, message in (([[0]], "self-loop at vertex 0"),
                              ([[1, 1], [0]], "duplicate out-neighbors at vertex 0"),
                              ([[2], [0]], "neighbor 2 out of range at vertex 0"),
                              ([[1], [-1]], "neighbor -1 out of range at vertex 1"),
                              ([[1], [2], [0, 2, 3]], "self-loop at vertex 2"),
                              ([[1], [2], [0, 3, 2]], "neighbor 3 out of range at vertex 2"),
                              ([[1], [2, 2, 9], [0]], "duplicate out-neighbors at vertex 1")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Digraph(rows)

    def test_transpose_involution(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_strongly_connected(rng, 8, 10)
            assert transpose(transpose(g)) == g

    def test_transpose_built_once_with_shared_components(self):
        g = directed_cycle(3)
        gt = transpose(g)
        assert transpose(g) is gt and transpose(gt) is g
        assert gt._scc is None and g.strong_components() is gt.strong_components()
        h = directed_cycle(4)
        assert transpose(h).strong_components() is h.strong_components()

    def test_transpose_cycle(self):
        g = directed_cycle(3)
        assert set(transpose(g).edges()) == {(1, 0), (2, 1), (0, 2)}

    def test_transpose_complete(self):
        g = complete_digraph(4)
        assert transpose(g) == g


class TestStrongConnectivity:
    def test_cycle(self):
        assert is_strongly_connected(directed_cycle(5))

    def test_path(self):
        g = Digraph([[1], [2], []])
        assert not is_strongly_connected(g)

    def test_two_cycles(self):
        g = Digraph([[1], [0], [3], [2]])
        assert not is_strongly_connected(g)
        assert strongly_connected_components(g) == [[0, 1], [2, 3]]

    def test_single_vertex(self):
        assert is_strongly_connected(Digraph([[]]))

    def test_first_pass_reads_each_arc_once(self):
        # each stack frame resumes its row, so Kosaraju's first pass reads
        # every arc once; the second reads the transpose, built beforehand
        reads = []

        class Row(tuple):
            def __iter__(self):
                for v in tuple.__iter__(self):
                    reads.append(v)
                    yield v

        rng = random.Random(9)
        for g in (Digraph([[1, 2, 3], [0], [0], [0]]), random_strongly_connected(rng, 12, 30)):
            transpose(g)
            rows, g.adj = g.adj, tuple(map(Row, g.adj))
            reads.clear()
            assert strongly_connected_components(g) == [list(range(g.vertex_count))]
            assert sorted(reads) == sorted(v for row in rows for v in row)

    def test_against_reachability_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(2, 9)
            adj = [[v for v in range(n) if v != u and rng.random() < 0.3]
                   for u in range(n)]
            g = Digraph(adj)
            assert is_strongly_connected(g) == \
                helpers.is_strongly_connected_oracle(g.adj)


class TestVertexConnectivityOracle:
    def test_even_matches_all_pairs_on_random_digraphs(self):
        # random, mostly non-transitive digraphs, some not strongly connected
        rng = random.Random(1975)
        values = set()
        for _ in range(50):
            n = rng.randrange(3, 10)
            density = rng.random()
            g = Digraph([[v for v in range(n) if v != u and rng.random() < density]
                         for u in range(n)])
            even = helpers.vertex_connectivity_oracle(g)
            assert even == helpers._vertex_connectivity_all_pairs(g)
            values.add(even)
        assert len(values) >= 3


class TestNeighborSet:
    def test_cycle_singleton(self):
        g = directed_cycle(6)
        nbrs, part = neighbor_set(g, {2})
        assert nbrs == frozenset({3}) and part

    def test_whole_vertex_set(self):
        g = directed_cycle(6)
        nbrs, part = neighbor_set(g, range(6))
        assert nbrs == frozenset() and not part


class TestVertexConnectivity:
    def test_cycle(self):
        kappa, cert = vertex_connectivity_transitive(directed_cycle(6), 0)
        assert kappa == 1
        assert cert.separator == (1,) and cert.separated_pair == (0, 2)

    def test_complete(self):
        for n in (1, 2, 4):
            kappa, cert = vertex_connectivity_transitive(complete_digraph(n), 0)
            assert kappa == n - 1 and cert is None

    def test_not_strongly_connected(self):
        with pytest.raises(NotStronglyConnected):
            vertex_connectivity_transitive(Digraph([[1], [2], []]), 0)

    def test_separator_disconnects_and_is_minimal(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_circulant(rng, 9, 3)
            kappa, cert = vertex_connectivity_transitive(g, 0)
            if cert is None:
                continue
            s, t = cert.separated_pair
            assert s == 0 and len(cert.separator) == kappa
            assert not _connects(g, s, t, removed=set(cert.separator))
            for smaller in combinations(cert.separator, kappa - 1):
                assert _connects(g, s, t, removed=set(smaller))

    def test_against_edmonds_karp_oracle(self):
        rng = random.Random(29)
        for _ in range(12):
            g = random_circulant(rng, 8, 3)
            kappa, _ = vertex_connectivity_transitive(g, rng.randrange(8))
            assert kappa == helpers.vertex_connectivity_oracle(g)

    def test_transitive_variant_on_cycles(self):
        for base in range(5):
            kappa, cert = vertex_connectivity_transitive(directed_cycle(5), base)
            assert kappa == 1 and cert.separated_pair[0] == base

    def test_transitive_equals_full_on_corpus(self):
        for name in SMALL_NAMES:
            cd = instance(name)
            kappa, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex)
            assert kappa == helpers.vertex_connectivity_oracle(cd.graph), name

    def test_kappa_invariant_under_transpose(self):
        for name in SMALL_NAMES:
            cd = instance(name)
            kappa, _ = vertex_connectivity_transitive(cd.graph, cd.base_vertex)
            assert vertex_connectivity_transitive(transpose(cd.graph),
                                                  cd.base_vertex)[0] == kappa, name

    def test_merged_pass_merges_only_the_in_node(self):
        # breadth-first from 0: 0, 3, 4, 2, 1, so the non-neighbors come as
        # 2, then 1.  The only in-neighbor of 1 is 2, so kappa(0, 1) = 1.
        g = Digraph([[3, 4], [0, 3], [1], [2], [2, 3]])
        assert helpers.local_vertex_connectivity_oracle(g, 0, 2) == 2
        assert _vertex_split_network(g).merged_pass(1, [4, 2], 5) == 1
        kappa, cert = vertex_connectivity_transitive(g, 0)
        assert (kappa, cert.separator, cert.separated_pair) == (1, (2,), (0, 1))
        # merging all of vertex 2 puts its out-node 5 in the source set, as
        # an unbounded arc from the source does; sink 1 then yields 2
        split = _vertex_split_network(g)
        split.head[1].append(len(split.to))
        split.head[5].append(len(split.to) + 1)
        whole = _UnitFlow(split.head, split.to + [5, 1], split.cap + [5, 0])
        assert whole.merged_pass(1, [4, 2], 5) == 2

    def test_prefix_reaches_past_an_atom_outside_the_neighborhood(self):
        # Cayley digraph of Z_4 x Z_3, (i, j) = 3i + j, S = {(0, 1)} and
        # {1} x Z_3: the atom {0} x Z_3 holds (0, 2), a non-neighbor of the
        # base that comes first in breadth-first order and has local
        # connectivity d = 4, so kappa = 3 needs a later prefix sink
        s = [(0, 1), (1, 0), (1, 1), (1, 2)]
        g = Digraph([sorted(3 * ((i + a) % 4) + (j + b) % 3 for a, b in s)
                     for i in range(4) for j in range(3)])
        assert helpers.local_vertex_connectivity_oracle(g, 0, 2) == 4
        kappa, cert = vertex_connectivity_transitive(g, 0)
        assert kappa == helpers.vertex_connectivity_oracle(g) == 3
        assert cert.separated_pair == (0, 6) and cert.separator == (3, 4, 5)

    @pytest.mark.parametrize("subgroup, connection", [
        ("(1 4)", ("(1 3)", "(1 4 3 2)")),
        ("(3 4)", ("(1 2 4)", "(1 3)")),
    ])
    def test_prefix_may_lie_inside_a_forward_atom_and_its_neighbors(self, subgroup,
                                                                    connection):
        # G = S_4: the four forward atoms have 6 > kappa = 3 vertices and
        # overlap, and the first 2d + 1 = 9 breadth-first places lie inside
        # one of them holding the base and its 3 out-neighbors, so no
        # forward atom bound reaches past it; the transpose atoms have 3
        # vertices, and the one pass from the base is still exact
        spec = CosetDigraphSpec(4, (parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)),
                                (parse_cycles(subgroup, 4),),
                                tuple((p, parse_cycles(p, 4)) for p in connection))
        cd = build(spec)
        g, base = cd.graph, cd.base_vertex
        d = len(g.adj[base])
        assert (g.vertex_count, d, helpers.vertex_connectivity_oracle(g)) == (12, 4, 3)
        forward = helpers.atoms_oracle(g, 3)
        assert len(forward) == 4 and {len(a) for a in forward} == {6}
        assert any(a & b for a, b in combinations(forward, 2))
        assert {len(a) for a in helpers.atoms_oracle(transpose(g), 3)} == {3}
        order = [base]
        for u in order:
            order += [v for v in g.adj[u] if v not in order]
        assert any(set(order[:2 * d + 1]) <= a | neighbor_set(g, a)[0]
                   for a in forward if base in a)
        for symmetries in ((), stabiliser_translations(cd)):
            assert vertex_connectivity_transitive(g, base, symmetries)[0] == 3
        try:
            import networkx as nx
        except ImportError:
            return
        assert nx.node_connectivity(nx.DiGraph(list(g.edges()))) == 3


def _small_side_atoms(cd):
    """Atoms of size <= (n - kappa)/2 on whichever side has them first,
    scanning both sides size by size; None for complete or oversized graphs."""
    g = cd.graph
    if g.is_complete() or g.vertex_count > 30:
        return None
    kappa, _ = vertex_connectivity_transitive(g, cd.base_vertex)
    limit = (g.vertex_count - kappa) // 2
    sides = (g, transpose(g))
    for k in range(1, limit + 1):
        for side in sides:
            found = atoms_bruteforce(side, kappa, k)
            if found:
                return found
    return None


def _connects(g, s, t, removed):
    stack = [s]
    seen = {s} | removed
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


class TestEdgeConnectivity:
    def test_cycle(self):
        lam, cert = edge_connectivity(directed_cycle(4), 0)
        assert lam == 1 and len(cert.separator) == 1

    def test_complete(self):
        lam, _ = edge_connectivity(complete_digraph(5), 0)
        assert lam == 4

    def test_cut_disconnects(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_circulant(rng, 8, 3)
            lam, cert = edge_connectivity(g, 0)
            s, t = cert.separated_pair
            removed = set(cert.separator)
            adj = [[v for v in g.adj[u] if (u, v) not in removed]
                   for u in range(g.vertex_count)]
            assert t not in helpers.reachable(adj, s)

    def test_against_edmonds_karp_oracle(self):
        rng = random.Random(37)
        for _ in range(12):
            g = random_circulant(rng, 8, 3)
            lam, _ = edge_connectivity(g, rng.randrange(8))
            assert lam == helpers.edge_connectivity_oracle(g)

    def test_whitney_chain_on_random(self):
        rng = random.Random(41)
        for _ in range(12):
            g = random_circulant(rng, 9, 3)
            kappa, _ = vertex_connectivity_transitive(g, 0)
            lam, _ = edge_connectivity(g, 0)
            assert kappa <= lam <= min(len(row) for row in g.adj)

    def test_one_flow_per_sink_plus_certificate(self, monkeypatch):
        # from one base vertex: one merged pass over the n - 1 other vertices,
        # where a fresh flow per sink took n; with lambda = d every sink is
        # minimising, so the pass's first step certifies the first sink and
        # no flow is re-run
        passes = _record_merged_passes(monkeypatch)
        for name in ("s4_mixed", "cp_4_2", "q8"):
            cd = instance(name)
            n, base = cd.graph.vertex_count, cd.base_vertex
            assert not cd.graph.is_complete()
            passes.clear()
            lam, cert = edge_connectivity(cd.graph, base)
            assert lam == cd.degree, name
            assert [(s, len(t)) for s, t in passes] == [(base, n - 1)], name
            assert cert.separated_pair == (base, passes[0][1][0]), name

    def test_certificate_reruns_from_the_second_sink(self, monkeypatch):
        # the first kappa sink is not minimising: the certificate's fresh
        # flows start at the second sink and end at the per-sink oracle's
        # sink, with its separator
        cd = build(s4_late_sink_spec())
        g, base, n = cd.graph, cd.base_vertex, cd.graph.vertex_count
        passes = _record_merged_passes(monkeypatch)
        kappa, cert = vertex_connectivity_transitive(g, base, stabiliser_translations(cd))
        (source, sinks), reruns = passes[0], passes[1:]
        assert kappa == 3 and reruns and reruns == [(source, [t]) for t in sinks[1:len(passes)]]
        value, sink, reach = helpers.least_cut_per_sink_oracle(
            _vertex_split_network(g), source, sinks, n - 1)
        separator = tuple(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach)
        assert sink == reruns[-1][1][0] != sinks[0]
        assert (value, cert.separated_pair, cert.separator) == (kappa, (base, sink // 2), separator)


def _h_orbit_minima(cd):
    """Least vertex of each H-orbit {h g H}, from the group elements."""
    return sorted({min(_h_orbit(cd, v)) for v in range(len(cd.vertices))})


def _h_orbit(cd, v):
    """The H-orbit of vertex v, from the group elements."""
    return {cd.vertex_of(compose(h, cd.vertices[v])) for h in cd.subgroup.members}


def _prefix_orbit_sinks(cd, g):
    """The first vertex of each H-orbit among the non-neighbors of the base
    in the first 2d + 1 positions of breadth-first order from it on g."""
    base, d = cd.base_vertex, len(g.adj[cd.base_vertex])
    order = [base]
    for u in order:
        order += [v for v in g.adj[u] if v not in order]
    sinks, covered = [], set(g.adj[base]) | {base}
    for t in order[:2 * d + 1]:
        if t not in covered:
            sinks.append(t)
            covered |= _h_orbit(cd, t)
    return sinks


def _record_merged_passes(monkeypatch):
    """The source and the sinks of each merged pass, in call order."""
    passes = []
    original = _UnitFlow.merged_pass

    def recorded(self, source, sinks, bound):
        passes.append((source, list(sinks)))
        return original(self, source, sinks, bound)

    monkeypatch.setattr(_UnitFlow, "merged_pass", recorded)
    return passes


class TestStabiliserOrbits:
    def test_orbit_sweep_equals_full_sweep_on_corpus(self):
        # same value, separated pair and separator as with every sink
        nontrivial = 0
        for name in CORPUS_NAMES:
            cd = instance(name)
            g, base = cd.graph, cd.base_vertex
            symmetries = stabiliser_translations(cd)
            nontrivial += bool(symmetries)
            assert vertex_connectivity_transitive(g, base, symmetries) == \
                vertex_connectivity_transitive(g, base), name
            assert edge_connectivity(g, base, symmetries) == \
                edge_connectivity(g, base), name
        assert nontrivial >= 5

    def test_one_flow_per_orbit_plus_certificate(self, monkeypatch):
        # kappa: one merged pass from the base into the in-nodes of the first
        # vertex of each H-orbit among the non-neighbors in the first 2d + 1
        # breadth-first positions, then single-sink certificate flows from the
        # base to the sinks after the first, up to the certificate's sink
        # (none if the pass's first step is minimising); lambda: one pass over
        # every orbit, whose first sink is minimising.  Past Kosaraju's,
        # neither walks a transpose.
        names = ("cp_4_2", "cp_5_2", "random_0")
        for name in names:
            instance(name).graph.strong_components()
        monkeypatch.setattr(digraph, "transpose",
                            lambda h: pytest.fail("a transpose was built"))
        passes = _record_merged_passes(monkeypatch)
        for name in names:
            cd = instance(name)
            g, base = cd.graph, cd.base_vertex
            d = len(g.adj[base])
            assert len(cd.subgroup) >= 2 and not g.is_complete(), name
            minima = _h_orbit_minima(cd)
            symmetries = stabiliser_translations(cd)

            passes.clear()
            kappa, cert = vertex_connectivity_transitive(g, base, symmetries)
            sinks = _prefix_orbit_sinks(cd, g)
            assert 1 <= len(sinks) <= d, name
            assert len({min(_h_orbit(cd, t)) for t in sinks}) == len(sinks), name
            assert passes[0] == (2 * base + 1, [2 * t for t in sinks]), name
            assert cert.separated_pair[0] == base, name
            flows = [(2 * base + 1, [2 * t]) for t in sinks]
            certificate = passes[1:]
            assert certificate == flows[1:len(certificate) + 1], name
            assert cert.separated_pair[1] == sinks[len(certificate)], name
            far = [t for t in minima if t != base and t not in g.adj[base]]
            assert len(sinks) < len(far), name

            passes.clear()
            _, cert = edge_connectivity(g, base, symmetries)
            # every orbit but {base}
            assert [(s, len(t)) for s, t in passes] == [(base, len(minima) - 1)], name
            assert cert.separated_pair == (base, passes[0][1][0]), name

    def test_kappa_walks_one_prefix_of_orbits(self, monkeypatch):
        # the sink walk stops at 2d + 1 places, with one orbit per sink,
        # where one orbit per vertex over all n took about n / |H| orbits
        calls = []
        original = digraph.orbit
        monkeypatch.setattr(digraph, "orbit",
                            lambda *args: calls.append(args) or original(*args))
        cd = cp_instance(7, 2)
        assert vertex_connectivity_transitive(cd.graph, cd.base_vertex,
                                              stabiliser_translations(cd))[0] == cd.degree
        assert 1 <= len(calls) <= 2 * cd.degree + 1

    def test_symmetry_moving_base_raises(self):
        rotation = [1, 2, 3, 4, 5, 0]      # an automorphism that moves 0
        for routine in (vertex_connectivity_transitive, edge_connectivity):
            with pytest.raises(CrossCheckError, match="moves the base"):
                routine(directed_cycle(6), 0, [rotation])

    def test_non_automorphism_raises(self):
        swap = [0, 2, 1, 3, 4, 5]          # a bijection fixing 0
        for routine in (vertex_connectivity_transitive, edge_connectivity):
            with pytest.raises(CrossCheckError, match="not an automorphism"):
                routine(directed_cycle(6), 0, [swap])

    def test_non_bijection_raises(self):
        for routine in (vertex_connectivity_transitive, edge_connectivity):
            with pytest.raises(CrossCheckError, match="not a permutation"):
                routine(directed_cycle(6), 0, [[0, 1, 1, 3, 4, 5]])

    def test_sinks_are_shared_and_new_symmetries_checked(self, monkeypatch):
        # every call runs one symmetry check, on the same symmetries and the
        # same digraph as well as on new ones; a failed check raises
        calls = []
        original = digraph._check_automorphisms
        monkeypatch.setattr(digraph, "_check_automorphisms",
                            lambda *args: calls.append(args) or original(*args))
        g = Digraph([[(v - 1) % 6, (v + 1) % 6] for v in range(6)])
        reflection = (0, 5, 4, 3, 2, 1)
        assert vertex_connectivity_transitive(g, 0, [reflection])[0] == 2
        assert len(calls) == 1
        assert edge_connectivity(g, 0, [list(reflection)])[0] == 2
        assert len(calls) == 2
        assert edge_connectivity(g, 0, [list(reflection)])[0] == 2
        assert len(calls) == 3
        assert edge_connectivity(g, 0, ())[0] == 2
        assert len(calls) == 4
        swap = [0, 2, 1, 3, 4, 5]          # a bijection fixing 0
        for routine in (vertex_connectivity_transitive, edge_connectivity):
            with pytest.raises(CrossCheckError, match="not an automorphism"):
                routine(g, 0, [swap])
        assert len(calls) == 6


class TestAtoms:
    def test_cycle_atoms_are_singletons(self):
        g = directed_cycle(6)
        atoms = helpers.atoms_oracle(g, 1)
        expected = helpers.atoms_fullscan_oracle(g, 1)
        assert set(atoms) == expected
        assert all(len(a) == 1 for a in atoms)
        assert len(atoms) == 6

    def test_matches_fullscan_on_random(self):
        rng = random.Random(43)
        checked = 0
        while checked < 8:
            g = random_strongly_connected(rng, 7, 8)
            if g.is_complete():
                continue
            kappa = helpers.vertex_connectivity_oracle(g)
            atoms = helpers.atoms_oracle(g, kappa)
            assert set(atoms) == helpers.atoms_fullscan_oracle(g, kappa)
            checked += 1

    def test_subset_budget_is_reported_as_a_cap(self, monkeypatch):
        # every vertex of the 6-cycle is an atom and an e-atom: the size-1
        # scan examines 6 subsets, so a budget of 6 suffices and 5 does not
        g = directed_cycle(6)
        scans = (lambda: atoms_bruteforce(g, 1, 1), lambda: e_atoms_bruteforce(g, 1))
        for scan in scans:
            monkeypatch.setattr(digraph, "SUBSET_BUDGET", 6)
            assert len(scan()) == 6
            monkeypatch.setattr(digraph, "SUBSET_BUDGET", 5)
            with pytest.raises(CapExceeded, match=r"exceeded budget 5 at size 1$"):
                scan()

    def test_budget_refusal_examines_no_subset(self, monkeypatch):
        # C(25, 3) = 2300 subsets of size 3 pass a budget of 2299, so the
        # scan is refused before it forms a single one
        monkeypatch.setattr(digraph, "SUBSET_BUDGET", 2299)
        formed = []

        def counted(items, k):
            for combo in combinations(items, k):
                formed.append(combo)
                yield combo

        monkeypatch.setattr(digraph, "combinations", counted)
        with pytest.raises(CapExceeded, match=r"exceeded budget 2299 at size 3$"):
            atoms_bruteforce(directed_cycle(25), 1, 3)
        assert formed == []

    def test_size_scans_one_size(self):
        # the 6-cycle's atoms are singletons, but size 3 scans only its
        # subsets of three: the six arcs, each with one out-neighbor; a
        # part of size 5 would leave no vertex outside it and N(A)
        g = directed_cycle(6)
        arcs = {frozenset((v + i) % 6 for i in range(3)) for v in range(6)}
        assert set(atoms_bruteforce(g, kappa=1, size=3)) == arcs
        assert atoms_bruteforce(g, kappa=1, size=5) == ()

    def test_atoms_disjoint_when_small(self):
        # atoms of size at most (n - kappa)/2 are pairwise disjoint
        for name in SMALL_NAMES:
            atoms = _small_side_atoms(instance(name))
            if atoms is None:
                continue
            seen = set()
            for a in atoms:
                assert not (seen & a), name
                seen |= a

    def test_one_side_has_small_atoms(self):
        # either the digraph or its transpose has an atom of size <= (n-k)/2
        for name in SMALL_NAMES:
            cd = instance(name)
            if cd.graph.is_complete() or cd.graph.vertex_count > 30:
                continue
            assert _small_side_atoms(cd) is not None, name


class TestSimplecLemma:
    def test_inequality_on_sampled_parts(self):
        # for an atom A and part B meeting and not containing A:
        # |N(A) \ (B u N(B))| < |N(B) n A|
        rng = random.Random(47)
        for name in ("q8", "d4", "z6", "cp_4_2"):
            cd = instance(name)
            g = cd.graph
            n = g.vertex_count
            kappa, _ = vertex_connectivity_transitive(g, cd.base_vertex)
            atoms = helpers.atoms_oracle(g, kappa)
            for _ in range(300):
                size = rng.randrange(1, n)
                b = frozenset(rng.sample(range(n), size))
                nb, is_part = neighbor_set(g, b)
                if not is_part:
                    continue
                for a in atoms:
                    if a & b and a - b:
                        na, _ = neighbor_set(g, a)
                        assert len(na - (b | nb)) < len(nb & a), name


class TestEAtoms:
    def test_cycle(self):
        g = directed_cycle(5)
        eatoms = e_atoms_bruteforce(g, lam=1)
        assert set(eatoms) == helpers.e_atoms_fullscan_oracle(g, 1)

    def test_complete_digraph_singletons(self):
        g = complete_digraph(4)
        eatoms = e_atoms_bruteforce(g, lam=3)
        assert all(len(a) == 1 for a in eatoms)
        assert len(eatoms) == 4

    def test_one_vertex_has_no_e_atoms(self):
        # no proper nonempty subset, matching edge_connectivity's (0, None)
        g = Digraph([[]])
        assert edge_connectivity(g, 0) == (0, None)
        assert e_atoms_bruteforce(g, lam=0) == ()

    def test_matches_fullscan_on_random(self):
        rng = random.Random(53)
        for _ in range(8):
            g = random_strongly_connected(rng, 7, 9)
            lam = helpers.edge_connectivity_oracle(g)
            eatoms = e_atoms_bruteforce(g, lam=lam)
            assert set(eatoms) == helpers.e_atoms_fullscan_oracle(g, lam)

    def test_eatom_lemma_on_corpus(self):
        # B with exactly lambda outgoing edges: A <= B, disjoint, or cover V
        for name in ("q8", "d5", "z6", "cp_4_2", "s4_mixed"):
            cd = instance(name)
            g = cd.graph
            n = g.vertex_count
            lam, _ = edge_connectivity(g, cd.base_vertex)
            eatoms = e_atoms_bruteforce(g, lam=lam)
            candidates = [frozenset([v]) for v in range(n)]
            candidates += [frozenset(range(n)) - {v} for v in range(n)]
            candidates += list(eatoms)
            for b in candidates:
                if out_edge_count(g, b) != lam:
                    continue
                for a in eatoms:
                    assert a <= b or not (a & b) or a | b == set(range(n)), name
