"""Digraph engine: connectivity oracles, cuts, brute-force atoms."""

import random
from itertools import combinations

import pytest

import helpers
from corpus import CORPUS_NAMES, SMALL_NAMES, instance
from cosetkit import digraph
from cosetkit import (CapExceeded, CompleteDigraphError, CrossCheckError, Digraph,
                      NotStronglyConnected, atoms_bruteforce, compose,
                      e_atoms_bruteforce, edge_connectivity,
                      is_strongly_connected, neighbor_set,
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
        with pytest.raises(ValueError):
            Digraph([[0]])          # loop
        with pytest.raises(ValueError):
            Digraph([[1, 1], [0]])  # duplicate
        with pytest.raises(ValueError):
            Digraph([[2], [0]])     # out of range

    def test_transpose_involution(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_strongly_connected(rng, 8, 10)
            assert transpose(transpose(g)) == g

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
        assert cert.kind == "vertex" and len(cert.separator) == 1

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
        whole = _vertex_split_network(g)
        whole.add_edge(1, 5, 5)
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

    def test_reverse_pass_wins_when_flows_into_the_base_are_fewer(self):
        # two disjoint paths lead from 0 to each non-neighbor, but every path
        # into 0 passes through 4: the pass out of 1, 2 and 3 into the
        # in-node of 0 is smaller, and its certificate separates (1, 0)
        g = Digraph([[1, 2], [3, 4], [3, 4], [4], [0]])
        assert [helpers.local_vertex_connectivity_oracle(g, 0, t) for t in (3, 4)] == [2, 2]
        kappa, cert = vertex_connectivity_transitive(g, 0)
        assert (kappa, cert.separator, cert.separated_pair) == (1, (4,), (1, 0))


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
            found = atoms_bruteforce(side, kappa=kappa, cap=30, max_size=k)
            if found.members:
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
        # from one base vertex: one merged pass over the n - 1 other vertices
        # and one single-sink certificate flow, where a fresh flow per sink
        # took n
        passes = _record_merged_passes(monkeypatch)
        for name in ("s4_mixed", "cp_4_2", "q8"):
            cd = instance(name)
            n, base = cd.graph.vertex_count, cd.base_vertex
            assert not cd.graph.is_complete()
            passes.clear()
            lam, _ = edge_connectivity(cd.graph, base)
            assert lam == cd.degree, name
            assert [(s, len(t)) for s, t, _ in passes] == [(base, n - 1), (base, 1)], name


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
    """The source, the sinks and the direction of each merged pass, in call
    order."""
    passes = []
    original = _UnitFlow.merged_pass

    def recorded(self, source, sinks, bound, reverse=False):
        passes.append((source, list(sinks), reverse))
        return original(self, source, sinks, bound, reverse)

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
        # kappa: one merged pass per side, over the first vertex of each
        # H-orbit among the non-neighbors in the first 2d + 1 breadth-first
        # positions (forward into in-nodes, then reversed out of out-nodes),
        # and single-sink certificate flows between the base and a prefix of
        # the winning side's sinks; lambda: one pass over every orbit and one
        # flow
        passes = _record_merged_passes(monkeypatch)
        for name in ("cp_4_2", "cp_5_2", "random_0"):
            cd = instance(name)
            g, base = cd.graph, cd.base_vertex
            d = len(g.adj[base])
            assert len(cd.subgroup) >= 2 and not g.is_complete(), name
            minima = _h_orbit_minima(cd)
            symmetries = stabiliser_translations(cd)

            passes.clear()
            kappa, cert = vertex_connectivity_transitive(g, base, symmetries)
            forward = _prefix_orbit_sinks(cd, g)
            backward = _prefix_orbit_sinks(cd, transpose(g))
            for sinks in (forward, backward):
                assert 1 <= len(sinks) <= d, name
                assert len({min(_h_orbit(cd, t)) for t in sinks}) == len(sinks), name
            assert passes[:2] == [(2 * base + 1, [2 * t for t in forward], False),
                                  (2 * base, [2 * t + 1 for t in backward], True)], name
            if cert.separated_pair[1] == base:
                flows = [(2 * t + 1, [2 * base], False) for t in backward]
            else:
                flows = [(2 * base + 1, [2 * t], False) for t in forward]
            certificate = passes[2:]
            assert 1 <= len(certificate) and certificate == flows[:len(certificate)], name
            far = [t for t in minima if t != base and not g.has_edge(base, t)]
            assert len(forward) < len(far), name

            passes.clear()
            edge_connectivity(g, base, symmetries)
            # every orbit but {base}
            assert [(s, len(t)) for s, t, _ in passes] == \
                [(base, len(minima) - 1), (base, 1)], name

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
        calls = []
        original = digraph._orbit_minima
        monkeypatch.setattr(digraph, "_orbit_minima",
                            lambda *args: calls.append(args) or original(*args))
        g = Digraph([[(v - 1) % 6, (v + 1) % 6] for v in range(6)])
        reflection = (0, 5, 4, 3, 2, 1)
        assert vertex_connectivity_transitive(g, 0, [reflection])[0] == 2
        assert edge_connectivity(g, 0, [list(reflection)])[0] == 2
        assert len(calls) == 1
        assert edge_connectivity(g, 0, ())[0] == 2
        assert len(calls) == 2
        swap = [0, 2, 1, 3, 4, 5]          # a bijection fixing 0
        for routine in (vertex_connectivity_transitive, edge_connectivity):
            with pytest.raises(CrossCheckError, match="not an automorphism"):
                routine(g, 0, [swap])
        assert len(calls) == 4


class TestAtoms:
    def test_cycle_atoms_are_singletons(self):
        g = directed_cycle(6)
        atoms = atoms_bruteforce(g, kappa=1)
        expected = helpers.atoms_fullscan_oracle(g, 1)
        assert set(atoms.members) == expected
        assert all(len(a) == 1 for a in atoms.members)
        assert len(atoms.members) == 6

    def test_matches_fullscan_on_random(self):
        rng = random.Random(43)
        checked = 0
        while checked < 8:
            g = random_strongly_connected(rng, 7, 8)
            if g.is_complete():
                continue
            kappa = helpers.vertex_connectivity_oracle(g)
            atoms = atoms_bruteforce(g, kappa=kappa)
            assert set(atoms.members) == helpers.atoms_fullscan_oracle(g, kappa)
            checked += 1

    def test_complete_digraph_has_none(self):
        with pytest.raises(CompleteDigraphError):
            atoms_bruteforce(complete_digraph(4), kappa=3)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            atoms_bruteforce(directed_cycle(25), kappa=1, cap=18)

    def test_subset_budget_is_reported_as_a_cap(self):
        # every vertex of the 6-cycle is an atom and an e-atom: the size-1
        # scan examines 6 subsets, so a budget of 6 suffices and 5 does not
        g = directed_cycle(6)
        for routine in (atoms_bruteforce, e_atoms_bruteforce):
            assert len(routine(g, 1, budget=6).members) == 6
            with pytest.raises(CapExceeded, match=r"exceeded budget 5 at size 1$") as info:
                routine(g, 1, budget=5)
            assert info.value.count == 6

    def test_max_size_returns_empty(self):
        # 6-cycle atoms are singletons, so a max_size search below 1 is
        # impossible; instead check a graph whose atoms are bigger than 1
        g = directed_cycle(6)
        found = atoms_bruteforce(g, kappa=1, max_size=3)
        assert found.size == 1

    def test_atoms_disjoint_when_small(self):
        # atoms of size at most (n - kappa)/2 are pairwise disjoint
        for name in SMALL_NAMES:
            atoms = _small_side_atoms(instance(name))
            if atoms is None:
                continue
            seen = set()
            for a in atoms.members:
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
            atoms = atoms_bruteforce(g, kappa=kappa, cap=30)
            for _ in range(300):
                size = rng.randrange(1, n)
                b = frozenset(rng.sample(range(n), size))
                nb, is_part = neighbor_set(g, b)
                if not is_part:
                    continue
                for a in atoms.members:
                    if a & b and a - b:
                        na, _ = neighbor_set(g, a)
                        assert len(na - (b | nb)) < len(nb & a), name


class TestEAtoms:
    def test_cycle(self):
        g = directed_cycle(5)
        eatoms = e_atoms_bruteforce(g, lam=1)
        assert set(eatoms.members) == helpers.e_atoms_fullscan_oracle(g, 1)

    def test_complete_digraph_singletons(self):
        g = complete_digraph(4)
        eatoms = e_atoms_bruteforce(g, lam=3)
        assert all(len(a) == 1 for a in eatoms.members)
        assert len(eatoms.members) == 4

    def test_one_vertex_has_no_e_atoms(self):
        # no proper nonempty subset, matching edge_connectivity's (0, None)
        g = Digraph([[]])
        assert edge_connectivity(g, 0) == (0, None)
        eatoms = e_atoms_bruteforce(g, lam=0)
        assert eatoms.members == () and eatoms.size is None

    def test_matches_fullscan_on_random(self):
        rng = random.Random(53)
        for _ in range(8):
            g = random_strongly_connected(rng, 7, 9)
            lam = helpers.edge_connectivity_oracle(g)
            eatoms = e_atoms_bruteforce(g, lam=lam)
            assert set(eatoms.members) == helpers.e_atoms_fullscan_oracle(g, lam)

    def test_eatom_lemma_on_corpus(self):
        # B with exactly lambda outgoing edges: A <= B, disjoint, or cover V
        for name in ("q8", "d5", "z6", "cp_4_2", "s4_mixed"):
            cd = instance(name)
            g = cd.graph
            n = g.vertex_count
            lam, _ = edge_connectivity(g, cd.base_vertex)
            eatoms = e_atoms_bruteforce(g, lam=lam, cap=n)
            candidates = [frozenset([v]) for v in range(n)]
            candidates += [frozenset(range(n)) - {v} for v in range(n)]
            candidates += list(eatoms.members)
            for b in candidates:
                if out_edge_count(g, b) != lam:
                    continue
                for a in eatoms.members:
                    assert a <= b or not (a & b) or a | b == set(range(n)), name
