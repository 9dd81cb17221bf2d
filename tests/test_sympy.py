"""Group orders, coset counts, double-coset indices and closures of the
corpus instances against sympy's permutation groups."""

from itertools import combinations

import pytest

sympy_combinatorics = pytest.importorskip("sympy.combinatorics")
from corpus import CORPUS_NAMES, instance  # noqa: E402

SympyPermutation = sympy_combinatorics.Permutation
PermutationGroup = sympy_combinatorics.PermutationGroup


def _sympy(p):
    return SympyPermutation([v - 1 for v in p.image])


def _group(degree, perms):
    identity = SympyPermutation(list(range(degree)))
    return PermutationGroup([identity] + [_sympy(p) for p in perms])


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_tables_agree_with_sympy(name):
    cd = instance(name)
    spec = cd.spec
    G = _group(spec.degree, spec.group_generators)
    H = _group(spec.degree, spec.subgroup_generators)
    assert len(cd.group) == G.order()
    assert len(cd.vertices) == G.order() // H.order()

    h_elements = list(H.generate())
    for lbl, s in cd.connection.items():
        s = _sympy(s)
        hsh = {h1 * s * h2 for h1 in h_elements for h2 in h_elements}
        assert cd.degrees[lbl] == len(hsh) // H.order(), (name, lbl)

    for r in range(len(cd.labels) + 1):
        for chosen in combinations(cd.labels, r):
            extra = [cd.connection[lbl] for lbl in chosen]
            closure = _group(spec.degree, spec.subgroup_generators + tuple(extra))
            assert len(cd.closure(chosen)) == closure.order(), (name, chosen)
