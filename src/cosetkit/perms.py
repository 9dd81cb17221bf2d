"""Permutation arithmetic and finite group enumeration.

Permutations act on points 1..n and are stored in one-line image form.
Products follow the right-action convention throughout: ``compose(p, q)``
(or ``p * q``) applies p first, then q, so i(pq) = (ip)q.
"""

from __future__ import annotations

import re
from array import array
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, CrossCheckError, GroupError

DEFAULT_ENUM_CAP = 50_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection on {1..n}; ``image[i-1]`` is the image of point i."""

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        img = tuple(image)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise GroupError(f"not a bijection on 1..{len(img)}: {img}")
        self.image = img

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise GroupError("degree must be positive")
        return cls(range(1, degree + 1))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        return self.image[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.image))

    def order(self) -> int:
        k = 1
        p = self
        while not p.is_identity():
            p = compose(p, self)
            k += 1
        return k

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, fixed points omitted, each starting at its
        minimum, sorted by minimum element."""
        padded, seen, out = [(0,) + self.image], set(), []
        for start in range(1, self.degree + 1):
            if start not in seen:
                cyc = orbit(padded, [start])
                seen.update(cyc)
                if len(cyc) > 1:
                    out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __lt__(self, other: "Permutation") -> bool:
        return self.image < other.image

    def __repr__(self) -> str:
        return print_cycles(self)


def orbit(maps: Sequence[Sequence[int]], seeds: Iterable[int]) -> list[int]:
    """The breadth-first closure of ``seeds`` under the index permutations
    ``maps``, in discovery order: the union of the seeds' orbits under the
    group the maps generate, as the inverse of a permutation of a finite set
    is one of its powers."""
    found = list(dict.fromkeys(seeds))
    seen = set(found)
    for v in found:                     # the list grows as it is read
        for phi in maps:
            w = phi[v]
            if w not in seen:
                seen.add(w)
                found.append(w)
    return found


def compose(pi: Permutation, sigma: Permutation) -> Permutation:
    """Product pi*sigma: apply pi first, then sigma."""
    if pi.degree != sigma.degree:
        raise GroupError(f"degree mismatch: {pi.degree} vs {sigma.degree}")
    s = sigma.image
    return Permutation(s[v - 1] for v in pi.image)


def inverse(pi: Permutation) -> Permutation:
    img = [0] * pi.degree
    for i, v in enumerate(pi.image):
        img[v - 1] = i + 1
    return Permutation(img)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(1 2)(3 4)``; ``()`` is the
    identity.  Points may be separated by whitespace or commas."""
    stripped = text.strip()
    matches = list(_CYCLE_RE.finditer(stripped))
    leftover = _CYCLE_RE.sub("", stripped).strip()
    if leftover or (not matches and stripped != ""):
        raise GroupError(f"malformed cycle notation: {text!r}")
    img = list(range(1, degree + 1))
    seen: set[int] = set()
    for m in matches:
        body = m.group(1).strip()
        if not body:
            continue
        try:
            points = [int(tok) for tok in re.split(r"[,\s]+", body)]
        except ValueError:
            raise GroupError(f"malformed cycle notation: {text!r}") from None
        for p in points:
            if not 1 <= p <= degree:
                raise GroupError(f"point {p} out of range 1..{degree}")
            if p in seen:
                raise GroupError(f"repeated point {p} in {text!r}")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            img[a - 1] = b
    return Permutation(img)


def print_cycles(pi: Permutation) -> str:
    cycles = pi.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)


def _product(x: tuple[int, ...], padded: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of x*y, given y's image as ``padded = (0,) + y.image``."""
    return tuple(map(padded.__getitem__, x))


def _trusted(image: tuple[int, ...]) -> Permutation:
    """The Permutation of an image tuple already known to be a bijection."""
    pi = object.__new__(Permutation)
    pi.image = image
    return pi


class GroupContext:
    """A fully enumerated finite permutation group.

    Elements are numbered by deterministic BFS discovery order (identity
    first): ``elements[i]`` is element i as a Permutation, built once, and
    ``index`` maps its image tuple back to i.  ``right(p)`` is the
    right-multiplication table of p, ``table[i]`` = id of element i times p,
    cached per p: the generators' come from the enumeration, the others from
    integer recurrences down its BFS tree, where x_i = x_parent[i] * g_step[i].
    """

    __slots__ = ("degree", "elements", "index", "_tables", "_tree", "_inverse", "_right")

    def __init__(self, degree: int, images: list[tuple[int, ...]],
                 index: dict[tuple[int, ...], int], tables: list[list[int]],
                 parent: array, step: array):
        self.degree = degree
        self.elements = tuple(map(_trusted, images))   # products of generators
        self.index = index
        self._tables, self._tree, self._inverse = tables, (parent, step), None
        self._right = {images[table[0]]: table for table in tables}

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def id_of(self, pi: Permutation) -> int:
        i = self.index.get(pi.image)
        if i is None:
            raise GroupError(f"{pi} is not an element of the group")
        return i

    def _descend(self, start: int, maps: list[list[int]]) -> list[int]:
        """``out[0]`` = start, ``out[i]`` = maps[step[i]][out[parent[i]]]: with
        the generators' tables, the left table of element ``start``."""
        out = [start]
        for p, s in zip(*self._tree):
            out.append(maps[s][out[p]])
        return out

    def _inverses(self) -> list[int]:
        """``inv[i]`` = id of x_i^-1, built once, as g_step[i]^-1 * x_parent[i]^-1."""
        if self._inverse is None:
            lefts = [self._descend(self.id_of(inverse(self.elements[t[0]])), self._tables)
                     for t in self._tables]     # t[0] is the id of t's generator
            self._inverse = self._descend(0, lefts)
        return self._inverse

    def right(self, p: Permutation) -> list[int]:
        """``table[i]`` = id of elements[i] * p; p must lie in the group.
        x*p = (p^-1 * x^-1)^-1, so the table is inv . left(p^-1) . inv."""
        table = self._right.get(p.image)
        if table is None:
            inv, left = self._inverses(), self._descend(self.id_of(inverse(p)), self._tables)
            table = self._right[p.image] = [inv[left[x]] for x in inv]
        return table

    def product_id(self, a: int, b: int) -> int:
        """Id of elements[a] * elements[b]."""
        return self.index[_product(self.elements[a].image, (0,) + self.elements[b].image)]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, pi: Permutation) -> bool:
        return pi.image in self.index

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"<group of order {len(self.elements)} on 1..{self.degree}>"


class CosetTable:
    """The left cosets of a subgroup H, numbered by first occurrence in the
    parent's element order: ``coset_of[i]`` is the coset of element i,
    ``rep_ids[c]`` the id of coset c's lexicographically least element and
    ``members[c]`` the ids in coset c."""

    __slots__ = ("coset_of", "rep_ids", "members")

    def __init__(self, H: "SubgroupHandle"):
        G = H.parent
        tables = [G.right(G.elements[i]) for i in H.generator_ids]
        image = [g.image for g in G.elements]
        coset_of = [-1] * len(G)
        rep_ids, members = [], []
        for x in range(len(G)):
            if coset_of[x] < 0:         # xH is the orbit of x under H's generators
                block = orbit(tables, [x])
                for y in block:
                    coset_of[y] = len(members)
                members.append(tuple(block))
                rep_ids.append(min(block, key=image.__getitem__))
        self.coset_of = coset_of
        self.rep_ids = rep_ids
        self.members = members


class SubgroupHandle:
    """A subgroup of a GroupContext: ``ids`` ascending, and the generator
    ids it was closed over.  Its coset table is built on first use."""

    __slots__ = ("parent", "ids", "id_set", "generator_ids", "_cosets")

    def __init__(self, parent: GroupContext, ids: tuple[int, ...],
                 generator_ids: tuple[int, ...]):
        self.parent = parent
        self.ids = ids
        self.id_set = frozenset(ids)
        self.generator_ids = generator_ids
        self._cosets: CosetTable | None = None

    @property
    def members(self) -> tuple[Permutation, ...]:
        elements = self.parent.elements
        return tuple(elements[i] for i in self.ids)

    def cosets(self) -> CosetTable:
        if self._cosets is None:
            self._cosets = CosetTable(self)
        return self._cosets

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, pi: Permutation) -> bool:
        return self.parent.index.get(pi.image) in self.id_set

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SubgroupHandle)
                and self.parent is other.parent
                and self.id_set == other.id_set)

    def __hash__(self) -> int:
        return hash(self.id_set)

    def __repr__(self) -> str:
        return f"<subgroup of order {len(self.ids)}>"


def enumerate_closure(degree: int, gens: Sequence[Permutation],
                      cap: int = DEFAULT_ENUM_CAP) -> GroupContext:
    """Enumerate the group generated by ``gens`` by breadth-first closure
    under right multiplication, recording each generator's right table and
    each element's BFS parent and generator index on the way.  Raises
    CapExceeded past ``cap`` elements, its message giving the partial count."""
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise GroupError(f"generator degree {g.degree} != {degree}")
    images = [Permutation.identity(degree).image]
    index = {images[0]: 0}
    padded = [(0,) + g.image for g in gens]
    tables: list[list[int]] = [[] for _ in gens]
    parent, step = array("i"), array("i")   # the BFS tree, for elements 1, 2, ...
    for x_id, x in enumerate(images):   # FIFO: the list grows while it is read
        for s, (g, table) in enumerate(zip(padded, tables)):
            w = _product(x, g)
            i = index.get(w)
            if i is None:
                if len(images) >= cap:
                    raise CapExceeded(
                        f"group enumeration exceeded cap {cap} "
                        f"({len(images)} elements found so far)")
                i = index[w] = len(images)
                images.append(w)
                parent.append(x_id)
                step.append(s)
            table.append(i)
    return GroupContext(degree, images, index, tables, parent, step)


def trivial_subgroup(ctx: GroupContext) -> SubgroupHandle:
    return SubgroupHandle(ctx, (0,), ())


def subgroup_generated(ctx: GroupContext, seed: SubgroupHandle | None,
                       extra: Sequence[Permutation] = ()) -> SubgroupHandle:
    """Smallest subgroup of ``ctx`` containing ``seed`` and ``extra``: the
    orbit of the identity under the right tables of the seed's generators
    and ``extra``."""
    if seed is not None and seed.parent is not ctx:
        raise GroupError("seed subgroup belongs to a different group")
    gen_ids = list(seed.generator_ids) if seed is not None else []
    for g in extra:
        if g not in ctx:
            raise GroupError(f"element {g} not in parent group")
        gen_ids.append(ctx.index[g.image])
    gen_ids = tuple(dict.fromkeys(i for i in gen_ids if i != 0))
    members = orbit([ctx.right(ctx.elements[i]) for i in gen_ids], [0])
    return SubgroupHandle(ctx, tuple(sorted(members)), gen_ids)


def canonical_coset_rep(g: Permutation, H: SubgroupHandle) -> Permutation:
    """Lexicographically minimal element of the left coset gH."""
    if g not in H.parent:
        raise GroupError("element not in the parent group of H")
    table = H.cosets()
    G = H.parent
    return G.elements[table.rep_ids[table.coset_of[G.index[g.image]]]]


def left_coset_reps(G: GroupContext, H: SubgroupHandle) -> list[Permutation]:
    """Canonical representatives of G/H, ordered by first occurrence in
    the group's element order."""
    if H.parent is not G:
        raise GroupError("H is not a subgroup of G")
    return [G.elements[i] for i in H.cosets().rep_ids]


def double_coset_cosets(H: SubgroupHandle, s: Permutation) -> set[int]:
    """The left cosets of H inside HsH, as coset-table numbers."""
    if s not in H.parent:
        raise GroupError("element not in the parent group of H")
    coset_of = H.cosets().coset_of
    right_s = H.parent.right(s)
    return {coset_of[right_s[h]] for h in H.ids}


def double_coset(H: SubgroupHandle, s: Permutation) -> frozenset[Permutation]:
    """The set HsH = {h1*s*h2 : h1, h2 in H}."""
    members, elements = H.cosets().members, H.parent.elements
    return frozenset(elements[i] for c in double_coset_cosets(H, s) for i in members[c])


def double_coset_index(H: SubgroupHandle, s: Permutation) -> int:
    """Number of left cosets of H inside HsH, cross-checked against the
    index formula |H| / |H ∩ sHs^-1|, which is computed by conjugation
    and so does not rest on the coset table."""
    d = len(double_coset_cosets(H, s))
    s_inv = inverse(s)
    stab = sum(1 for h in H.members if compose(compose(s, h), s_inv) in H)
    d_formula = len(H) // stab
    if d != d_formula:
        raise CrossCheckError(
            f"double coset index mismatch: |HsH|/|H| = {d} but "
            f"|H|/|H ∩ sHs^-1| = {d_formula} for s = {s}")
    return d


def normalizes(g: Permutation, H: SubgroupHandle) -> bool:
    """True iff gHg^-1 = H as sets, i.e. the left coset gH equals the right
    coset Hg."""
    if g not in H.parent:
        raise GroupError("element not in the parent group of H")
    table = H.cosets()
    left = table.members[table.coset_of[H.parent.index[g.image]]]
    right_g = H.parent.right(g)
    return set(left) == {right_g[h] for h in H.ids}
