"""Finite complete Heyting algebras built from Hasse-diagram input.

The order is given by cover pairs (lower, upper); reflexive-transitive
closure, bottom/top inference, meets, joins and the frame law are all
computed and checked exactly at build time.  Elements are identified by
their position in the input list; names are surface syntax only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import CycleError, NoBound, NotDistributive


@dataclass(frozen=True)
class PosetSpec:
    """Raw poset input: element names plus cover pairs (lower, upper)."""

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class HeytingAlgebra:
    """A finite complete Heyting algebra with all tables precomputed."""

    names: tuple[str, ...]
    le_table: tuple[tuple[bool, ...], ...]
    bottom: int
    top: int
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    imp_table: tuple[tuple[int, ...], ...]
    _downs: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    _covers: tuple[tuple[int, int], ...] = field(repr=False, default=())

    @property
    def size(self) -> int:
        return len(self.names)

    def elements(self) -> range:
        return range(len(self.names))

    def name(self, i: int) -> str:
        return self.names[i]

    def index(self, name: str) -> int:
        return self.names.index(name)

    def le(self, p: int, q: int) -> bool:
        return self.le_table[p][q]

    def meet(self, p: int, q: int) -> int:
        return self.meet_table[p][q]

    def join(self, p: int, q: int) -> int:
        return self.join_table[p][q]

    def sigma(self, subset) -> int:
        """Least upper bound of any iterable of elements; sigma(()) = bottom."""
        out = self.bottom
        for s in subset:
            out = self.join_table[out][s]
        return out

    def implies(self, p: int, q: int) -> int:
        return self.imp_table[p][q]

    def neg(self, p: int) -> int:
        return self.imp_table[p][self.bottom]

    def down(self, p: int) -> tuple[int, ...]:
        return self._downs[p]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse cover pairs (lower, upper), grouped by upper element in
        element order, lower elements ascending within a group."""
        return self._covers

    def is_boolean(self) -> bool:
        return all(self.neg(self.neg(p)) == p for p in self.elements())

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.names, self.le_table))

    def __hash__(self) -> int:
        # algebras key every cache: hash once, the order fixes the rest
        return self._hash

    def __repr__(self):
        return f"HeytingAlgebra({list(self.names)})"


def _closure(n: int, adj: list[list[bool]]) -> list[list[bool]]:
    # Warshall; reflexivity is seeded by the caller
    reach = [row[:] for row in adj]
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return reach


def _greatest(le, candidates) -> int | None:
    for m in candidates:
        if all(le[c][m] for c in candidates):
            return m
    return None


def _least(le, candidates) -> int | None:
    for m in candidates:
        if all(le[m][c] for c in candidates):
            return m
    return None


def build_algebra(spec: PosetSpec) -> HeytingAlgebra:
    """Build and validate a complete Heyting algebra from cover pairs.

    Raises CycleError if the cover closure is not a partial order, NoBound
    if bottom/top/meet/join inference fails, NotDistributive if the frame
    law fails.  On a finite lattice the frame law is decided exactly by
    pairwise distributivity: every join is a fold of binary joins.
    """
    names = spec.elements
    n = len(names)
    if n == 0:
        raise NoBound("bottom", "(empty poset)")
    if len(set(names)) != n:
        raise ValueError("duplicate element names")
    idx = {s: i for i, s in enumerate(names)}

    adj = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in spec.covers:
        if lo not in idx or hi not in idx:
            raise ValueError(f"cover ({lo!r}, {hi!r}) names unknown elements")
        adj[idx[lo]][idx[hi]] = True
    le = _closure(n, adj)

    for i in range(n):
        for j in range(i + 1, n):
            if le[i][j] and le[j][i]:
                raise CycleError(names[i], names[j])

    bottom = _least(le, list(range(n)))
    if bottom is None:
        raise NoBound("bottom", list(names))
    top = _greatest(le, list(range(n)))
    if top is None:
        raise NoBound("top", list(names))

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            lower = [x for x in range(n) if le[x][p] and le[x][q]]
            m = _greatest(le, lower)
            if m is None:
                raise NoBound("meet", (names[p], names[q]))
            meet[p][q] = m
            upper = [x for x in range(n) if le[p][x] and le[q][x]]
            j = _least(le, upper)
            if j is None:
                raise NoBound("join", (names[p], names[q]))
            join[p][q] = j

    # pairs {x, y} in ascending subset-mask order
    for y in range(n):
        for x in range(y):
            for b in range(n):
                if meet[join[x][y]][b] != join[meet[x][b]][meet[y][b]]:
                    raise NotDistributive([names[x], names[y]], names[b])

    imp = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            s = bottom
            for t in range(n):
                if le[meet[p][t]][q]:
                    s = join[s][t]
            imp[p][q] = s

    downs = tuple(tuple(x for x in range(n) if le[x][p]) for p in range(n))
    covers = tuple(
        (q, p) for p in range(n) for q in downs[p]
        if q != p and not any(
            r not in (p, q) and le[q][r] and le[r][p] for r in range(n)
        )
    )
    return HeytingAlgebra(
        names=names,
        le_table=tuple(tuple(row) for row in le),
        bottom=bottom,
        top=top,
        meet_table=tuple(tuple(row) for row in meet),
        join_table=tuple(tuple(row) for row in join),
        imp_table=tuple(tuple(row) for row in imp),
        _downs=downs,
        _covers=covers,
    )


def subsets(H: HeytingAlgebra):
    """All subsets of the carrier as tuples, in mask order."""
    n = H.size
    for mask in range(1 << n):
        yield tuple(x for x in range(n) if mask >> x & 1)


# ---------------------------------------------------------------- instances

def chain_spec(n: int) -> PosetSpec:
    names = tuple(f"c{i}" for i in range(n))
    if n == 2:
        names = ("mu", "M")
    elif n == 3:
        names = ("mu", "p", "M")
    return PosetSpec(names, tuple((names[i], names[i + 1]) for i in range(n - 1)))


def two_element() -> HeytingAlgebra:
    return build_algebra(chain_spec(2))


def chain3() -> HeytingAlgebra:
    return build_algebra(chain_spec(3))


def diamond_spec() -> PosetSpec:
    return PosetSpec(
        ("mu", "a", "b", "M"),
        (("mu", "a"), ("mu", "b"), ("a", "M"), ("b", "M")),
    )


def diamond() -> HeytingAlgebra:
    return build_algebra(diamond_spec())


def pentagon_spec() -> PosetSpec:
    # N5: mu < a < c < M and mu < b < M, b incomparable to a and c.
    # A lattice, but not distributive; build_algebra must reject it.
    return PosetSpec(
        ("mu", "a", "b", "c", "M"),
        (("mu", "a"), ("a", "c"), ("c", "M"), ("mu", "b"), ("b", "M")),
    )


# name -> constructor, so that listing the names builds no algebra
NAMED_ALGEBRAS = {"two_element": two_element, "chain3": chain3,
                  "diamond": diamond}
