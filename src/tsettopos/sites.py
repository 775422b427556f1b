"""Sieves and Grothendieck topologies on the underlying poset site.

Arrows of the site are order pairs q <= p, so a sieve at p is just a
downward-closed subset of the elements below p.  The coverage of
interest is the canonical join coverage of the locale: a sieve covers p
exactly when its join is p.  On a finite poset such a topology is fixed
by one least cover L(p) per element, and that is all a ``Topology``
stores; ``territory_topology`` computes L(p) in closed form from the
join-irreducibles.  A sieve S covers p exactly when L(p) <= S, and
closure is one step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .heyting import HeytingAlgebra


def all_sieves(H: HeytingAlgebra, p: int) -> list[frozenset[int]]:
    """Every downward-closed subset of the elements below p, canonical order."""
    base = H.down(p)
    out = []
    for k in range(len(base) + 1):
        for combo in itertools.combinations(base, k):
            s = frozenset(combo)
            if all(q in s for m in s for q in H.down(m)):
                out.append(s)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


@dataclass(frozen=True)
class Topology:
    """least[p] is L(p), the least cover of p, as a sorted tuple: covers
    of p are upward closed and closed under meets, so a sieve S covers p
    exactly when L(p) <= S."""
    algebra: HeytingAlgebra
    least: tuple[tuple[int, ...], ...]


def territory_topology(H: HeytingAlgebra) -> Topology:
    """The join-cover topology, a sieve covering p iff its join is p, as
    its least covers L(p) = down(J(H) & down(p)), where J(H) holds the
    join-irreducibles: the j != bottom that are not the join of the
    elements strictly below them (Johnstone, Elephant, C2.2.3).

    Proof.  Let S cover p and let j <= p be irreducible.  H is
    distributive, so j = j & sigma(S) = sigma(j & s for s in S); each
    j & s lies in S, and j is not the join of elements strictly below
    it, so some j & s equals j, and j is in S.  Hence every cover of p
    contains each irreducible below p, and with it their down-set.
    Conversely, every element is the join of the irreducibles below it
    (induct on the down-set: a reducible q is the join of its strictly
    smaller elements), so that down-set joins to p and covers p.
    """
    irreducible = [j for j in H.elements() if j != H.bottom and
                   H.sigma(q for q in H.down(j) if q != j) != j]
    return Topology(H, tuple(
        tuple(sorted({q for j in irreducible if H.le(j, p)
                      for q in H.down(j)}))
        for p in H.elements()
    ))


def closure(J: Topology, p: int, S: frozenset[int]) -> frozenset[int]:
    """Adjoin every element the sieve S at p covers, {r <= p : L(r) <= S}.
    This is idempotent: if the result contains L(r), S covers each q in
    L(r), so by transitivity S covers r."""
    return frozenset(r for r in J.algebra.down(p) if S.issuperset(J.least[r]))


def closed_sieves(H: HeytingAlgebra, J: Topology, p: int) -> list[frozenset[int]]:
    """Brute force: every sieve at p that is closed, canonical order."""
    return [S for S in all_sieves(H, p) if closure(J, p, S) == S]


def principal_sieves(H: HeytingAlgebra, p: int) -> list[frozenset[int]]:
    """Down-sets of single elements below p, in the same canonical order."""
    out = [frozenset(H.down(s)) for s in H.down(p)]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out
