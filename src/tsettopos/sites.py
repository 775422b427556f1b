"""Sieves and Grothendieck topologies on the underlying poset site.

Arrows of the site are order pairs q <= p, so a sieve at p is just a
downward-closed subset of the elements below p.  The coverage of
interest is the canonical join coverage of the locale: a sieve covers p
exactly when its join is p.  It is read straight off that condition,
not generated from a basis.  Everything is enumerated explicitly.
On a finite poset a topology is fixed by one least cover L(p) per
element; every reader of a coverage but ``validate_topology`` goes
through ``Topology.least``, and closure is one step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotBelow
from .heyting import HeytingAlgebra
from .tset import ValidationReport


@dataclass(frozen=True)
class Sieve:
    algebra: HeytingAlgebra
    at: int
    members: frozenset[int]

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self):
        H = self.algebra
        names = ",".join(H.name(m) for m in self.sorted_members())
        return f"Sieve(at={H.name(self.at)}, {{{names}}})"


def maximal_sieve(H: HeytingAlgebra, p: int) -> Sieve:
    return Sieve(H, p, frozenset(H.down(p)))


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


def pullback_sieve(s: Sieve, r: int) -> Sieve:
    """Restrict a sieve at p to an element r <= p."""
    H = s.algebra
    if not H.le(r, s.at):
        raise NotBelow(H.name(r), H.name(s.at))
    below = set(H.down(r))
    return Sieve(H, r, frozenset(m for m in s.members if m in below))


@dataclass(frozen=True)
class Topology:
    algebra: HeytingAlgebra
    covers: tuple[frozenset[frozenset[int]], ...]

    def least(self, p: int) -> frozenset[int]:
        """L(p), the smallest cover: covers of p are upward closed and
        closed under meets, so a sieve S covers p exactly when L(p) <= S."""
        return frozenset.intersection(*self.covers[p])


def validate_topology(J: Topology) -> ValidationReport:
    """Maximality, stability under pullback, and transitivity.

    Transitivity is the non-vacuous form: a sieve R at p belongs to J(p)
    whenever some cover S of p has every pullback of R along members of
    S covering.
    """
    H = J.algebra
    bad: list[tuple[str, tuple]] = []
    for p in H.elements():
        covering = sorted(J.covers[p], key=lambda s: (len(s), sorted(s)))
        if frozenset(H.down(p)) not in J.covers[p]:
            bad.append(("maximality", (H.name(p),)))
        for S in covering:
            for r in H.down(p):
                pulled = frozenset(m for m in S if H.le(m, r))
                if pulled not in J.covers[r]:
                    bad.append(("stability", (H.name(p), H.name(r))))
        for S in covering:
            for R in all_sieves(H, p):
                if R in J.covers[p]:
                    continue
                if all(
                    frozenset(m for m in R if H.le(m, q)) in J.covers[q]
                    for q in S
                ):
                    bad.append(("transitivity", (H.name(p), tuple(sorted(R)))))
    return ValidationReport(not bad, tuple(bad))


def territory_topology(H: HeytingAlgebra) -> Topology:
    """The join-cover topology: a sieve covers p iff its join is p.

    This is the topology a basis of territories (families joining to p)
    would generate: a sieve at p containing the down-closure of such a
    family joins to p, and a sieve joining to p is itself one.
    """
    return Topology(H, tuple(
        frozenset(s for s in all_sieves(H, p) if H.sigma(s) == p)
        for p in H.elements()
    ))


def is_closed(s: Sieve, J: Topology) -> bool:
    """A sieve is closed when every element it covers is already a member."""
    return all(r in s.members or not J.least(r) <= s.members
               for r in s.algebra.down(s.at))


def closure(s: Sieve, J: Topology) -> Sieve:
    """Adjoin every element the sieve covers, {r <= p : L(r) <= S}.  This
    is idempotent: if the result contains L(r), S covers each q in L(r),
    so by transitivity S covers r."""
    return Sieve(s.algebra, s.at, frozenset(
        r for r in s.algebra.down(s.at) if J.least(r) <= s.members))


def closed_sieves(H: HeytingAlgebra, J: Topology, p: int) -> list[frozenset[int]]:
    """Brute force: every sieve at p that is closed, canonical order."""
    return [s for s in all_sieves(H, p) if is_closed(Sieve(H, p, s), J)]


def principal_sieves(H: HeytingAlgebra, p: int) -> list[frozenset[int]]:
    """Down-sets of single elements below p, in the same canonical order."""
    out = [frozenset(H.down(s)) for s in H.down(p)]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out
