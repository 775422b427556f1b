"""Sieves and Grothendieck topologies on the underlying poset site.

Arrows of the site are order pairs q <= p, so a sieve at p is just a
downward-closed subset of the elements below p.  The coverage of
interest is generated by territories: families whose join recovers the
element.  Everything is enumerated explicitly; closure is a fixpoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BasisInvalid, NotBelow, SizeGuard
from .heyting import HeytingAlgebra

BASIS_GUARD = 10 ** 6


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


def down_closure(H: HeytingAlgebra, members) -> frozenset[int]:
    out: set[int] = set()
    for m in members:
        out.update(H.down(m))
    return frozenset(out)


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


def territories(H: HeytingAlgebra, p: int) -> list[frozenset[int]]:
    """Families below p whose join is exactly p, in canonical order.

    The empty family belongs to territories(bottom) since the empty
    join is the bottom element.
    """
    base = H.down(p)
    out = []
    for k in range(len(base) + 1):
        for combo in itertools.combinations(base, k):
            if H.sigma(combo) == p:
                out.append(frozenset(combo))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


@dataclass(frozen=True)
class Topology:
    algebra: HeytingAlgebra
    covers: tuple[frozenset[frozenset[int]], ...]

    def covering(self, p: int) -> list[frozenset[int]]:
        return sorted(self.covers[p], key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class TopologyReport:
    ok: bool
    violations: tuple[tuple[str, tuple], ...]


def validate_topology(J: Topology) -> TopologyReport:
    """Maximality, stability under pullback, and transitivity.

    Transitivity is the non-vacuous form: a sieve R at p belongs to J(p)
    whenever some cover S of p has every pullback of R along members of
    S covering.
    """
    H = J.algebra
    bad: list[tuple[str, tuple]] = []
    for p in H.elements():
        if frozenset(H.down(p)) not in J.covers[p]:
            bad.append(("maximality", (H.name(p),)))
        for S in J.covering(p):
            for r in H.down(p):
                pulled = frozenset(m for m in S if H.le(m, r))
                if pulled not in J.covers[r]:
                    bad.append(("stability", (H.name(p), H.name(r))))
        for S in J.covering(p):
            for R in all_sieves(H, p):
                if R in J.covers[p]:
                    continue
                if all(
                    frozenset(m for m in R if H.le(m, q)) in J.covers[q]
                    for q in S
                ):
                    bad.append(("transitivity", (H.name(p), tuple(sorted(R)))))
    return TopologyReport(not bad, tuple(bad))


def validate_basis(H: HeytingAlgebra, basis: dict[int, list[frozenset[int]]],
                   guard: int = BASIS_GUARD) -> None:
    """The three coverage-basis conditions; BasisInvalid names the failure.

    Condition 2 instantiates to meets against every lower element (for
    territories this is exactly the frame law); condition 3 ranges over
    choice functions picking a basis family below each member.
    """
    for p in H.elements():
        for fam in basis.get(p, []):
            if not all(H.le(t, p) for t in fam):
                raise BasisInvalid("scope", (H.name(p), sorted(fam)))
    for p in H.elements():
        if frozenset({p}) not in basis.get(p, []):
            raise BasisInvalid("identity", (H.name(p),))
    for p in H.elements():
        for fam in basis.get(p, []):
            for r in H.down(p):
                pulled = frozenset(H.meet(t, r) for t in fam)
                if pulled not in basis.get(r, []):
                    raise BasisInvalid("stability", (H.name(p), H.name(r), sorted(fam)))
    for p in H.elements():
        for fam in basis.get(p, []):
            members = sorted(fam)
            pools = [basis.get(t, []) for t in members]
            total = 1
            for pool in pools:
                total *= max(len(pool), 1)
            if total > guard:
                raise SizeGuard("basis transitivity", total, guard)
            for choice in itertools.product(*pools):
                union = frozenset(itertools.chain.from_iterable(choice))
                if union not in basis.get(p, []):
                    raise BasisInvalid(
                        "transitivity", (H.name(p), sorted(fam), sorted(union))
                    )
    return None


def topology_from_basis(H: HeytingAlgebra,
                        basis: dict[int, list[frozenset[int]]],
                        guard: int = BASIS_GUARD) -> Topology:
    """All sieves containing the downward closure of some basis family."""
    validate_basis(H, basis, guard)
    covers = []
    for p in H.elements():
        closures = [down_closure(H, fam) for fam in basis.get(p, [])]
        covering = frozenset(
            s for s in all_sieves(H, p)
            if any(c <= s for c in closures)
        )
        covers.append(covering)
    return Topology(H, tuple(covers))


def territory_basis(H: HeytingAlgebra) -> dict[int, list[frozenset[int]]]:
    return {p: territories(H, p) for p in H.elements()}


def territory_topology(H: HeytingAlgebra, guard: int = BASIS_GUARD) -> Topology:
    """The join-cover topology: a sieve covers p iff its join is p."""
    return topology_from_basis(H, territory_basis(H), guard)


def is_closed(s: Sieve, J: Topology) -> bool:
    """A sieve is closed when every element it covers is already a member."""
    H = s.algebra
    for r in H.down(s.at):
        pulled = frozenset(m for m in s.members if H.le(m, r))
        if pulled in J.covers[r] and r not in s.members:
            return False
    return True


def closure(s: Sieve, J: Topology) -> Sieve:
    """Fixpoint of the one-step rule: adjoin every element the sieve covers."""
    H = s.algebra
    members = set(s.members)
    while True:
        grown = set(members)
        for r in H.down(s.at):
            pulled = frozenset(m for m in members if H.le(m, r))
            if pulled in J.covers[r]:
                grown.add(r)
        if grown == members:
            return Sieve(H, s.at, frozenset(members))
        members = grown


def closed_sieves(H: HeytingAlgebra, J: Topology, p: int) -> list[frozenset[int]]:
    """Brute force: every sieve at p that is closed, canonical order."""
    return [s for s in all_sieves(H, p) if is_closed(Sieve(H, p, s), J)]


def principal_sieves(H: HeytingAlgebra, p: int) -> list[frozenset[int]]:
    """Down-sets of single elements below p, in the same canonical order."""
    out = [frozenset(H.down(s)) for s in H.down(p)]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out
