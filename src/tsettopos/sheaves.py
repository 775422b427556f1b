"""Presheaves on the poset site and the T-set <-> sheaf bridge.

Sections live over algebra elements; restriction follows the order.
T-sets with all localisations witnessed present as presheaves whose
p-sections are the elements existing exactly at p; sheaves convert back
via the agreement-degree identity.  Sheafification is the plus
construction applied twice.

J must be a Grothendieck topology (``territory_topology`` is the only
constructor).  It stores only the least cover L(p) of each p, which
every cover of p contains, and the sheaf condition and the plus
construction read L(p) alone:
  - a family over a cover S restricts to L(p) inside S;
  - L(p) meets each q < p in a cover of q, which contains L(q);
  - so a failure at (p, S) is a failure at L(p) or at some L(q), q in S.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import NotASheaf, PostulateRequired, SizeGuard
from .heyting import HeytingAlgebra
from .sites import Topology, territory_topology
from .tset import (
    DEFAULT_GUARD,
    TSet,
    ValidationReport,
    localisation_table,
    separated_quotient,
)


@dataclass(frozen=True)
class Presheaf:
    algebra: HeytingAlgebra
    sections: tuple[tuple[str, ...], ...]
    tables: tuple[tuple[tuple[int, ...] | None, ...], ...]
    # tables[p][q] exists for every q <= p and is None elsewhere;
    # tables[p][q][i] is the q-index of the p-section i cut down to q.

    def n(self, p: int) -> int:
        return len(self.sections[p])

    def total_sections(self) -> int:
        return sum(len(s) for s in self.sections)

    def section_name(self, p: int, i: int) -> str:
        return self.sections[p][i]

    def restrict(self, p: int, q: int, i: int) -> int:
        return self.tables[p][q][i]

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.algebra, self.sections, self.tables))

    def __hash__(self) -> int:
        # presheaves key the topos verifiers' memo; hash the fields once
        return self._hash

    def __repr__(self):
        shape = {self.algebra.name(p): len(self.sections[p])
                 for p in self.algebra.elements()}
        return f"Presheaf({shape})"


def make_presheaf(H: HeytingAlgebra, sections, restrict) -> Presheaf:
    """Normalise sections/restrictions into the canonical frozen layout.

    `restrict` maps (p, q) pairs with q < p to index tuples and must hold
    at least every Hasse cover pair.  Given pairs are taken as they are;
    identity rows are filled in, and every other pair is composed down a
    chain of covers, each step to the first lower cover above q.
    """
    secs = tuple(tuple(s) for s in sections)
    tables: list[list[tuple[int, ...] | None]] = [
        [None] * H.size for _ in H.elements()
    ]
    for p, row in enumerate(tables):
        row[p] = tuple(range(len(secs[p])))
    for (p, q), tab in restrict.items():
        tables[p][q] = tuple(tab)
    for p, row in enumerate(tables):
        for q in H.down(p):
            if row[q] is None:
                tab, r = row[p], p
                while r != q:
                    lo = next(lo for lo, hi in H.covers()
                              if hi == r and H.le(q, lo))
                    step = tables[r][lo]
                    if step is None:
                        raise KeyError((r, lo))
                    tab, r = tuple(step[v] for v in tab), lo
                row[q] = tab
    return Presheaf(H, secs, tuple(map(tuple, tables)))


def validate_presheaf(P: Presheaf) -> ValidationReport:
    """Shape, range, identity and composition of restriction maps."""
    H = P.algebra
    bad: list[tuple[str, tuple]] = []
    if len(P.sections) != H.size or len(P.tables) != H.size:
        return ValidationReport(False, (("shape", ()),))
    pairs = {(p, q) for p, row in enumerate(P.tables)
             for q, tab in enumerate(row) if tab is not None}
    wanted = {(p, q) for p in H.elements() for q in H.down(p)}
    if pairs != wanted or any(len(row) != H.size for row in P.tables):
        return ValidationReport(False, (("pairs", tuple(sorted(pairs ^ wanted))),))
    T = P.tables
    for p in H.elements():
        for q in H.down(p):
            tab = T[p][q]
            if len(tab) != P.n(p) or any(not 0 <= v < P.n(q) for v in tab):
                bad.append(("range", (H.name(p), H.name(q))))
    for p in H.elements():
        if T[p][p] != tuple(range(P.n(p))):
            bad.append(("identity", (H.name(p),)))
    for p in H.elements():
        for q in H.down(p):
            for r in H.down(q):
                if tuple(T[q][r][v] for v in T[p][q]) != T[p][r]:
                    bad.append(("composition", (H.name(p), H.name(q), H.name(r))))
    return ValidationReport(not bad, tuple(bad))


# ----------------------------------------------------------- T-set bridge

def tset_to_presheaf(t: TSet) -> Presheaf:
    """Sections over p are the elements existing exactly at p, after the
    indiscernibility quotient; restriction along a Hasse cover is
    localisation, and make_presheaf composes the rest.

    Raises PostulateRequired when some needed localisation has no
    carrier witness.
    """
    tq = separated_quotient(t).tset
    H = tq.algebra
    loc = localisation_table(tq)
    level: dict[int, list[int]] = {p: [] for p in H.elements()}
    for x in range(tq.size):
        level[tq.ee(x)].append(x)
    pos: dict[int, dict[int, int]] = {
        p: {x: i for i, x in enumerate(level[p])} for p in H.elements()
    }
    sections = tuple(tuple(tq.name(x) for x in level[p]) for p in H.elements())
    restrict = {}
    for q, p in H.covers():
        row = []
        for x in level[p]:
            w = loc[x][q]
            if w is None:
                raise PostulateRequired(
                    f"element {tq.name(x)!r} has no localisation at {H.name(q)!r}"
                )
            row.append(pos[q][w])
        restrict[(p, q)] = tuple(row)
    return make_presheaf(H, sections, restrict)


def quasi_presheaf(t: TSet) -> Presheaf:
    """Total embedding for quasi-T-sets: p-sections are carrier elements
    existing at least at p, identified when they agree at p."""
    H = t.algebra
    reps: dict[int, list[int]] = {}
    cls: dict[int, dict[int, int]] = {}
    for p in H.elements():
        reps[p] = []
        cls[p] = {}
        for x in range(t.size):
            if not H.le(p, t.ee(x)):
                continue
            for i, r in enumerate(reps[p]):
                if H.le(p, t.ident(x, r)):
                    cls[p][x] = i
                    break
            else:
                cls[p][x] = len(reps[p])
                reps[p].append(x)
    sections = tuple(
        tuple(f"{H.name(p)}:{t.name(r)}" for r in reps[p])
        for p in H.elements()
    )
    restrict = {(p, q): tuple(cls[q][r] for r in reps[p])
                for q, p in H.covers()}
    return make_presheaf(H, sections, restrict)


def presheaf_to_tset(P: Presheaf, J: Topology | None = None) -> TSet:
    """Disjoint sections with identity graded by agreement degree.

    Requires the sheaf condition (territory topology when J is omitted);
    the result is a separated T-set whose elements exist exactly at
    their origin level.
    """
    if J is None:
        J = territory_topology(P.algebra)
    report = is_sheaf(P, J)
    if not report.ok:
        raise NotASheaf(report.witness)
    H = P.algebra
    carrier = [(p, i) for p in H.elements() for i in range(P.n(p))]
    names = tuple(f"{H.name(p)}.{P.section_name(p, i)}" for p, i in carrier)
    table = []
    for p, i in carrier:
        row = []
        for q, j in carrier:
            agree = [
                r for r in H.down(H.meet(p, q))
                if P.restrict(p, r, i) == P.restrict(q, r, j)
            ]
            row.append(H.sigma(agree))
        table.append(tuple(row))
    return TSet(H, names, tuple(table))


# ------------------------------------------------------- sheaf condition

@dataclass(frozen=True)
class SheafReport:
    ok: bool
    witness: tuple | None


def _unit(P: Presheaf, p: int, L: tuple[int, ...]) -> list[tuple[tuple[int], ...]]:
    """eta_p: each section x at p as the family (x|q for q in L), shaped
    like a natural family out of the terminal presheaf over L."""
    return [tuple((P.tables[p][q][x],) for q in L) for x in range(P.n(p))]


def is_separated(P: Presheaf, J: Topology) -> SheafReport:
    """eta_p is injective at every p: no two distinct sections agree on
    a whole cover.  A pair agreeing on some cover agrees on L(p), so
    only least covers are read.  Where p lies in L(p), eta_p keeps the
    section itself and cannot fail to be injective."""
    H = P.algebra
    for p in H.elements():
        L = J.least[p]
        if p in L:
            continue
        twins: dict[tuple, list[int]] = {}
        for x, row in enumerate(_unit(P, p, L)):
            twins.setdefault(row, []).append(x)
        pairs = [xs[:2] for xs in twins.values() if len(xs) > 1]
        if pairs:
            x, y = min(pairs)
            return SheafReport(False, (
                H.name(p), L,
                P.section_name(p, x), P.section_name(p, y)))
    return SheafReport(True, None)


def is_sheaf(P: Presheaf, J: Topology) -> SheafReport:
    """eta_p is a bijection onto the matching families over L(p), the
    natural families out of the terminal presheaf over L(p): each family
    is hit exactly once.  By the module docstring's argument only least
    covers are read.  Where p lies in L(p), L(p) is all of down(p), a
    family is its own value at p, and the check cannot fail.

    The witness is (p, L(p), family, number of sections hitting it)."""
    H = P.algebra
    one = terminal_presheaf(H)
    for p in H.elements():
        L = J.least[p]
        if p in L:
            continue
        hits = Counter(_unit(P, p, L))
        for fam in natural_families(one, P, L):
            if (n := hits[fam]) != 1:
                return SheafReport(False, (
                    H.name(p), L, tuple(x for (x,) in fam), n))
    return SheafReport(True, None)


# --------------------------------------------------------- sheafification

def _collate_once(P: Presheaf, J: Topology) -> Presheaf:
    """The plus construction on least covers.  Families over covers of p
    agreeing on a common cover agree on L(p), so a section at p is one
    matching family over L(p), a natural family out of the terminal
    presheaf; restriction to q < p cuts it down to L(q), which lies
    inside L(p) and below q."""
    return families_presheaf(terminal_presheaf(P.algebra), P, J.least, "+")[0]


def sheafify(P: Presheaf, J: Topology) -> Presheaf:
    """The plus construction twice; the result always satisfies is_sheaf."""
    return _collate_once(_collate_once(P, J), J)


# ------------------------------------------------- maps between presheaves

@dataclass(frozen=True)
class NatTransform:
    source: Presheaf
    target: Presheaf
    components: tuple[tuple[int, ...], ...]

    def apply(self, p: int, i: int) -> int:
        return self.components[p][i]

    def compose(self, other: "NatTransform") -> "NatTransform":
        # self after other
        if other.target != self.source:
            raise ValueError("composition endpoints do not match")
        comps = tuple(
            tuple(self.components[p][v] for v in other.components[p])
            for p in range(len(self.components))
        )
        return NatTransform(other.source, self.target, comps)


def naturality_witness(nt: NatTransform) -> tuple | None:
    """None when nt is a natural transformation; otherwise why not:
    ("algebra",), ("components", p) for a missing, mis-sized or
    out-of-range component, or the first (p, q, i) whose naturality
    square fails for the p-section i restricted to q."""
    P, Q = nt.source, nt.target
    if P.algebra != Q.algebra:
        return ("algebra",)
    H = P.algebra
    if len(nt.components) != H.size:
        return ("components", len(nt.components))
    for p in H.elements():
        comp = nt.components[p]
        if len(comp) != P.n(p) or any(not 0 <= v < Q.n(p) for v in comp):
            return ("components", H.name(p))
    for p in H.elements():
        for q in H.down(p):
            for i in range(P.n(p)):
                if Q.restrict(p, q, nt.apply(p, i)) != nt.apply(q, P.restrict(p, q, i)):
                    return (H.name(p), H.name(q), i)
    return None


def natural_families(
        P: Presheaf, Q: Presheaf, levels, bijective: bool = False,
) -> list[tuple[tuple[int, ...], ...]]:
    """Every natural family of maps P(q) -> Q(q) over the down-closed
    set `levels` (ascending), as component tuples aligned with `levels`,
    in ascending order.  With `bijective`, components are drawn from
    the injections only, which are the bijections when P and Q have
    equally many sections at each level.

    Levels are chosen top-down (larger down-sets first), each candidate
    component pruned against the levels above it chosen so far."""
    H = P.algebra
    order = sorted(levels, key=lambda q: (-len(H.down(q)), q))
    chosen: dict[int, tuple[int, ...]] = {}
    out: list[tuple[tuple[int, ...], ...]] = []

    def natural_with(p: int, comp: tuple[int, ...]) -> bool:
        # only levels above p precede it in the order
        for q, other in chosen.items():
            if H.le(p, q):
                src, dst = P.tables[q][p], Q.tables[q][p]
                if any(dst[other[i]] != comp[v] for i, v in enumerate(src)):
                    return False
        return True

    def rec(k: int):
        if k == len(order):
            out.append(tuple(chosen[q] for q in levels))
            return
        p = order[k]
        draw = (itertools.permutations(range(Q.n(p)), P.n(p)) if bijective
                else itertools.product(range(Q.n(p)), repeat=P.n(p)))
        for comp in draw:
            if natural_with(p, comp):
                chosen[p] = comp
                rec(k + 1)
                del chosen[p]

    rec(0)
    del rec  # rec refers to itself; break the cycle
    out.sort()
    return out


def families_presheaf(X: Presheaf, Y: Presheaf, levels, tag: str):
    """The presheaf whose sections over p are natural_families(X, Y,
    levels[p]), named <p><tag><k>, and those families.  Each levels[q]
    for q < p must lie inside levels[p], in the same order; restriction
    to q keeps the components over levels[q]."""
    H = X.algebra
    families = tuple(tuple(natural_families(X, Y, L)) for L in levels)
    index = [{f: k for k, f in enumerate(fams)} for fams in families]
    sections = tuple(tuple(f"{H.name(p)}{tag}{k}" for k in range(len(fams)))
                     for p, fams in enumerate(families))
    restrict = {}
    for q, p in H.covers():
        keep = [k for k, r in enumerate(levels[p]) if r in levels[q]]
        restrict[(p, q)] = tuple(
            index[q][tuple(f[k] for k in keep)] for f in families[p])
    return make_presheaf(H, sections, restrict), families


def hom_presheaf(P: Presheaf, Q: Presheaf,
                 guard: int = DEFAULT_GUARD) -> list[NatTransform]:
    """All natural transformations P -> Q, enumerated top-down with
    naturality pruning, canonical order."""
    H = P.algebra
    if H != Q.algebra:
        return []
    total = 1
    for p in H.elements():
        total *= max(Q.n(p), 1) ** P.n(p)
        if total > guard:
            raise SizeGuard("presheaf hom enumeration", total, guard)
        if Q.n(p) == 0 and P.n(p) > 0:
            return []
    return [NatTransform(P, Q, comps)
            for comps in natural_families(P, Q, H.elements())]


def find_presheaf_iso(P: Presheaf, Q: Presheaf,
                      guard: int = DEFAULT_GUARD) -> NatTransform | None:
    """The least natural isomorphism P -> Q, or None.  Only bijective
    components are enumerated, at most the product of n_p! over p."""
    H = P.algebra
    if H != Q.algebra:
        return None
    if any(P.n(p) != Q.n(p) for p in H.elements()):
        return None
    total = math.prod(math.factorial(P.n(p)) for p in H.elements())
    if total > guard:
        raise SizeGuard("presheaf iso enumeration", total, guard)
    isos = natural_families(P, Q, H.elements(), bijective=True)
    return NatTransform(P, Q, isos[0]) if isos else None


# ------------------------------------------------------- small presheaves

@functools.cache
def representable(H: HeytingAlgebra, s: int) -> Presheaf:
    """One section over every element below s, none elsewhere.  Built
    once per algebra and level: presheaves are frozen values."""
    sections = tuple(("*",) if H.le(q, s) else () for q in H.elements())
    restrict = {(p, q): (0,) if H.le(p, s) else () for q, p in H.covers()}
    return make_presheaf(H, sections, restrict)


def terminal_presheaf(H: HeytingAlgebra) -> Presheaf:
    return representable(H, H.top)


def to_terminal(P: Presheaf) -> NatTransform:
    """The unique arrow P -> 1."""
    H = P.algebra
    return NatTransform(P, terminal_presheaf(H),
                        tuple((0,) * P.n(p) for p in H.elements()))


def product_presheaf(P: Presheaf, Q: Presheaf) -> Presheaf:
    """P x Q, the pullback over the terminal presheaf."""
    return pullback_presheaf(to_terminal(P), to_terminal(Q)).presheaf


@dataclass(frozen=True)
class PresheafPullback:
    presheaf: Presheaf
    proj1: NatTransform
    proj2: NatTransform
    # pairs[p][k] is the section pair (i, j) that section k over p is
    pairs: tuple[tuple[tuple[int, int], ...], ...]


def pullback_presheaf(f: NatTransform, g: NatTransform) -> PresheafPullback:
    """Pairs (i, j) of sections over the same level that agree in the
    shared codomain, restriction componentwise.  Agreement is stable
    under restriction because f and g are natural."""
    if f.target != g.target:
        raise ValueError("pullback needs a shared codomain")
    P, Q = f.source, g.source
    H = P.algebra
    pairs = tuple(
        tuple((i, j) for i, c in enumerate(f.components[p])
              for j, d in enumerate(g.components[p]) if c == d)
        for p in H.elements()
    )
    sections = tuple(
        tuple(f"({P.section_name(p, i)},{Q.section_name(p, j)})"
              for i, j in pairs[p])
        for p in H.elements()
    )
    restrict = {}
    for q, p in H.covers():
        pos = {pair: k for k, pair in enumerate(pairs[q])}
        left, right = P.tables[p][q], Q.tables[p][q]
        restrict[(p, q)] = tuple(
            pos[(left[i], right[j])] for i, j in pairs[p]
        )
    PB = make_presheaf(H, sections, restrict)
    c1 = tuple(tuple(i for i, _ in level) for level in pairs)
    c2 = tuple(tuple(j for _, j in level) for level in pairs)
    return PresheafPullback(
        PB, NatTransform(PB, P, c1), NatTransform(PB, Q, c2), pairs)
