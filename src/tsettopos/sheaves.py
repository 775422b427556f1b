"""Presheaves on the poset site and the T-set <-> sheaf bridge.

Sections live over algebra elements; restriction follows the order.
T-sets with all localisations witnessed present as presheaves whose
p-sections are the elements existing exactly at p; sheaves convert back
via the agreement-degree identity.  Sheafification is the one-step
collation construction applied twice.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import NotASheaf, PostulateRequired, SizeGuard
from .heyting import HeytingAlgebra
from .sites import Sieve, Topology, territory_topology
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
    indiscernibility quotient; restriction is localisation.

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
    for p in H.elements():
        for q in H.down(p):
            if q == p:
                continue
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
    restrict = {}
    for p in H.elements():
        for q in H.down(p):
            if q == p:
                continue
            restrict[(p, q)] = tuple(cls[q][r] for r in reps[p])
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
class MatchingFamily:
    sieve: Sieve
    choice: tuple[int, ...]
    # choice aligns with sorted(sieve.members)


def matching_families(P: Presheaf, s: Sieve) -> list[MatchingFamily]:
    """All families over the sieve, one section per member, compatible
    under restriction."""
    H = P.algebra
    members = sorted(s.members)
    out: list[MatchingFamily] = []
    chosen: list[int] = []

    def rec(k: int):
        if k == len(members):
            out.append(MatchingFamily(s, tuple(chosen)))
            return
        q = members[k]
        for x in range(P.n(q)):
            ok = True
            for j in range(k):
                r = members[j]
                if H.le(r, q) and P.restrict(q, r, x) != chosen[j]:
                    ok = False
                    break
                if H.le(q, r) and P.restrict(r, q, chosen[j]) != x:
                    ok = False
                    break
            if ok:
                chosen.append(x)
                rec(k + 1)
                chosen.pop()

    rec(0)
    return out


def amalgamate(P: Presheaf, m: MatchingFamily) -> list[int]:
    """Sections at the sieve's base whose restrictions reproduce the family."""
    s = m.sieve
    members = sorted(s.members)
    return [
        x for x in range(P.n(s.at))
        if all(P.restrict(s.at, q, x) == m.choice[k]
               for k, q in enumerate(members))
    ]


@dataclass(frozen=True)
class SheafReport:
    ok: bool
    witness: tuple | None


def is_separated(P: Presheaf, J: Topology) -> SheafReport:
    """No two distinct sections agree on a whole cover."""
    H = P.algebra
    for p in H.elements():
        for S in J.covering(p):
            for x in range(P.n(p)):
                for y in range(x + 1, P.n(p)):
                    if all(P.restrict(p, q, x) == P.restrict(p, q, y) for q in S):
                        return SheafReport(
                            False,
                            (H.name(p), tuple(sorted(S)),
                             P.section_name(p, x), P.section_name(p, y)),
                        )
    return SheafReport(True, None)


def is_sheaf(P: Presheaf, J: Topology) -> SheafReport:
    """Every matching family over every cover amalgamates exactly once."""
    H = P.algebra
    for p in H.elements():
        for S in J.covering(p):
            sieve = Sieve(H, p, S)
            for m in matching_families(P, sieve):
                n = len(amalgamate(P, m))
                if n != 1:
                    return SheafReport(
                        False, (H.name(p), tuple(sorted(S)), m.choice, n)
                    )
    return SheafReport(True, None)


# --------------------------------------------------------- sheafification

def _collate_once(P: Presheaf, J: Topology) -> Presheaf:
    """One application of the collation step: sections at p become
    matching families over covers of p, identified when they agree on a
    common covering refinement."""
    H = P.algebra
    pairs_at: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    for p in H.elements():
        pairs = []
        for S in J.covering(p):
            sieve = Sieve(H, p, S)
            for m in matching_families(P, sieve):
                pairs.append((tuple(sorted(S)), m.choice))
        pairs.sort()
        pairs_at.append(pairs)

    def agree(p: int, a, b) -> bool:
        sa, fa = a
        sb, fb = b
        inter = set(sa) & set(sb)
        for S3 in J.covering(p):
            if not S3 <= inter:
                continue
            ia = {q: fa[k] for k, q in enumerate(sa)}
            ib = {q: fb[k] for k, q in enumerate(sb)}
            if all(ia[q] == ib[q] for q in S3):
                return True
        return False

    class_of: list[dict] = []
    classes_at: list[list[tuple]] = []
    for p in H.elements():
        pairs = pairs_at[p]
        labels: dict = {}
        classes: list[tuple] = []
        for pair in pairs:
            for rep in classes:
                if agree(p, pair, rep):
                    labels[pair] = labels[rep]
                    break
            else:
                labels[pair] = len(classes)
                classes.append(pair)
        class_of.append(labels)
        classes_at.append(classes)

    sections = tuple(
        tuple(f"{H.name(p)}+{k}" for k in range(len(classes_at[p])))
        for p in H.elements()
    )
    restrict = {}
    for p in H.elements():
        for q in H.down(p):
            if q == p:
                continue
            row = []
            below = set(H.down(q))
            for rep in classes_at[p]:
                sa, fa = rep
                keep = [k for k, m in enumerate(sa) if m in below]
                cut = (tuple(sa[k] for k in keep), tuple(fa[k] for k in keep))
                row.append(class_of[q][cut])
            restrict[(p, q)] = tuple(row)
    return make_presheaf(H, sections, restrict)


def sheafify(P: Presheaf, J: Topology) -> Presheaf:
    """Collation applied twice; the result always satisfies is_sheaf."""
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


def validate_nat(nt: NatTransform) -> bool:
    return naturality_witness(nt) is None


def natural_families(P: Presheaf, Q: Presheaf,
                     levels) -> list[tuple[tuple[int, ...], ...]]:
    """Every natural family of maps P(q) -> Q(q) over the down-closed
    set `levels` (ascending), as component tuples aligned with `levels`,
    in ascending order.

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
        for comp in itertools.product(range(Q.n(p)), repeat=P.n(p)):
            if natural_with(p, comp):
                chosen[p] = comp
                rec(k + 1)
                del chosen[p]

    rec(0)
    out.sort()
    return out


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
    """A natural isomorphism P -> Q, or None."""
    H = P.algebra
    if H != Q.algebra:
        return None
    if any(P.n(p) != Q.n(p) for p in H.elements()):
        return None
    for nt in hom_presheaf(P, Q, guard):
        if all(len(set(nt.components[p])) == P.n(p) for p in H.elements()):
            return nt
    return None


# ------------------------------------------------------- small presheaves

def representable(H: HeytingAlgebra, s: int) -> Presheaf:
    """One section over every element below s, none elsewhere."""
    sections = tuple(("*",) if H.le(q, s) else () for q in H.elements())
    restrict = {(p, q): (0,) if H.le(p, s) else () for q, p in H.covers()}
    return make_presheaf(H, sections, restrict)


def terminal_presheaf(H: HeytingAlgebra) -> Presheaf:
    return representable(H, H.top)


def empty_presheaf(H: HeytingAlgebra) -> Presheaf:
    sections = tuple(() for _ in H.elements())
    return make_presheaf(H, sections, {(p, q): () for q, p in H.covers()})


def _sectionwise_pairs(P: Presheaf, Q: Presheaf, agree):
    """Pairs (i, j) of sections over the same level with agree(p, i, j),
    restriction componentwise; returns the presheaf and the pair lists.
    `agree` must be stable under restriction; None admits every pair."""
    H = P.algebra
    pairs = [
        [(i, j) for i in range(P.n(p)) for j in range(Q.n(p))
         if agree is None or agree(p, i, j)]
        for p in H.elements()
    ]
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
    return make_presheaf(H, sections, restrict), pairs


def product_presheaf(P: Presheaf, Q: Presheaf) -> Presheaf:
    """P x Q, the pullback over the terminal presheaf: every pair of
    sections over a level, restriction componentwise."""
    return _sectionwise_pairs(P, Q, None)[0]


@dataclass(frozen=True)
class PresheafPullback:
    presheaf: Presheaf
    proj1: NatTransform
    proj2: NatTransform
    # pairs[p][k] is the section pair (i, j) that section k over p is
    pairs: tuple[tuple[tuple[int, int], ...], ...]


def pullback_presheaf(f: NatTransform, g: NatTransform) -> PresheafPullback:
    """Sectionwise pairs agreeing in the shared codomain."""
    if f.target != g.target:
        raise ValueError("pullback needs a shared codomain")
    P, Q = f.source, g.source
    PB, pairs = _sectionwise_pairs(
        P, Q, lambda p, i, j: f.components[p][i] == g.components[p][j])
    c1 = tuple(tuple(i for i, _ in level) for level in pairs)
    c2 = tuple(tuple(j for _, j in level) for level in pairs)
    return PresheafPullback(
        PB, NatTransform(PB, P, c1), NatTransform(PB, Q, c2),
        tuple(map(tuple, pairs)),
    )
