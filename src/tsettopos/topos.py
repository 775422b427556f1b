"""Category structure on T-sets and their sheaves.

Finite limits and graphs on T-sets, and finite limits, exponentials
and the subobject classifier on presheaves.  Each presheaf structure
is paired with a universal-property verifier: existence plus
uniqueness of the mediating arrow, decided against the representables
y(p) = down(p), and so against every presheaf: limits are computed
sectionwise and hom(y(p), F) = F(p) (Yoneda), so the limit verifiers
compare sections level by level, and the exponential is stated
through ev, so that its verifiers never trust `transpose`.  The T-set
limits are checked against them by a test oracle that enumerates the
mediators from listed cone vertices.  Also
the published refutation machinery: the commutativity-only mediation
count on a triple product, against the unique mediation into a graph,
and the probe-separation check tying the reality of atoms to arrows out
of subterminals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeGuard
from .heyting import HeytingAlgebra, two_element
from .sheaves import (
    NatTransform,
    Presheaf,
    PresheafPullback,
    families_presheaf,
    hom_presheaf,
    is_sheaf,
    make_presheaf,
    naturality_witness,
    product_presheaf,
    pullback_presheaf,
    representable,
    terminal_presheaf,
    to_terminal,
)
from .sites import Topology, closed_sieves
from .tset import (
    DEFAULT_GUARD,
    TRelation,
    TSet,
    hom_set,
    identity_relation,
    indiscernible_classes,
    localise_element,
    principal_tset,
    separated_quotient,
    set_like_tset,
)


# ---------------------------------------------------- T-set level limits

def terminal(H: HeytingAlgebra) -> TSet:
    """The subterminal at the top: carrier = the algebra itself,
    identity = meet."""
    return principal_tset(H, H.top)


def unique_to_terminal(A: TSet, one: TSet) -> TRelation:
    return TRelation(A, one, tuple(A.ee(x) for x in range(A.size)))


def mediators(W: TSet, target: TSet,
              constraints: list[tuple[TRelation, TRelation]],
              guard: int = DEFAULT_GUARD) -> list[TRelation]:
    """All valid relations h: W -> target with after . h = required for
    each (after, required) pair: the hom-set with each element's images
    cut down to those the constraints allow."""
    images = [
        [y for y in range(target.size)
         if all(a.mapping[y] == r.mapping[w] for a, r in constraints)]
        for w in range(W.size)
    ]
    return hom_set(W, target, guard, images)


@dataclass(frozen=True)
class GraphResult:
    tset: TSet
    to_source: TRelation
    to_target: TRelation
    embed: TRelation


def graph(rho: TRelation) -> GraphResult:
    """Carrier = pairs (x, rho(x)) with the componentwise identity meet;
    the identity inequality collapses it to the source identity."""
    A, B = rho.source, rho.target
    H = A.algebra
    names = tuple(
        f"({A.name(x)},{B.name(rho.apply(x))})" for x in range(A.size)
    )
    table = tuple(
        tuple(
            H.meet(A.ident(x, y), B.ident(rho.apply(x), rho.apply(y)))
            for y in range(A.size)
        )
        for x in range(A.size)
    )
    g = TSet(H, names, table)
    idx = tuple(range(A.size))
    return GraphResult(
        g,
        TRelation(g, A, idx),
        TRelation(g, B, tuple(rho.mapping)),
        TRelation(A, g, idx),
    )


@dataclass(frozen=True)
class PullbackResult:
    tset: TSet
    proj1: TRelation
    proj2: TRelation
    pairs: tuple[tuple[int, int], ...]


def pullback(f: TRelation, g: TRelation,
             guard: int = DEFAULT_GUARD) -> PullbackResult:
    """Carrier pairs whose images in the shared codomain agree at the
    pair's full existence degree, with componentwise identity meet.

    Projections localise each component to the pair's existence degree,
    so both factors must have those localisations witnessed.  SizeGuard
    fires before the table is built if it would exceed `guard` cells."""
    if f.target != g.target:
        raise ValueError("pullback needs a shared codomain")
    A, B, C = f.source, g.source, f.target
    H = A.algebra
    pairs = tuple(
        (i, j) for i in range(A.size) for j in range(B.size)
        if C.ident(f.apply(i), g.apply(j)) == H.meet(A.ee(i), B.ee(j))
    )
    if len(pairs) ** 2 > guard:
        raise SizeGuard("pullback table", len(pairs) ** 2, guard)
    names = tuple(f"({A.name(i)},{B.name(j)})" for i, j in pairs)
    table = tuple(
        tuple(H.meet(A.ident(i, k), B.ident(j, l)) for k, l in pairs)
        for i, j in pairs
    )
    pb = TSet(H, names, table)
    m1 = []
    m2 = []
    for i, j in pairs:
        e = H.meet(A.ee(i), B.ee(j))
        m1.append(localise_element(A, i, e))
        m2.append(localise_element(B, j, e))
    return PullbackResult(
        pb,
        TRelation(pb, A, tuple(m1)),
        TRelation(pb, B, tuple(m2)),
        pairs,
    )


def product(A: TSet, B: TSet, guard: int = DEFAULT_GUARD) -> PullbackResult:
    """A x B, the pullback of the unique arrows to the terminal T-set:
    every carrier pair survives."""
    if A.algebra != B.algebra:
        raise ValueError("product factors live over different algebras")
    one = terminal(A.algebra)
    return pullback(unique_to_terminal(A, one), unique_to_terminal(B, one),
                    guard)


# ----------------------------------------------- presheaf-level structure

class Memo:
    """Hom-sets and products, each computed once per value.

    The presheaf verifiers that enumerate arrows take one as an optional
    last argument; without it each makes its own, so nothing is shared
    between calls.  `check_topos_axioms` makes one per call, which its
    verifiers share and which is dropped when it returns.  Presheaves
    are frozen values, so equal presheaves built apart share one entry.
    Misses go through the module-level `hom_presheaf` and
    `product_presheaf`."""

    def __init__(self):
        self._homs: dict = {}
        self._products: dict = {}

    def hom(self, P: Presheaf, Q: Presheaf, guard: int) -> list[NatTransform]:
        key = (P, Q, guard)
        if key not in self._homs:
            self._homs[key] = hom_presheaf(P, Q, guard)
        return self._homs[key]

    def product(self, P: Presheaf, Q: Presheaf) -> Presheaf:
        key = (P, Q)
        if key not in self._products:
            self._products[key] = product_presheaf(P, Q)
        return self._products[key]


def pullback_universal_presheaf(pb: PresheafPullback, f: NatTransform,
                                g: NatTransform) -> tuple[bool, tuple | None]:
    """The square pb -> A, B -> C is a pullback of f and g, and its
    mediators are the pairings z -> (u z, v z) of `pb.pairs`.

    Decided against every representable y(p) = down(p), hence against
    every presheaf: limits are computed sectionwise, and by Yoneda a
    cone from y(p) is a section pair (u, v) in A(p) x B(p) with
    f u = g v, while an arrow y(p) -> pb is a section of pb at p.  So
    once the legs are natural arrows into f's and g's sources with
    f . proj1 = g . proj2, the legs must biject pb(p) onto the commuting
    pairs at each p, each section being its pair's index in pb.pairs[p].

    Witnesses: ("leg-endpoints", k) or ("leg-natural", k, why) for leg
    k; ("commute", p, s) for a section s whose legs disagree in C;
    (p, u, v, count) for a commuting pair hit by count != 1 sections;
    (p, u, v, "mediator") when its one section is not the pairing."""
    H = f.source.algebra
    for k, (leg, end) in enumerate(((pb.proj1, f.source),
                                    (pb.proj2, g.source)), 1):
        if (leg.source, leg.target) != (pb.presheaf, end):
            return False, ("leg-endpoints", k)
        if (why := naturality_witness(leg)) is not None:
            return False, ("leg-natural", k, why)
    for p in H.elements():
        fp, gp = f.components[p], g.components[p]
        legs = list(zip(pb.proj1.components[p], pb.proj2.components[p]))
        for s, (u, v) in enumerate(legs):
            if fp[u] != gp[v]:
                return False, ("commute", H.name(p), s)
        index = {pair: s for s, pair in enumerate(pb.pairs[p])}
        for u, c in enumerate(fp):
            for v, d in enumerate(gp):
                if c != d:
                    continue
                if (n := legs.count((u, v))) != 1:
                    return False, (H.name(p), u, v, n)
                if index.get((u, v)) != legs.index((u, v)):
                    return False, (H.name(p), u, v, "mediator")
    return True, None


def product_universal_presheaf(P: Presheaf,
                               Q: Presheaf) -> tuple[bool, tuple | None]:
    """P x Q verified as the pullback over the terminal presheaf."""
    f, g = to_terminal(P), to_terminal(Q)
    return pullback_universal_presheaf(pullback_presheaf(f, g), f, g)


# ------------------------------------------------------------ exponential

@dataclass(frozen=True)
class ExponentialResult:
    presheaf: Presheaf
    base: Presheaf
    power: Presheaf
    # families[p][k] is the k-th section over p as an actual family of
    # maps: one component tuple per q in H.down(p), in that order.
    families: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]

    def component_at(self, p: int, k: int, q: int) -> tuple[int, ...]:
        return self.families[p][k][self.base.algebra.down(p).index(q)]


def exponential(X: Presheaf, Y: Presheaf,
                guard: int = DEFAULT_GUARD) -> ExponentialResult:
    """Sections over p are the natural families of maps X(q) -> Y(q) for
    q <= p, i.e. hom(X restricted to p, Y restricted to p); restriction
    is truncation of the family."""
    H = X.algebra
    if H != Y.algebra:
        raise ValueError("exponential needs one algebra")
    total = 1
    for p in H.elements():
        for q in H.down(p):
            total *= max(Y.n(q), 1) ** X.n(q)
            if total > guard:
                raise SizeGuard("exponential enumeration", total, guard)

    E, families = families_presheaf(
        X, Y, [H.down(p) for p in H.elements()], "^f")
    return ExponentialResult(E, X, Y, families)


def evaluation(E: ExponentialResult) -> NatTransform:
    """ev: (Y^X) x X -> Y, the uncurried identity of Y^X."""
    EP = E.presheaf
    identity = NatTransform(
        EP, EP, tuple(tuple(range(EP.n(p))) for p in EP.algebra.elements()))
    return untranspose(E, EP, identity)


def transpose(E: ExponentialResult, Z: Presheaf,
              k: NatTransform) -> NatTransform:
    """Currying: k: Z x X -> Y becomes Z -> Y^X."""
    X = E.base
    H = X.algebra
    comps = []
    for p in H.elements():
        index = {fam: k for k, fam in enumerate(E.families[p])}
        row = []
        for z in range(Z.n(p)):
            fam = tuple(
                tuple(
                    k.components[q][Z.restrict(p, q, z) * X.n(q) + x]
                    for x in range(X.n(q))
                )
                for q in H.down(p)
            )
            row.append(index[fam])
        comps.append(tuple(row))
    return NatTransform(Z, E.presheaf, tuple(comps))


def untranspose(E: ExponentialResult, Z: Presheaf, h: NatTransform,
                memo: Memo | None = None) -> NatTransform:
    """Uncurrying: h: Z -> Y^X becomes ev . (h x id): Z x X -> Y, which
    sends the pair (z, x) over p to the family h(z) evaluated at x."""
    comps = tuple(
        tuple(y for k in h.components[p] for y in E.component_at(p, k, p))
        for p in E.base.algebra.elements()
    )
    return NatTransform((memo or Memo()).product(Z, E.base), E.power, comps)


def check_adjunction(E: ExponentialResult, Z: Presheaf,
                     guard: int = DEFAULT_GUARD,
                     memo: Memo | None = None) -> tuple[bool, tuple | None]:
    """(Y^X, ev) is universal from Z: h -> ev . (h x id), which is
    `untranspose`, maps Hom(Z, Y^X) injectively into Hom(Z x X, Y), and
    the two hom-sets are equally large, so it is a bijection."""
    memo = memo or Memo()
    lower = {k.components
             for k in memo.hom(memo.product(Z, E.base), E.power, guard)}
    upper = memo.hom(Z, E.presheaf, guard)
    if len(lower) != len(upper):
        return False, ("count", len(lower), len(upper))
    seen = set()
    for h in upper:
        k = untranspose(E, Z, h, memo).components
        if k not in lower:
            return False, ("untranspose-nat", h.components)
        if k in seen:
            return False, ("untranspose-injective", h.components)
        seen.add(k)
    return True, None


def check_adjunction_natural(E: ExponentialResult, Z2: Presheaf, Z: Presheaf,
                             guard: int = DEFAULT_GUARD,
                             memo: Memo | None = None) -> tuple[bool, tuple | None]:
    """ev . ((h . r) x id) = (ev . (h x id)) . (r x id) for every
    r: Z2 -> Z and h: Z -> Y^X, composed on component tuples.

    This holds for every exponential E, right or wrong: since
    (h . r) x id = (h x id) . (r x id), both sides are
    ev . (h x id) . (r x id).  It decides nothing that
    `check_adjunction` does not."""
    memo = memo or Memo()
    H = E.base.algebra
    width = [E.base.n(p) for p in H.elements()]
    rs = memo.hom(Z2, Z, guard)
    hs = memo.hom(Z, E.presheaf, guard) if rs else []
    ks = [untranspose(E, Z, h, memo).components for h in hs]
    for r in rs:
        for h, k in zip(hs, ks):
            hr = tuple(tuple(h.components[p][z] for z in r.components[p])
                       for p in H.elements())
            left = untranspose(E, Z2, NatTransform(Z2, E.presheaf, hr), memo)
            right = tuple(
                tuple(k[p][z * width[p] + x]
                      for z in r.components[p] for x in range(width[p]))
                for p in H.elements()
            )
            if left.components != right:
                return False, (r.components, h.components)
    return True, None


# ------------------------------------------------- subobject classifier

@dataclass(frozen=True)
class OmegaResult:
    presheaf: Presheaf
    truth: NatTransform
    sieves: tuple[tuple[frozenset[int], ...], ...]


def omega(H: HeytingAlgebra, J: Topology) -> OmegaResult:
    """Sections over p are the closed sieves at p; restriction is sieve
    pullback; truth points at the maximal sieve."""
    sieves = tuple(
        tuple(closed_sieves(H, J, p)) for p in H.elements()
    )
    sections = tuple(
        tuple(
            "{" + ",".join(H.name(q) for q in sorted(m)) + "}"
            for m in sieves[p]
        )
        for p in H.elements()
    )
    restrict = {}
    for q, p in H.covers():
        below = frozenset(H.down(q))
        restrict[(p, q)] = tuple(sieves[q].index(m & below) for m in sieves[p])
    om = make_presheaf(H, sections, restrict)
    one = terminal_presheaf(H)
    truth_comps = tuple(
        (sieves[p].index(frozenset(H.down(p))),) for p in H.elements()
    )
    return OmegaResult(om, NatTransform(one, om, truth_comps), sieves)


def subobjects(parent: Presheaf, J: Topology,
               guard: int = DEFAULT_GUARD) -> list[tuple[tuple[int, ...], ...]]:
    """The subsheaves of `parent`, as masks in mask-lexicographic order.

    mask[p] lists, ascending, the parent sections over p that lie in the
    subsheaf.  Each mask closed under restriction is built as a
    sub-presheaf and kept when `is_sheaf` accepts it.  The walk covers
    all 2**(total sections) masks; past the guard it raises SizeGuard."""
    H = parent.algebra
    size = 2 ** parent.total_sections()
    if size > guard:
        raise SizeGuard("subobject enumeration", size, guard)
    per_level = [[c for r in range(parent.n(p) + 1)
                  for c in itertools.combinations(range(parent.n(p)), r)]
                 for p in H.elements()]
    out = []
    for mask in itertools.product(*per_level):
        pos = [{i: k for k, i in enumerate(m)} for m in mask]
        if not all(parent.restrict(p, q, i) in pos[q]
                   for p in H.elements() for q in H.down(p) for i in mask[p]):
            continue
        sub = make_presheaf(H, [[parent.section_name(p, i) for i in m]
                                for p, m in enumerate(mask)],
                            {(p, q): [pos[q][parent.restrict(p, q, i)]
                                      for i in mask[p]]
                             for q, p in H.covers()})
        if is_sheaf(sub, J).ok:
            out.append(mask)
    out.sort()
    return out


def truth_pullback_mask(parent: Presheaf, phi: NatTransform,
                        om: OmegaResult) -> tuple[tuple[int, ...], ...]:
    """Sections classified as true: the pullback of truth along phi."""
    return tuple(
        tuple(x for x, s in enumerate(phi.components[p])
              if s == om.truth.components[p][0])
        for p in parent.algebra.elements()
    )


def check_classifier(parent: Presheaf, J: Topology, om: OmegaResult,
                     guard: int = DEFAULT_GUARD) -> tuple[bool, tuple | None]:
    """(Omega, true) classifies the subsheaves of `parent`: phi -> phi*(true)
    is a bijection from hom(parent, Omega) onto subobjects(parent, J).

    One pass over the arrows keeps the masks seen so far.  The witness is
    (mask, "not unique") for the first arrow onto a seen mask, then (mask,
    "not a subsheaf") for the least mask reached that is no subsheaf, then
    (mask, "not classified") for the least subsheaf that no arrow reaches."""
    seen = set()
    for phi in hom_presheaf(parent, om.presheaf, guard):
        mask = truth_pullback_mask(parent, phi, om)
        if mask in seen:
            return False, (mask, "not unique")
        seen.add(mask)
    subs = set(subobjects(parent, J, guard))
    if seen - subs:
        return False, (min(seen - subs), "not a subsheaf")
    if subs - seen:
        return False, (min(subs - seen), "not classified")
    return True, None


# ---------------------------------------------------- axiom sweep report

@dataclass(frozen=True)
class ToposReport:
    ok: bool
    rows: tuple[tuple[str, str, bool, object], ...]   # witness on FAIL only


def check_topos_axioms(pool: list[Presheaf], J: Topology,
                       guard: int = DEFAULT_GUARD) -> ToposReport:
    """Terminal, products, pullbacks, exponentials, classifier: existence
    and universality for every instance drawn from the pool.

    Universality is decided against every presheaf, not against pool
    members: limits are computed sectionwise and hom(y(p), F) = F(p), so
    it suffices to test against the representables y(p) = down(p).  Each
    row is (check, instance, ok, witness); the witness is None on passing
    rows.  An adjunction row aggregates over every y(p) (pairs of them
    for naturality); on failure it stops there and pairs that y(p)'s
    name with its witness.  A pullback row's witness is ((i, j), witness)
    for the cospan of the i-th arrow of hom(A, C) and the j-th of
    hom(B, C).  Each distinct presheaf is sheaf-checked once per call."""
    if not pool:
        return ToposReport(True, ())
    H = pool[0].algebra
    rows: list[tuple[str, str, bool, object]] = []

    def row(check: str, inst: str, ok: bool, witness: object = None):
        rows.append((check, inst, ok, None if ok else witness))

    verdicts: dict = {}

    def sheaf(P: Presheaf) -> tuple[bool, object]:
        if P not in verdicts:
            verdicts[P] = is_sheaf(P, J)
        return verdicts[P].ok, verdicts[P].witness

    named = [(P, "F(" + ",".join(str(P.n(p)) for p in H.elements()) + ")")
             for P in pool]
    memo = Memo()
    one = terminal_presheaf(H)
    row("terminal-sheaf", "1", *sheaf(one))
    for P, name in named:
        count = len(memo.hom(P, one, guard))
        row("terminal-unique", name, count == 1, count)

    for A, a in named:
        for B, b in named:
            inst = f"{a}x{b}"
            row("product-sheaf", inst, *sheaf(memo.product(A, B)))
            row("product-universal", inst, *product_universal_presheaf(A, B))

    for C, c in named:
        for A, a in named:
            for B, b in named:
                inst = f"{a}->{c}<-{b}"
                for i, f in enumerate(memo.hom(A, C, guard)):
                    for j, g in enumerate(memo.hom(B, C, guard)):
                        pb = pullback_presheaf(f, g)
                        ok, witness = sheaf(pb.presheaf)
                        row("pullback-sheaf", inst, ok, ((i, j), witness))
                        ok, witness = pullback_universal_presheaf(pb, f, g)
                        row("pullback-universal", inst, ok, ((i, j), witness))

    def first_failure(results) -> tuple[bool, object]:
        # (where, (ok, witness)) pairs; the first failure names its y(p)
        for where, (ok, witness) in results:
            if not ok:
                return False, (where, witness)
        return True, None

    def nat_row(check: str, inst: str, nt: NatTransform):
        witness = naturality_witness(nt)
        row(check, inst, witness is None, witness)

    ys = [(representable(H, p), f"y({H.name(p)})") for p in H.elements()]
    for X, x in named:
        for Y, y in named:
            inst = f"{y}^{x}"
            E = exponential(X, Y, guard)
            row("exponential-sheaf", inst, *sheaf(E.presheaf))
            nat_row("evaluation-natural", inst, evaluation(E))
            row("adjunction-bijection", inst, *first_failure(
                (z, check_adjunction(E, Z, guard, memo=memo))
                for Z, z in ys))
            row("adjunction-natural", inst, *first_failure(
                (f"{z2}->{z}",
                 check_adjunction_natural(E, Z2, Z, guard, memo=memo))
                for Z, z in ys for Z2, z2 in ys))

    om = omega(H, J)
    row("omega-sheaf", "Omega", *sheaf(om.presheaf))
    nat_row("truth-natural", "true", om.truth)
    for A, a in named:
        row("classifier-unique", a, *check_classifier(A, J, om, guard))

    return ToposReport(all(r[2] for r in rows), tuple(rows))


# ------------------------------------------------- published refutation

@dataclass(frozen=True)
class CounterexampleReport:
    proper_size: int
    vertex_size: int
    flawed_count: int
    expected_flawed: int
    corrected_count: int
    refuted: bool
    corrected_unique: bool


def exposition_counterexample(H: HeytingAlgebra | None = None,
                              proper_size: int = 2,
                              guard: int = DEFAULT_GUARD) -> CounterexampleReport:
    """Mediation counts on the triple product of a set-like object.

    The commutativity-only condition pins the first two components of
    h: XxXxX -> XxXxX and leaves the third free, so the mediator count
    is |X| to the power |X|^3; the corrected condition mediates into
    graph(f) and admits exactly one arrow.
    """
    if H is None:
        H = two_element()
    X = set_like_tset(H, proper_size)
    XX = product(X, X, guard)
    XXX = product(XX.tset, X, guard)
    quot = separated_quotient(XXX.tset)
    W = quot.tset

    # the first two limit legs, read at each class representative
    reps = tuple(cls[0] for cls in quot.classes)
    p1, p2 = (
        TRelation(W, X, tuple(leg.mapping[r] for r in reps))
        for leg in (XX.proj1.compose(XXX.proj1), XX.proj2.compose(XXX.proj1))
    )

    flawed = mediators(W, W, [(p1, p1), (p2, p2)], guard)
    proper_triples = sum(1 for w in range(W.size) if W.ee(w) == H.top)
    expected = proper_size ** proper_triples

    gr = graph(identity_relation(X))
    corrected = mediators(W, gr.tset, [(gr.to_source, p1), (gr.to_target, p1)],
                          guard)

    return CounterexampleReport(
        proper_size=proper_size,
        vertex_size=W.size,
        flawed_count=len(flawed),
        expected_flawed=expected,
        corrected_count=len(corrected),
        refuted=len(flawed) >= 2,
        corrected_unique=len(corrected) == 1,
    )


# ------------------------------------------------------------ SG probing

@dataclass(frozen=True)
class SgReport:
    ok: bool
    witness: tuple | None


def sg_check(pool: list[TSet], guard: int = DEFAULT_GUARD) -> SgReport:
    """Probe separation: arrows out of subterminals distinguish every
    pair of distinct arrows in the pool's hom-sets.

    Arrow pairs count as distinct when their mappings differ; probe
    composites are compared extensionally (at the existence degree).
    On separated objects the two notions coincide, so this is the
    support-generator property there.

    Arrows preserve existence, so two composites are extensionally
    equal iff they agree after mapping every target element to the
    first element of its indiscernible class.  Call P(A) the probed
    points of A: the union of the images of every probe out of the
    subterminal at every level.  Lemma: f, g: A -> B are unseparated
    iff their canonical images agree at every x in P(A).  So hom(A, B)
    is grouped once by those images; a group of two or more arrows is
    unseparated, and the least (first, second) pair over such groups is
    the first unseparated pair in (f, g) order, the witness.  When P(A)
    is all of A and B is separated, distinct arrows differ at a probed
    point and stay distinct canonically, so hom(A, B) is not listed.
    """
    if not pool:
        return SgReport(True, None)
    H = pool[0].algebra
    firsts = []
    for B in pool:
        first = list(range(B.size))
        for cls in indiscernible_classes(B):
            for y in cls:
                first[y] = cls[0]
        firsts.append(first)
    subterminals = [principal_tset(H, s) for s in H.elements()]
    for A in pool:
        points = sorted({v for S in subterminals
                         for e in hom_set(S, A, guard) for v in e.mapping})
        for B, first in zip(pool, firsts):
            if len(points) == A.size and len(set(first)) == B.size:
                continue
            homs = hom_set(A, B, guard)
            groups: dict[tuple[int, ...], list[int]] = {}
            for i, f in enumerate(homs):
                groups.setdefault(tuple(first[f.mapping[x]] for x in points),
                                  []).append(i)
            pairs = [(g[0], g[1]) for g in groups.values() if len(g) > 1]
            if pairs:
                fi, gi = min(pairs)
                return SgReport(
                    False,
                    (repr(A), repr(B), homs[fi].mapping, homs[gi].mapping),
                )
    return SgReport(True, None)


def doubled_point_tset(H: HeytingAlgebra) -> TSet:
    """Two top elements x and y with Id(x, y) the join of the proper
    levels, and one element at each proper level.  Where the proper
    levels join to the top (the diamond, not a chain), x and y are
    indiscernible, so the carrier is not separated and no probe tells
    them apart."""
    proper = [p for p in H.elements() if p != H.top]
    names = ("x", "y") + tuple(f"s{H.name(p)}" for p in proper)
    below_top = H.sigma(proper)

    def ident(i: int, j: int) -> int:
        ei = H.top if i < 2 else proper[i - 2]
        ej = H.top if j < 2 else proper[j - 2]
        if i == j:
            return ei
        if i < 2 and j < 2:
            return below_top
        return H.meet(ei, ej)

    n = 2 + len(proper)
    table = tuple(tuple(ident(i, j) for j in range(n)) for i in range(n))
    return TSet(H, names, table)

