"""Category structure on T-sets and their sheaves.

Finite limits, exponentials, and the subobject classifier, each paired
with a brute-force universal-property verifier: existence plus
uniqueness of the mediating arrow, by enumeration.  Also the published
refutation machinery: the commutativity-only mediation count on a
triple product, against the unique mediation into a graph, and the
probe-separation check tying the reality of atoms to arrows out of
subterminals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import NotSubobject, SizeGuard
from .heyting import HeytingAlgebra, two_element
from .sheaves import (
    NatTransform,
    Presheaf,
    PresheafPullback,
    hom_presheaf,
    is_sheaf,
    make_presheaf,
    natural_families,
    naturality_witness,
    product_presheaf,
    pullback_presheaf,
    terminal_presheaf,
    validate_nat,
)
from .sites import Topology, closed_sieves
from .tset import (
    DEFAULT_GUARD,
    TRelation,
    TSet,
    extensionally_equal,
    hom_set,
    identity_relation,
    indiscernible_classes,
    localise_element,
    principal_tset,
    separated_quotient,
    set_like_tset,
    validate_relation,
)


# ---------------------------------------------------- T-set level limits

def terminal(H: HeytingAlgebra) -> TSet:
    """Carrier = the algebra itself, identity = meet."""
    names = tuple(H.names)
    table = tuple(
        tuple(H.meet(p, q) for q in H.elements()) for p in H.elements()
    )
    return TSet(H, names, table)


def unique_to_terminal(A: TSet, one: TSet) -> TRelation:
    return TRelation(A, one, tuple(A.ee(x) for x in range(A.size)))


@dataclass(frozen=True)
class ProductResult:
    tset: TSet
    proj1: TRelation
    proj2: TRelation
    pairs: tuple[tuple[int, int], ...]


def product(A: TSet, B: TSet, guard: int = DEFAULT_GUARD) -> ProductResult:
    """All carrier pairs with componentwise identity meet.

    Projections localise each component to the pair's existence degree,
    so both factors must have their localisations witnessed.
    """
    if A.algebra != B.algebra:
        raise ValueError("product factors live over different algebras")
    H = A.algebra
    if A.size * B.size > guard:
        raise SizeGuard("product carrier", A.size * B.size, guard)
    pairs = tuple((i, j) for i in range(A.size) for j in range(B.size))
    names = tuple(f"({A.name(i)},{B.name(j)})" for i, j in pairs)
    table = tuple(
        tuple(
            H.meet(A.ident(i, k), B.ident(j, l))
            for k, l in pairs
        )
        for i, j in pairs
    )
    prod = TSet(H, names, table)
    m1 = []
    m2 = []
    for i, j in pairs:
        e = H.meet(A.ee(i), B.ee(j))
        m1.append(localise_element(A, i, e))
        m2.append(localise_element(B, j, e))
    return ProductResult(
        prod,
        TRelation(prod, A, tuple(m1)),
        TRelation(prod, B, tuple(m2)),
        pairs,
    )


def mediators(W: TSet, target: TSet,
              constraints: list[tuple[TRelation, TRelation]],
              guard: int = DEFAULT_GUARD) -> list[TRelation]:
    """All valid relations h: W -> target with after . h = required for
    each (after, required) pair, by exhaustive search over the allowed
    image sets."""
    allowed: list[list[int]] = []
    total = 1
    for w in range(W.size):
        ok = [
            y for y in range(target.size)
            if target.ee(y) == W.ee(w)
            and all(a.mapping[y] == r.mapping[w] for a, r in constraints)
        ]
        allowed.append(ok)
        total *= max(len(ok), 1)
        if total > guard:
            raise SizeGuard("mediator enumeration", total, guard)
        if not ok:
            return []
    out = []
    for combo in itertools.product(*allowed):
        h = TRelation(W, target, tuple(combo))
        if validate_relation(h).ok:
            out.append(h)
    return out


def _extensional_classes(hs: list[TRelation]) -> list[list[TRelation]]:
    classes: list[list[TRelation]] = []
    for h in hs:
        for c in classes:
            if extensionally_equal(h, c[0]):
                c.append(h)
                break
        else:
            classes.append([h])
    return classes


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
    """Pairs whose images in the shared codomain agree at the pair's
    full existence degree."""
    if f.target != g.target:
        raise ValueError("pullback needs a shared codomain")
    A, B, C = f.source, g.source, f.target
    H = A.algebra
    prod = product(A, B, guard)
    keep = [
        k for k, (a, b) in enumerate(prod.pairs)
        if C.ident(f.apply(a), g.apply(b)) == H.meet(A.ee(a), B.ee(b))
    ]
    names = tuple(prod.tset.name(k) for k in keep)
    table = tuple(
        tuple(prod.tset.ident(k, l) for l in keep) for k in keep
    )
    pb = TSet(H, names, table)
    m1 = tuple(prod.proj1.mapping[k] for k in keep)
    m2 = tuple(prod.proj2.mapping[k] for k in keep)
    return PullbackResult(
        pb,
        TRelation(pb, A, m1),
        TRelation(pb, B, m2),
        tuple(prod.pairs[k] for k in keep),
    )


def check_pullback_universal(pb: PullbackResult | ProductResult,
                             f: TRelation, g: TRelation, cones: list[TSet],
                             guard: int = DEFAULT_GUARD) -> tuple[bool, tuple | None]:
    """Every commuting cone (u, v) from every listed vertex mediates
    through the pullback by exactly one relation, and that relation is
    the pairing w -> (u w, v w) of the pullback's carrier pairs.

    Commutation, uniqueness and the pairing are read extensionally:
    two element maps whose images are indiscernible present the same
    relation, and the pair carrier is not separated in general."""
    A, B = f.source, g.source
    index = {pair: k for k, pair in enumerate(pb.pairs)}
    for W in cones:
        homs = hom_set(W, pb.tset, guard)
        homs_u = hom_set(W, A, guard)
        homs_v = hom_set(W, B, guard) if homs_u else []
        for u in homs_u:
            for v in homs_v:
                if not extensionally_equal(f.compose(u), g.compose(v)):
                    continue
                hits = [
                    h for h in homs
                    if extensionally_equal(pb.proj1.compose(h), u)
                    and extensionally_equal(pb.proj2.compose(h), v)
                ]
                classes = _extensional_classes(hits)
                if len(classes) != 1:
                    return False, (repr(W), u.mapping, v.mapping, len(classes))
                pairing = tuple(index.get(pair)
                                for pair in zip(u.mapping, v.mapping))
                if None in pairing or not extensionally_equal(
                        classes[0][0], TRelation(W, pb.tset, pairing)):
                    return False, (repr(W), u.mapping, v.mapping, "mediator")
    return True, None


def check_product_universal(prod: ProductResult, cones: list[TSet],
                            guard: int = DEFAULT_GUARD) -> tuple[bool, tuple | None]:
    """The product verified as the pullback over the terminal T-set."""
    A, B = prod.proj1.target, prod.proj2.target
    one = terminal(A.algebra)
    return check_pullback_universal(
        prod, unique_to_terminal(A, one), unique_to_terminal(B, one),
        cones, guard)


# ----------------------------------------------- presheaf-level structure

class Memo:
    """Hom-sets, products and transposes, each computed once per value.

    The presheaf verifiers take one as an optional last argument;
    without it each makes its own, so nothing is shared between calls.
    `check_topos_axioms` makes one per call, which its verifiers share
    and which is dropped when it returns.  Presheaves are frozen values,
    so equal presheaves built apart (pullbacks of different spans, say)
    share one entry.  Misses go through the module-level
    `hom_presheaf`, `product_presheaf` and `transpose`."""

    def __init__(self):
        self._homs: dict = {}
        self._products: dict = {}
        self._transposes: dict = {}

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

    def transposes(self, E: ExponentialResult, Z: Presheaf,
                   guard: int) -> list[NatTransform]:
        """transpose(E, Z, k) for each k in hom(Z x X, Y), in that order."""
        key = (E, Z, guard)
        if key not in self._transposes:
            ks = self.hom(self.product(Z, E.base), E.power, guard)
            self._transposes[key] = [transpose(E, Z, k) for k in ks]
        return self._transposes[key]


def pullback_universal_presheaf(pb: PresheafPullback, f: NatTransform,
                                g: NatTransform, pool: list[Presheaf],
                                guard: int = DEFAULT_GUARD,
                                memo: Memo | None = None) -> tuple[bool, tuple | None]:
    """Every commuting cone (u, v) from every pool member mediates
    through the pullback by exactly one arrow, and that arrow is the
    pairing z -> (u z, v z) of the pullback's section pairs.

    Per vertex, the candidate arrows into the pullback are indexed once
    by their legs (proj1 . h, proj2 . h), in candidate order, and the
    arrows into g's source by g . v; each cone then looks up its
    mediators instead of rescanning the candidates."""
    memo = memo or Memo()
    H = f.source.algebra
    index = [{pair: k for k, pair in enumerate(level)} for level in pb.pairs]
    for W in pool:
        candidates = memo.hom(W, pb.presheaf, guard)
        homs_u = memo.hom(W, f.source, guard)
        homs_v = memo.hom(W, g.source, guard) if homs_u else []
        by_legs: dict = {}
        for h in candidates:
            legs = (pb.proj1.compose(h).components,
                    pb.proj2.compose(h).components)
            by_legs.setdefault(legs, []).append(h)
        by_gv: dict = {}
        for v in homs_v:
            by_gv.setdefault(g.compose(v).components, []).append(v)
        for u in homs_u:
            for v in by_gv.get(f.compose(u).components, ()):
                ms = by_legs.get((u.components, v.components), [])
                if len(ms) != 1:
                    return False, (repr(W), u.components, v.components, len(ms))
                pairing = tuple(
                    tuple(index[p].get(pair) for pair in
                          zip(u.components[p], v.components[p]))
                    for p in H.elements()
                )
                if ms[0].components != pairing:
                    return False, (repr(W), u.components, v.components, "mediator")
    return True, None


def product_universal_presheaf(P: Presheaf, Q: Presheaf, pool: list[Presheaf],
                               guard: int = DEFAULT_GUARD,
                               memo: Memo | None = None) -> tuple[bool, tuple | None]:
    """P x Q verified as the pullback over the terminal presheaf."""
    H = P.algebra
    one = terminal_presheaf(H)
    to_one = [NatTransform(F, one, tuple((0,) * F.n(p) for p in H.elements()))
              for F in (P, Q)]
    return pullback_universal_presheaf(pullback_presheaf(*to_one), *to_one,
                                       pool, guard, memo)


# ------------------------------------------------------------ exponential

@dataclass(frozen=True)
class ExponentialResult:
    presheaf: Presheaf
    base: Presheaf
    power: Presheaf
    # families[p][k] is the k-th section over p as an actual family of
    # maps: one component tuple per q in H.down(p), in that order.
    families: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]
    # index[p] maps each family over p back to its section index k
    index: tuple[dict, ...] = field(compare=False, repr=False)

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

    families = tuple(
        tuple(natural_families(X, Y, H.down(p))) for p in H.elements()
    )
    index = tuple(
        {fam: k for k, fam in enumerate(fams)} for fams in families
    )
    sections = tuple(
        tuple(f"{H.name(p)}^f{k}" for k in range(len(families[p])))
        for p in H.elements()
    )
    restrict = {}
    for q, p in H.covers():
        keep = [k for k, r in enumerate(H.down(p)) if H.le(r, q)]
        restrict[(p, q)] = tuple(
            index[q][tuple(fam[k] for k in keep)] for fam in families[p]
        )
    E = make_presheaf(H, sections, restrict)
    return ExponentialResult(E, X, Y, families, index)


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
        row = []
        for z in range(Z.n(p)):
            fam = tuple(
                tuple(
                    k.components[q][Z.restrict(p, q, z) * X.n(q) + x]
                    for x in range(X.n(q))
                )
                for q in H.down(p)
            )
            row.append(E.index[p][fam])
        comps.append(tuple(row))
    return NatTransform(Z, E.presheaf, tuple(comps))


def untranspose(E: ExponentialResult, Z: Presheaf, h: NatTransform,
                memo: Memo | None = None) -> NatTransform:
    """Uncurrying: h: Z -> Y^X becomes Z x X -> Y."""
    X, Y = E.base, E.power
    H = X.algebra
    ZX = (memo or Memo()).product(Z, X)
    comps = []
    for p in H.elements():
        n = X.n(p)
        row = []
        for m in range(ZX.n(p)):
            z, x = m // n, m % n
            row.append(E.component_at(p, h.components[p][z], p)[x])
        comps.append(tuple(row))
    return NatTransform(ZX, Y, tuple(comps))


def check_adjunction(E: ExponentialResult, Z: Presheaf,
                     guard: int = DEFAULT_GUARD,
                     memo: Memo | None = None) -> tuple[bool, tuple | None]:
    """Hom(Z x X, Y) and Hom(Z, Y^X) biject via transpose/untranspose."""
    memo = memo or Memo()
    X, Y = E.base, E.power
    lower = memo.hom(memo.product(Z, X), Y, guard)
    upper = memo.hom(Z, E.presheaf, guard)
    if len(lower) != len(upper):
        return False, ("count", len(lower), len(upper))
    for k, h in zip(lower, memo.transposes(E, Z, guard)):
        if not validate_nat(h):
            return False, ("transpose-nat", k.components)
        if untranspose(E, Z, h, memo).components != k.components:
            return False, ("roundtrip-lower", k.components)
    for h in upper:
        k = untranspose(E, Z, h, memo)
        if not validate_nat(k):
            return False, ("untranspose-nat", h.components)
        if transpose(E, Z, k).components != h.components:
            return False, ("roundtrip-upper", h.components)
    return True, None


def cross_nat(r: NatTransform, X: Presheaf,
              source_prod: Presheaf, target_prod: Presheaf) -> NatTransform:
    """r x id_X on sectionwise pair presheaves."""
    H = X.algebra
    comps = []
    for p in H.elements():
        n = X.n(p)
        row = []
        for m in range(source_prod.n(p)):
            z, x = m // n, m % n
            row.append(r.components[p][z] * n + x)
        comps.append(tuple(row))
    return NatTransform(source_prod, target_prod, tuple(comps))


def check_adjunction_natural(E: ExponentialResult, Z2: Presheaf, Z: Presheaf,
                             guard: int = DEFAULT_GUARD,
                             memo: Memo | None = None) -> tuple[bool, tuple | None]:
    """transpose(k . (r x id)) = transpose(k) . r for all r: Z2 -> Z."""
    memo = memo or Memo()
    X, Y = E.base, E.power
    ZX = memo.product(Z, X)
    Z2X = memo.product(Z2, X)
    rs = memo.hom(Z2, Z, guard)
    ks = memo.hom(ZX, Y, guard) if rs else []
    ts = memo.transposes(E, Z, guard) if rs else []
    for r in rs:
        rx = cross_nat(r, X, Z2X, ZX)
        for k, t in zip(ks, ts):
            left = transpose(E, Z2, k.compose(rx))
            right = t.compose(r)
            if left.components != right.components:
                return False, (r.components, k.components)
    return True, None


# ------------------------------------------------- subobject classifier

@dataclass(frozen=True)
class OmegaResult:
    presheaf: Presheaf
    truth: NatTransform
    sieves: tuple[tuple[frozenset[int], ...], ...]

    def sieve_index(self, p: int, members: frozenset[int]) -> int:
        return self.sieves[p].index(members)


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


@dataclass(frozen=True)
class SubobjectInclusion:
    sub: Presheaf
    parent: Presheaf
    inclusion: NatTransform
    mask: tuple[tuple[int, ...], ...]
    # mask[p] lists the parent section indices belonging to the subobject


def subobject_from_mask(parent: Presheaf,
                        mask: tuple[tuple[int, ...], ...]) -> SubobjectInclusion:
    """Build the sub-presheaf on the masked sections; the mask must be
    closed under restriction."""
    H = parent.algebra
    pos: list[dict[int, int]] = []
    for p in H.elements():
        seen = {}
        for k, i in enumerate(mask[p]):
            if not 0 <= i < parent.n(p) or i in seen:
                raise NotSubobject(f"bad mask at {H.name(p)!r}")
            seen[i] = k
        pos.append(seen)
    for p in H.elements():
        for q in H.down(p):
            for i in mask[p]:
                if parent.restrict(p, q, i) not in pos[q]:
                    raise NotSubobject(
                        f"mask not closed under restriction at {H.name(p)!r}"
                    )
    sections = tuple(
        tuple(parent.section_name(p, i) for i in mask[p])
        for p in H.elements()
    )
    restrict = {
        (p, q): tuple(pos[q][parent.restrict(p, q, i)] for i in mask[p])
        for q, p in H.covers()
    }
    sub = make_presheaf(H, sections, restrict)
    inc = NatTransform(
        sub, parent, tuple(tuple(mask[p]) for p in H.elements())
    )
    return SubobjectInclusion(sub, parent, inc, tuple(tuple(m) for m in mask))


def subobjects(parent: Presheaf, J: Topology | None = None,
               require_sheaf: bool = True) -> list[SubobjectInclusion]:
    """All restriction-closed section masks, optionally filtered to
    subsheaves; canonical (mask-lexicographic) order."""
    H = parent.algebra
    per_level = [
        [tuple(sorted(c))
         for r in range(parent.n(p) + 1)
         for c in itertools.combinations(range(parent.n(p)), r)]
        for p in H.elements()
    ]
    out = []
    for mask in itertools.product(*per_level):
        ok = all(
            parent.restrict(p, q, i) in mask[q]
            for p in H.elements()
            for q in H.down(p)
            for i in mask[p]
        )
        if not ok:
            continue
        inc = subobject_from_mask(parent, mask)
        if require_sheaf and J is not None and not is_sheaf(inc.sub, J).ok:
            continue
        out.append(inc)
    out.sort(key=lambda s: s.mask)
    return out


def classify(inc: SubobjectInclusion, om: OmegaResult) -> NatTransform:
    """The arrow to the classifier sending a section to the sieve of
    levels where its restriction lands in the subobject."""
    parent = inc.parent
    H = parent.algebra
    comps = []
    for p in H.elements():
        row = []
        for x in range(parent.n(p)):
            members = frozenset(
                q for q in H.down(p)
                if parent.restrict(p, q, x) in inc.mask[q]
            )
            try:
                row.append(om.sieve_index(p, members))
            except ValueError:
                raise NotSubobject(
                    f"classifying sieve at {H.name(p)!r} is not closed"
                ) from None
        comps.append(tuple(row))
    return NatTransform(parent, om.presheaf, tuple(comps))


def truth_pullback_mask(parent: Presheaf, phi: NatTransform,
                        om: OmegaResult) -> tuple[tuple[int, ...], ...]:
    """Sections classified as true: the pullback of truth along phi."""
    H = parent.algebra
    out = []
    for p in H.elements():
        top_idx = om.sieve_index(p, frozenset(H.down(p)))
        out.append(tuple(
            x for x in range(parent.n(p)) if phi.components[p][x] == top_idx
        ))
    return tuple(out)


def check_classifier(parent: Presheaf, J: Topology, om: OmegaResult,
                     guard: int = DEFAULT_GUARD) -> tuple[bool, tuple | None]:
    """Every subsheaf is classified by exactly one arrow to the
    classifier whose truth pullback recovers it."""
    arrows = hom_presheaf(parent, om.presheaf, guard)
    for inc in subobjects(parent, J, require_sheaf=True):
        phi = classify(inc, om)
        if not validate_nat(phi):
            return False, (inc.mask, "not natural")
        if truth_pullback_mask(parent, phi, om) != inc.mask:
            return False, (inc.mask, "pullback mismatch")
        matching = [
            a for a in arrows
            if truth_pullback_mask(parent, a, om) == inc.mask
        ]
        if len(matching) != 1 or matching[0].components != phi.components:
            return False, (inc.mask, "not unique", len(matching))
    return True, None


# ---------------------------------------------------- axiom sweep report

@dataclass(frozen=True)
class ToposReport:
    ok: bool
    rows: tuple[tuple[str, str, bool, object], ...]   # witness on FAIL only


def check_topos_axioms(pool: list[Presheaf], J: Topology,
                       guard: int = DEFAULT_GUARD) -> ToposReport:
    """Terminal, products, pullbacks, exponentials, classifier: existence
    and universality over every instance drawn from the pool.

    Each row is (check, instance, ok, witness); the witness is None on
    passing rows.  An adjunction row aggregates over every Z in the
    pool; on failure it stops there and pairs that Z's name with its
    witness."""
    if not pool:
        return ToposReport(True, ())
    H = pool[0].algebra
    rows: list[tuple[str, str, bool, object]] = []

    def row(check: str, inst: str, ok: bool, witness: object = None):
        rows.append((check, inst, ok, None if ok else witness))

    def sheaf_row(check: str, inst: str, P: Presheaf):
        rep = is_sheaf(P, J)
        row(check, inst, rep.ok, rep.witness)

    def name_of(P: Presheaf) -> str:
        return "F(" + ",".join(str(P.n(p)) for p in H.elements()) + ")"

    memo = Memo()
    one = terminal_presheaf(H)
    sheaf_row("terminal-sheaf", "1", one)
    for P in pool:
        count = len(memo.hom(P, one, guard))
        row("terminal-unique", name_of(P), count == 1, count)

    for A in pool:
        for B in pool:
            inst = f"{name_of(A)}x{name_of(B)}"
            sheaf_row("product-sheaf", inst, memo.product(A, B))
            row("product-universal", inst,
                *product_universal_presheaf(A, B, pool, guard, memo=memo))

    for C in pool:
        for A in pool:
            for B in pool:
                for f in memo.hom(A, C, guard):
                    for g in memo.hom(B, C, guard):
                        inst = f"{name_of(A)}->{name_of(C)}<-{name_of(B)}"
                        pb = pullback_presheaf(f, g)
                        sheaf_row("pullback-sheaf", inst, pb.presheaf)
                        row("pullback-universal", inst,
                            *pullback_universal_presheaf(pb, f, g, pool, guard,
                                                         memo=memo))

    def first_failure(results) -> tuple[bool, object]:
        # (where, (ok, witness)) pairs; the first failure names its Z
        for where, (ok, witness) in results:
            if not ok:
                return False, (where, witness)
        return True, None

    def nat_row(check: str, inst: str, nt: NatTransform):
        witness = naturality_witness(nt)
        row(check, inst, witness is None, witness)

    for X in pool:
        for Y in pool:
            inst = f"{name_of(Y)}^{name_of(X)}"
            E = exponential(X, Y, guard)
            sheaf_row("exponential-sheaf", inst, E.presheaf)
            nat_row("evaluation-natural", inst, evaluation(E))
            row("adjunction-bijection", inst, *first_failure(
                (name_of(Z), check_adjunction(E, Z, guard, memo=memo))
                for Z in pool))
            row("adjunction-natural", inst, *first_failure(
                (f"{name_of(Z2)}->{name_of(Z)}",
                 check_adjunction_natural(E, Z2, Z, guard, memo=memo))
                for Z in pool for Z2 in pool))

    om = omega(H, J)
    sheaf_row("omega-sheaf", "Omega", om.presheaf)
    nat_row("truth-natural", "true", om.truth)
    for A in pool:
        row("classifier-unique", name_of(A),
            *check_classifier(A, J, om, guard))

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
    top = H.top
    z_idx = X.size - 1

    reps = tuple(cls[0] for cls in quot.classes)
    first = []
    second = []
    for w in range(W.size):
        k, _ = XXX.pairs[reps[w]]
        i, j = XX.pairs[k]
        if W.ee(w) == top:
            first.append(i)
            second.append(j)
        else:
            first.append(z_idx)
            second.append(z_idx)
    p1 = TRelation(W, X, tuple(first))
    p2 = TRelation(W, X, tuple(second))

    flawed = mediators(W, W, [(p1, p1), (p2, p2)], guard)
    proper_triples = sum(1 for w in range(W.size) if W.ee(w) == top)
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
    pairs_checked: int
    witness: tuple | None


def sg_check(pool: list[TSet], guard: int = DEFAULT_GUARD) -> SgReport:
    """Probe separation: arrows out of subterminals distinguish every
    pair of distinct arrows in the pool's hom-sets.

    Arrow pairs count as distinct when their mappings differ; probe
    composites are compared extensionally (at the existence degree).
    On separated objects the two notions coincide, so this is the
    support-generator property there.

    Instead of comparing every pair, each hom-set is partitioned by
    refinement.  Arrows preserve existence, so two composites are
    extensionally equal iff they agree after mapping every target
    element to the first element of its indiscernible class.  All of
    hom(A, B) starts as one block; for each level s in element order,
    every block of two or more arrows is split by the canonical
    composites with the probes out of the subterminal at s, until every
    block is a singleton.  Probe hom-sets are computed lazily, for the
    levels some pair still needs, exactly as a pairwise search would.
    A pair left in one block is unseparated; the first such pair in
    (f, g) order is the witness, and ``pairs_checked`` counts the pairs
    a pairwise search visits up to it.
    """
    if not pool:
        return SgReport(True, 0, None)
    H = pool[0].algebra
    probes: dict[tuple[int, int], tuple[int, ...]] = {}

    def probe_points(s: int, k: int) -> tuple[int, ...]:
        # the images of all probes s -> pool[k], concatenated
        if (s, k) not in probes:
            probes[(s, k)] = tuple(
                v for e in hom_set(principal_tset(H, s), pool[k], guard)
                for v in e.mapping
            )
        return probes[(s, k)]

    checked = 0
    for ka, A in enumerate(pool):
        for B in pool:
            homs = hom_set(A, B, guard)
            m = len(homs)
            if m < 2:
                continue
            first = [0] * B.size
            for cls in indiscernible_classes(B):
                for y in cls:
                    first[y] = cls[0]
            canon = [tuple(first[v] for v in f.mapping) for f in homs]
            blocks = [list(range(m))]
            for s in H.elements():
                if not blocks:
                    break
                points = probe_points(s, ka)
                split: list[list[int]] = []
                for block in blocks:
                    parts: dict[tuple[int, ...], list[int]] = {}
                    for i in block:
                        c = canon[i]
                        parts.setdefault(tuple(c[v] for v in points),
                                         []).append(i)
                    split.extend(p for p in parts.values() if len(p) > 1)
                blocks = split
            if blocks:
                fi, gi = min((b[0], b[1]) for b in blocks)
                # pairs (f, g) with f < fi, then (fi, fi + 1) .. (fi, gi)
                checked += fi * (m - 1) - fi * (fi - 1) // 2 + gi - fi
                return SgReport(
                    False, checked,
                    (repr(A), repr(B), homs[fi].mapping, homs[gi].mapping),
                )
            checked += m * (m - 1) // 2
    return SgReport(True, checked, None)


@dataclass(frozen=True)
class SgExhibit:
    presheaf: Presheaf
    sheaf_witness: tuple | None
    tset: TSet
    f: TRelation
    g: TRelation
    maps_distinct: bool
    probe_separable: bool


def doubled_point_presheaf(H: HeytingAlgebra) -> Presheaf:
    """Two top sections agreeing on everything below, singletons at
    every proper level.  Not a sheaf whenever the proper levels cover
    the top."""
    sections = tuple(
        ("x", "y") if p == H.top else ("*",) for p in H.elements()
    )
    restrict = {(p, q): (0, 0) if p == H.top else (0,)
                for q, p in H.covers()}
    return make_presheaf(H, sections, restrict)


def doubled_point_tset(H: HeytingAlgebra) -> TSet:
    """The doubled-point presheaf transported by the agreement-degree
    identity: the two top elements come out indiscernible, so the
    carrier is not separated."""
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


def sg_failure_exhibit(H: HeytingAlgebra, J: Topology,
                       guard: int = DEFAULT_GUARD) -> SgExhibit:
    """On the doubled point, the identity and the swap of the two top
    elements differ as carrier maps, yet every probe composite agrees
    extensionally: probing cannot resolve indiscernible doubles.

    Meaningful over algebras whose top is covered by the proper
    elements (the diamond, not a chain): there the presheaf fails the
    sheaf condition and the carrier fails separation.
    """
    P = doubled_point_presheaf(H)
    sheaf = is_sheaf(P, J)
    D = doubled_point_tset(H)
    swap = TRelation(D, D, (1, 0) + tuple(range(2, D.size)))
    f = identity_relation(D)
    separable = False
    for s in H.elements():
        for e in hom_set(principal_tset(H, s), D, guard):
            if not extensionally_equal(f.compose(e), swap.compose(e)):
                separable = True
    return SgExhibit(
        presheaf=P,
        sheaf_witness=sheaf.witness,
        tset=D,
        f=f,
        g=swap,
        maps_distinct=f.mapping != swap.mapping,
        probe_separable=separable,
    )
