"""Brute-force references for the censuses, the coverage, the sheaf
condition and the T-set limits.

The poset census sweeps every upper-triangular relation and keys each
by its least encoding over all n! relabellings, independently of the
grown posets and linear-extension keys in ``tsettopos.pools``.  The
covers of p are the sieves joining to p, independently of the closed
form in ``tsettopos.sites``.  A matching family over a sieve is one
section per member, compatible under restriction; these enumerate it
from the definition, independently of the naturality backtracker in
``tsettopos.sheaves``.  Atoms and identity tables are searched one
candidate value at a time, each tested against every earlier entry,
independently of the identity intervals in ``tsettopos.tset``, and a
single map is tested against both atom inequalities directly.

The Grothendieck axioms are checked on the covers derived from a
topology's least covers.  T-set limits are verified by enumerating the
mediators from listed cone vertices, the T-set side of the cross-checks
against the sectionwise presheaf verifiers, and T-sets are compared up
to extensional isomorphism.  Separatedness is read off the
indiscernible classes.  The doubled-point presheaf is the diamond's
smallest presheaf that is not even separated.

``report`` renders a suite run as the CLI's ``laws`` command would, to
one string, for the frozen report digests.
"""

import io
import itertools
from dataclasses import asdict

from tsettopos import (
    PosetSpec,
    TRelation,
    TSet,
    all_sieves,
    hom_set,
    identity_relation,
    make_presheaf,
)
from tsettopos.pools import _table_key
from tsettopos.suites import render
from tsettopos.tset import ValidationReport, indiscernible_classes


def poset_sweep(n, bounded=False):
    """All partial orders on n points, one spec per isomorphism class,
    sorted by their least relabelled relation, with elements x0..x{n-1}.

    Every order admits a monotone labelling, so the upper-triangular
    relations reach every class.  With ``bounded`` only orders with a
    least and a greatest element are kept; a monotone labelling puts
    them at 0 and n-1.
    """
    if n <= 0:
        return []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = set()
    for bits in range(1 << len(pairs)):
        le = [[i == j for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                le[i][j] = True
        if any(le[i][j] and le[j][k] and not le[i][k]
               for i, j in pairs for k in range(j + 1, n)):
            continue
        if bounded and not (all(le[0]) and all(r[n - 1] for r in le)):
            continue
        keys.add(min(tuple(le[i][j] for i in o for j in o)
                     for o in itertools.permutations(range(n))))
    out = []
    for key in sorted(keys):
        le = [[key[i * n + j] for j in range(n)] for i in range(n)]
        covers = [
            (f"x{i}", f"x{j}")
            for i in range(n) for j in range(n)
            if i != j and le[i][j]
            and not any(k not in (i, j) and le[i][k] and le[k][j]
                        for k in range(n))
        ]
        out.append(PosetSpec(tuple(f"x{i}" for i in range(n)), tuple(covers)))
    return out


def chain_product_spec(*lengths):
    """The product of chains with the given numbers of elements."""
    points = list(itertools.product(*(range(n) for n in lengths)))

    def name(x):
        return ".".join(map(str, x))

    covers = tuple(
        (name(x), name(x[:i] + (x[i] + 1,) + x[i + 1:]))
        for x in points for i, n in enumerate(lengths) if x[i] + 1 < n)
    return PosetSpec(tuple(map(name, points)), covers)


def order_isomorphism(H, K):
    """A bijection of elements with H.le(a, b) == K.le(f[a], f[b]) for
    all a, b, found by backtracking, or None."""
    n = H.size
    if K.size != n:
        return None
    image = []

    def extend():
        a = len(image)
        if a == n:
            return list(image)
        for x in range(n):
            if x not in image and all(
                    H.le(a, b) == K.le(x, y) and H.le(b, a) == K.le(y, x)
                    for b, y in enumerate(image)):
                image.append(x)
                found = extend()
                if found is not None:
                    return found
                image.pop()
        return None
    return extend()


def matching_families(P, members):
    """Every compatible choice of one section per member of the sieve,
    aligned with sorted(members), in lexicographic order."""
    H = P.algebra
    members = sorted(members)
    return [
        choice
        for choice in itertools.product(*(range(P.n(q)) for q in members))
        if all(P.restrict(q, r, choice[i]) == choice[j]
               for i, q in enumerate(members)
               for j, r in enumerate(members) if H.le(r, q))
    ]


def amalgamations(P, p, members, choice):
    """Sections at p whose restrictions to the members reproduce choice."""
    return [x for x in range(P.n(p))
            if all(P.restrict(p, q, x) == c
                   for q, c in zip(sorted(members), choice))]


def join_covers(H, p):
    """The territory coverage read straight off the join condition: every
    sieve at p whose join is p."""
    return frozenset(S for S in all_sieves(H, p) if H.sigma(S) == p)


def validate_topology(J):
    """Maximality, stability under pullback, and transitivity of the
    covers {S : L(p) <= S} derived from the least covers.

    Transitivity is the non-vacuous form: a sieve R at p belongs to J(p)
    whenever some cover S of p has every pullback of R along members of
    S covering.
    """
    H = J.algebra
    covers = [frozenset(S for S in all_sieves(H, p)
                        if S.issuperset(J.least[p]))
              for p in H.elements()]
    bad = []
    for p in H.elements():
        covering = sorted(covers[p], key=lambda s: (len(s), sorted(s)))
        if frozenset(H.down(p)) not in covers[p]:
            bad.append(("maximality", (H.name(p),)))
        for S in covering:
            for r in H.down(p):
                pulled = frozenset(m for m in S if H.le(m, r))
                if pulled not in covers[r]:
                    bad.append(("stability", (H.name(p), H.name(r))))
        for S in covering:
            for R in all_sieves(H, p):
                if R in covers[p]:
                    continue
                if all(
                    frozenset(m for m in R if H.le(m, q)) in covers[q]
                    for q in S
                ):
                    bad.append(("transitivity", (H.name(p), tuple(sorted(R)))))
    return ValidationReport(not bad, tuple(bad))


def is_atom(t, a):
    """Both atom inequalities; returns (ok, witness-or-None)."""
    H = t.algebra
    a = tuple(a)
    n = t.size
    if len(a) != n:
        return False, ("shape",)
    for x in range(n):
        for y in range(n):
            if not H.le(H.meet(a[x], t.ident(x, y)), a[y]):
                return False, ("A1", t.name(x), t.name(y))
            if not H.le(H.meet(a[x], a[y]), t.ident(x, y)):
                return False, ("A2", t.name(x), t.name(y))
    return True, None


def atoms_by_candidates(t):
    """Every atom of t in lexicographic order: each value of each
    position is tested against both atom inequalities, one earlier
    position at a time."""
    H = t.algebra
    out, partial = [], []

    def admissible(i, v):
        return H.le(v, t.ee(i)) and all(
            H.le(H.meet(v, t.ident(i, j)), w)
            and H.le(H.meet(w, t.ident(j, i)), v)
            and H.le(H.meet(v, w), t.ident(i, j))
            for j, w in enumerate(partial))

    def rec(i):
        if i == t.size:
            out.append(tuple(partial))
            return
        for v in H.elements():
            if admissible(i, v):
                partial.append(v)
                rec(i + 1)
                partial.pop()

    rec(0)
    return out


def tset_pool_by_candidates(H, max_size, *, require_separated=True,
                            require_postulate=True, include_empty=False):
    """``tset_pool`` with each cell drawn from the down-set of its cap and
    tested against every transitivity instance it completes, and the
    postulate decided by ``atoms_by_candidates``."""
    out = []
    for n in range(0 if include_empty else 1, max_size + 1):
        found, seen = [], set()
        for diag in itertools.combinations_with_replacement(H.elements(), n):
            cells = list(itertools.combinations(range(n), 2))
            table = [[diag[i] if i == j else None for j in range(n)]
                     for i in range(n)]

            def closed(x, y):
                for z in range(n):
                    for a, b, c in ((x, y, z), (x, z, y), (z, x, y)):
                        tab, tbc, tac = table[a][b], table[b][c], table[a][c]
                        if None not in (tab, tbc, tac) and \
                                not H.le(H.meet(tab, tbc), tac):
                            return False
                return True

            def rec(k):
                if k == len(cells):
                    found.append(tuple(tuple(r) for r in table))
                    return
                x, y = cells[k]
                for v in H.down(H.meet(diag[x], diag[y])):
                    if require_separated and v == diag[x] == diag[y]:
                        continue
                    table[x][y] = table[y][x] = v
                    if closed(x, y):
                        rec(k + 1)
                table[x][y] = table[y][x] = None

            rec(0)
        for tab in sorted(found):
            key = _table_key(tab)
            if key in seen:
                continue
            seen.add(key)
            t = TSet(H, tuple(f"a{i}" for i in range(n)), tab)
            if require_postulate and not set(
                    atoms_by_candidates(t)) <= set(t.id_table):
                continue
            out.append(t)
    return out


def separated(t):
    """No two distinct elements of t are indiscernible."""
    return all(len(c) == 1 for c in indiscernible_classes(t))


def extensionally_equal(r1, r2):
    """Morphism equality: images are indiscernible at each element's
    existence degree.  Coincides with mapping equality on separated
    targets."""
    if r1.source != r2.source or r1.target != r2.target:
        return False
    A, B = r1.source, r1.target
    return all(
        B.ident(r1.mapping[x], r2.mapping[x]) == A.ee(x)
        for x in range(A.size)
    )


def _extensional_classes(hs):
    classes = []
    for h in hs:
        for c in classes:
            if extensionally_equal(h, c[0]):
                c.append(h)
                break
        else:
            classes.append([h])
    return classes


def check_pullback_universal(pb, f, g, cones):
    """Every commuting cone (u, v) from every listed vertex mediates
    through the pullback by exactly one relation, and that relation is
    the pairing w -> (u w, v w) of the pullback's carrier pairs.

    Commutation, uniqueness and the pairing are read extensionally:
    two element maps whose images are indiscernible present the same
    relation, and the pair carrier is not separated in general."""
    A, B = f.source, g.source
    index = {pair: k for k, pair in enumerate(pb.pairs)}
    for W in cones:
        homs = hom_set(W, pb.tset)
        homs_u = hom_set(W, A)
        homs_v = hom_set(W, B) if homs_u else []
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


def extensionally_isomorphic(A, B):
    """A pair of relations composing to the identity up to
    indiscernibility, or None.  Carrier sizes may differ: indiscernible
    duplicates do not obstruct this notion, so it is the right one for
    comparing constructed limits."""
    id_a = identity_relation(A)
    id_b = identity_relation(B)
    forth = hom_set(A, B)
    back = hom_set(B, A) if forth else []
    for f in forth:
        for g in back:
            if extensionally_equal(g.compose(f), id_a) and \
                    extensionally_equal(f.compose(g), id_b):
                return f, g
    return None


def doubled_point_presheaf(H):
    """Two top sections agreeing on everything below, singletons at
    every proper level.  Not a sheaf whenever the proper levels cover
    the top."""
    sections = tuple(
        ("x", "y") if p == H.top else ("*",) for p in H.elements()
    )
    restrict = {(p, q): (0, 0) if p == H.top else (0,)
                for q, p in H.covers()}
    return make_presheaf(H, sections, restrict)


def report(rep, fmt="json"):
    """The ``laws`` report of a suite run, as one string."""
    out = io.StringIO()
    render(rep.results, fmt, asdict(rep.config), out)
    return out.getvalue()
