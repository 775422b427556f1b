"""Finite topos structure: limits, exponentials, classifier, refutation."""

import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsettopos import (
    SgReport,
    algebra_pool,
    chain3,
    check_adjunction,
    check_classifier,
    check_product_universal,
    check_pullback_universal,
    check_topos_axioms,
    classify,
    closed_sieves,
    diamond,
    doubled_point_presheaf,
    doubled_point_tset,
    exponential,
    exposition_counterexample,
    extensionally_equal,
    extensionally_isomorphic,
    graph,
    hom_presheaf,
    hom_set,
    identity_relation,
    is_sheaf,
    make_presheaf,
    make_tset,
    mediators,
    omega,
    product,
    principal_tset,
    product_presheaf,
    pullback,
    set_like_tset,
    sg_check,
    sg_failure_exhibit,
    sheaf_pool,
    subobjects,
    terminal,
    terminal_presheaf,
    territory_topology,
    tset_pool,
    tset_to_presheaf,
    two_element,
    unique_to_terminal,
    validate_nat,
    validate_relation,
    validate_tset,
)
from strategies import ALGEBRAS, tsets
from tsettopos import topos
from tsettopos.sheaves import NatTransform, PresheafPullback
from tsettopos.topos import (
    product_universal_presheaf,
    pullback_presheaf,
    pullback_universal_presheaf,
)

CH = chain3()
CH_J = territory_topology(CH)
CH_POOL = sheaf_pool(CH, CH_J, 3)


@given(tsets())
def test_terminal_admits_exactly_one_map(t):
    H = t.algebra
    one = terminal(H)
    assert validate_tset(one, require_separated=True).ok
    homs = hom_set(t, one)
    assert len(homs) == 1
    u = unique_to_terminal(t, one)
    assert homs[0].mapping == u.mapping
    assert all(u.mapping[x] == t.ee(x) for x in range(t.size))


@given(tsets())
def test_product_projections_validate(t):
    prod = product(t, t)
    assert validate_relation(prod.proj1).ok
    assert validate_relation(prod.proj2).ok
    assert validate_tset(prod.tset).ok


@given(tsets())
def test_product_universal_against_small_cones(t):
    prod = product(t, t)
    one = terminal(t.algebra)
    ok, witness = check_product_universal(prod, [t, one])
    assert ok, witness


@given(tsets())
def test_product_with_terminal_recovers_factor(t):
    one = terminal(t.algebra)
    prod = product(t, one)
    assert extensionally_isomorphic(prod.tset, t) is not None


@given(tsets())
def test_graph_legs(t):
    for rho in hom_set(t, t):
        g = graph(rho)
        assert validate_tset(g.tset).ok
        assert validate_relation(g.to_source).ok
        assert validate_relation(g.to_target).ok
        # the embedding section realises the pair (x, rho x)
        back = g.to_source.compose(g.embed)
        fwd = g.to_target.compose(g.embed)
        assert extensionally_equal(back, identity_relation(t))
        assert extensionally_equal(fwd, rho)


@given(tsets())
def test_pullback_square_commutes_and_is_universal(t):
    one = terminal(t.algebra)
    f = unique_to_terminal(t, one)
    pb = pullback(f, f)
    lhs = f.compose(pb.proj1)
    rhs = f.compose(pb.proj2)
    assert extensionally_equal(lhs, rhs)
    ok, witness = check_pullback_universal(pb, f, f, [t, one])
    assert ok, witness


def _swapped(pb):
    return dataclasses.replace(pb, proj1=pb.proj2, proj2=pb.proj1)


def test_swapped_projections_are_not_the_pairing():
    # over 1 with both legs from the same object, swapping the
    # projections keeps every mediator unique, but the one for the cone
    # (u, v) is w -> (v w, u w), not the pairing w -> (u w, v w)
    t = set_like_tset(two_element(), 2)
    f = unique_to_terminal(t, terminal(t.algebra))
    pb = pullback(f, f)
    assert check_pullback_universal(pb, f, f, [t]) == (True, None)
    ok, witness = check_pullback_universal(_swapped(pb), f, f, [t])
    assert not ok and witness[-1] == "mediator"
    ok, witness = check_product_universal(_swapped(product(t, t)), [t])
    assert not ok and witness[-1] == "mediator"


def test_swapped_presheaf_projections_are_not_the_pairing():
    H = two_element()
    P = tset_to_presheaf(set_like_tset(H, 2))
    f = hom_presheaf(P, terminal_presheaf(H))[0]
    pb = pullback_presheaf(f, f)
    assert pullback_universal_presheaf(pb, f, f, [P]) == (True, None)
    ok, witness = pullback_universal_presheaf(_swapped(pb), f, f, [P])
    assert not ok and witness[-1] == "mediator"


CROSS_LEVEL = [(lbl, H) for lbl, H in algebra_pool(3)] + [("diamond", diamond())]


@pytest.mark.parametrize("H", [H for _, H in CROSS_LEVEL],
                         ids=[lbl for lbl, _ in CROSS_LEVEL])
def test_product_verdicts_agree_across_levels(H):
    pool = tset_pool(H, 2, require_separated=False, include_empty=True)
    presheaves = [tset_to_presheaf(t) for t in pool]
    for A, PA in zip(pool, presheaves):
        for B, PB in zip(pool, presheaves):
            tset_verdict = check_product_universal(product(A, B), pool)
            presheaf_verdict = product_universal_presheaf(PA, PB, presheaves)
            assert tset_verdict[0] == presheaf_verdict[0]


@pytest.mark.parametrize("H", [H for _, H in CROSS_LEVEL],
                         ids=[lbl for lbl, _ in CROSS_LEVEL])
def test_pullback_verdicts_agree_across_levels(H):
    # per cospan A -> C <- B, over every pair of arrows into C
    pool = tset_pool(H, 2, require_separated=False, include_empty=True)
    presheaves = [tset_to_presheaf(t) for t in pool]
    for C, PC in zip(pool, presheaves):
        for A, PA in zip(pool, presheaves):
            for B, PB in zip(pool, presheaves):
                tset_verdict = all(
                    check_pullback_universal(pullback(f, g), f, g, pool)[0]
                    for f in hom_set(A, C) for g in hom_set(B, C))
                presheaf_verdict = all(
                    pullback_universal_presheaf(
                        pullback_presheaf(f, g), f, g, presheaves)[0]
                    for f in hom_presheaf(PA, PC)
                    for g in hom_presheaf(PB, PC))
                assert tset_verdict == presheaf_verdict


def test_pullback_along_identity_recovers_graph():
    t = set_like_tset(two_element(), 2)
    for rho in hom_set(t, t):
        pb = pullback(rho, identity_relation(t))
        g = graph(rho)
        assert extensionally_isomorphic(pb.tset, g.tset) is not None


def test_mediator_counts_literal_vs_extensional():
    # separated target: literal relation count equals extensional count
    t = set_like_tset(two_element(), 2)
    prod = product(t, t)
    idr = identity_relation(t)
    ms = mediators(t, prod.tset,
                   [(prod.proj1, idr), (prod.proj2, idr)])
    distinct = []
    for m in ms:
        if not any(extensionally_equal(m, d) for d in distinct):
            distinct.append(m)
    assert len(distinct) == 1


def test_counterexample_frozen_counts():
    rep = exposition_counterexample()
    assert rep.proper_size == 2
    assert rep.vertex_size == 9
    assert rep.flawed_count == 256 == rep.expected_flawed
    assert rep.refuted
    assert rep.corrected_count == 1
    assert rep.corrected_unique


def test_counterexample_degenerate_point():
    rep = exposition_counterexample(proper_size=1)
    assert rep.flawed_count == 1
    assert not rep.refuted
    assert rep.corrected_unique


def test_omega_levels_are_closed_sieves():
    om = omega(CH, CH_J)
    assert is_sheaf(om.presheaf, CH_J).ok
    assert validate_nat(om.truth)
    for p in CH.elements():
        assert om.presheaf.n(p) == len(closed_sieves(CH, CH_J, p))
    assert [om.presheaf.n(p) for p in CH.elements()] == [1, 2, 3]


def test_classifier_on_chain3_pool():
    om = omega(CH, CH_J)
    for P in CH_POOL:
        ok, witness = check_classifier(P, CH_J, om)
        assert ok, witness


def test_classify_components_validate():
    om = omega(CH, CH_J)
    one = terminal_presheaf(CH)
    subs = subobjects(one, CH_J)
    # sheaf subobjects of 1 = closed sieves at the top
    assert len(subs) == 3
    for inc in subs:
        phi = classify(inc, om)
        assert validate_nat(phi)


def test_exponential_of_terminal_is_target():
    one = terminal_presheaf(CH)
    for P in CH_POOL:
        E = exponential(one, P)
        assert is_sheaf(E.presheaf, CH_J).ok
        # 1 -> P transposes: Y^1 has exactly P's sections levelwise
        for p in CH.elements():
            assert E.presheaf.n(p) == P.n(p)


def test_adjunction_small_instances():
    X = CH_POOL[1]
    Y = CH_POOL[2]
    E = exponential(X, Y)
    for Z in (terminal_presheaf(CH), CH_POOL[1]):
        ok, witness = check_adjunction(E, Z)
        assert ok, witness


def test_hom_counts_match_adjunction_cardinality():
    X, Y, Z = CH_POOL[1], CH_POOL[2], CH_POOL[3]
    E = exponential(X, Y)
    from tsettopos.topos import product_presheaf
    lhs = hom_presheaf(product_presheaf(Z, X), Y)
    rhs = hom_presheaf(Z, E.presheaf)
    assert len(lhs) == len(rhs)


def _natural_with_exponential(X, Y):
    """Reference exponential: per level p, a separate top-down search
    over H.down(p) with a two-sided naturality check, the families kept
    as (q, component) pairs, restriction tabled for every pair q < p."""
    H = X.algebra
    fams_at = []
    for p in H.elements():
        downs = list(H.down(p))
        order = sorted(downs, key=lambda q: (-len(H.down(q)), q))
        chosen = {}
        found = []

        def natural_with(q, comp):
            for r, other in chosen.items():
                if H.le(r, q) and any(
                    Y.restrict(q, r, comp[i]) != other[X.restrict(q, r, i)]
                    for i in range(X.n(q))
                ):
                    return False
                if H.le(q, r) and any(
                    Y.restrict(r, q, other[i]) != comp[X.restrict(r, q, i)]
                    for i in range(X.n(r))
                ):
                    return False
            return True

        def rec(k):
            if k == len(order):
                found.append(tuple((q, chosen[q]) for q in downs))
                return
            q = order[k]
            for comp in itertools.product(range(Y.n(q)), repeat=X.n(q)):
                if natural_with(q, comp):
                    chosen[q] = comp
                    rec(k + 1)
                    del chosen[q]

        rec(0)
        found.sort()
        fams_at.append(found)
    index_at = [{fam: k for k, fam in enumerate(f)} for f in fams_at]
    sections = [[f"{H.name(p)}^f{k}" for k in range(len(fams_at[p]))]
                for p in H.elements()]
    restrict = {}
    for p in H.elements():
        for q in H.down(p):
            if q != p:
                below = set(H.down(q))
                restrict[(p, q)] = tuple(
                    index_at[q][tuple((r, c) for r, c in fam if r in below)]
                    for fam in fams_at[p]
                )
    return fams_at, make_presheaf(H, sections, restrict)


def _sectionwise_pairs_reference(P, Q, agree):
    """Reference pair presheaf: restriction tabled for every pair q < p,
    projections read off the pair lists."""
    H = P.algebra
    pairs = {
        p: [(i, j) for i in range(P.n(p)) for j in range(Q.n(p))
            if agree(p, i, j)]
        for p in H.elements()
    }
    sections = [[f"({P.section_name(p, i)},{Q.section_name(p, j)})"
                 for i, j in pairs[p]] for p in H.elements()]
    restrict = {}
    for p in H.elements():
        for q in H.down(p):
            if q != p:
                pos = {pair: k for k, pair in enumerate(pairs[q])}
                restrict[(p, q)] = tuple(
                    pos[(P.restrict(p, q, i), Q.restrict(p, q, j))]
                    for i, j in pairs[p]
                )
    c1 = tuple(tuple(i for i, _ in pairs[p]) for p in H.elements())
    c2 = tuple(tuple(j for _, j in pairs[p]) for p in H.elements())
    return make_presheaf(H, sections, restrict), c1, c2


TERRITORY_POOLS = [
    (name, H, sheaf_pool(H, territory_topology(H), 3))
    for name, H in (("chain3", CH), ("diamond", diamond()))
]


@pytest.mark.parametrize("H,pool", [c[1:] for c in TERRITORY_POOLS],
                         ids=[c[0] for c in TERRITORY_POOLS])
def test_exponential_matches_natural_with_reference(H, pool):
    for X in pool:
        for Y in pool:
            E = exponential(X, Y)
            fams_at, ref = _natural_with_exponential(X, Y)
            assert E.families == tuple(
                tuple(tuple(c for _, c in fam) for fam in fams_at[p])
                for p in H.elements()
            )
            assert E.presheaf == ref
            for p in H.elements():
                for k, fam in enumerate(fams_at[p]):
                    for q, comps in fam:
                        assert E.component_at(p, k, q) == comps


@pytest.mark.parametrize("H,pool", [c[1:] for c in TERRITORY_POOLS],
                         ids=[c[0] for c in TERRITORY_POOLS])
def test_products_and_pullbacks_match_sectionwise_reference(H, pool):
    one = terminal_presheaf(H)
    for P in pool:
        for Q in pool:
            ref, c1, c2 = _sectionwise_pairs_reference(
                P, Q, lambda p, i, j: True)
            assert product_presheaf(P, Q) == ref
            # the product as the pullback over the terminal presheaf
            pb = pullback_presheaf(hom_presheaf(P, one)[0],
                                   hom_presheaf(Q, one)[0])
            assert pb.presheaf == ref
            assert (pb.proj1.components, pb.proj2.components) == (c1, c2)
    for C in pool:
        for A in pool:
            for B in pool:
                for f in hom_presheaf(A, C):
                    for g in hom_presheaf(B, C):
                        ref, c1, c2 = _sectionwise_pairs_reference(
                            A, B, lambda p, i, j:
                            f.components[p][i] == g.components[p][j])
                        pb = pullback_presheaf(f, g)
                        assert pb.presheaf == ref
                        assert pb.proj1.components == c1
                        assert pb.proj2.components == c2


def _scan_pullback_universal(pb, f, g, pool):
    """Reference verifier: every cone rescans every candidate arrow."""
    H = f.source.algebra
    index = [{pair: k for k, pair in enumerate(level)} for level in pb.pairs]
    for W in pool:
        candidates = hom_presheaf(W, pb.presheaf)
        homs_u = hom_presheaf(W, f.source)
        homs_v = hom_presheaf(W, g.source) if homs_u else []
        for u in homs_u:
            for v in homs_v:
                if f.compose(u).components != g.compose(v).components:
                    continue
                ms = [
                    h for h in candidates
                    if pb.proj1.compose(h).components == u.components
                    and pb.proj2.compose(h).components == v.components
                ]
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


@pytest.mark.parametrize("H,pool", [c[1:] for c in TERRITORY_POOLS],
                         ids=[c[0] for c in TERRITORY_POOLS])
def test_leg_index_matches_candidate_scan(H, pool):
    for C in pool:
        for A in pool:
            for B in pool:
                for f in hom_presheaf(A, C):
                    for g in hom_presheaf(B, C):
                        pb = pullback_presheaf(f, g)
                        for planted in (pb, _swapped(pb)):
                            assert pullback_universal_presheaf(
                                planted, f, g, pool) == \
                                _scan_pullback_universal(planted, f, g, pool)


def _planted_over_one(sections, restrict, pairs):
    """A PresheafPullback of 1 -> 1 <- 1 over the two-element algebra
    with the given sections over (bottom, top) and their section pairs."""
    H = two_element()
    one = terminal_presheaf(H)
    D = make_presheaf(H, sections, restrict)
    legs = NatTransform(D, one, tuple(
        tuple(0 for _ in level) for level in pairs))
    return PresheafPullback(D, legs, legs, pairs), one


def test_leg_index_on_planted_pullbacks():
    H = two_element()
    # two top sections over the same pair: the identity cone has 2 mediators
    twice, one = _planted_over_one(
        (("a",), ("b", "c")), {(1, 0): (0, 0)},
        (((0, 0),), ((0, 0), (0, 0))))
    # no top section at all: the identity cone has no mediator
    missing, _ = _planted_over_one(
        (("a",), ()), {(1, 0): ()}, (((0, 0),), ()))
    f = hom_presheaf(one, one)[0]
    ident = f.components
    for planted, count in ((twice, 2), (missing, 0)):
        assert pullback_universal_presheaf(planted, f, f, [one]) == \
            _scan_pullback_universal(planted, f, f, [one]) == \
            (False, (repr(one), ident, ident, count))
    # swapped projections: one mediator, but not the pairing
    P = tset_to_presheaf(set_like_tset(H, 2))
    g = hom_presheaf(P, terminal_presheaf(H))[0]
    swapped = _swapped(pullback_presheaf(g, g))
    got = pullback_universal_presheaf(swapped, g, g, [P])
    assert got == _scan_pullback_universal(swapped, g, g, [P])
    assert not got[0] and got[1][-1] == "mediator"


def _topos_bench_pool(H, max_total, max_per_level):
    J = territory_topology(H)
    return [P for P in sheaf_pool(H, J, max_total)
            if max(P.n(p) for p in H.elements()) <= max_per_level], J


def _rows_digest(rep):
    return hashlib.sha256(repr(rep.rows).encode()).hexdigest()


# check_topos_axioms rows, witnesses included, as computed before the
# verifiers shared hom-sets, products and transposes within one call
@pytest.mark.parametrize("H,max_total,max_per_level,digest", [
    (CH, 4, 2,
     "9f909f2528358fc5b4d613efd7438e3a0ea1203afe61dde032929f9f3c01aa05"),
    (diamond(), 4, 2,
     "34151793d712422cc6a2cb08bee79adefe9578b45e13d26cf7fde788edd48292"),
    (diamond(), 3, 3,
     "31bd4cb131ecd3e4e6f6e15a18381110ce2c31ec22eb4c5218d5b2df7bfc2608"),
], ids=["chain3-4", "diamond-4", "diamond-3"])
def test_topos_axiom_rows_frozen(H, max_total, max_per_level, digest):
    pool, J = _topos_bench_pool(H, max_total, max_per_level)
    assert _rows_digest(check_topos_axioms(pool, J)) == digest


def test_hom_sets_enumerated_once_per_call(monkeypatch):
    pool, J = _topos_bench_pool(diamond(), 3, 3)
    seen = []
    real = topos.hom_presheaf

    def counting(P, Q, *args):
        seen.append((P, Q))
        return real(P, Q, *args)

    monkeypatch.setattr(topos, "hom_presheaf", counting)
    first = check_topos_axioms(pool, J)
    calls = len(seen)
    assert calls == len(set(seen)) > 0
    # nothing carries over: a second call enumerates every pair again
    second = check_topos_axioms(pool, J)
    assert len(seen) == 2 * calls and set(seen[calls:]) == set(seen[:calls])
    assert first == second


def test_topos_axioms_smoke():
    rep = check_topos_axioms(CH_POOL[:2], CH_J)
    assert rep.ok
    names = {row[0] for row in rep.rows}
    assert {"terminal-sheaf", "product-universal", "pullback-universal",
            "adjunction-bijection", "classifier-unique"} <= names


def test_sg_holds_on_pool_tsets():
    for H in ALGEBRAS:
        rep = sg_check(tset_pool(H, 3))
        assert rep.ok, rep.witness
        assert rep.pairs_checked > 0


def _pairwise_sg_check(pool):
    """Reference probe separation: every pair of arrows in every
    hom-set, against every probe composite, in order."""
    if not pool:
        return SgReport(True, 0, None)
    H = pool[0].algebra
    checked = 0
    for A in pool:
        probes = [e for s in H.elements()
                  for e in hom_set(principal_tset(H, s), A)]
        for B in pool:
            homs = hom_set(A, B)
            for fi, f in enumerate(homs):
                for g in homs[fi + 1:]:
                    checked += 1
                    if all(extensionally_equal(f.compose(e), g.compose(e))
                           for e in probes):
                        return SgReport(
                            False, checked,
                            (repr(A), repr(B), f.mapping, g.mapping),
                        )
    return SgReport(True, checked, None)


def _with_copy(t, x):
    """t plus an indiscernible copy of element x, appended last."""
    rows = [row + (row[x],) for row in t.id_table]
    rows.append(t.id_table[x] + (t.ee(x),))
    return make_tset(t.algebra, t.elements + ("copy",), rows)


# (label, pool, index of the first unseparated pair or None); the quasi
# pools fail at their first pair, the doubled point at the 15th, and the
# copied point deep inside a hom-set
D4 = diamond()
SET3 = set_like_tset(two_element(), 3)
SG_CASES = [
    (f"{lbl}/T4", tset_pool(H, 4), None) for lbl, H in algebra_pool(4)
] + [
    (f"{lbl}/Q2", tset_pool(H, 2, require_separated=False,
                            require_postulate=False, include_empty=True), 1)
    for lbl, H in algebra_pool(3)
] + [
    ("diamond/T3+doubled", tset_pool(D4, 3) + [doubled_point_tset(D4)], 15),
    ("two_element/set3+copy", [SET3, _with_copy(SET3, 2)], 477),
]


@pytest.mark.parametrize("pool,fails_at", [c[1:] for c in SG_CASES],
                         ids=[c[0] for c in SG_CASES])
def test_sg_check_matches_pairwise_reference(pool, fails_at):
    rep = sg_check(pool)
    assert rep == _pairwise_sg_check(pool)
    assert rep.ok == (fails_at is None)
    if fails_at is not None:
        assert rep.pairs_checked == fails_at


def test_sg_failure_exhibit_doubled_point():
    H = diamond()
    ex = sg_failure_exhibit(H, territory_topology(H))
    assert ex.maps_distinct
    assert not ex.probe_separable
    assert not is_sheaf(ex.presheaf, territory_topology(H)).ok


def test_doubled_point_tset_is_not_separated():
    H = diamond()
    t = doubled_point_tset(H)
    assert validate_tset(t).ok
    assert not validate_tset(t, require_separated=True).ok
    P = doubled_point_presheaf(H)
    assert not is_sheaf(P, territory_topology(H)).ok
