"""Finite topos structure: limits, exponentials, classifier, refutation."""

import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsettopos import (
    CounterexampleReport,
    PostulateRequired,
    SgReport,
    SizeGuard,
    TRelation,
    algebra_pool,
    chain3,
    check_adjunction,
    check_classifier,
    check_topos_axioms,
    closed_sieves,
    diamond,
    doubled_point_tset,
    exponential,
    exposition_counterexample,
    graph,
    hom_presheaf,
    hom_set,
    identity_relation,
    is_sheaf,
    localise_element,
    make_presheaf,
    make_tset,
    mediators,
    naturality_witness,
    omega,
    product,
    principal_tset,
    product_presheaf,
    pullback,
    representable,
    set_like_tset,
    sg_check,
    sheaf_pool,
    subobjects,
    terminal,
    terminal_presheaf,
    territory_topology,
    tset_pool,
    tset_to_presheaf,
    two_element,
    unique_to_terminal,
    validate_relation,
    validate_tset,
)
from oracles import (check_pullback_universal, doubled_point_presheaf,
                     extensionally_equal, extensionally_isomorphic, separated)
from strategies import ALGEBRAS, tsets
from tsettopos import topos
from tsettopos.heyting import NAMED_ALGEBRAS
from tsettopos.sheaves import NatTransform, PresheafPullback, SheafReport
from tsettopos.topos import (
    product_universal_presheaf,
    pullback_presheaf,
    pullback_universal_presheaf,
    truth_pullback_mask,
)

CH = chain3()
CH_J = territory_topology(CH)
CH_POOL = sheaf_pool(CH, CH_J, 3)


@given(tsets())
def test_terminal_admits_exactly_one_map(t):
    H = t.algebra
    one = terminal(H)
    assert validate_tset(one).ok and separated(one)
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
    f = unique_to_terminal(t, one)
    ok, witness = check_pullback_universal(prod, f, f, [t, one])
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
    ok, witness = check_pullback_universal(_swapped(product(t, t)), f, f, [t])
    assert not ok and witness[-1] == "mediator"


def test_swapped_presheaf_projections_are_not_the_pairing():
    H = two_element()
    P = tset_to_presheaf(set_like_tset(H, 2))
    f = hom_presheaf(P, terminal_presheaf(H))[0]
    pb = pullback_presheaf(f, f)
    assert pullback_universal_presheaf(pb, f, f) == (True, None)
    ok, witness = pullback_universal_presheaf(_swapped(pb), f, f)
    assert not ok and witness[-1] == "mediator"


CROSS_LEVEL = [(lbl, H) for lbl, H in algebra_pool(3)] + [("diamond", diamond())]


@pytest.mark.parametrize("H", [H for _, H in CROSS_LEVEL],
                         ids=[lbl for lbl, _ in CROSS_LEVEL])
def test_product_verdicts_agree_across_levels(H):
    pool = tset_pool(H, 2, require_separated=False, include_empty=True)
    presheaves = [tset_to_presheaf(t) for t in pool]
    one = terminal(H)
    for A, PA in zip(pool, presheaves):
        for B, PB in zip(pool, presheaves):
            tset_verdict = check_pullback_universal(
                product(A, B), unique_to_terminal(A, one),
                unique_to_terminal(B, one), pool)
            presheaf_verdict = product_universal_presheaf(PA, PB)
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
                        pullback_presheaf(f, g), f, g)[0]
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


def _direct_product(A, B):
    """A x B built straight from every carrier pair, not as a pullback:
    componentwise identity meet, projections localised to each pair's
    existence degree."""
    H = A.algebra
    pairs = tuple((i, j) for i in range(A.size) for j in range(B.size))
    names = tuple(f"({A.name(i)},{B.name(j)})" for i, j in pairs)
    table = tuple(
        tuple(H.meet(A.ident(i, k), B.ident(j, l)) for k, l in pairs)
        for i, j in pairs
    )
    prod = make_tset(H, names, table)
    m1 = []
    m2 = []
    for i, j in pairs:
        e = H.meet(A.ee(i), B.ee(j))
        m1.append(localise_element(A, i, e))
        m2.append(localise_element(B, j, e))
    return topos.PullbackResult(prod, TRelation(prod, A, tuple(m1)),
                                TRelation(prod, B, tuple(m2)), pairs)


def _product_outcome(build):
    try:
        return build()
    except PostulateRequired:
        return "PostulateRequired"


@pytest.mark.parametrize("H", [H for _, H in CROSS_LEVEL],
                         ids=[lbl for lbl, _ in CROSS_LEVEL])
def test_product_matches_direct_construction(H):
    separated = tset_pool(H, 3)
    quasi = tset_pool(H, 2, require_separated=False, require_postulate=False,
                      include_empty=True)
    for pool in (separated, quasi):
        for A in pool:
            for B in pool:
                assert _product_outcome(lambda: product(A, B)) == \
                    _product_outcome(lambda: _direct_product(A, B))


def test_product_guard_bounds_the_table():
    # 10 elements: 100 pairs, a 10 000-cell identity table
    X = set_like_tset(two_element(), 9)
    with pytest.raises(SizeGuard) as err:
        product(X, X, guard=1000)
    assert err.value.size == 10_000


def _leaf_filtered_mediators(W, target, constraints, guard):
    """Every combination of allowed images, each kept if it validates."""
    allowed = []
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


@pytest.mark.parametrize("name", ["chain3", "diamond", "two_element"])
def test_mediators_match_leaf_filter_on_exposition_calls(monkeypatch, name):
    H = NAMED_ALGEBRAS[name]()
    calls = []
    real = topos.mediators

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(topos, "mediators", spy)
    for size in range(3):
        exposition_counterexample(H, size)
    assert len(calls) == 6
    for args in calls:
        assert real(*args) == _leaf_filtered_mediators(*args)
    with pytest.raises(SizeGuard):
        exposition_counterexample(H, 3)
    for search in (real, _leaf_filtered_mediators):
        with pytest.raises(SizeGuard) as err:
            search(*calls[-1])
        assert err.value.size == 1_594_323


@pytest.mark.parametrize("name", ["chain3", "diamond", "two_element"])
@pytest.mark.parametrize("size,vertex,flawed", [(0, 1, 1), (1, 2, 1),
                                                (2, 9, 256)])
def test_counterexample_reports_frozen(name, size, vertex, flawed):
    rep = exposition_counterexample(NAMED_ALGEBRAS[name](), size)
    assert rep == CounterexampleReport(
        proper_size=size, vertex_size=vertex, flawed_count=flawed,
        expected_flawed=flawed, corrected_count=1, refuted=flawed >= 2,
        corrected_unique=True)


def test_omega_levels_are_closed_sieves():
    om = omega(CH, CH_J)
    assert is_sheaf(om.presheaf, CH_J).ok
    assert naturality_witness(om.truth) is None
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
    pulled = [truth_pullback_mask(one, phi, om)
              for phi in hom_presheaf(one, om.presheaf)]
    assert sorted(pulled) == subs


def _reference_classifier(parent, J, om):
    """Reference: each subsheaf's characteristic arrow, which sends a
    section to the sieve of levels where its restriction lies in the
    subsheaf, is natural, pulls truth back to the subsheaf, and is the
    only arrow that does."""
    H = parent.algebra
    arrows = hom_presheaf(parent, om.presheaf)
    for mask in subobjects(parent, J):
        comps = []
        for p in H.elements():
            row = []
            for x in range(parent.n(p)):
                members = frozenset(
                    q for q in H.down(p)
                    if parent.restrict(p, q, x) in mask[q]
                )
                if members not in om.sieves[p]:
                    return False, (mask, "not closed")
                row.append(om.sieves[p].index(members))
            comps.append(tuple(row))
        phi = NatTransform(parent, om.presheaf, tuple(comps))
        if naturality_witness(phi) is not None:
            return False, (mask, "not natural")
        if truth_pullback_mask(parent, phi, om) != mask:
            return False, (mask, "pullback mismatch")
        matching = [
            a for a in arrows
            if truth_pullback_mask(parent, a, om) == mask
        ]
        if len(matching) != 1 or matching[0].components != phi.components:
            return False, (mask, "not unique", len(matching))
    return True, None


def _is_chain(H):
    return all(H.le(a, b) or H.le(b, a)
               for a in H.elements() for b in H.elements())


def _oracle_pools():
    """(H, J, sheaves): chain3 and the diamond at totals <= 4, and every
    non-chain algebra of up to 5 elements at totals <= 3, where the least
    cover L(p) is a proper sieve and closedness bites.  Totals <= 3
    leave no section at the top of those algebras, so their pools also
    hold the terminal sheaf."""
    out = []
    for H in (CH, diamond()):
        J = territory_topology(H)
        out.append((H, J, sheaf_pool(H, J, 4)))
    for _, H in algebra_pool(5):
        if not _is_chain(H):
            J = territory_topology(H)
            out.append((H, J, sheaf_pool(H, J, 3) + [terminal_presheaf(H)]))
    return out


def _omega_without_least_at_top(H, J, monkeypatch):
    real = topos.closed_sieves

    def dropped(H, J, p):
        sieves = real(H, J, p)
        least = min(sieves, key=len)
        return [m for m in sieves if p != H.top or m != least]

    with monkeypatch.context() as m:
        m.setattr(topos, "closed_sieves", dropped)
        return omega(H, J)


def test_classifier_agrees_with_reference(monkeypatch):
    """Both checks pass every pool sheaf and fail the Omega missing its
    least closed sieve at the top on the same sheaves: those with a
    section at the top."""
    pools = _oracle_pools()
    assert len(pools) == 5
    failing = []
    for H, J, pool in pools:
        om = omega(H, J)
        dropped = _omega_without_least_at_top(H, J, monkeypatch)
        assert dropped.presheaf.n(H.top) == om.presheaf.n(H.top) - 1
        for P in pool:
            assert check_classifier(P, J, om)[0] is True
            assert _reference_classifier(P, J, om)[0] is True
            verdict = check_classifier(P, J, dropped)[0]
            assert verdict == _reference_classifier(P, J, dropped)[0]
            assert verdict == (P.n(H.top) == 0)
        failing.append(sum(P.n(H.top) > 0 for P in pool))
    assert failing == [3, 1, 1, 1, 1]


def test_classifier_reads_the_truth_arrow(monkeypatch):
    """A truth arrow pointing at the least closed sieve at the top, not
    the maximal one, is no classifier; a check that never reads `true`
    passes it on every sheaf of both pools.  The check also fails an
    Omega missing that sieve and a `subobjects` without its sheaf
    filter."""
    for H, size, failing in [(CH, 7, 3), (diamond(), 8, 1)]:
        J = territory_topology(H)
        pool = sheaf_pool(H, J, 4)
        assert len(pool) == size
        om = omega(H, J)
        assert om.sieves[H.top][0] == min(om.sieves[H.top], key=len)
        comps = list(om.truth.components)
        comps[H.top] = (0,)
        wrong = dataclasses.replace(om, truth=NatTransform(
            om.truth.source, om.presheaf, tuple(comps)))
        witnesses = [w for ok, w in
                     (check_classifier(P, J, wrong) for P in pool) if not ok]
        assert len(witnesses) == failing
        if H is CH:
            assert witnesses[0][1] == "not unique"
        dropped = _omega_without_least_at_top(H, J, monkeypatch)
        assert any(not check_classifier(P, J, dropped)[0] for P in pool)
        with monkeypatch.context() as m:
            m.setattr(topos, "is_sheaf", lambda P, J: SheafReport(True, None))
            assert any(not check_classifier(P, J, om)[0] for P in pool)
        assert all(check_classifier(P, J, om)[0] for P in pool)


def test_classifier_passes_truth_moved_by_an_automorphism():
    """On chain3 the truth pointing at {mu, p} at the top is sigma . true,
    where sigma is the natural automorphism of Omega that swaps the two
    largest closed sieves at the top.  It is natural, and Omega with it
    is a genuine classifier: the check must pass it."""
    om = omega(CH, CH_J)
    top = CH.top
    sieves = om.sieves[top]
    full = sieves.index(frozenset(CH.down(top)))
    moved = sieves.index(frozenset({CH.index("mu"), CH.index("p")}))
    assert om.truth.components[top] == (full,)
    swap = {full: moved, moved: full}
    sigma = NatTransform(om.presheaf, om.presheaf, tuple(
        tuple(swap.get(k, k) if q == top else k
              for k in range(om.presheaf.n(q)))
        for q in CH.elements()))
    assert naturality_witness(sigma) is None
    truth = sigma.compose(om.truth)
    assert truth.components[top] == (moved,)
    assert naturality_witness(truth) is None
    moved_om = dataclasses.replace(om, truth=truth)
    pool = sheaf_pool(CH, CH_J, 4)
    assert len(pool) == 7
    for P in pool:
        ok, witness = check_classifier(P, CH_J, moved_om)
        assert ok, witness


def test_subobject_enumeration_is_guarded():
    P = make_presheaf(CH, [[f"x{i}" for i in range(20)], [], []],
                      {(1, 0): [], (2, 1): []})
    om = omega(CH, CH_J)
    for enumerate_masks in (lambda: subobjects(P, CH_J),
                            lambda: check_classifier(P, CH_J, om)):
        with pytest.raises(SizeGuard) as err:
            enumerate_masks()
        assert (err.value.what, err.value.size) == \
            ("subobject enumeration", 2 ** 20)


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
    """Reference verifier quantified over pool members W: every cone
    (u, v) from W rescans every candidate arrow W -> pb.  It compares
    leg components only, so it cannot tell which cospan the legs lie
    over."""
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


def _to_one(F):
    H = F.algebra
    return NatTransform(F, terminal_presheaf(H),
                        tuple((0,) * F.n(p) for p in H.elements()))


def _cospans(pool):
    for C in pool:
        for A in pool:
            for B in pool:
                for f in hom_presheaf(A, C):
                    for g in hom_presheaf(B, C):
                        yield A, B, f, g


@pytest.mark.parametrize("H,pool", [c[1:] for c in TERRITORY_POOLS],
                         ids=[c[0] for c in TERRITORY_POOLS])
def test_leg_index_matches_candidate_scan(H, pool):
    # the y(p) verifiers and the pool reference agree on every product
    # and pullback, and on every swapped square over a cospan with A = B
    for P in pool:
        for Q in pool:
            f, g = _to_one(P), _to_one(Q)
            assert product_universal_presheaf(P, Q) == \
                _scan_pullback_universal(pullback_presheaf(f, g), f, g, pool) \
                == (True, None)
    for A, B, f, g in _cospans(pool):
        pb = pullback_presheaf(f, g)
        assert pullback_universal_presheaf(pb, f, g) == \
            _scan_pullback_universal(pb, f, g, pool) == (True, None)
        if A == B:
            got = pullback_universal_presheaf(_swapped(pb), f, g)
            ref = _scan_pullback_universal(_swapped(pb), f, g, pool)
            assert got[0] == ref[0]
            assert got[0] or got[1][0] == "commute" or \
                got[1][-1] == "mediator"


def test_pullback_verifier_checks_the_cospan():
    # swapped legs over a cospan with A != B lie over B -> C <- A; the
    # pool reference compares leg components only and passes most of them
    cospans = missed = 0
    for _, _, pool in TERRITORY_POOLS:
        for A, B, f, g in _cospans(pool):
            if A == B:
                continue
            swapped = _swapped(pullback_presheaf(f, g))
            assert pullback_universal_presheaf(swapped, f, g) == \
                (False, ("leg-endpoints", 1))
            cospans += 1
            missed += _scan_pullback_universal(swapped, f, g, pool)[0]
    assert (cospans, missed) == (114, 80)


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
    top = H.name(H.top)
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
        assert _scan_pullback_universal(planted, f, f, [one]) == \
            (False, (repr(one), ident, ident, count))
        assert pullback_universal_presheaf(planted, f, f) == \
            (False, (top, 0, 0, count))
    # swapped projections: one mediator, but not the pairing
    P = tset_to_presheaf(set_like_tset(H, 2))
    g = hom_presheaf(P, terminal_presheaf(H))[0]
    swapped = _swapped(pullback_presheaf(g, g))
    ref = _scan_pullback_universal(swapped, g, g, [P])
    assert not ref[0] and ref[1][-1] == "mediator"
    assert pullback_universal_presheaf(swapped, g, g) == \
        (False, (top, 0, 1, "mediator"))
    # a first leg that breaks naturality: the (bottom-level) section pairs
    # are fixed, but the top sections are sent to the wrong factor section
    F = make_presheaf(H, (("x", "y"), ("x", "y")), {(1, 0): (0, 1)})
    g = _to_one(F)
    pb = pullback_presheaf(g, g)
    bent = dataclasses.replace(pb.proj1, components=(
        pb.proj1.components[0], tuple(1 - i for i in pb.proj1.components[1])))
    got = pullback_universal_presheaf(
        dataclasses.replace(pb, proj1=bent), g, g)
    assert got == (False, ("leg-natural", 1, (top, H.name(0), 0)))


@pytest.mark.parametrize("H,pool", [c[1:] for c in TERRITORY_POOLS],
                         ids=[c[0] for c in TERRITORY_POOLS])
def test_yoneda_arrows_from_representables_are_sections(H, pool):
    for F in pool:
        for p in H.elements():
            homs = hom_presheaf(representable(H, p), F)
            assert len(homs) == F.n(p)
            assert sorted(h.components[p][0] for h in homs) == \
                list(range(F.n(p)))


def _transpose_adjunction(E, Z):
    """Reference: Hom(Z x X, Y) and Hom(Z, Y^X) biject via transpose and
    untranspose, every arrow checked natural and round-tripped."""
    ZX = product_presheaf(Z, E.base)
    lower = hom_presheaf(ZX, E.power)
    upper = hom_presheaf(Z, E.presheaf)
    if len(lower) != len(upper):
        return False, ("count", len(lower), len(upper))
    for k in lower:
        h = topos.transpose(E, Z, k)
        if naturality_witness(h) is not None:
            return False, ("transpose-nat", k.components)
        if topos.untranspose(E, Z, h).components != k.components:
            return False, ("roundtrip-lower", k.components)
    for h in upper:
        k = topos.untranspose(E, Z, h)
        if naturality_witness(k) is not None:
            return False, ("untranspose-nat", h.components)
        if topos.transpose(E, Z, k).components != h.components:
            return False, ("roundtrip-upper", h.components)
    return True, None


def _cross_nat(r, X, source_prod, target_prod):
    """r x id_X on sectionwise pair presheaves."""
    H = X.algebra
    comps = tuple(
        tuple(r.components[p][m // X.n(p)] * X.n(p) + m % X.n(p)
              for m in range(source_prod.n(p)))
        for p in H.elements()
    )
    return NatTransform(source_prod, target_prod, comps)


def _transpose_adjunction_natural(E, Z2, Z):
    """Reference: transpose(k . (r x id)) = transpose(k) . r for every
    r: Z2 -> Z and k: Z x X -> Y."""
    ZX = product_presheaf(Z, E.base)
    Z2X = product_presheaf(Z2, E.base)
    for r in hom_presheaf(Z2, Z):
        rx = _cross_nat(r, E.base, Z2X, ZX)
        for k in hom_presheaf(ZX, E.power):
            left = topos.transpose(E, Z2, k.compose(rx))
            right = topos.transpose(E, Z, k).compose(r)
            if left.components != right.components:
                return False, (r.components, k.components)
    return True, None


@pytest.mark.parametrize("H,pool", [c[1:] for c in TERRITORY_POOLS],
                         ids=[c[0] for c in TERRITORY_POOLS])
def test_adjunction_matches_transpose_reference(H, pool):
    ys = [representable(H, p) for p in H.elements()]
    for X in pool:
        for Y in pool:
            E = exponential(X, Y)
            for Z in pool + ys:
                assert check_adjunction(E, Z) == \
                    _transpose_adjunction(E, Z) == (True, None)
                for Z2 in pool + ys:
                    assert topos.check_adjunction_natural(E, Z2, Z) == \
                        _transpose_adjunction_natural(E, Z2, Z) == (True, None)


def test_adjunction_rejects_non_natural_uncurrying(monkeypatch):
    # Y has two global sections, told apart at the bottom; an uncurrying
    # that swaps the values at the top is injective but not natural
    H = two_element()
    one = terminal_presheaf(H)
    Y = make_presheaf(H, (("x", "y"), ("x", "y")), {(1, 0): (0, 1)})
    E = exponential(one, Y)
    real = topos.untranspose

    def swaps_top(E, Z, h, memo=None):
        k = real(E, Z, h, memo)
        comps = k.components[:-1] + (tuple(1 - v for v in k.components[-1]),)
        return dataclasses.replace(k, components=comps)

    monkeypatch.setattr(topos, "untranspose", swaps_top)
    first = hom_presheaf(one, E.presheaf)[0].components
    assert check_adjunction(E, one) == (False, ("untranspose-nat", first))
    assert not _transpose_adjunction(E, one)[0]


def test_z_mutant_passes_every_representable(monkeypatch):
    # y(p) has at most one section per level, so an uncurrying that reads
    # every z as 0 passes every check against the representables; the
    # reference over pool members with two sections at a level catches
    # it, and so does check_adjunction given those members as Z
    real = topos.untranspose

    def reads_z_as_0(E, Z, h, memo=None):
        comps = tuple(c[:1] * len(c) for c in h.components)
        return real(E, Z, dataclasses.replace(h, components=comps), memo)

    monkeypatch.setattr(topos, "untranspose", reads_z_as_0)
    for _, H, pool in TERRITORY_POOLS:
        ys = [representable(H, p) for p in H.elements()]
        caught = seen = 0
        for X in pool:
            for Y in pool:
                E = exponential(X, Y)
                for Z in ys:
                    assert check_adjunction(E, Z) == (True, None)
                    for Z2 in ys:
                        assert topos.check_adjunction_natural(
                            E, Z2, Z) == (True, None)
                caught += sum(not _transpose_adjunction(E, Z)[0]
                              for Z in pool)
                seen += sum(not check_adjunction(E, Z)[0] for Z in pool)
        assert caught > 0 and seen > 0


def _with_restriction_moved(E, p, q):
    """E with the first section over p restricting to the next section
    over q, one entry of the presheaf's tables changed."""
    P = E.presheaf
    row = list(P.tables[p][q])
    row[0] = (row[0] + 1) % P.n(q)
    level = P.tables[p][:q] + (tuple(row),) + P.tables[p][q + 1:]
    tables = P.tables[:p] + (level,) + P.tables[p + 1:]
    return dataclasses.replace(
        E, presheaf=dataclasses.replace(P, tables=tables))


def test_wrong_exponential_is_caught():
    # per exponential, the first cover pair q < p with two sections over
    # q gets one restriction entry moved: check_adjunction rejects every
    # such mutant, while the naturality rows hold for any E whatever
    mutants = 0
    for _, H, pool in TERRITORY_POOLS:
        ys = [representable(H, p) for p in H.elements()]
        for X in pool:
            for Y in pool:
                E = exponential(X, Y)
                cut = next(((p, q) for q, p in H.covers()
                            if E.presheaf.n(q) > 1 and E.presheaf.n(p)),
                           None)
                if cut is None:
                    continue
                bad = _with_restriction_moved(E, *cut)
                mutants += 1
                assert not all(check_adjunction(bad, Z)[0] for Z in ys)
                assert all(topos.check_adjunction_natural(bad, Z2, Z)[0]
                           for Z in ys for Z2 in ys)
    assert mutants == 6


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


def test_pullback_failure_names_its_arrows(monkeypatch):
    # plant a failure at the cospan of the 3rd arrow F(1,2,0) -> F(1,2,0)
    # and the 2nd arrow F(1,1,0) -> F(1,2,0)
    C, B = CH_POOL[3], CH_POOL[1]
    f, g = hom_presheaf(C, C)[2], hom_presheaf(B, C)[1]
    real = topos.pullback_universal_presheaf

    def planted(pb, f2, g2):
        return (False, "planted") if (f2, g2) == (f, g) else real(pb, f2, g2)

    monkeypatch.setattr(topos, "pullback_universal_presheaf", planted)
    rep = check_topos_axioms(CH_POOL, CH_J)
    failed = [r for r in rep.rows if not r[2]]
    assert failed == [("pullback-universal", "F(1,2,0)->F(1,2,0)<-F(1,1,0)",
                       False, ((2, 1), "planted"))]


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


def _pairwise_sg_check(pool):
    """Reference probe separation: every pair of arrows in every
    hom-set, against every probe composite, in order.  Returns the
    report and the number of pairs visited."""
    if not pool:
        return SgReport(True, None), 0
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
                            False, (repr(A), repr(B), f.mapping, g.mapping),
                        ), checked
    return SgReport(True, None), checked


def _with_copy(t, x):
    """t plus an indiscernible copy of element x, appended last."""
    rows = [row + (row[x],) for row in t.id_table]
    rows.append(t.id_table[x] + (t.ee(x),))
    return make_tset(t.algebra, t.elements + ("copy",), rows)


# (label, pool, index of the first unseparated pair or None); the quasi
# pools fail at their first pair, the doubled point at the 15th, and the
# copied point deep inside a hom-set.  The partly probed chain3 pools
# fail at their first pair in either order: no probe reaches POINT's x,
# and only z of SET2 is probed
D4 = diamond()
SET3 = set_like_tset(two_element(), 3)
POINT = make_tset(chain3(), ("x",), ((2,),))
SET2 = set_like_tset(chain3(), 2)
SG_CASES = [
    (f"{lbl}/T4", tset_pool(H, 4), None) for lbl, H in algebra_pool(4)
] + [
    (f"{lbl}/Q2", tset_pool(H, 2, require_separated=False,
                            require_postulate=False, include_empty=True), 1)
    for lbl, H in algebra_pool(3)
] + [
    ("diamond/T3+doubled", tset_pool(D4, 3) + [doubled_point_tset(D4)], 15),
    ("two_element/set3+copy", [SET3, _with_copy(SET3, 2)], 477),
    ("chain3/one-point+set2", [POINT, SET2], 1),
    ("chain3/set2+one-point", [SET2, POINT], 1),
]


@pytest.mark.parametrize("pool,fails_at", [c[1:] for c in SG_CASES],
                         ids=[c[0] for c in SG_CASES])
def test_sg_check_matches_pairwise_reference(pool, fails_at):
    # equal witnesses pin sg_check to the reference's first unseparated
    # pair, which the reference reaches after fails_at pairs
    rep = sg_check(pool)
    ref, checked = _pairwise_sg_check(pool)
    assert rep == ref
    assert rep.ok == (fails_at is None)
    if fails_at is not None:
        assert checked == fails_at


def test_sg_check_lists_no_hom_set_between_pool_tsets(monkeypatch):
    # pool T-sets are separated and probed at every point, so no pair of
    # them can fail and only the probes' hom-sets are listed
    sources = []
    real = topos.hom_set

    def counting(A, *args):
        sources.append(A)
        return real(A, *args)

    monkeypatch.setattr(topos, "hom_set", counting)
    for lbl, H in algebra_pool(4):
        pool = tset_pool(H, 4)
        sources.clear()
        assert sg_check(pool).ok, lbl
        assert sources, lbl
        assert not [A for A in sources if any(A is t for t in pool)], lbl


def test_sg_check_fails_on_doubled_point():
    # x, y -> x and the identity differ as carrier maps, yet every probe
    # composite agrees: probing cannot resolve indiscernible doubles
    rep = sg_check([doubled_point_tset(diamond())])
    assert not rep.ok
    assert rep.witness[2:] == ((0, 0, 2, 3, 4), (0, 1, 2, 3, 4))


def test_doubled_point_tset_is_not_separated():
    H = diamond()
    t = doubled_point_tset(H)
    assert validate_tset(t).ok
    assert not separated(t)
    P = doubled_point_presheaf(H)
    assert not is_sheaf(P, territory_topology(H)).ok
