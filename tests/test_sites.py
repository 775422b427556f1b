"""Sieves, coverage, closure, matching families."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from tsettopos import (
    algebra_pool,
    all_sieves,
    build_algebra,
    chain3,
    chain_spec,
    closed_sieves,
    closure,
    diamond,
    set_like_tset,
    singleton_completion,
    terminal_presheaf,
    territory_topology,
    tset_to_presheaf,
    two_element,
)
from tsettopos.sheaves import natural_families
from oracles import (amalgamations, chain_product_spec,
                     doubled_point_presheaf, join_covers, matching_families,
                     validate_topology)
from strategies import algebra_elements, algebras


def test_all_sieves_counts_chain3():
    H = chain3()
    mu, p, M = (H.index(n) for n in ("mu", "p", "M"))
    # downward-closed subsets of a chain segment are prefixes plus empty
    assert len(all_sieves(H, mu)) == 2
    assert len(all_sieves(H, p)) == 3
    assert len(all_sieves(H, M)) == 4


def test_all_sieves_diamond_top():
    H = diamond()
    # down-sets of the diamond: {}, {mu}, {mu,a}, {mu,b}, {mu,a,b}, all
    assert len(all_sieves(H, H.top)) == 6


@given(algebra_elements(count=2))
def test_sieves_downward_closed(hp):
    H, p, r = hp
    for s in all_sieves(H, p):
        for q in s:
            for t in H.elements():
                if H.le(t, q):
                    assert t in s


@given(algebras())
def test_territory_topology_is_grothendieck(H):
    J = territory_topology(H)
    rep = validate_topology(J)
    assert rep.ok, rep.violations


def _basis_covers(H, p):
    """Sieves at p that contain the down-closure of some family below p
    whose join is p: the topology generated by the territory basis."""
    below = H.down(p)
    closures = [
        frozenset(q for m in fam for q in H.down(m))
        for k in range(len(below) + 1)
        for fam in itertools.combinations(below, k)
        if H.sigma(fam) == p
    ]
    return frozenset(
        s for s in all_sieves(H, p) if any(c <= s for c in closures)
    )


def _covers_from_least(J, p):
    """The covers of p the least cover determines: {S : L(p) <= S}."""
    return frozenset(S for S in all_sieves(J.algebra, p)
                     if S.issuperset(J.least[p]))


@given(algebras())
def test_territory_matches_its_basis(H):
    J = territory_topology(H)
    for p in H.elements():
        assert _covers_from_least(J, p) == _basis_covers(H, p)


def test_territory_matches_its_basis_on_pool():
    for H in [H for _, H in algebra_pool(5)] + [diamond()]:
        J = territory_topology(H)
        for p in H.elements():
            assert _covers_from_least(J, p) == _basis_covers(H, p)


POOL = algebra_pool(6) + [("diamond", diamond())]


def test_least_cover_lies_in_every_cover():
    for _, H in POOL:
        J = territory_topology(H)
        for p in H.elements():
            L = frozenset(J.least[p])
            covers = join_covers(H, p)
            assert J.least[p] == tuple(sorted(L))
            assert L in covers
            assert all(L <= S for S in covers)
            for S in all_sieves(H, p):
                assert (S in covers) == (L <= S)


def test_least_cover_closed_form_past_the_pool():
    # 2^3, 2x4, 3x3 and chain 8: sizes 8 and 9, past POOL
    specs = [chain_product_spec(2, 2, 2), chain_product_spec(2, 4),
             chain_product_spec(3, 3), chain_spec(8)]
    for spec in specs:
        H = build_algebra(spec)
        J = territory_topology(H)
        for p in H.elements():
            assert frozenset(J.least[p]) == frozenset.intersection(
                *join_covers(H, p))
        assert validate_topology(J).ok
    assert [build_algebra(s).size for s in specs] == [8, 8, 9, 8]


def _fixpoint_closure(H, p, S):
    """Adjoin every r whose pulled-back sieve covers it, until stable."""
    members = set(S)
    while True:
        grown = members | {r for r in H.down(p) if frozenset(
            m for m in members if H.le(m, r)) in join_covers(H, r)}
        if grown == members:
            return frozenset(members)
        members = grown


def test_closure_matches_fixpoint_reference():
    for _, H in POOL:
        J = territory_topology(H)
        for p in H.elements():
            closed = set(closed_sieves(H, J, p))
            for fs in all_sieves(H, p):
                want = _fixpoint_closure(H, p, fs)
                assert closure(J, p, fs) == want
                assert (fs in closed) == (want == fs)


def test_empty_sieve_covers_bottom():
    H = chain3()
    J = territory_topology(H)
    assert J.least[H.bottom] == ()
    assert frozenset() in join_covers(H, H.bottom)


@given(algebra_elements(count=1))
def test_closure_is_a_closure_operator(hp):
    H, p = hp
    J = territory_topology(H)
    sieves = all_sieves(H, p)
    closed = closed_sieves(H, J, p)
    for s in sieves:
        c = closure(J, p, s)
        assert s <= c
        assert closure(J, p, c) == c
        assert c in closed
    for s in sieves:
        for t in sieves:
            if s <= t:
                assert closure(J, p, s) <= closure(J, p, t)


@given(algebra_elements(count=1))
def test_closed_sieves_are_principal_down_sets(hp):
    H, p = hp
    J = territory_topology(H)
    got = {fs for fs in closed_sieves(H, J, p)}
    want = {frozenset(H.down(s)) for s in H.down(p)}
    assert got == want


def test_closed_sieve_counts_chain3():
    H = chain3()
    J = territory_topology(H)
    sizes = tuple(len(closed_sieves(H, J, p)) for p in H.elements())
    assert sizes == (1, 2, 3)


def test_empty_sieve_not_closed():
    H = chain3()
    J = territory_topology(H)
    # closure adds every q covered by the empty family, i.e. the bottom
    assert closure(J, H.top, frozenset()) == frozenset([H.bottom])
    assert frozenset() not in closed_sieves(H, J, H.top)


def test_matching_families_amalgamate_uniquely_on_sheaf():
    H = chain3()
    # set-like carrier misses intermediate degrees; complete it first
    P = tset_to_presheaf(singleton_completion(set_like_tset(H, 2)).tset)
    for p in H.elements():
        for fs in join_covers(H, p):
            for fam in matching_families(P, fs):
                assert len(amalgamations(P, p, fs, fam)) == 1


def test_matching_family_fails_on_non_sheaf():
    H = diamond()
    P = doubled_point_presheaf(H)
    bad = []
    for p in H.elements():
        for fs in join_covers(H, p):
            for fam in matching_families(P, fs):
                if len(amalgamations(P, p, fs, fam)) != 1:
                    bad.append((p, fam))
    assert bad


@given(algebra_elements(count=1), st.data())
def test_matching_families_respect_compatibility(hp, data):
    H, p = hp
    P = tset_to_presheaf(singleton_completion(set_like_tset(H, 2)).tset)
    fs = data.draw(st.sampled_from(sorted(join_covers(H, p), key=sorted)))
    members = sorted(fs)
    fams = matching_families(P, fs)
    for fam in fams:
        for i, q in enumerate(members):
            for j, r in enumerate(members):
                if H.le(r, q):
                    assert P.restrict(q, r, fam[i]) == fam[j]
    # the same families, in the same order, as natural families out of 1
    assert fams == [tuple(x for (x,) in nat) for nat in natural_families(
        terminal_presheaf(H), P, members)]
