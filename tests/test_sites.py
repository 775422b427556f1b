"""Sieves, coverage, closure, matching families."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from tsettopos import (
    Sieve,
    algebra_pool,
    all_sieves,
    chain3,
    closed_sieves,
    closure,
    diamond,
    doubled_point_presheaf,
    is_closed,
    maximal_sieve,
    pullback_sieve,
    set_like_tset,
    singleton_completion,
    terminal_presheaf,
    territory_topology,
    tset_to_presheaf,
    two_element,
    validate_topology,
)
from tsettopos.sheaves import natural_families
from oracles import amalgamations, matching_families
from strategies import algebra_elements, algebras


def test_maximal_sieve_is_down_set():
    H = chain3()
    for p in H.elements():
        s = maximal_sieve(H, p)
        assert s.members == frozenset(H.down(p))


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


@given(algebra_elements(count=2))
def test_pullback_sieve_restricts(hp):
    H, p, r = hp
    if not H.le(r, p):
        return
    for fs in all_sieves(H, p):
        s = Sieve(H, p, fs)
        back = pullback_sieve(s, r)
        assert back.at == r
        assert back.members == frozenset(q for q in fs if H.le(q, r))


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


@given(algebras())
def test_territory_matches_its_basis(H):
    J = territory_topology(H)
    assert J.covers == tuple(_basis_covers(H, p) for p in H.elements())


def test_territory_matches_its_basis_on_pool():
    for H in [H for _, H in algebra_pool(5)] + [diamond()]:
        J = territory_topology(H)
        assert J.covers == tuple(_basis_covers(H, p) for p in H.elements())


POOL = algebra_pool(6) + [("diamond", diamond())]


def test_least_cover_lies_in_every_cover():
    for _, H in POOL:
        J = territory_topology(H)
        for p in H.elements():
            L = J.least(p)
            assert L in J.covers[p]
            assert all(L <= S for S in J.covers[p])
            for S in all_sieves(H, p):
                assert (S in J.covers[p]) == (L <= S)


def _fixpoint_closure(s, J):
    """Adjoin every r whose pulled-back sieve covers it, until stable."""
    H, members = s.algebra, set(s.members)
    while True:
        grown = members | {r for r in H.down(s.at) if frozenset(
            m for m in members if H.le(m, r)) in J.covers[r]}
        if grown == members:
            return frozenset(members)
        members = grown


def test_closure_matches_fixpoint_reference():
    for _, H in POOL:
        J = territory_topology(H)
        for p in H.elements():
            for fs in all_sieves(H, p):
                s = Sieve(H, p, fs)
                want = _fixpoint_closure(s, J)
                assert closure(s, J).members == want
                assert is_closed(s, J) == (want == fs)


def test_empty_sieve_covers_bottom():
    H = chain3()
    J = territory_topology(H)
    assert frozenset() in J.covers[H.bottom]


@given(algebra_elements(count=1))
def test_closure_is_a_closure_operator(hp):
    H, p = hp
    J = territory_topology(H)
    sieves = [Sieve(H, p, fs) for fs in all_sieves(H, p)]
    for s in sieves:
        c = closure(s, J)
        assert s.members <= c.members
        assert closure(c, J).members == c.members
        assert is_closed(c, J)
    for s in sieves:
        for t in sieves:
            if s.members <= t.members:
                assert closure(s, J).members <= closure(t, J).members


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
    empty = Sieve(H, H.top, frozenset())
    # closure adds every q covered by the empty family, i.e. the bottom
    assert closure(empty, J).members == frozenset([H.bottom])
    assert not is_closed(empty, J)


def test_matching_families_amalgamate_uniquely_on_sheaf():
    H = chain3()
    J = territory_topology(H)
    # set-like carrier misses intermediate degrees; complete it first
    P = tset_to_presheaf(singleton_completion(set_like_tset(H, 2)).tset)
    for p in H.elements():
        for fs in J.covers[p]:
            for fam in matching_families(P, fs):
                assert len(amalgamations(P, p, fs, fam)) == 1


def test_matching_family_fails_on_non_sheaf():
    H = diamond()
    J = territory_topology(H)
    P = doubled_point_presheaf(H)
    bad = []
    for p in H.elements():
        for fs in J.covers[p]:
            for fam in matching_families(P, fs):
                if len(amalgamations(P, p, fs, fam)) != 1:
                    bad.append((p, fam))
    assert bad


@given(algebra_elements(count=1), st.data())
def test_matching_families_respect_compatibility(hp, data):
    H, p = hp
    J = territory_topology(H)
    P = tset_to_presheaf(singleton_completion(set_like_tset(H, 2)).tset)
    fs = data.draw(st.sampled_from(sorted(J.covers[p], key=sorted)))
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
