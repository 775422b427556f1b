"""Lattice construction and intuitionistic operator laws."""

import itertools

import pytest
from hypothesis import given

from tsettopos import (
    CycleError,
    NoBound,
    NotDistributive,
    PosetSpec,
    build_algebra,
    chain3,
    chain_spec,
    diamond,
    pentagon_spec,
    subsets,
    two_element,
)
from tsettopos.heyting import NAMED_ALGEBRAS
from strategies import algebra_elements, algebra_subsets, algebras


def test_chain3_tables_frozen():
    H = chain3()
    mu, p, M = (H.index(n) for n in ("mu", "p", "M"))
    assert H.bottom == mu and H.top == M
    assert H.meet(p, M) == p and H.meet(p, mu) == mu
    assert H.join(p, mu) == p and H.join(p, M) == M
    # implication: p => mu collapses, M => p restricts
    assert H.implies(p, mu) == mu
    assert H.implies(M, p) == p
    assert H.implies(mu, p) == M
    assert H.neg(p) == mu
    assert H.neg(mu) == M
    assert H.neg(H.neg(p)) == M != p


def test_diamond_tables_frozen():
    H = diamond()
    mu, a, b, M = (H.index(n) for n in ("mu", "a", "b", "M"))
    assert H.meet(a, b) == mu
    assert H.join(a, b) == M
    assert H.implies(a, b) == b
    assert H.neg(a) == b and H.neg(b) == a
    # 2x2 product of chains: complemented, hence boolean
    assert H.is_boolean()


def test_boolean_split():
    assert two_element().is_boolean()
    assert not chain3().is_boolean()


def test_pentagon_rejected():
    with pytest.raises(NotDistributive):
        build_algebra(pentagon_spec())


def test_cycle_rejected():
    spec = PosetSpec(elements=("a", "b"), covers=(("a", "b"), ("b", "a")))
    with pytest.raises(CycleError):
        build_algebra(spec)


def test_missing_bound_rejected():
    # two incomparable elements: no bottom, no top
    spec = PosetSpec(elements=("a", "b"), covers=())
    with pytest.raises(NoBound):
        build_algebra(spec)


def test_duplicate_names_rejected():
    spec = PosetSpec(elements=("a", "a"), covers=())
    with pytest.raises(ValueError):
        build_algebra(spec)


def test_subsets_enumerates_powerset():
    H = chain3()
    ss = list(subsets(H))
    assert len(ss) == 2 ** H.size
    assert len({frozenset(s) for s in ss}) == len(ss)


def test_frame_law_is_exact_above_six_elements():
    # the pentagon with a chain glued above its top stays non-distributive
    spec = pentagon_spec()
    for extra in (9, 10, 14, 18):
        chain = tuple(f"t{i}" for i in range(extra))
        covers = spec.covers + tuple(zip(("M",) + chain, chain))
        glued = PosetSpec(spec.elements + chain, covers)
        with pytest.raises(NotDistributive):
            build_algebra(glued)
    H = build_algebra(chain_spec(7))
    again = build_algebra(chain_spec(7))
    assert H.size == 7
    assert H.meet_table == again.meet_table
    assert H.imp_table == again.imp_table


@given(algebra_elements(count=3))
def test_adjunction(hpq):
    H, p, q, t = hpq
    assert H.le(H.meet(p, t), q) == H.le(t, H.implies(p, q))


@given(algebra_elements(count=1))
def test_noncontradiction(hp):
    H, p = hp
    assert H.meet(p, H.neg(p)) == H.bottom


@given(algebra_elements(count=1))
def test_double_negation_expands(hp):
    H, p = hp
    assert H.le(p, H.neg(H.neg(p)))


@given(algebra_elements(count=2))
def test_meet_is_glb(hpq):
    H, p, q = hpq
    m = H.meet(p, q)
    assert H.le(m, p) and H.le(m, q)
    for t in H.elements():
        if H.le(t, p) and H.le(t, q):
            assert H.le(t, m)


@given(algebra_elements(count=2))
def test_join_is_lub(hpq):
    H, p, q = hpq
    j = H.join(p, q)
    assert H.le(p, j) and H.le(q, j)
    for t in H.elements():
        if H.le(p, t) and H.le(q, t):
            assert H.le(j, t)


@given(algebra_elements(count=3))
def test_meet_laws(hpqr):
    H, p, q, r = hpqr
    assert H.meet(p, q) == H.meet(q, p)
    assert H.meet(p, H.meet(q, r)) == H.meet(H.meet(p, q), r)
    assert H.meet(p, p) == p
    assert H.meet(p, H.top) == p
    assert H.meet(p, H.bottom) == H.bottom


@given(algebra_subsets())
def test_sigma_is_least_upper_bound(hs):
    H, members = hs
    s = H.sigma(members)
    for x in members:
        assert H.le(x, s)
    for t in H.elements():
        if all(H.le(x, t) for x in members):
            assert H.le(s, t)


@given(algebras())
def test_sigma_extremes(H):
    assert H.sigma(()) == H.bottom
    assert H.sigma(H.elements()) == H.top


@given(algebra_subsets())
def test_frame_distributivity(hs):
    H, members = hs
    for p in H.elements():
        lhs = H.meet(p, H.sigma(members))
        rhs = H.sigma(H.meet(p, x) for x in members)
        assert lhs == rhs


@given(algebra_elements(count=2))
def test_implication_is_greatest_residual(hpq):
    H, p, q = hpq
    r = H.implies(p, q)
    assert H.le(H.meet(p, r), q)
    best = max(
        (t for t in H.elements() if H.le(H.meet(p, t), q)),
        key=lambda t: sum(H.le(u, t) for u in H.elements()),
    )
    assert H.le(best, r)


def test_named_algebras_cover_the_basics():
    assert {"two_element", "chain3", "diamond"} <= set(NAMED_ALGEBRAS)


def test_down_sets():
    H = chain3()
    p = H.index("p")
    assert set(H.down(p)) == {H.index("mu"), p}
    assert len(H.down(H.top)) == H.size


@given(algebra_elements(count=2))
def test_le_agrees_with_meet(hpq):
    H, p, q = hpq
    assert H.le(p, q) == (H.meet(p, q) == p)


def test_chain_spec_sizes():
    for n in (2, 3, 4, 5):
        H = build_algebra(chain_spec(n))
        assert H.size == n
        assert not H.is_boolean() if n > 2 else H.is_boolean()
