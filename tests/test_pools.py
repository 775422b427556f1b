"""Exhaustive instance enumeration up to isomorphism."""

import gc
import hashlib
import itertools
from functools import lru_cache

import pytest

from tsettopos import pools
from tsettopos import (
    PosetSpec,
    algebra_pool,
    all_poset_specs,
    atoms,
    build_algebra,
    chain3,
    diamond,
    find_presheaf_iso,
    hom_set,
    is_sheaf,
    satisfies_postulate,
    sg_check,
    sheaf_pool,
    territory_topology,
    tset_pool,
    tset_to_presheaf,
    two_element,
    validate_presheaf,
    validate_tset,
)
from tsettopos.errors import CycleError, NoBound, NotDistributive
from tsettopos.sheaves import natural_families
from oracles import (
    atoms_by_candidates,
    chain_product_spec,
    order_isomorphism,
    poset_sweep,
    separated,
    tset_pool_by_candidates,
)

# unlabeled posets on n points, one spec per isomorphism class
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


@pytest.mark.parametrize("n,count", sorted(POSET_COUNTS.items()))
def test_poset_census(n, count):
    specs = all_poset_specs(n)
    assert len(specs) == count
    for spec in specs:
        assert len(spec.elements) == n
    # grown posets keyed over linear extensions, against the sweep of
    # upper-triangular relations keyed over all relabellings
    assert specs == poset_sweep(n)


def _sweep_algebra_pool(max_size):
    out = []
    for n in range(2, max_size + 1):
        hit = 0
        for spec in poset_sweep(n, bounded=True):
            try:
                H = build_algebra(spec)
            except (CycleError, NoBound, NotDistributive):
                continue
            out.append((f"A{n}.{hit}", H))
            hit += 1
    return out


def test_algebra_pool_matches_sweep():
    # same labels, names, covers and every table
    assert algebra_pool(6) == _sweep_algebra_pool(6)


def test_order_key_matches_full_relabelling():
    for _, H in algebra_pool(7):
        n, le = H.size, H.le_table
        assert pools._order_key(le) == min(
            tuple(le[i][j] for i in o for j in o)
            for o in itertools.permutations(range(n)))


# distributive lattices on n elements (OEIS A006982)
ALGEBRA_COUNTS = [1, 1, 2, 3, 5, 8, 15, 26]


def test_algebra_census_to_nine():
    pool = algebra_pool(9)
    assert [sum(1 for _, H in pool if H.size == n)
            for n in range(2, 10)] == ALGEBRA_COUNTS
    # the labels of the sizes past the sweep oracle are frozen
    past = [(lbl, [(H.names[a], H.names[b]) for a, b in H.covers()])
            for lbl, H in pool if H.size >= 7]
    assert hashlib.sha256(repr(past).encode()).hexdigest() == (
        "332a73feff079a09c689c2e0546396560f97407731fdf62ebc9990112701acc9")


def test_algebra_pool_holds_chain_products():
    pool = algebra_pool(9)
    for lengths in [(2, 2, 2), (2, 4), (3, 3), (8,)]:
        K = build_algebra(chain_product_spec(*lengths))
        assert sum(1 for _, H in pool
                   if order_isomorphism(H, K) is not None) == 1


def test_algebra_pool_census():
    # survivors of the lattice laws: one chain per size plus the diamond
    # at four, the kites at five
    pool4 = algebra_pool(4)
    assert [lbl for lbl, _ in pool4] == ["A2.0", "A3.0", "A4.0", "A4.1"]
    pool5 = algebra_pool(5)
    assert len(pool5) == 7
    assert sum(1 for _, H in pool5 if H.size == 5) == 3


def _covers_of(H):
    out = []
    for a in range(H.size):
        for b in range(H.size):
            if a == b or not H.le(a, b):
                continue
            if not any(H.le(a, c) and H.le(c, b)
                       for c in range(H.size) if c not in (a, b)):
                out.append((H.names[a], H.names[b]))
    return tuple(out)


def test_algebra_pool_members_validate():
    for lbl, H in algebra_pool(5):
        assert H.size <= 5
        # rebuilding from the extracted cover relation is stable
        again = build_algebra(PosetSpec(H.names, _covers_of(H)))
        assert again.meet_table == H.meet_table
        assert again.imp_table == H.imp_table


def test_two_element_tset_pool_frozen():
    pool = tset_pool(two_element(), 4)
    assert len(pool) == 4
    sizes = sorted(t.size for t in pool)
    assert sizes == [1, 2, 3, 4]


def test_tset_pool_members_validate():
    for _, H in algebra_pool(4):
        for t in tset_pool(H, 3):
            assert validate_tset(t).ok and separated(t)
            assert satisfies_postulate(t).ok


def test_tset_pool_flags():
    H = two_element()
    plain = tset_pool(H, 2)
    # the empty carrier's sole atom (the empty map) has no witness, so
    # the postulate filter drops it again
    assert len(tset_pool(H, 2, include_empty=True)) == len(plain)
    loose = tset_pool(H, 2, require_postulate=False)
    assert len(loose) > len(plain)
    assert len(tset_pool(H, 2, include_empty=True,
                         require_postulate=False)) == len(loose) + 1


def test_backtrackers_leave_no_cyclic_garbage():
    # each search returns its results without a self-referencing closure
    # left for the cyclic collector
    H = diamond()
    t = tset_pool(H, 3)[-1]
    P = tset_to_presheaf(t)
    searches = {
        "tset_pool": lambda: tset_pool(H, 3),
        "atoms": lambda: atoms(t),
        "hom_set": lambda: hom_set(t, t),
        "natural_families": lambda: natural_families(P, P, H.elements()),
        "algebra_pool": lambda: algebra_pool(4),
        "sg_check": lambda: sg_check(tset_pool(H, 3)).ok,
    }
    gc.collect()
    gc.disable()
    try:
        for name, search in searches.items():
            assert search(), name
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_carrier_four_census_at_the_algebra_cap_frozen():
    got = {lbl: len(tset_pool(H, 4)) for lbl, H in algebra_pool(9)}
    assert sum(got.values()) == 571
    assert got == {
        "A2.0": 4, "A3.0": 7, "A4.0": 8, "A4.1": 8,
        "A5.0": 10, "A5.1": 8, "A5.2": 8,
        "A6.0": 11, "A6.1": 9, "A6.2": 10, "A6.3": 8, "A6.4": 8,
        "A7.0": 11, "A7.1": 8, "A7.2": 8, "A7.3": 11, "A7.4": 9,
        "A7.5": 10, "A7.6": 8, "A7.7": 8,
        "A8.0": 13, "A8.1": 12, "A8.2": 11, "A8.3": 9, "A8.4": 10,
        "A8.5": 8, "A8.6": 8, "A8.7": 11, "A8.8": 8, "A8.9": 8,
        "A8.10": 11, "A8.11": 9, "A8.12": 10, "A8.13": 8, "A8.14": 8,
        "A9.0": 13, "A9.1": 11, "A9.2": 14, "A9.3": 11, "A9.4": 8,
        "A9.5": 8, "A9.6": 11, "A9.7": 9, "A9.8": 10, "A9.9": 8,
        "A9.10": 8, "A9.11": 13, "A9.12": 12, "A9.13": 11, "A9.14": 9,
        "A9.15": 10, "A9.16": 8, "A9.17": 8, "A9.18": 11, "A9.19": 8,
        "A9.20": 8, "A9.21": 11, "A9.22": 9, "A9.23": 10, "A9.24": 8,
        "A9.25": 8,
    }


def test_carrier_five_census_frozen():
    got = {lbl: len(tset_pool(H, 5)) for lbl, H in algebra_pool(4)}
    assert got == {"A2.0": 5, "A3.0": 12, "A4.0": 10, "A4.1": 16}


@lru_cache(maxsize=None)
def _relabellings(n):
    return tuple(itertools.permutations(range(n)))


def _least_relabelled_table(table):
    """Reference dedup key: the least table over all n! relabellings."""
    n = len(table)
    return min(
        tuple(table[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in _relabellings(n)
    )


@pytest.mark.parametrize("max_size,flags", [
    (5, {}),
    (4, {"require_postulate": False}),
    (4, {"require_separated": False, "require_postulate": False,
         "include_empty": True}),
])
def test_tset_pool_matches_full_relabelling_dedup(monkeypatch, max_size,
                                                  flags):
    # the refined key must keep the same representatives in the same order
    for _, H in algebra_pool(4):
        got = [t.id_table for t in tset_pool(H, max_size, **flags)]
        with monkeypatch.context() as m:
            m.setattr(pools, "_table_key", _least_relabelled_table)
            want = [t.id_table for t in tset_pool(H, max_size, **flags)]
        assert got == want


@pytest.mark.parametrize("flags", [
    {},
    {"require_separated": False, "require_postulate": False,
     "include_empty": True},
])
def test_identity_intervals_match_candidate_search(flags):
    # the two flag sets of the suite pools
    for H in [H for _, H in algebra_pool(6)] + [diamond()]:
        pool = tset_pool(H, 3, **flags)
        assert [t.id_table for t in pool] == [
            t.id_table for t in tset_pool_by_candidates(H, 3, **flags)]
        for t in pool:
            assert atoms(t) == atoms_by_candidates(t)


@pytest.mark.parametrize("max_algebra,carrier", [(4, 5), (7, 3)])
def test_postulate_during_fill_matches_table_filter(max_algebra, carrier):
    # deciding the postulate inside the search keeps exactly the tables
    # that filtering the whole pool by satisfies_postulate keeps; rows
    # repeat only in unseparated tables, where the count bound does not
    # decide the last level
    for _, H in algebra_pool(max_algebra):
        for separated in (True, False):
            assert [t.id_table for t in tset_pool(
                H, carrier, require_separated=separated)] == [
                t.id_table for t in tset_pool(
                    H, carrier, require_separated=separated,
                    require_postulate=False)
                if satisfies_postulate(t).ok]


def test_sheaf_pool_chain3_shapes_frozen():
    H = chain3()
    pool = sheaf_pool(H, territory_topology(H), 3)
    shapes = sorted(tuple(P.n(p) for p in H.elements()) for P in pool)
    assert shapes == [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 0)]


def test_sheaf_pool_members_are_sheaves():
    for _, H in algebra_pool(3):
        J = territory_topology(H)
        for P in sheaf_pool(H, J, 3):
            assert validate_presheaf(P).ok
            assert is_sheaf(P, J).ok


def test_sheaf_pool_has_no_duplicate_classes():
    H = chain3()
    pool = sheaf_pool(H, territory_topology(H), 3)
    for i, P in enumerate(pool):
        for Q in pool[i + 1:]:
            assert find_presheaf_iso(P, Q) is None


def test_tset_and_sheaf_pools_agree_in_count():
    # equivalence of the two presentations, counted per algebra
    for _, H in algebra_pool(3):
        J = territory_topology(H)
        n_tsets = len(tset_pool(H, 3))
        n_sheaves = len(sheaf_pool(H, J, 3))
        assert n_tsets == n_sheaves


def test_equivalence_counts_frozen_at_four():
    expected = {"A2.0": 4, "A3.0": 7, "A4.0": 8, "A4.1": 8}
    for lbl, H in algebra_pool(4):
        n = len(tset_pool(H, 4))
        assert n == expected[lbl]
        assert len(sheaf_pool(H, territory_topology(H), 4)) == n


def _restricts_by_identity(t, P):
    """The section <p>:<x> cuts down to q as some section <q>:<y> with
    q <= Id(x, y)."""
    H = t.algebra

    def element(p, i):
        return t.index(P.section_name(p, i)[len(H.name(p)) + 1:])

    return all(H.le(q, t.ident(element(p, i), element(q, P.restrict(p, q, i))))
               for p in H.elements() for q in H.down(p)
               for i in range(P.n(p)))


def test_tset_pool_maps_onto_sheaf_pool():
    # Fourman-Scott on the census: tset_to_presheaf is a bijection on
    # isomorphism classes from the T-sets of carrier n onto the sheaves
    # of total n.  At n <= 4 no cover table has two distinct entries, so
    # a wrong restriction entry leaves the image's isomorphism class as
    # it is; each image is also checked against its T-set's identity.
    for lbl, H in algebra_pool(6) + [("diamond", diamond())]:
        sheaves = sheaf_pool(H, territory_topology(H), 4)
        images = [0] * len(sheaves)
        for t in tset_pool(H, 4):
            P = tset_to_presheaf(t)
            assert P.total_sections() == t.size, (lbl, t)
            assert _restricts_by_identity(t, P), (lbl, t)
            hits = [k for k, S in enumerate(sheaves)
                    if find_presheaf_iso(P, S) is not None]
            assert len(hits) == 1, (lbl, t, hits)
            images[hits[0]] += 1
        assert images == [1] * len(sheaves), lbl


def test_pool_tsets_are_sheaves_as_presheaves():
    for _, H in algebra_pool(3):
        J = territory_topology(H)
        for t in tset_pool(H, 3):
            assert is_sheaf(tset_to_presheaf(t), J).ok


def test_non_boolean_survivors_exist():
    assert any(not H.is_boolean() for _, H in algebra_pool(3))
