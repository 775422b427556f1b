"""Presheaves over the algebra site, sheaf condition, sheafification."""

import hashlib
import json

import pytest
from hypothesis import given

from tsettopos import (
    NotASheaf,
    SizeGuard,
    algebra_pool,
    chain3,
    diamond,
    find_presheaf_iso,
    hom_presheaf,
    is_separated,
    is_sheaf,
    make_presheaf,
    make_tset,
    naturality_witness,
    presheaf_to_tset,
    quasi_presheaf,
    representable,
    set_like_tset,
    sheaf_pool,
    sheafify,
    singleton_completion,
    structure_to_dict,
    terminal_presheaf,
    territory_topology,
    tset_pool,
    tset_to_presheaf,
    two_element,
    validate_presheaf,
    validate_tset,
)
from oracles import (amalgamations, doubled_point_presheaf, join_covers,
                     matching_families, separated)
from strategies import algebras, tsets


def test_make_presheaf_functoriality_checked():
    H = chain3()
    mu, p, M = (H.index(n) for n in ("mu", "p", "M"))
    P = make_presheaf(
        H,
        sections=(("s",), ("s",), ("s",)),
        restrict={(p, mu): (0,), (M, mu): (0,), (M, p): (0,)},
    )
    assert validate_presheaf(P).ok


def test_validate_presheaf_flags_non_composing_tables():
    H = chain3()
    mu, p, M = (H.index(n) for n in ("mu", "p", "M"))
    P = make_presheaf(
        H,
        sections=(("a", "b"), ("x",), ("s",)),
        # M -> p -> mu lands on b, but M -> mu goes to a
        restrict={(p, mu): (1,), (M, mu): (0,), (M, p): (0,)},
    )
    rep = validate_presheaf(P)
    assert not rep.ok
    assert any(v[0] == "composition" for v in rep.violations)


@given(algebras())
def test_terminal_presheaf_is_sheaf(H):
    P = terminal_presheaf(H)
    assert all(P.n(p) == 1 for p in H.elements())
    assert is_sheaf(P, territory_topology(H)).ok


@given(algebras())
def test_empty_presheaf_fails_at_bottom(H):
    # the empty sieve covers the bottom element, forcing one section there
    P = make_presheaf(H, [() for _ in H.elements()],
                      {(p, q): () for q, p in H.covers()})
    J = territory_topology(H)
    assert not is_sheaf(P, J).ok
    assert is_separated(P, J).ok
    assert all(done == 1 if p == H.bottom else done == 0
               for p, done in ((q, sheafify(P, J).n(q)) for q in H.elements()))


@given(algebras())
def test_representables_are_sheaves(H):
    # subcanonicity of the join-generated coverage
    J = territory_topology(H)
    for s in H.elements():
        P = representable(H, s)
        assert is_sheaf(P, J).ok
        # a poset arrow p -> s exists iff p <= s, so levels are 0/1
        for p in H.elements():
            assert P.n(p) == (1 if H.le(p, s) else 0)


@given(tsets())
def test_pool_tsets_become_sheaves(t):
    H = t.algebra
    P = tset_to_presheaf(t)
    assert validate_presheaf(P).ok
    assert is_sheaf(P, territory_topology(H)).ok
    # level sizes count elements by exact existence degree
    for p in H.elements():
        assert P.n(p) == sum(1 for x in range(t.size) if t.ee(x) == p)


@given(tsets())
def test_round_trip_preserves_tset(t):
    H = t.algebra
    J = territory_topology(H)
    back = presheaf_to_tset(tset_to_presheaf(t), J)
    assert back.size == t.size
    rep = validate_tset(back)
    assert rep.ok
    assert separated(back)


@given(tsets())
def test_round_trip_preserves_presheaf(t):
    H = t.algebra
    J = territory_topology(H)
    P = tset_to_presheaf(t)
    Q = tset_to_presheaf(presheaf_to_tset(P, J))
    iso = find_presheaf_iso(P, Q)
    assert iso is not None
    assert naturality_witness(iso) is None


def test_presheaf_to_tset_requires_sheaf():
    H = diamond()
    with pytest.raises(NotASheaf):
        presheaf_to_tset(doubled_point_presheaf(H), territory_topology(H))


def test_quasi_presheaf_of_unreal_atom_instance():
    # single element at full existence: every level sees it, so the
    # embedding is already the terminal sheaf
    H = chain3()
    t = make_tset(H, ("x",), ((2,),))
    P = quasi_presheaf(t)
    J = territory_topology(H)
    assert [P.n(p) for p in H.elements()] == [1, 1, 1]
    assert is_sheaf(P, J).ok


def test_quasi_presheaf_separated_not_sheaf():
    # x lives at degree a, y at degree b: the {a, b} cover of the top
    # has a compatible family with nothing to amalgamate to
    H = diamond()
    a, b = H.index("a"), H.index("b")
    mu = H.bottom
    t = make_tset(H, ("x", "y"), ((a, mu), (mu, b)))
    P = quasi_presheaf(t)
    J = territory_topology(H)
    assert is_separated(P, J).ok
    assert not is_sheaf(P, J).ok


def test_sheafify_agrees_with_completion():
    H = chain3()
    t = make_tset(H, ("x",), ((2,),))
    J = territory_topology(H)
    plus = sheafify(quasi_presheaf(t), J)
    direct = tset_to_presheaf(singleton_completion(t).tset)
    assert find_presheaf_iso(plus, direct) is not None


def test_sheafify_agrees_with_completion_diamond():
    H = diamond()
    a, b = H.index("a"), H.index("b")
    t = make_tset(H, ("x", "y"), ((a, H.bottom), (H.bottom, b)))
    J = territory_topology(H)
    plus = sheafify(quasi_presheaf(t), J)
    direct = tset_to_presheaf(singleton_completion(t).tset)
    assert find_presheaf_iso(plus, direct) is not None


@given(tsets())
def test_sheafify_fixes_sheaves(t):
    H = t.algebra
    J = territory_topology(H)
    P = tset_to_presheaf(t)
    assert find_presheaf_iso(sheafify(P, J), P) is not None


def test_sheafify_idempotent():
    H = diamond()
    J = territory_topology(H)
    P = doubled_point_presheaf(H)
    once = sheafify(P, J)
    assert is_sheaf(once, J).ok
    assert find_presheaf_iso(sheafify(once, J), once) is not None


def test_terminal_presheaf_is_built_once_per_algebra(monkeypatch):
    from tsettopos import sheaves, terminal_presheaf

    H = diamond()
    J = territory_topology(H)
    one = terminal_presheaf(H)
    assert terminal_presheaf(diamond()) is one
    built = []
    real = sheaves.make_presheaf

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    # the sheaf condition and both plus steps read the terminal
    # presheaf without rebuilding it
    monkeypatch.setattr(sheaves, "make_presheaf", recording)
    P = doubled_point_presheaf(H)
    assert not is_sheaf(P, J).ok
    assert is_sheaf(sheafify(P, J), J).ok
    assert len(built) == 2
    assert not [Q for Q in built if Q.sections == one.sections]


def test_doubled_point_is_separated_failure():
    # two global points restricting equally along a cover: not separated
    H = diamond()
    J = territory_topology(H)
    P = doubled_point_presheaf(H)
    assert not is_sheaf(P, J).ok
    assert not is_separated(P, J).ok


def test_hom_presheaf_counts_terminal():
    H = chain3()
    one = terminal_presheaf(H)
    assert len(hom_presheaf(one, one)) == 1
    P = tset_to_presheaf(singleton_completion(set_like_tset(H, 2)).tset)
    assert len(hom_presheaf(P, one)) == 1


def test_tower_is_the_terminal_presheaf():
    # one element per degree of a chain, glued by restriction: that IS 1
    H = chain3()
    tower = make_tset(H, ("z", "x", "y"), ((0, 0, 0), (0, 1, 1), (0, 1, 2)))
    iso = find_presheaf_iso(tset_to_presheaf(tower), terminal_presheaf(H))
    assert iso is not None


def test_no_iso_between_different_shapes():
    H = chain3()
    one = terminal_presheaf(H)
    P = representable(H, H.index("p"))
    assert find_presheaf_iso(P, one) is None
    assert find_presheaf_iso(one, P) is None


def _reference_iso(P, Q, guard):
    """Reference: every natural transformation, filtered for the first
    whose components are all bijective."""
    H = P.algebra
    if H != Q.algebra or any(P.n(p) != Q.n(p) for p in H.elements()):
        return None
    for nt in hom_presheaf(P, Q, guard):
        if all(len(set(nt.components[p])) == P.n(p) for p in H.elements()):
            return nt
    return None


def _oracle_pairs(algebras):
    """(sheafify(quasi), completion) for every quasi T-set with carrier
    at most 3 over the labelled algebras."""
    for lbl, H in algebras:
        J = territory_topology(H)
        for j, t in enumerate(tset_pool(
                H, 3, require_separated=False, require_postulate=False,
                include_empty=True)):
            yield ((lbl, j), sheafify(quasi_presheaf(t), J),
                   tset_to_presheaf(singleton_completion(t).tset))


def _decide(search, P, Q, guard):
    try:
        return True, search(P, Q, guard)
    except SizeGuard:
        return False, None


def test_iso_search_agrees_with_hom_filter_reference():
    # the bijection search returns the reference's arrow wherever the
    # reference decides, and decides more pairs within the same guard
    decided = [0, 0]
    for label, S, C in _oracle_pairs(
            algebra_pool(5) + [("diamond", diamond())]):
        ref_done, ref = _decide(_reference_iso, S, C, 10**6)
        done, iso = _decide(find_presheaf_iso, S, C, 10**6)
        decided[0] += ref_done
        decided[1] += done
        if ref_done:
            assert done and iso == ref, label
        if done:
            assert iso is not None, label
    assert decided == [1016, 1047]


def test_iso_search_decides_past_the_hom_guard():
    # A4.0 quasi T-set 37: 6**6 * 2**2 * 3**3 homs, but 6! * 2! * 3! bijections
    A4 = [(lbl, H) for lbl, H in algebra_pool(4) if lbl == "A4.0"]
    (label, S, C), = [pair for pair in _oracle_pairs(A4)
                      if pair[0] == ("A4.0", 37)]
    assert [S.n(p) for p in S.algebra.elements()] == [6, 2, 3, 1]
    with pytest.raises(SizeGuard):
        _reference_iso(S, C, 10**6)
    iso = find_presheaf_iso(S, C, 10**6)
    assert naturality_witness(iso) is None
    assert all(sorted(c) == list(range(len(c))) for c in iso.components)


def test_iso_enumeration_is_guarded():
    H = chain3()
    P = make_presheaf(H, [[f"x{i}" for i in range(10)], [], []],
                      {(1, 0): [], (2, 1): []})
    with pytest.raises(SizeGuard) as err:
        find_presheaf_iso(P, P, 10**6)
    assert (err.value.what, err.value.size) == \
        ("presheaf iso enumeration", 3628800)


def _covering(J, p):
    return sorted(join_covers(J.algebra, p), key=lambda s: (len(s), sorted(s)))


def _all_covers_separated(P, J):
    H = P.algebra
    for p in H.elements():
        for S in _covering(J, p):
            for x in range(P.n(p)):
                for y in range(x + 1, P.n(p)):
                    if all(P.restrict(p, q, x) == P.restrict(p, q, y) for q in S):
                        return (False, (H.name(p), tuple(sorted(S)),
                                        P.section_name(p, x), P.section_name(p, y)))
    return (True, None)


def _all_covers_sheaf(P, J):
    H = P.algebra
    for p in H.elements():
        for S in _covering(J, p):
            for m in matching_families(P, S):
                n = len(amalgamations(P, p, S, m))
                if n != 1:
                    return (False, (H.name(p), tuple(sorted(S)), m, n))
    return (True, None)


def test_least_cover_verdicts_match_all_covers_reference():
    # every presheaf with at most 3 sections and every quasi presheaf of
    # a carrier of at most 2, over algebras of at most 5 elements
    verdicts = []
    for lbl, H in algebra_pool(5) + [("diamond", diamond())]:
        J = territory_topology(H)
        pool = sheaf_pool(H, J, 3, require_sheaf=False) + [
            quasi_presheaf(t) for t in tset_pool(
                H, 2, require_separated=False, require_postulate=False,
                include_empty=True)]
        if lbl == "diamond":
            pool.append(doubled_point_presheaf(H))
        for P in pool:
            sheaf, sep = is_sheaf(P, J), is_separated(P, J)
            assert (sheaf.ok, sheaf.witness) == _all_covers_sheaf(P, J), P
            assert (sep.ok, sep.witness) == _all_covers_separated(P, J), P
            verdicts.append((sheaf.ok, sep.ok))
    # both conditions bite: 67 are not sheaves, 28 not even separated
    assert len(verdicts) == 280
    assert [sum(not v[i] for v in verdicts) for i in (0, 1)] == [67, 28]


def test_sheafify_frozen_on_files_presheaves():
    # the presheaves of the files benchmark; digest taken from the
    # plus construction that labelled agreement classes over all covers
    digest = hashlib.sha256()
    for _, H in algebra_pool(4) + [("diamond", diamond())]:
        J = territory_topology(H)
        for P in sheaf_pool(H, J, 3, require_sheaf=False):
            digest.update(json.dumps(structure_to_dict(sheafify(P, J))).encode())
    assert digest.hexdigest() == (
        "44e7e3d1cbbc1675752776ebdfa4efadbeae13cc47c4ca34dcff6437f3d1db2d")
