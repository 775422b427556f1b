"""Identity-valued sets: laws, atoms, localisation, completion, morphisms."""

import hashlib
import itertools

import pytest
from hypothesis import given

from tsettopos import (
    NotAtom,
    TRelation,
    algebra_pool,
    atoms,
    chain3,
    compatible,
    diamond,
    doubled_point_tset,
    extensionally_equal,
    extensionally_isomorphic,
    family_envelope,
    hom_set,
    identity_relation,
    is_atom,
    localise_atom,
    localise_element,
    make_tset,
    principal_tset,
    real_witnesses,
    satisfies_postulate,
    separated_quotient,
    set_like_tset,
    singleton_completion,
    tset_pool,
    two_element,
    validate_relation,
    validate_tset,
)
from tsettopos import tset as tset_module
from strategies import relations, tset_elements, tsets


def unreal_atom_instance():
    # single element of existence M over chain3: localised atoms at p have
    # no witness, so the postulate fails
    return make_tset(chain3(), ("x",), ((2,),))


def test_principal_tset_shape():
    H = chain3()
    t = principal_tset(H, H.index("p"))
    assert t.size == 2
    rep = validate_tset(t, require_separated=True)
    assert rep.ok, rep.violations
    assert satisfies_postulate(t).ok


def test_set_like_tset_shape():
    H = two_element()
    t = set_like_tset(H, 2)
    assert t.size == 3
    # two points at full existence, one null point at bottom
    degrees = sorted(t.ee(x) for x in range(t.size))
    assert degrees == [H.bottom, H.top, H.top]
    assert validate_tset(t, require_separated=True).ok
    assert satisfies_postulate(t).ok


def test_validate_rejects_broken_symmetry():
    H = chain3()
    t = make_tset(H, ("a", "b"), ((2, 0), (1, 2)))
    rep = validate_tset(t)
    assert not rep.ok
    assert any(v[0] == "symmetry" for v in rep.violations)


def test_validate_rejects_broken_transitivity():
    H = chain3()
    # Id(a,b) = Id(b,c) = M but Id(a,c) = mu
    t = make_tset(H, ("a", "b", "c"), ((2, 2, 0), (2, 2, 2), (0, 2, 2)))
    rep = validate_tset(t)
    assert not rep.ok
    assert any(v[0] == "transitivity" for v in rep.violations)


def test_validate_flags_inseparable_pair():
    H = chain3()
    t = make_tset(H, ("a", "b"), ((2, 2), (2, 2)))
    assert validate_tset(t).ok
    rep = validate_tset(t, require_separated=True)
    assert not rep.ok


@given(tset_elements(count=2))
def test_identity_symmetric(txy):
    t, x, y = txy
    assert t.ident(x, y) == t.ident(y, x)


@given(tset_elements(count=3))
def test_identity_transitive(txyz):
    t, x, y, z = txyz
    H = t.algebra
    assert H.le(H.meet(t.ident(x, y), t.ident(y, z)), t.ident(x, z))


@given(tset_elements(count=2))
def test_identity_bounded_by_existence(txy):
    t, x, y = txy
    H = t.algebra
    assert H.le(t.ident(x, y), H.meet(t.ee(x), t.ee(y)))


@given(tset_elements(count=1))
def test_localise_at_own_existence_is_identity(tx):
    t, x = tx
    assert localise_element(t, x, t.ee(x)) == x


@given(tset_elements(count=1))
def test_localise_existence_degree(tx):
    t, x = tx
    H = t.algebra
    for p in H.elements():
        w = localise_element(t, x, p)
        assert t.ee(w) == H.meet(t.ee(x), p)
        assert t.ident(x, w) == H.meet(t.ee(x), p)


@given(tset_elements(count=1))
def test_localise_composes_as_meet(tx):
    t, x = tx
    H = t.algebra
    for p in H.elements():
        for q in H.elements():
            once = localise_element(t, localise_element(t, x, p), q)
            both = localise_element(t, x, H.meet(p, q))
            assert once == both


@given(tset_elements(count=2))
def test_compatibility_is_common_restriction(txy):
    t, x, y = txy
    H = t.algebra
    common = H.meet(t.ee(x), t.ee(y))
    assert compatible(t, x, y) == (t.ident(x, y) == common)
    assert compatible(t, x, y) == compatible(t, y, x)


@given(tset_elements(count=2))
def test_three_way_equivalence(txy):
    t, a, b = txy
    H = t.algebra
    c1 = localise_element(t, b, t.ee(a)) == a
    c2 = compatible(t, a, b) and H.le(t.ee(a), t.ee(b))
    c3 = t.ee(a) == t.ident(a, b)
    assert c1 == c2 == c3


@given(tsets())
def test_enumerated_atoms_satisfy_axioms(t):
    H = t.algebra
    for a in atoms(t):
        ok, witness = is_atom(t, a)
        assert ok, witness
        for x in range(t.size):
            for y in range(t.size):
                assert H.le(H.meet(a[x], t.ident(x, y)), a[y])
                assert H.le(H.meet(a[x], a[y]), t.ident(x, y))


@given(tsets())
def test_pool_atoms_are_real(t):
    # pool instances satisfy the postulate, so every atom is some Id(x, -)
    for a in atoms(t):
        assert real_witnesses(t, a)
    assert satisfies_postulate(t).ok


def test_row_is_an_atom():
    t = set_like_tset(two_element(), 2)
    for x in range(t.size):
        ok, _ = is_atom(t, t.row(x))
        assert ok
        assert x in real_witnesses(t, t.row(x))


def test_localise_atom_of_real_atom():
    t = set_like_tset(two_element(), 2)
    H = t.algebra
    a = t.row(0)
    down = localise_atom(t, a, H.bottom)
    assert all(v == H.bottom for v in down)
    assert localise_atom(t, a, H.top) == a
    for p in H.elements():
        for q in H.elements():
            twice = localise_atom(t, localise_atom(t, a, p), q)
            assert twice == localise_atom(t, a, H.meet(p, q))
            assert is_atom(t, twice)[0]


def test_is_atom_rejects_non_atom():
    t = set_like_tset(two_element(), 2)
    H = t.algebra
    # constant-top over distinct points breaks A2
    bad = tuple(H.top for _ in range(t.size))
    ok, witness = is_atom(t, bad)
    assert not ok and witness is not None


def test_real_witnesses_requires_atom():
    t = set_like_tset(two_element(), 2)
    with pytest.raises(NotAtom):
        real_witnesses(t, (1, 1, 1))


def test_postulate_failure_reported():
    t = unreal_atom_instance()
    rep = satisfies_postulate(t)
    assert not rep.ok
    assert rep.unreal and rep.atom_count >= len(rep.unreal)


def test_singleton_completion_fixes_unreal_atoms():
    t = unreal_atom_instance()
    done = singleton_completion(t)
    assert satisfies_postulate(done.tset).ok
    assert done.tset.size == 3
    # embed sends each old element to its own identity row
    for x in range(t.size):
        for y in range(t.size):
            assert done.tset.ident(done.embed[x], done.embed[y]) == \
                t.ident(x, y)


def test_singleton_completion_no_op_on_complete():
    t = set_like_tset(two_element(), 2)
    done = singleton_completion(t)
    assert done.tset.size == t.size


def test_family_envelope():
    H = chain3()
    t = principal_tset(H, H.top)
    row, e = family_envelope(t, range(t.size))
    # pairwise compatible chain: the top element is its own synthesis
    assert e == t.size - 1
    assert row == t.row(e)


@given(tsets())
def test_identity_relation_validates(t):
    r = identity_relation(t)
    assert validate_relation(r).ok


@given(relations())
def test_morphisms_preserve_existence(r):
    for x in range(r.source.size):
        assert r.target.ee(r.mapping[x]) == r.source.ee(x)


@given(relations())
def test_morphisms_preserve_localisation(r):
    A, B = r.source, r.target
    H = A.algebra
    for x in range(A.size):
        for p in H.elements():
            lhs = r.apply(localise_element(A, x, p))
            rhs = localise_element(B, r.apply(x), p)
            assert B.ident(lhs, rhs) == B.ee(lhs)


@given(relations())
def test_morphisms_inflate_identity(r):
    A, B = r.source, r.target
    H = A.algebra
    for x in range(A.size):
        for y in range(A.size):
            assert H.le(A.ident(x, y), B.ident(r.apply(x), r.apply(y)))


def test_compose_order():
    t = set_like_tset(two_element(), 2)
    idr = identity_relation(t)
    for r in hom_set(t, t):
        assert r.compose(idr).mapping == r.mapping
        assert idr.compose(r).mapping == r.mapping


def test_separated_quotient_collapses_duplicates():
    H = chain3()
    t = make_tset(H, ("a", "b"), ((2, 2), (2, 2)))
    q = separated_quotient(t)
    assert q.tset.size == 1
    assert validate_tset(q.tset, require_separated=True).ok
    assert q.projection[0] == q.projection[1]


@given(tsets())
def test_separated_quotient_fixes_pool(t):
    # pool members are already separated: quotient is size preserving
    q = separated_quotient(t)
    assert q.tset.size == t.size


def test_extensional_equality_on_indiscernibles():
    H = chain3()
    t = make_tset(H, ("a", "b"), ((2, 2), (2, 2)))
    maps = hom_set(t, t)
    assert len(maps) == 4
    classes = []
    for m in maps:
        if not any(extensionally_equal(m, c) for c in classes):
            classes.append(m)
    assert len(classes) == 1


HOM_ALGEBRAS = algebra_pool(4) + [("diamond", diamond())]


def _quasi_pool(H, max_size):
    return tset_pool(H, max_size, require_separated=False,
                     require_postulate=False, include_empty=True)


def test_hom_set_is_every_validated_existence_preserving_map():
    # brute force: every existence-preserving carrier map, in
    # lexicographic order, kept when the four-condition validator accepts
    pairs = 0
    for lbl, H in HOM_ALGEBRAS:
        pool = tset_pool(H, 3) + _quasi_pool(H, 2)
        if lbl == "diamond":
            pool.append(doubled_point_tset(H))
        for A in pool:
            for B in pool:
                cands = [[y for y in range(B.size) if B.ee(y) == A.ee(x)]
                         for x in range(A.size)]
                want = [m for m in itertools.product(*cands)
                        if validate_relation(TRelation(A, B, m)).ok]
                assert [r.mapping for r in hom_set(A, B)] == want, (A, B)
                pairs += 1
    assert pairs == 2778


def test_hom_sets_frozen():
    # every ordered pair of separated T-sets (carriers <= 4) and quasi
    # T-sets (carriers <= 3, empty included); digest taken from the
    # search that re-validated every leaf
    digest = hashlib.sha256()
    pairs = maps = 0
    for _, H in HOM_ALGEBRAS:
        pool = tset_pool(H, 4) + _quasi_pool(H, 3)
        for A in pool:
            for B in pool:
                homs = hom_set(A, B)
                digest.update(repr([r.mapping for r in homs]).encode())
                pairs += 1
                maps += len(homs)
    assert (pairs, maps) == (35758, 27131)
    assert digest.hexdigest() == (
        "7aea7a6708ce7b962e0972ec98ffc79730838a60de461e640b1991fc4d7e8566")


def test_extensionally_isomorphic_enumerates_each_direction_once(monkeypatch):
    calls = []
    real = tset_module.hom_set

    def counting(A, B, guard):
        calls.append((A, B))
        return real(A, B, guard)

    monkeypatch.setattr(tset_module, "hom_set", counting)
    t = set_like_tset(two_element(), 2)
    # the first map collapses both points, so the search reaches a
    # second f before it finds the identity pair
    assert extensionally_isomorphic(t, t) is not None
    assert len(calls) == 2
