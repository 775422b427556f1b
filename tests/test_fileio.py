"""Structure files: round trips, kind detection, malformed input."""

import json

import pytest

from tsettopos import (
    SchemaError,
    algebra_from_dict,
    algebra_to_dict,
    chain3,
    detect_kind,
    diamond,
    hom_set,
    identity_relation,
    presheaf_from_dict,
    presheaf_to_dict,
    principal_tset,
    relation_from_dict,
    relation_to_dict,
    save_structure,
    set_like_tset,
    structure_to_dict,
    tset_from_dict,
    tset_to_dict,
    tset_to_presheaf,
    singleton_completion,
    two_element,
    validate_presheaf,
)
from tsettopos.fileio import read_doc


def test_algebra_round_trip():
    for H in (two_element(), chain3(), diamond()):
        doc = algebra_to_dict(H)
        back = algebra_from_dict(doc)
        assert back.names == H.names
        assert back.meet_table == H.meet_table
        assert back.le_table == H.le_table


def test_tset_round_trip():
    t = set_like_tset(two_element(), 2)
    doc = tset_to_dict(t)
    back = tset_from_dict(doc)
    assert back.elements == t.elements
    assert back.id_table == t.id_table
    assert back.algebra.names == t.algebra.names


def test_relation_round_trip():
    t = set_like_tset(two_element(), 2)
    r = identity_relation(t)
    doc = relation_to_dict(r)
    back = relation_from_dict(doc)
    assert back.mapping == r.mapping
    assert back.source.elements == t.elements


def test_presheaf_round_trip():
    H = chain3()
    P = tset_to_presheaf(singleton_completion(set_like_tset(H, 2)).tset)
    doc = presheaf_to_dict(P)
    back = presheaf_from_dict(doc)
    assert validate_presheaf(back).ok
    for p in H.elements():
        assert back.n(p) == P.n(p)
    assert back.tables == P.tables


def test_detect_kind():
    H = chain3()
    t = principal_tset(H, H.top)
    assert detect_kind(algebra_to_dict(H)) == "algebra"
    assert detect_kind(tset_to_dict(t)) == "tset"
    assert detect_kind(relation_to_dict(identity_relation(t))) == "relation"
    assert detect_kind(presheaf_to_dict(tset_to_presheaf(t))) == "presheaf"


def test_detect_kind_rejects_unknown():
    with pytest.raises(SchemaError):
        detect_kind({"foo": 1})
    with pytest.raises(SchemaError):
        detect_kind({"elements": [], "covers": [], "id": []})


def test_save_and_load(tmp_path):
    H = diamond()
    t = principal_tset(H, H.index("a"))
    path = tmp_path / "t.json"
    save_structure(path, t)
    doc = read_doc(path)
    assert detect_kind(doc) == "tset"
    back = tset_from_dict(doc, path.parent)
    assert back.id_table == t.id_table
    # the on-disk form names algebra elements, not indices
    doc = json.loads(path.read_text())
    assert all(isinstance(v, str) for row in doc["id"] for v in row)


def test_structure_to_dict_dispatch():
    H = two_element()
    t = set_like_tset(H, 1)
    for obj, kind in ((H, "algebra"), (t, "tset"),
                      (identity_relation(t), "relation"),
                      (tset_to_presheaf(t), "presheaf")):
        doc = structure_to_dict(obj)
        assert detect_kind(doc) == kind


def test_tset_from_dict_rejects_bad_matrix():
    H = chain3()
    doc = tset_to_dict(principal_tset(H, H.top))
    doc["id"] = doc["id"][:1]
    with pytest.raises(SchemaError):
        tset_from_dict(doc)


def test_tset_from_dict_rejects_duplicate_names():
    H = chain3()
    t = principal_tset(H, H.top)
    doc = tset_to_dict(t)
    doc["elements"] = [doc["elements"][0]] * len(doc["elements"])
    with pytest.raises(SchemaError):
        tset_from_dict(doc)


def test_tset_from_dict_rejects_unknown_degree():
    H = chain3()
    doc = tset_to_dict(principal_tset(H, H.top))
    doc["id"][0][0] = "nonsense"
    with pytest.raises(SchemaError):
        tset_from_dict(doc)


def test_presheaf_from_dict_checks_composition():
    # the file format stores cover steps only; two disagreeing paths
    # through the diamond cannot be assembled into a presheaf
    doc = {
        "algebra": algebra_to_dict(diamond()),
        "sections": {"mu": ["u", "v"], "a": ["x"], "b": ["y"], "M": ["s"]},
        "restrict": {
            "a>mu": {"x": "u"},
            "b>mu": {"y": "v"},
            "M>a": {"s": "x"},
            "M>b": {"s": "y"},
        },
    }
    with pytest.raises(SchemaError):
        presheaf_from_dict(doc)


def test_relation_round_trip_all_homs():
    t = set_like_tset(two_element(), 2)
    for r in hom_set(t, t):
        back = relation_from_dict(relation_to_dict(r))
        assert back.mapping == r.mapping
