"""Flat-file JSON formats for algebras, T-sets, relations, presheaves.

One shape per structure, detected by its required keys:

  algebra   {"elements": [...], "covers": [[lo, hi], ...]}
  tset      {"algebra": <path or inline>, "elements": [...],
             "id": [[element names]]}
  relation  {"source": <tset>, "target": <tset>, "map": {a: b}}
  presheaf  {"algebra": <path or inline>, "sections": {level: [...]},
             "restrict": {"p>q": {src: dst}}}   (cover pairs only)

Every JSON document the package writes, structure files and reports
alike, goes through ``write_json``.

Presheaf files carry restriction maps for Hasse cover pairs only, in
the order of ``HeytingAlgebra.covers()``; ``make_presheaf`` composes
the other pairs along cover chains and ``validate_presheaf`` catches
files whose paths disagree.  Referenced algebras may be inline objects
or paths relative to the referencing file.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable
from pathlib import Path
from typing import TextIO

from .errors import SchemaError
from .heyting import HeytingAlgebra, PosetSpec, build_algebra
from .sheaves import Presheaf, make_presheaf, validate_presheaf
from .tset import TRelation, TSet, make_tset

_KIND_KEYS = {
    "algebra": {"elements", "covers"},
    "tset": {"algebra", "elements", "id"},
    "relation": {"source", "target", "map"},
    "presheaf": {"algebra", "sections", "restrict"},
}


def detect_kind(doc: object) -> str:
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    hits = [k for k, keys in _KIND_KEYS.items() if keys == set(doc)]
    if len(hits) != 1:
        raise SchemaError(
            f"keys {sorted(doc)} match {len(hits)} structure kinds, need 1"
        )
    return hits[0]


def algebra_to_dict(H: HeytingAlgebra) -> dict:
    return {
        "elements": list(H.names),
        "covers": [[H.name(lo), H.name(hi)] for lo, hi in H.covers()],
    }


def _array(value: object, what: str) -> list:
    """The value itself if it is a JSON array, else SchemaError: a string
    is iterable too and would be read character by character."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {type(value).__name__}")
    return value


def algebra_from_dict(doc: dict) -> HeytingAlgebra:
    try:
        elements = [str(e) for e in _array(doc["elements"], "elements")]
        pairs = _array(doc["covers"], "covers")
        covers = [(str(lo), str(hi))
                  for lo, hi in (_array(c, "a cover") for c in pairs)]
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"algebra shape: {e}") from None
    try:
        return build_algebra(PosetSpec(tuple(elements), tuple(covers)))
    except ValueError as e:     # duplicate or unknown element names
        raise SchemaError(f"algebra: {e}") from None


def _resolve_algebra(ref: object, base: Path | None) -> HeytingAlgebra:
    if isinstance(ref, str):
        path = Path(ref)
        if base is not None and not path.is_absolute():
            path = base / path
        return algebra_from_dict(read_doc(path))
    if isinstance(ref, dict):
        return algebra_from_dict(ref)
    raise SchemaError("algebra reference must be a path or an object")


def tset_to_dict(t: TSet) -> dict:
    H = t.algebra
    return {
        "algebra": algebra_to_dict(H),
        "elements": list(t.elements),
        "id": [[H.name(v) for v in row] for row in t.id_table],
    }


def tset_from_dict(doc: dict, base: Path | None = None) -> TSet:
    H = _resolve_algebra(doc.get("algebra"), base)
    try:
        elements = [str(e) for e in _array(doc["elements"], "elements")]
        table = [[H.index(str(v)) for v in _array(row, "an id row")]
                 for row in _array(doc["id"], "id")]
    except (KeyError, TypeError) as e:
        raise SchemaError(f"tset shape: {e}") from None
    except ValueError as e:
        raise SchemaError(f"tset id entry: {e}") from None
    if len(set(elements)) != len(elements):
        raise SchemaError("duplicate carrier element names")
    if len(table) != len(elements) or any(len(r) != len(elements) for r in table):
        raise SchemaError("id matrix must be square over the carrier")
    return make_tset(H, elements, table)


def relation_to_dict(r: TRelation) -> dict:
    return {
        "source": tset_to_dict(r.source),
        "target": tset_to_dict(r.target),
        "map": {
            r.source.name(x): r.target.name(r.mapping[x])
            for x in range(r.source.size)
        },
    }


def relation_from_dict(doc: dict, base: Path | None = None) -> TRelation:
    for key in ("source", "target"):
        if not isinstance(doc.get(key), dict):
            raise SchemaError(f"relation {key} must be an inline tset")
    src = tset_from_dict(doc["source"], base)
    tgt = tset_from_dict(doc["target"], base)
    m = doc.get("map")
    if not isinstance(m, dict):
        raise SchemaError("relation map must be an object")
    if extra := set(m) - set(src.elements):
        raise SchemaError(f"relation map names unknown elements {sorted(extra)}")
    try:
        mapping = tuple(tgt.index(str(m[name])) for name in src.elements)
    except KeyError as e:
        raise SchemaError(f"relation map misses element {e}") from None
    except ValueError as e:
        raise SchemaError(f"relation map target: {e}") from None
    return TRelation(src, tgt, mapping)


def presheaf_to_dict(P: Presheaf) -> dict:
    H = P.algebra
    restrict = {}
    for q, p in H.covers():
        restrict[f"{H.name(p)}>{H.name(q)}"] = {
            P.section_name(p, i): P.section_name(q, P.restrict(p, q, i))
            for i in range(P.n(p))
        }
    return {
        "algebra": algebra_to_dict(H),
        "sections": {
            H.name(p): [P.section_name(p, i) for i in range(P.n(p))]
            for p in H.elements()
        },
        "restrict": restrict,
    }


def presheaf_from_dict(doc: dict, base: Path | None = None, *,
                       check: bool = True) -> Presheaf:
    H = _resolve_algebra(doc.get("algebra"), base)
    raw_sections = doc.get("sections")
    if not isinstance(raw_sections, dict):
        raise SchemaError("sections must map level names to lists")
    sections = tuple(
        tuple(str(s) for s in _array(raw_sections.get(H.name(p), []),
                                     f"sections {H.name(p)!r}"))
        for p in H.elements()
    )
    extra = set(raw_sections) - set(H.names)
    if extra:
        raise SchemaError(f"sections name unknown levels {sorted(extra)}")
    for p in H.elements():
        if len(set(sections[p])) != len(sections[p]):
            raise SchemaError(f"duplicate section names at {H.name(p)!r}")

    want = {f"{H.name(p)}>{H.name(q)}" for q, p in H.covers()}
    raw_restrict = doc.get("restrict")
    if not isinstance(raw_restrict, dict):
        raise SchemaError("restrict must be an object")
    if set(raw_restrict) != want:
        raise SchemaError(
            f"restrict keys must be exactly the cover pairs {sorted(want)}"
        )

    tables: dict[tuple[int, int], tuple[int, ...]] = {}
    for q, p in H.covers():
        key = f"{H.name(p)}>{H.name(q)}"
        entry = raw_restrict[key]
        if not isinstance(entry, dict):
            raise SchemaError(f"restrict {key} must be an object")
        if extra := set(entry) - set(sections[p]):
            raise SchemaError(f"restrict {key} names unknown sections {sorted(extra)}")
        row = []
        for s in sections[p]:
            if s not in entry:
                raise SchemaError(f"restrict {key} misses {s!r}")
            dst = str(entry[s])
            if dst not in sections[q]:
                raise SchemaError(
                    f"restrict {key} sends {s!r} to unknown {dst!r}"
                )
            row.append(sections[q].index(dst))
        tables[(p, q)] = tuple(row)
    P = make_presheaf(H, sections, tables)
    if check:
        rep = validate_presheaf(P)
        if not rep.ok:
            raise SchemaError(
                f"restrictions do not compose: {rep.violations[0]}"
            )
    return P


def read_doc(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SchemaError(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return doc


def structure_to_dict(obj: object) -> dict:
    if isinstance(obj, HeytingAlgebra):
        return algebra_to_dict(obj)
    if isinstance(obj, TSet):
        return tset_to_dict(obj)
    if isinstance(obj, TRelation):
        return relation_to_dict(obj)
    if isinstance(obj, Presheaf):
        return presheaf_to_dict(obj)
    raise TypeError(f"no file form for {type(obj).__name__}")


def write_chunks(out: TextIO, chunks: Iterable[str]) -> None:
    """Write the chunks to out joined 4096 at a time.  One write per
    chunk would be one system call each on an unbuffered stdout, and
    one joined string would hold the whole document at once."""
    chunks = iter(chunks)
    while batch := "".join(itertools.islice(chunks, 4096)):
        out.write(batch)


def write_json(out: TextIO, doc: object) -> None:
    """doc as two-space-indented JSON and a final newline."""
    write_chunks(out, itertools.chain(
        json.JSONEncoder(indent=2).iterencode(doc), "\n"))


def save_structure(path: str | Path, obj: object) -> None:
    with Path(path).open("w", encoding="utf-8") as out:
        write_json(out, structure_to_dict(obj))
