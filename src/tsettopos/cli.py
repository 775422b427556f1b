"""Command-line entry point.

Subcommands load structures from flat JSON files, run the relevant
validations or suites, and emit a report either as text lines
("PASS|FAIL <check> <instance>") or as a JSON document with the same
rows under {version, config, results}.

Exit status: 0 when every reported check passes, 1 when any check
fails, 2 for unreadable or ill-shaped input and usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CycleError, NoBound, NotDistributive, SchemaError, WorkbenchError
from .fileio import (
    _array,
    algebra_from_dict,
    detect_kind,
    presheaf_from_dict,
    read_doc,
    relation_from_dict,
    save_structure,
    structure_to_dict,
    tset_from_dict,
)
from .heyting import NAMED_ALGEBRAS
from .sheaves import is_sheaf, sheafify, validate_nat, validate_presheaf
from .sites import territory_topology
from .suites import (
    CheckResult,
    SuiteConfig,
    render,
    report_json,
    report_text,
    run_suite,
)
from .topos import exposition_counterexample, omega
from .tset import (
    TSet,
    atoms,
    real_witnesses,
    satisfies_postulate,
    singleton_completion,
    validate_relation,
    validate_tset,
)

BUILD_ERRORS = (CycleError, NoBound, NotDistributive)


def _emit(rows: list[CheckResult], fmt: str, command: str,
          params: dict) -> int:
    sys.stdout.write(render(rows, fmt, {"command": command, **params}))
    return 0 if all(r.status == "pass" for r in rows) else 1


def _cmd_validate(args) -> int:
    path = Path(args.file)
    doc = read_doc(path)
    kind = detect_kind(doc)
    stem = path.name
    if kind == "algebra":
        try:
            H = algebra_from_dict(doc)
        except BUILD_ERRORS as e:
            rows = [CheckResult("validate-algebra", stem, "fail", str(e))]
        else:
            note = ("complete Heyting algebra, "
                    + ("Boolean" if H.is_boolean() else "non-Boolean"))
            rows = [CheckResult("validate-algebra", stem, "pass", note)]
    else:
        if kind == "tset":
            rep = validate_tset(tset_from_dict(doc, path.parent))
        elif kind == "relation":
            rep = validate_relation(relation_from_dict(doc, path.parent))
        else:
            rep = validate_presheaf(
                presheaf_from_dict(doc, path.parent, check=False))
        rows = [CheckResult(
            f"validate-{kind}", stem, "pass" if rep.ok else "fail",
            None if rep.ok else repr(rep.violations[0]),
        )]
    return _emit(rows, args.format, "validate", {"file": str(path)})


def _valid_tset(doc: dict, path: Path) -> TSet:
    """The T-set of a tset file; SchemaError names its first violation."""
    t = tset_from_dict(doc, path.parent)
    if not (rep := validate_tset(t)).ok:
        raise SchemaError(f"{path.name} is not a T-set: {rep.violations[0]!r}")
    return t


def _cmd_atoms(args) -> int:
    path = Path(args.file)
    doc = read_doc(path)
    if detect_kind(doc) != "tset":
        raise SchemaError("atoms needs a tset file")
    t = _valid_tset(doc, path)
    H = t.algebra
    rows = []
    for a in atoms(t):
        shape = "[" + ",".join(H.name(v) for v in a) + "]"
        wit = real_witnesses(t, a)
        rows.append(CheckResult(
            "atom-real", shape, "pass" if wit else "fail",
            "witness " + t.name(wit[0]) if wit else "no real witness",
        ))
    rep = satisfies_postulate(t)
    rows.append(CheckResult(
        "postulate", path.name, "pass" if rep.ok else "fail",
        None if rep.ok else f"{len(rep.unreal)} unreal of {rep.atom_count}",
    ))
    return _emit(rows, args.format, "atoms", {"file": str(path)})


def _cmd_sheafify(args) -> int:
    path = Path(args.file)
    doc = read_doc(path)
    kind = detect_kind(doc)
    if kind == "tset":
        t = _valid_tset(doc, path)
        out_obj = singleton_completion(t).tset
        note = f"completed carrier {t.size} -> {out_obj.size}"
    elif kind == "presheaf":
        P = presheaf_from_dict(doc, path.parent)
        J = territory_topology(P.algebra)
        out_obj = sheafify(P, J)
        note = (f"sections {P.total_sections()} -> "
                f"{out_obj.total_sections()}")
    else:
        raise SchemaError("sheafify needs a tset or presheaf file")
    if args.output:
        save_structure(args.output, out_obj)
        rows = [CheckResult("sheafify", path.name, "pass",
                            f"{note}; wrote {args.output}")]
        return _emit(rows, args.format, "sheafify",
                     {"file": str(path), "output": args.output})
    print(json.dumps(structure_to_dict(out_obj), indent=2))
    return 0


def _cmd_omega(args) -> int:
    path = Path(args.file)
    doc = read_doc(path)
    if detect_kind(doc) != "algebra":
        raise SchemaError("omega needs an algebra file")
    H = algebra_from_dict(doc)
    J = territory_topology(H)
    om = omega(H, J)
    if args.element is not None:
        if args.element not in H.names:
            raise SchemaError(f"no element {args.element!r} in {path.name}")
        levels = [H.index(args.element)]
    else:
        levels = list(H.elements())
    rows = []
    for p in levels:
        rendered = " ".join(
            "{" + ",".join(H.name(q) for q in sorted(s)) + "}"
            for s in om.sieves[p]
        )
        rows.append(CheckResult("omega-sections", H.name(p), "pass", rendered))
    rows.append(CheckResult(
        "omega-sheaf", "Omega",
        "pass" if is_sheaf(om.presheaf, J).ok else "fail",
    ))
    rows.append(CheckResult(
        "truth-natural", "true",
        "pass" if validate_nat(om.truth) else "fail",
    ))
    return _emit(rows, args.format, "omega",
                 {"file": str(path), "element": args.element})


def _cmd_laws(args) -> int:
    if args.config:
        doc = read_doc(Path(args.config))
        try:
            if "checks" in doc:
                doc["checks"] = tuple(_array(doc["checks"], "checks"))
            config = SuiteConfig(**doc)
        except (TypeError, ValueError) as e:
            raise SchemaError(f"bad suite config: {e}") from None
    else:
        config = SuiteConfig()
    rep = run_suite(config)
    sys.stdout.write(report_json(rep) if args.format == "json"
                     else report_text(rep))
    return 0 if rep.ok else 1


def _cmd_counterexample(args) -> int:
    rep = exposition_counterexample(NAMED_ALGEBRAS[args.algebra](),
                                    proper_size=args.size)
    verdict = (">= 2; commutativity-only universality refuted"
               if rep.refuted else "< 2; not refuted at this size")
    rows = [
        CheckResult(
            "counterexample", "mediating-maps",
            "pass" if rep.refuted else "fail",
            f"mediating maps: {rep.flawed_count} {verdict}",
        ),
        CheckResult(
            "counterexample", "corrected-graph",
            "pass" if rep.corrected_unique else "fail",
            f"corrected graph universality holds "
            f"({rep.corrected_count} mediator)",
        ),
    ]
    return _emit(rows, args.format, "counterexample",
                 {"mode": args.mode, "algebra": args.algebra,
                  "size": args.size})


def _size(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative integer")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsettopos",
        description="workbench for T-sets, sheaves and their topos structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate,
            help="check a structure file against its axioms")
    p.add_argument("file")

    p = add("atoms", _cmd_atoms,
            help="list the atoms of a T-set with reality witnesses")
    p.add_argument("file")

    p = add("sheafify", _cmd_sheafify,
            help="complete a T-set or sheafify a presheaf")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = add("omega", _cmd_omega,
            help="print the classifier's closed sieves for an algebra")
    p.add_argument("file")
    p.add_argument("-p", "--element", default=None)

    p = add("laws", _cmd_laws, help="run the law suites over generated pools")
    p.add_argument("--config", default=None)

    p = add("counterexample", _cmd_counterexample,
            help="reproduce the mediation counterexample")
    p.add_argument("mode", choices=("exposition",))
    p.add_argument("--algebra", choices=sorted(NAMED_ALGEBRAS),
                   default="two_element")
    p.add_argument("--size", type=_size, default=2,
                   help="points in the base object (0 and 1 are degenerate)")

    return parser


def run_command(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (WorkbenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
