"""Command line surface: exit codes, output shapes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsettopos
from tsettopos import (
    chain3,
    diamond,
    make_tset,
    pentagon_spec,
    principal_tset,
    run_command,
    save_structure,
    set_like_tset,
    singleton_completion,
    tset_to_presheaf,
    two_element,
)


@pytest.fixture()
def files(tmp_path):
    out = {}
    H = chain3()
    out["chain3"] = tmp_path / "chain3.json"
    save_structure(out["chain3"], H)
    out["tower"] = tmp_path / "tower.json"
    save_structure(
        out["tower"],
        make_tset(H, ("z", "x", "y"), ((0, 0, 0), (0, 1, 1), (0, 1, 2))),
    )
    out["unreal"] = tmp_path / "unreal.json"
    save_structure(out["unreal"], make_tset(H, ("x",), ((2,),)))
    out["presheaf"] = tmp_path / "presheaf.json"
    save_structure(
        out["presheaf"],
        tset_to_presheaf(singleton_completion(set_like_tset(H, 2)).tset),
    )
    pent = tmp_path / "pentagon.json"
    spec = pentagon_spec()
    pent.write_text(json.dumps({
        "elements": list(spec.elements),
        "covers": [list(c) for c in spec.covers],
    }))
    out["pentagon"] = pent
    out["dir"] = tmp_path
    return out


def test_validate_algebra_passes(files, capsys):
    assert run_command(["validate", str(files["chain3"])]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("PASS validate-algebra")


def test_validate_algebra_rejects_pentagon(files, capsys):
    assert run_command(["validate", str(files["pentagon"])]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_tset_and_presheaf(files):
    assert run_command(["validate", str(files["tower"])]) == 0
    assert run_command(["validate", str(files["presheaf"])]) == 0


def test_validate_missing_file_usage_error(tmp_path, capsys):
    assert run_command(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_ambiguous_doc_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"whatever": 1}))
    assert run_command(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_atoms_pass_and_fail(files, capsys):
    assert run_command(["atoms", str(files["tower"])]) == 0
    capsys.readouterr()
    assert run_command(["atoms", str(files["unreal"])]) == 1
    out = capsys.readouterr().out
    assert "FAIL postulate" in out


def test_atoms_json_shape(files, capsys):
    run_command(["atoms", str(files["tower"]), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"version", "config", "results"}
    assert doc["config"]["command"] == "atoms"
    assert all(r["status"] == "pass" for r in doc["results"])


def test_atoms_request_enumerates_atoms_once(files, monkeypatch, capsys):
    from tsettopos import cli, tset

    calls = []
    real = tset.atoms

    def counting(t, *args):
        calls.append(t)
        return real(t, *args)

    for mod in (tset, cli):
        if getattr(mod, "atoms", None) is real:
            monkeypatch.setattr(mod, "atoms", counting)
    for name in ("tower", "unreal"):
        calls.clear()
        run_command(["atoms", str(files[name])])
        assert len(calls) == 1, name


DATA = Path(__file__).resolve().parent.parent / "data"
# (command, file, exit code, sha256 prefix of the text and of the json
# output with the data directory written $DATA), as the CLI printed them
# when the atom rows still came from a second enumeration
DATA_OUTPUTS = [
    ("validate", "chain3.json", 0, "63fd7a3c572dc0ec", "05bae2bed01c5b3a"),
    ("atoms", "chain3.json", 2, "9b920df949c007c7", "9b920df949c007c7"),
    ("validate", "chain_tower.json", 0, "968ca9c63549fed1",
     "ea888073eb003cd9"),
    ("atoms", "chain_tower.json", 0, "a9aa8dc6f15d190f", "a94647f8838a284d"),
    ("validate", "chain_tower_presheaf.json", 0, "5b6633c3f158e275",
     "0fa82df3a1bf0785"),
    ("atoms", "chain_tower_presheaf.json", 2, "9b920df949c007c7",
     "9b920df949c007c7"),
    ("validate", "diamond.json", 0, "0714bf132c313990", "b933610af651b204"),
    ("atoms", "diamond.json", 2, "9b920df949c007c7", "9b920df949c007c7"),
    ("validate", "pentagon.json", 1, "daf83f67d4b45867", "62a81070b4fb0e5f"),
    ("atoms", "pentagon.json", 2, "9b920df949c007c7", "9b920df949c007c7"),
    ("validate", "set_like_2.json", 0, "7853f07ddf9faf30",
     "b824f72805cd0330"),
    ("atoms", "set_like_2.json", 0, "e50571ed282c8e4f", "909e3c48e1291e98"),
    ("validate", "two_element.json", 0, "0abae697b130196d",
     "92c947ff7ec45258"),
    ("atoms", "two_element.json", 2, "9b920df949c007c7", "9b920df949c007c7"),
    ("validate", "unreal_atom_chain3.json", 0, "3db649af65d6ad19",
     "e360adf033fa5d67"),
    ("atoms", "unreal_atom_chain3.json", 1, "7acb9e734b91ec1a",
     "6b4d0f7a737e0ce1"),
]


def test_data_outputs_cover_every_data_file():
    names = {f.name for f in DATA.glob("*.json")}
    for command in ("validate", "atoms"):
        assert {f for c, f, *_ in DATA_OUTPUTS if c == command} == names


@pytest.mark.parametrize("command,name,code,text,doc", DATA_OUTPUTS,
                         ids=[f"{c}-{f}" for c, f, *_ in DATA_OUTPUTS])
def test_data_file_outputs_frozen(command, name, code, text, doc, capsys):
    for fmt, digest in (("text", text), ("json", doc)):
        assert run_command([command, str(DATA / name), "--format", fmt]) \
            == code
        out, err = capsys.readouterr()
        printed = (out + err).replace(str(DATA), "$DATA")
        assert hashlib.sha256(printed.encode()).hexdigest()[:16] == digest, fmt


def test_sheafify_tset_writes_completion(files, capsys):
    dest = files["dir"] / "completed.json"
    code = run_command(
        ["sheafify", str(files["unreal"]), "-o", str(dest)])
    assert code == 0
    capsys.readouterr()
    assert run_command(["atoms", str(dest)]) == 0


def test_invalid_tset_is_bad_input(tmp_path, capsys):
    # an asymmetric id table: atoms and sheafify refuse the file as
    # input, validate reports the violation as a failed check
    bad = tmp_path / "asymmetric.json"
    save_structure(bad, make_tset(chain3(), ("x", "y"), ((2, 1), (0, 2))))
    for command in ("atoms", "sheafify"):
        assert run_command([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "symmetry" in captured.err and "Traceback" not in captured.err
    assert run_command(["validate", str(bad)]) == 1
    assert "FAIL validate-tset" in capsys.readouterr().out


def test_sheafify_presheaf_to_stdout(files, capsys):
    assert run_command(["sheafify", str(files["presheaf"])]) == 0
    out = capsys.readouterr().out
    assert set(json.loads(out)) == {"algebra", "sections", "restrict"}
    # one writer: stdout carries the bytes that -o writes
    saved = files["dir"] / "sheaf.json"
    assert run_command(["sheafify", str(files["presheaf"]),
                        "-o", str(saved)]) == 0
    assert saved.read_text(encoding="utf-8") == out


def test_omega_rows(files, capsys):
    assert run_command(["omega", str(files["chain3"])]) == 0
    out = capsys.readouterr().out
    assert "omega-sections" in out
    assert "PASS omega-sheaf" in out
    assert "PASS truth-natural" in out


def test_omega_level_filter(files, capsys):
    assert run_command(["omega", str(files["chain3"]), "-p", "p"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if "omega-sections" in l]
    assert len(rows) == 1


def test_omega_unknown_element(files):
    assert run_command(["omega", str(files["chain3"]), "-p", "zz"]) == 2


def test_reused_parser_leaks_no_state(files, capsys):
    # one parser serves every request of a process
    from tsettopos.cli import _parser
    assert _parser() is _parser()
    assert run_command(["omega", str(files["chain3"]), "-p", "p"]) == 0
    capsys.readouterr()
    assert run_command(["omega", str(files["chain3"])]) == 0
    out = capsys.readouterr().out
    assert [l.split()[2] for l in out.splitlines()
            if "omega-sections" in l] == ["mu", "p", "M"]
    assert run_command(["omega", str(files["chain3"]),
                        "--format", "yaml"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: tsettopos omega")


def test_duplicate_name_algebra_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"elements": ["mu", "mu"],
                                "covers": [["mu", "mu"]]}))
    for command in ("validate", "omega"):
        assert run_command([command, str(path)]) == 2
        assert "duplicate element names" in capsys.readouterr().err


_CHAIN = {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}
_SECTIONS = {"a": ["x", "y"], "b": ["x", "y"], "c": ["x", "y"]}
_RESTRICT = {"b>a": {"x": "x", "y": "y"}, "c>b": {"x": "x", "y": "y"}}


# each file would validate if its string were read as a list of its
# characters, which is what iterating it does
@pytest.mark.parametrize("doc", [
    {**_CHAIN, "elements": "abc"},
    {**_CHAIN, "covers": ["ab", "bc"]},
    {"algebra": _CHAIN, "elements": "x", "id": [["c"]]},
    {"algebra": _CHAIN, "elements": ["x"], "id": ["c"]},
    {"algebra": _CHAIN, "sections": {**_SECTIONS, "c": "xy"},
     "restrict": _RESTRICT},
], ids=["algebra-elements", "algebra-cover", "tset-elements", "tset-id-row",
        "presheaf-sections"])
def test_string_for_array_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 2
    assert "must be a list, got str" in capsys.readouterr().err


def test_internal_value_error_propagates(monkeypatch):
    from tsettopos import cli

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(cli, "exposition_counterexample", broken)
    with pytest.raises(ValueError, match="internal defect"):
        run_command(["counterexample", "exposition"])


def test_counterexample_output(capsys):
    assert run_command(["counterexample", "exposition",
                        "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {r["instance"]: r for r in doc["results"]}
    assert "256" in rows["mediating-maps"]["witness"]
    assert rows["corrected-graph"]["status"] == "pass"


def test_counterexample_algebra_and_size(capsys):
    base = ["counterexample", "exposition"]
    assert run_command(base) == 0
    assert capsys.readouterr().out == (
        "PASS counterexample mediating-maps\n"
        "PASS counterexample corrected-graph\n")
    assert run_command(base + ["--algebra", "diamond", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == {"command": "counterexample", "mode": "exposition",
                             "algebra": "diamond", "size": 2}
    assert "256" in doc["results"][0]["witness"]
    # one point is the degenerate case: the flawed condition is not refuted
    assert run_command(base + ["--size", "1"]) == 1
    assert capsys.readouterr().out.startswith(
        "FAIL counterexample mediating-maps\n")
    for bad in (["--size", "-1"], ["--size", "x"], ["--algebra", "pentagon"],
                ["--size", "3"]):
        assert run_command(base + bad) == 2


def test_laws_restricted_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "max_algebra_size": 3,
        "checks": ["boolean-split", "counterexample"],
    }))
    assert run_command(["laws", "--config", str(cfg),
                        "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {r["check"] for r in doc["results"]} == \
        {"boolean-split", "counterexample"}


def test_laws_with_no_checks_reports_no_rows(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": []}))
    assert run_command(["laws", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == ""
    assert run_command(["laws", "--config", str(cfg),
                        "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == []


def test_laws_default_reports_frozen(capsys):
    # the CLI path of criterion 10's default report, in both formats
    for fmt, digest in (
        ("json", "082b7fec874b19772696e621e7a59aca"
                 "0637c648a68ef97ff644d02e55c49e77"),
        ("text", "ed63071ebfb41e19a219de92bb27683a"
                 "dcfe930cd560337a00db7696d323147f"),
    ):
        assert run_command(["laws", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_laws_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_algebra_size": 99}))
    assert run_command(["laws", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"checks": ["no-such-check"]}))
    assert run_command(["laws", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"seed": 20260822}))
    assert run_command(["laws", "--config", str(cfg)]) == 2
    for doc in ({"max_algebra_size": 4.0}, {"max_carrier_size": 2.0},
                {"max_carrier_size": True}, {"enumeration_guard": 2.5},
                {"checks": {"sg": 1}}):
        cfg.write_text(json.dumps(doc))
        assert run_command(["laws", "--config", str(cfg)]) == 2


def test_laws_deterministic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "max_algebra_size": 2,
        "max_carrier_size": 2,
        "checks": ["heyting-laws", "tset-sheaf", "sg"],
    }))
    argv = ["laws", "--config", str(cfg), "--format", "json"]
    assert run_command(argv) == 0
    first = capsys.readouterr().out
    assert run_command(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_unknown_subcommand_exits_2():
    assert run_command(["frobnicate"]) == 2


def test_validate_relation_file(tmp_path, capsys):
    from tsettopos import identity_relation, relation_to_dict
    t = principal_tset(diamond(), diamond().top)
    doc = relation_to_dict(identity_relation(t))
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 0
    assert "validate-relation" in capsys.readouterr().out


_ASYMMETRIC = {"algebra": "chain3.json", "elements": ["x", "y"],
               "id": [["M", "p"], ["mu", "M"]]}


def test_validate_relation_checks_its_tsets(files, capsys):
    # validate_relation alone accepts the identity on a non-T-set
    path = files["dir"] / "rel.json"
    path.write_text(json.dumps({"source": _ASYMMETRIC, "target": _ASYMMETRIC,
                                "map": {"x": "x", "y": "y"}}))
    assert run_command(["validate", str(path), "--format", "json"]) == 1
    [row] = json.loads(capsys.readouterr().out)["results"]
    assert row["check"] == "validate-relation" and row["status"] == "fail"
    assert row["witness"] == "('source', ('symmetry', ('x', 'y')))"


@pytest.mark.parametrize("doc, message", [
    ({"source": {**_ASYMMETRIC, "id": [["M", "mu"], ["mu", "M"]]},
      "target": {**_ASYMMETRIC, "id": [["M", "mu"], ["mu", "M"]]},
      "map": {"x": "x", "y": "y", "z": "x"}},
     "relation map names unknown elements ['z']"),
    ({"algebra": _CHAIN, "sections": _SECTIONS,
      "restrict": {**_RESTRICT, "c>b": {"x": "x", "y": "y", "w": "x"}}},
     "restrict c>b names unknown sections ['w']"),
], ids=["relation-map", "presheaf-restrict"])
def test_unknown_key_exits_2(files, capsys, doc, message):
    path = files["dir"] / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_python_dash_m_entry_point():
    # stderr stays empty: no RuntimeWarning about a submodule that the
    # package had already imported
    src = str(Path(tsettopos.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    data = Path(__file__).resolve().parents[1] / "data" / "chain3.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tsettopos", "validate", str(data)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
