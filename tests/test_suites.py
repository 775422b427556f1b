"""Suite runner: config validation, pool generation, report formats."""

import hashlib
import importlib
import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from tsettopos import (
    SuiteConfig,
    chain3,
    generate_instance_pool,
    representable,
    run_suite,
)
from tsettopos import suites
from tsettopos.suites import CHECKS, InstancePool, render

from oracles import report


def test_config_defaults_valid():
    cfg = SuiteConfig()
    assert cfg.checks == CHECKS


def test_config_rejects_bad_bounds():
    with pytest.raises(ValueError):
        SuiteConfig(max_algebra_size=1)
    assert SuiteConfig(max_algebra_size=9).max_algebra_size == 9
    with pytest.raises(ValueError):
        SuiteConfig(max_algebra_size=10)
    with pytest.raises(ValueError):
        SuiteConfig(max_carrier_size=-1)
    with pytest.raises(ValueError):
        SuiteConfig(enumeration_guard=0)
    with pytest.raises(ValueError):
        SuiteConfig(max_algebra_size=4.0)
    with pytest.raises(ValueError):
        SuiteConfig(max_carrier_size=True)


def test_config_rejects_unknown_check():
    with pytest.raises(ValueError):
        SuiteConfig(checks=("no-such-check",))


def test_pool_contents():
    pool = generate_instance_pool(SuiteConfig(max_algebra_size=3,
                                              max_carrier_size=2))
    labels = [lbl for lbl, _ in pool.algebras]
    assert labels == ["A2.0", "A3.0"]
    assert ("pentagon", "NotDistributive") in pool.rejected
    assert pool.tsets and pool.sheaves and pool.quasi


def test_run_suite_filtered_order():
    cfg = SuiteConfig(max_algebra_size=2, max_carrier_size=2,
                      checks=("counterexample", "boolean-split"))
    rep = run_suite(cfg)
    assert rep.ok
    seen = [r.check for r in rep.results]
    # canonical order, not request order
    assert seen.index("boolean-split") < seen.index("counterexample")


def test_report_formats_agree():
    cfg = SuiteConfig(max_algebra_size=2, max_carrier_size=2,
                      checks=("heyting-laws",))
    rep = run_suite(cfg)
    doc = json.loads(report(rep))
    text = report(rep, "text")
    assert len(doc["results"]) == len(text.strip().splitlines())
    assert doc["version"] == rep.version
    assert doc["config"]["max_algebra_size"] == 2


def test_default_text_report_bytes_frozen():
    text = report(run_suite(SuiteConfig()), "text")
    assert len(text.splitlines()) == 344
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ed63071ebfb41e19a219de92bb27683adcfe930cd560337a00db7696d323147f")


class _Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)


def test_topos_axioms_ladder_cell_report_frozen():
    # the 4/4 topos-axioms rung, as the pool-quantified verifiers wrote it
    rep = run_suite(SuiteConfig(max_algebra_size=4, max_carrier_size=4,
                                checks=("topos-axioms",)))
    assert len(rep.results) == 5103
    # streamed in batches, neither as one string nor a write per chunk:
    # a JSON write holds at most half the document, a text write at most
    # 4096 of its 5103 lines
    for fmt, digest, biggest in (
        ("json", "75492ee0c04b2e55a3f30bd6ba3b2840"
                 "ff0dd814d241d9b5b263dce4cd52b4f6",
         lambda doc, w: len(w) <= len(doc) // 2),
        ("text", "a50843ad36b5ebfe41a8a0cb84aa74bd"
                 "957133ee1e0fce03e4c63cb04077d176",
         lambda doc, w: w.count("\n") <= 4096),
    ):
        out = _Recorder()
        render(rep.results, fmt, asdict(rep.config), out)
        doc = "".join(out.writes)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest, fmt
        assert 1 < len(out.writes) <= 50, fmt
        assert all(biggest(doc, w) for w in out.writes), fmt


def test_six_three_census_report_frozen():
    # carrier pools over every algebra up to size 6, every check
    rep = run_suite(SuiteConfig(max_algebra_size=6, max_carrier_size=3))
    assert len(rep.results) == 460
    assert hashlib.sha256(report(rep).encode()).hexdigest() == (
        "c7e22590d58fcd024e98482d58b82895da18613d7e7403b10b0d46185e628541")


def test_nine_three_census_report_frozen():
    # carrier pools over every algebra up to the cap, every check
    rep = run_suite(SuiteConfig(max_algebra_size=9, max_carrier_size=3))
    assert len(rep.results) == 1193
    assert hashlib.sha256(report(rep).encode()).hexdigest() == (
        "8576f3ffb704fa79d0a70a2d40aafd72a0a8f50ef1fd74df887eda5b6650e05e")


def test_carriers_cell_report_frozen():
    # the benchmark's carriers cell: 4/5, every check but topos-axioms
    rep = run_suite(SuiteConfig(
        max_algebra_size=4, max_carrier_size=5,
        checks=tuple(c for c in CHECKS if c != "topos-axioms")))
    assert len(rep.results) == 149
    assert hashlib.sha256(report(rep).encode()).hexdigest() == (
        "d106e312b9f625396fa0a71854509a5068b0d2cc411dddc8e4612eb394bed821")


def test_nine_four_census_report_frozen():
    # carrier pools of size 4 over every algebra up to the cap
    rep = run_suite(SuiteConfig(max_algebra_size=9, max_carrier_size=4))
    assert len(rep.results) == 6588
    assert sum(r.check == "sg" for r in rep.results) == 62
    assert hashlib.sha256(report(rep).encode()).hexdigest() == (
        "cc7206a6893843752f0ab9e2b3471ffb762f3c71e9adb05bbbf05417302a8a9a")


def test_traced_layer_names_resolve():
    # the benchmark's --trace 1 wraps these names in their home modules
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.LAYERS.items():
        home = importlib.import_module(f"tsettopos.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{layer}.{name}"
    with spans.Tracer():
        pass


def test_failure_rows_carry_witnesses():
    rep = run_suite(SuiteConfig(max_algebra_size=2, max_carrier_size=2))
    for row in rep.results:
        assert row.status == "pass"
        assert row.witness is None



def test_topos_axiom_failures_carry_witnesses(monkeypatch):
    from tsettopos import topos

    cfg = SuiteConfig(max_algebra_size=2, max_carrier_size=2,
                      checks=("topos-axioms",))
    H = chain3()
    planted = ("planted", 7)
    monkeypatch.setattr(topos, "check_classifier",
                        lambda *args: (False, planted))
    # every adjunction row first fails at its second representable y(p)
    monkeypatch.setattr(
        topos, "check_adjunction",
        lambda E, Z, guard, **kw: (True, None)
        if Z == representable(H, 0) else (False, planted))
    second = f"y({H.name(1)})"
    rows = {}
    for r in run_suite(cfg).results:
        rows.setdefault(r.instance.split(":")[0], []).append(r)
    for r in rows["classifier-unique"]:
        assert (r.status, r.witness) == ("fail", repr(planted))
    for r in rows["adjunction-bijection"]:
        assert (r.status, r.witness) == ("fail", repr((second, planted)))
    for r in rows["terminal-unique"] + rows["adjunction-natural"]:
        assert (r.status, r.witness) == ("pass", None)


def test_terminal_and_naturality_failures_carry_witnesses(monkeypatch):
    import dataclasses

    from tsettopos import chain3, territory_topology, topos

    cfg = SuiteConfig(max_algebra_size=2, max_carrier_size=2,
                      checks=("topos-axioms",))
    H = chain3()
    om = topos.omega(H, territory_topology(H))
    one = om.truth.source
    # truth at the top picks the sieve {mu}, which restricts at p to {mu},
    # not to the truth {mu, p}: naturality first breaks at (M, p, 0)
    bent = dataclasses.replace(om.truth, components=((0,), (1,), (0,)))
    hom = topos.hom_presheaf
    monkeypatch.setattr(
        topos, "hom_presheaf",
        lambda P, Q, guard: hom(P, Q, guard) * (2 if Q == one else 1))
    monkeypatch.setattr(topos, "evaluation", lambda E: bent)
    monkeypatch.setattr(topos, "omega",
                        lambda H, J: dataclasses.replace(om, truth=bent))
    rows = {}
    for r in run_suite(cfg).results:
        rows.setdefault(r.instance.split(":")[0], []).append(r)
    assert rows["terminal-unique"] and rows["evaluation-natural"]
    for r in rows["terminal-unique"]:
        assert (r.status, r.witness) == ("fail", repr(2))
    for r in rows["evaluation-natural"] + rows["truth-natural"]:
        assert (r.status, r.witness) == ("fail", repr(("M", "p", 0)))


def _only(**fields):
    empty = dict(algebras=(), rejected=(), tsets=(), quasi=(), site=None,
                 sheaves=())
    return InstancePool(**(empty | fields))


def test_sheaf_runners_read_the_pool_site():
    from tsettopos import diamond, sheaf_pool, territory_topology

    # the diamond's sheaves over the diamond's site: a runner that built
    # its own chain3 site would not classify them
    H = diamond()
    site = (H, territory_topology(H))
    pool = _only(site=site, sheaves=tuple(
        (f"diamond/S{j}", P) for j, P in enumerate(sheaf_pool(*site, 3))))
    for runner in (suites._check_classifier_unique,
                   suites._check_topos_axioms):
        rows = runner(SuiteConfig(), pool)
        assert rows and all(r.status == "pass" for r in rows), runner


def test_doubled_point_row_is_decided_by_sg_check(monkeypatch):
    from tsettopos import diamond, doubled_point_tset

    seen = []
    real = suites.sg_check

    def recording(pool, *args):
        rep = real(pool, *args)
        seen.append((pool, rep))
        return rep

    monkeypatch.setattr(suites, "sg_check", recording)
    [row] = suites._check_sg(SuiteConfig(), _only())
    assert (row.instance, row.status, row.witness) == (
        "doubled-point", "pass", None)
    [(pool, rep)] = seen
    assert pool == [doubled_point_tset(diamond())]
    # x, y -> x against the identity: the first probe-inseparable pair
    assert not rep.ok
    assert rep.witness[2:] == ((0, 0, 2, 3, 4), (0, 1, 2, 3, 4))


def test_doubled_point_row_fails_when_probes_separate(monkeypatch):
    from tsettopos.topos import SgReport

    monkeypatch.setattr(suites, "sg_check",
                        lambda pool, guard: SgReport(True, None))
    [row] = suites._check_sg(SuiteConfig(), _only())
    assert (row.status, row.witness) == ("fail", repr("probe-separated"))


def test_heyting_laws_report_first_violation():
    import dataclasses

    from tsettopos import chain3

    H = chain3()
    # p -> mu becomes p: noncontradiction fails at p, and so (later in
    # the sweep) does the adjunction at (p, mu, p)
    imp = [list(row) for row in H.imp_table]
    imp[1][0] = 1
    broken = dataclasses.replace(H, imp_table=tuple(map(tuple, imp)))
    [row] = suites._check_heyting_laws(
        SuiteConfig(), _only(algebras=(("broken", broken),)))
    assert (row.status, row.witness) == (
        "fail", repr(("noncontradiction", "p")))


def test_localisation_equivalence_reports_first_violation(monkeypatch):
    from tsettopos import set_like_tset, two_element

    # with compatibility always false, every diagonal pair disagrees
    monkeypatch.setattr(suites, "compatible", lambda t, a, b: False)
    t = set_like_tset(two_element(), 2)
    [row] = suites._check_localisation_equivalence(
        SuiteConfig(), _only(tsets=(("set2", t),)))
    assert (row.status, row.witness) == (
        "fail", repr(("u0", "u0", True, False, True)))


def test_omega_closed_sieves_reports_first_violation(monkeypatch):
    from tsettopos import chain3, closed_sieves, territory_topology

    H = chain3()
    # no principal sieves: every level disagrees, the bottom first
    monkeypatch.setattr(suites, "principal_sieves", lambda H, p: [])
    row = suites._check_omega_closed_sieves(
        SuiteConfig(), _only(algebras=(("chain3", H),)))[0]
    got = closed_sieves(H, territory_topology(H), H.bottom)
    assert (row.status, row.witness) == (
        "fail", repr(("mu", sorted(map(sorted, got)))))


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")
    import tsettopos
    from tsettopos.suites import VERSION
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert tsettopos.__version__ is VERSION
    assert meta["project"]["version"] == VERSION
