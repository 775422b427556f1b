"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Every criterion is exact (no numeric tolerance anywhere; all expected
values are frozen integers or booleans).  Each test also carries a
pinned wall-clock budget in seconds and fails when it is exceeded, so
a pathological slowdown is a red result, not a silent one.
"""

import time

from tsettopos import (
    SuiteConfig,
    algebra_pool,
    chain3,
    check_classifier,
    check_topos_axioms,
    closed_sieves,
    compatible,
    diamond,
    doubled_point_tset,
    exposition_counterexample,
    find_presheaf_iso,
    generate_instance_pool,
    is_sheaf,
    localise_element,
    omega,
    run_suite,
    sg_check,
    sheaf_pool,
    sheafify,
    singleton_completion,
    subobjects,
    subsets,
    territory_topology,
    tset_pool,
    tset_to_presheaf,
    two_element,
)

from oracles import report

BUDGETS = {
    1: 10.0,
    2: 1.0,
    3: 60.0,
    4: 30.0,
    5: 60.0,
    6: 60.0,
    7: 5.0,
    8: 120.0,
    9: 30.0,
    10: 60.0,
}


def _gate(n: int, name: str, ok: bool, started: float, detail: str = ""):
    spent = time.perf_counter() - started
    budget = BUDGETS[n]
    verdict = "PASS" if ok and spent < budget else "FAIL"
    print(f"{verdict} criterion-{n:02d} {name} "
          f"({spent:.2f}s of {budget:.0f}s){' ' + detail if detail else ''}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"
    assert spent < budget, f"criterion {n} over budget: {spent:.2f}s"


def test_criterion_01_heyting_laws_exhaustive():
    started = time.perf_counter()
    checked = 0
    ok = True
    for _, H in algebra_pool(5):
        for p in H.elements():
            ok &= H.meet(p, H.neg(p)) == H.bottom
            ok &= H.le(p, H.neg(H.neg(p)))
            for q in H.elements():
                for t in H.elements():
                    ok &= H.le(H.meet(p, t), q) == H.le(t, H.implies(p, q))
                    checked += 1
        for S in subsets(H):
            for p in H.elements():
                ok &= H.meet(p, H.sigma(S)) == H.sigma(
                    H.meet(p, x) for x in S)
    _gate(1, "heyting-laws", ok, started, f"{checked} adjunction triples")


def test_criterion_02_boolean_split():
    started = time.perf_counter()
    H = chain3()
    p, M = H.index("p"), H.index("M")
    ok = H.neg(H.neg(p)) == M != p
    ok &= not H.is_boolean()
    ok &= two_element().is_boolean()
    _gate(2, "boolean-split", ok, started)


def test_criterion_03_pool_tsets_are_sheaves():
    started = time.perf_counter()
    count = 0
    bad = []
    for lbl, H in algebra_pool(4):
        J = territory_topology(H)
        for t in tset_pool(H, 4):
            count += 1
            if not is_sheaf(tset_to_presheaf(t), J).ok:
                bad.append(lbl)
    _gate(3, "tsets-are-sheaves", not bad, started,
          f"{count} instances, {len(bad)} counterexamples")


def test_criterion_04_three_way_equivalence():
    started = time.perf_counter()
    pairs = 0
    ok = True
    for _, H in algebra_pool(4):
        for t in tset_pool(H, 4):
            for a in range(t.size):
                for b in range(t.size):
                    c1 = localise_element(t, b, t.ee(a)) == a
                    c2 = compatible(t, a, b) and H.le(t.ee(a), t.ee(b))
                    c3 = t.ee(a) == t.ident(a, b)
                    ok &= c1 == c2 == c3
                    pairs += 1
    _gate(4, "three-way-equivalence", ok, started, f"{pairs} pairs")


def test_criterion_05_omega_closed_sieves_and_classifier():
    started = time.perf_counter()
    ok = True
    for _, H in algebra_pool(4):
        J = territory_topology(H)
        for p in H.elements():
            got = set(closed_sieves(H, J, p))
            want = {frozenset(H.down(s)) for s in H.down(p)}
            ok &= got == want
        om = omega(H, J)
        ok &= is_sheaf(om.presheaf, J).ok
    H = chain3()
    J = territory_topology(H)
    om = omega(H, J)
    n_subs = 0
    for P in sheaf_pool(H, J, 3):
        good, _ = check_classifier(P, J, om)
        ok &= good
        n_subs += len(subobjects(P, J))
    _gate(5, "omega-and-classifier", ok, started,
          f"{n_subs} subobjects classified")


def test_criterion_06_sheafify_oracle_agreement():
    started = time.perf_counter()
    pool = generate_instance_pool(SuiteConfig())
    ok = True
    names = []
    for lbl, q in pool.quasi:
        H = q.algebra
        J = territory_topology(H)
        plus = sheafify(tset_to_presheaf(q), J)
        direct = tset_to_presheaf(singleton_completion(q).tset)
        if find_presheaf_iso(plus, direct) is None:
            ok = False
            names.append(lbl)
    has_unreal = any("unreal" in lbl for lbl, _ in pool.quasi)
    _gate(6, "sheafify-oracle", ok and has_unreal, started,
          f"{len(pool.quasi)} quasi instances" +
          (f", disagreements: {names}" if names else ""))


def test_criterion_07_universality_refutation():
    started = time.perf_counter()
    rep = exposition_counterexample()
    ok = rep.flawed_count >= 2
    ok &= rep.flawed_count == 256 == rep.expected_flawed
    ok &= rep.refuted and rep.corrected_unique
    ok &= rep.corrected_count == 1
    degenerate = exposition_counterexample(proper_size=1)
    ok &= degenerate.flawed_count == 1 and not degenerate.refuted
    _gate(7, "universality-refutation", ok, started,
          f"flawed={rep.flawed_count} corrected={rep.corrected_count}")


def test_criterion_08_topos_axioms_on_canonical_pool():
    started = time.perf_counter()
    H = chain3()
    J = territory_topology(H)
    pool = sheaf_pool(H, J, 3)
    rep = check_topos_axioms(pool, J)
    failed = [row for row in rep.rows if not row[2]]
    _gate(8, "topos-axioms", rep.ok and not failed, started,
          f"{len(rep.rows)} axiom rows over {len(pool)} sheaves")


def test_criterion_09_sg_linkage():
    started = time.perf_counter()
    ok = True
    pools = 0
    for _, H in algebra_pool(4):
        rep = sg_check(tset_pool(H, 4))
        ok &= rep.ok
        pools += 1
    # the doubled point's indiscernible top elements defeat every probe
    ok &= not sg_check([doubled_point_tset(diamond())]).ok
    _gate(9, "sg-linkage", ok, started, f"{pools} pools probe-separated")


def test_criterion_10_deterministic_reports():
    started = time.perf_counter()
    first = report(run_suite(SuiteConfig()))
    second = report(run_suite(SuiteConfig()))
    ok = first == second and len(first) > 0
    _gate(10, "deterministic-reports", ok, started,
          f"{len(first)} bytes, byte-identical={first == second}")
