"""Law suites over generated instance pools.

A suite run is a pure function of its config: the pools are enumerated
deterministically, the checks run in a canonical order, and the report
renders to identical bytes across runs.  ``render`` is the one report
writer: every CLI command's rows go through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TextIO

from .errors import NotDistributive
from .fileio import write_chunks, write_json
from .heyting import (
    HeytingAlgebra,
    build_algebra,
    chain3,
    diamond,
    pentagon_spec,
    subsets,
    two_element,
)
from .pools import algebra_pool, sheaf_pool, tset_pool
from .sheaves import (
    Presheaf,
    find_presheaf_iso,
    is_sheaf,
    naturality_witness,
    sheafify,
    tset_to_presheaf,
)
from .sites import (Topology, closed_sieves, principal_sieves,
                    territory_topology)
from .tset import (
    DEFAULT_GUARD,
    TSet,
    compatible,
    localise_element,
    make_tset,
    singleton_completion,
)
from .topos import (
    check_classifier,
    check_topos_axioms,
    doubled_point_tset,
    exposition_counterexample,
    omega,
    sg_check,
)

VERSION = "0.1.0"


@dataclass(frozen=True)
class InstancePool:
    algebras: tuple[tuple[str, HeytingAlgebra], ...]
    rejected: tuple[tuple[str, str], ...]
    tsets: tuple[tuple[str, TSet], ...]
    quasi: tuple[tuple[str, TSet], ...]
    # the site (H, J) of the sheaf sweeps, and its sheaves
    site: tuple[HeytingAlgebra, Topology]
    sheaves: tuple[tuple[str, Presheaf], ...]


def generate_instance_pool(config: SuiteConfig) -> InstancePool:
    """Enumerated algebras and T-sets within the config bounds, plus the
    pentagon rejection witness."""
    algebras = tuple(algebra_pool(config.max_algebra_size))
    try:
        build_algebra(pentagon_spec())
        rejected: tuple[tuple[str, str], ...] = ()
    except NotDistributive:
        rejected = (("pentagon", "NotDistributive"),)

    tsets = tuple(
        (f"{lbl}/T{j}", t)
        for lbl, H in algebras
        for j, t in enumerate(tset_pool(H, config.max_carrier_size))
    )
    quasi = tuple(
        (f"{lbl}/Q{j}", t)
        for lbl, H in algebras
        if H.size <= 3
        for j, t in enumerate(tset_pool(
            H, min(config.max_carrier_size, 2),
            require_separated=False, require_postulate=False,
            include_empty=True,
        ))
    ) + (
        ("chain3/unreal-atom", make_tset(chain3(), ("x",), ((2,),))),
        ("diamond/doubled-point", doubled_point_tset(diamond())),
    )
    H3 = chain3()
    site = (H3, territory_topology(H3))
    sheaves = tuple(
        (f"chain3/S{j}", P)
        for j, P in enumerate(sheaf_pool(*site, config.max_carrier_size))
    )
    return InstancePool(algebras, rejected, tsets, quasi, site, sheaves)


@dataclass(frozen=True)
class CheckResult:
    check: str
    instance: str
    status: str
    witness: str | None = None


def check_row(check: str, instance: str, ok: bool,
              witness: object = None) -> CheckResult:
    """A row that carries repr(witness) on failure only."""
    return CheckResult(
        check, instance, "pass" if ok else "fail",
        None if ok or witness is None else repr(witness),
    )


def _heyting_violation(H: HeytingAlgebra) -> tuple | None:
    for p in H.elements():
        if H.meet(p, H.neg(p)) != H.bottom:
            return ("noncontradiction", H.name(p))
        if not H.le(p, H.neg(H.neg(p))):
            return ("double-negation", H.name(p))
        for q in H.elements():
            for t in H.elements():
                if H.le(H.meet(p, t), q) != H.le(t, H.implies(p, q)):
                    return ("adjunction", H.name(p), H.name(q), H.name(t))
    for s in subsets(H):
        e = H.sigma(s)
        for p in H.elements():
            if H.meet(p, e) != H.sigma(H.meet(p, x) for x in s):
                return ("frame", H.name(p), tuple(H.name(x) for x in s))
    return None


def _check_heyting_laws(config: SuiteConfig,
                        pool: InstancePool) -> list[CheckResult]:
    out = []
    for lbl, H in pool.algebras:
        bad = _heyting_violation(H)
        out.append(check_row("heyting-laws", lbl, bad is None, bad))
    for name, err in pool.rejected:
        out.append(check_row("heyting-laws", f"{name}-reject",
                             err == "NotDistributive"))
    return out


def _check_boolean_split(config: SuiteConfig,
                         pool: InstancePool) -> list[CheckResult]:
    H2 = two_element()
    H3 = chain3()
    mid = 1
    ok3 = (not H3.is_boolean()
           and H3.neg(H3.neg(mid)) == H3.top
           and H3.neg(H3.neg(mid)) != mid)
    return [
        check_row("boolean-split", "two_element", H2.is_boolean()),
        check_row("boolean-split", "chain3", ok3),
    ]


def _check_tset_sheaf(config: SuiteConfig,
                      pool: InstancePool) -> list[CheckResult]:
    out = []
    topo = {lbl: territory_topology(H) for lbl, H in pool.algebras}
    for lbl, t in pool.tsets:
        J = topo[lbl.split("/")[0]]
        rep = is_sheaf(tset_to_presheaf(t), J)
        out.append(check_row("tset-sheaf", lbl, rep.ok, rep.witness))
    return out


def _check_localisation_equivalence(config: SuiteConfig,
                                    pool: InstancePool) -> list[CheckResult]:
    out = []
    for lbl, t in pool.tsets:
        H = t.algebra
        bad = None
        for a, b in itertools.product(range(t.size), repeat=2):
            c1 = localise_element(t, b, t.ee(a)) == a
            c2 = compatible(t, a, b) and H.le(t.ee(a), t.ee(b))
            c3 = t.ee(a) == t.ident(a, b)
            if not (c1 == c2 == c3):
                bad = (t.name(a), t.name(b), c1, c2, c3)
                break
        out.append(check_row("localisation-equivalence", lbl, bad is None, bad))
    return out


def _check_omega_closed_sieves(config: SuiteConfig,
                               pool: InstancePool) -> list[CheckResult]:
    out = []
    for lbl, H in pool.algebras:
        J = territory_topology(H)
        bad = None
        for p in H.elements():
            got = set(closed_sieves(H, J, p))
            if got != set(principal_sieves(H, p)):
                bad = (H.name(p), sorted(map(sorted, got)))
                break
        out.append(check_row("omega-closed-sieves", lbl, bad is None, bad))
        om = omega(H, J)
        out.append(check_row("omega-closed-sieves", f"{lbl}/sheaf",
                             is_sheaf(om.presheaf, J).ok))
        out.append(check_row("omega-closed-sieves", f"{lbl}/truth",
                             naturality_witness(om.truth) is None))
    return out


def _check_classifier_unique(config: SuiteConfig,
                             pool: InstancePool) -> list[CheckResult]:
    H3, J3 = pool.site
    om = omega(H3, J3)
    out = []
    for lbl, P in pool.sheaves:
        ok, witness = check_classifier(P, J3, om, config.enumeration_guard)
        out.append(check_row("classifier-unique", lbl, ok, witness))
    return out


def _check_sheafify_oracle(config: SuiteConfig,
                           pool: InstancePool) -> list[CheckResult]:
    out = []
    for lbl, t in pool.quasi:
        J = territory_topology(t.algebra)
        S = sheafify(tset_to_presheaf(t), J)
        C = tset_to_presheaf(singleton_completion(t).tset)
        iso = find_presheaf_iso(S, C, config.enumeration_guard)
        out.append(check_row("sheafify-oracle", lbl, iso is not None))
    return out


def _check_counterexample(config: SuiteConfig,
                          pool: InstancePool) -> list[CheckResult]:
    rep = exposition_counterexample(guard=config.enumeration_guard)
    deg = exposition_counterexample(proper_size=1,
                                    guard=config.enumeration_guard)
    return [
        check_row("counterexample", "flawed-count", rep.refuted,
                  rep.flawed_count),
        check_row("counterexample", "flawed-count-exact",
                  rep.flawed_count == rep.expected_flawed, rep.flawed_count),
        check_row("counterexample", "corrected-unique", rep.corrected_unique,
                  rep.corrected_count),
        check_row("counterexample", "degenerate-size-1",
                  deg.corrected_count == 1 and not deg.refuted,
                  (deg.flawed_count, deg.corrected_count)),
    ]


def _check_topos_axioms(config: SuiteConfig,
                        pool: InstancePool) -> list[CheckResult]:
    rep = check_topos_axioms([P for _, P in pool.sheaves], pool.site[1],
                             config.enumeration_guard)
    return [
        check_row("topos-axioms", f"{name}:{inst}", ok, witness)
        for name, inst, ok, witness in rep.rows
    ]


def _check_sg(config: SuiteConfig, pool: InstancePool) -> list[CheckResult]:
    out = []
    for lbl, H in pool.algebras:
        ts = [t for l, t in pool.tsets if l.startswith(lbl + "/")]
        rep = sg_check(ts, config.enumeration_guard)
        out.append(check_row("sg", lbl, rep.ok, rep.witness))
    # the doubled point's indiscernible top elements are probe-inseparable
    rep = sg_check([doubled_point_tset(diamond())], config.enumeration_guard)
    out.append(check_row("sg", "doubled-point", not rep.ok, "probe-separated"))
    return out


_RUNNERS = {
    "heyting-laws": _check_heyting_laws,
    "boolean-split": _check_boolean_split,
    "tset-sheaf": _check_tset_sheaf,
    "localisation-equivalence": _check_localisation_equivalence,
    "omega-closed-sieves": _check_omega_closed_sieves,
    "classifier-unique": _check_classifier_unique,
    "sheafify-oracle": _check_sheafify_oracle,
    "counterexample": _check_counterexample,
    "topos-axioms": _check_topos_axioms,
    "sg": _check_sg,
}

# the canonical check order, which the report bytes follow
CHECKS: tuple[str, ...] = tuple(_RUNNERS)


@dataclass(frozen=True)
class SuiteConfig:
    max_algebra_size: int = 4
    max_carrier_size: int = 3
    enumeration_guard: int = DEFAULT_GUARD
    checks: tuple[str, ...] = CHECKS

    def __post_init__(self):
        for name in ("max_algebra_size", "max_carrier_size",
                     "enumeration_guard"):
            value = getattr(self, name)
            # bool is an int subclass; JSON true must not read as 1
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        # exhaustive pools; the whole laws --format json process on a
        # 2-vCPU VM (Python 3.11) takes ~0.5 s at 9/3, ~1.0 s at 9/4 and
        # 15-16 s at 9/5, most of the last in the topos-axioms sweep
        if not 2 <= self.max_algebra_size <= 9:
            raise ValueError("max_algebra_size must be in 2..9")
        if not 0 <= self.max_carrier_size <= 6:
            raise ValueError("max_carrier_size must be in 0..6")
        if self.enumeration_guard <= 0:
            raise ValueError("enumeration_guard must be positive")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")
        object.__setattr__(self, "checks", tuple(self.checks))


@dataclass(frozen=True)
class SuiteReport:
    version: str
    config: SuiteConfig
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Run the configured checks over freshly generated pools, in the
    canonical check order regardless of the order given."""
    config = config if config is not None else SuiteConfig()
    pool = generate_instance_pool(config)
    results: list[CheckResult] = []
    for name, runner in _RUNNERS.items():
        if name in config.checks:
            results.extend(runner(config, pool))
    return SuiteReport(VERSION, config, tuple(results))


def render(results, fmt: str, config: dict, out: TextIO) -> None:
    """Write report rows to out as text lines "PASS|FAIL <check>
    <instance>", or with fmt "json" as the document {version, config,
    results}, each row carrying its witness when it has one."""
    if fmt == "json":
        rows = []
        for r in results:
            row = {"check": r.check, "instance": r.instance, "status": r.status}
            if r.witness is not None:
                row["witness"] = r.witness
            rows.append(row)
        write_json(out, {"version": VERSION, "config": config,
                         "results": rows})
    else:
        write_chunks(out, (
            f"{'PASS' if r.status == 'pass' else 'FAIL'} {r.check} "
            f"{r.instance}\n" for r in results))
