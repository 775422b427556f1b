#!/usr/bin/env python3
"""Benchmark of the tsettopos workbench: exhaustive finite decisions of
the paper's claims, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record      # rewrite bench/expected.json

Run from the root of a source checkout; the package is imported from
``src/``.  One process and one thread drive a closed loop with one
client: each request waits for its verdict before the next is sent.
A pass is one sweep over the workload's requests; passes repeat until
``--seconds`` have elapsed (at least one pass).

Workloads (see BENCHMARK.json for why each was chosen):

  census    run_suite at max_algebra_size=5, max_carrier_size=3, all checks
  carriers  run_suite at 4/5, every check except topos-axioms
  topos     check_topos_axioms over territory sheaves with totals <= 4 and
            at most 2 sections per level, on chain3 and on the diamond
  files     ~1 100 in-process cli.run_command requests (validate, atoms,
            omega, sheafify -o) over structure files written at set-up

The seed orders the files requests and the topos sites and pools; the
census and carriers configs are fixed, so the seed does not change them.

Every verdict is checked, outside the timed interval, against the known
answers in ``bench/expected.json``: every suite row passes and the row
counts match; every files request matches the exit code and output
digest recorded at the commit that defined the benchmark.  A request
that raises, outlives its cap (SIGALRM, no worker process) or returns
another answer counts as failed; any failure makes the exit code 1.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off: ``verdict_s`` (median pass time), ``request_p50_ms`` and
``request_p99_ms`` (latency per request, see ``tail_percentile``),
``peak_rss_mb`` (peak resident memory of this process) and ``setup_s``
(median of ``SETUPS`` fresh imports of the package, each followed by
building the workload's inputs).  ``fail_share`` is printed with them;
it never appears in the result because it is 0 on a correct run, and
``failed``/``attempted`` carry it.

With ``--trace 1`` the first half of the run is untraced and the second
half traced (see spans.py); the result holds the per-layer metrics plus
the tracing overhead (traced minus untraced pass time).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
WORK = ROOT / ".bench_work"

WORKLOADS = ("census", "carriers", "topos", "files")
SETUPS = 9            # set-up repeats per run; setup_s is their median
RUN_LIMIT_S = 150     # no request may run past this point of a run

sys.path.insert(0, str(BENCH))
from spans import Tracer  # noqa: E402


class RequestTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RequestTimeout


def import_package():
    """Import tsettopos from src/ afresh, dropping any earlier import."""
    for name in [n for n in sys.modules
                 if n == "tsettopos" or n.startswith("tsettopos.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("tsettopos")


# ------------------------------------------------------------ workloads
#
# A workload holds its requests as (key, thunk) pairs; ``answer`` turns a
# thunk's result into the value compared with bench/expected.json.
# Thunks look functions up through the module at call time, so a traced
# pass sees the wrappers.

def _suite_answer(report) -> object:
    bad = [r for r in report.results if r.status != "pass"]
    if bad:
        return f"FAIL {bad[0].check} {bad[0].instance}"
    return len(report.results)


def _suite_sizes(report) -> dict[str, int]:
    rows = Counter(r.check for r in report.results)
    return {
        "algebras": sum(1 for r in report.results if r.check == "heyting-laws"
                        and not r.instance.endswith("-reject")),
        "tsets": rows["tset-sheaf"],
        "quasi": rows["sheafify-oracle"],
        "sheaves": rows["classifier-unique"],
    }


class SuiteWorkload:
    """One run_suite request per pass."""

    def __init__(self, T, config):
        key = f"run_suite {config.max_algebra_size}/{config.max_carrier_size}"
        self.requests = [(key, lambda: T.suites.run_suite(config))]
        self.sizes: dict[str, int] = {}

    def answer(self, key, report):
        self.sizes = _suite_sizes(report)
        return _suite_answer(report)


class Census(SuiteWorkload):
    cap_s = 20.0

    def __init__(self, T, seed, workdir):
        # 5/3 rather than the 6/3 ladder rung: a 6/3 pass took 13-25 s on
        # a shared 2-vCPU VM, leaving one or two passes per run
        super().__init__(T, T.suites.SuiteConfig(
            max_algebra_size=5, max_carrier_size=3))


class Carriers(SuiteWorkload):
    cap_s = 40.0

    def __init__(self, T, seed, workdir):
        checks = tuple(c for c in T.suites.CHECKS if c != "topos-axioms")
        super().__init__(T, T.suites.SuiteConfig(
            max_algebra_size=4, max_carrier_size=5, checks=checks))


class Topos:
    """check_topos_axioms per site over its small territory sheaves."""

    cap_s = 20.0
    MAX_TOTAL = 4
    MAX_PER_LEVEL = 2

    def __init__(self, T, seed, workdir):
        rng = random.Random(seed)
        sites = [("chain3", T.chain3()), ("diamond", T.diamond())]
        rng.shuffle(sites)
        self.requests = []
        self.sizes = {"algebras": len(sites), "tsets": 0, "quasi": 0,
                      "sheaves": 0}
        for label, H in sites:
            J = T.territory_topology(H)
            pool = [P for P in T.sheaf_pool(H, J, self.MAX_TOTAL)
                    if max(P.n(p) for p in H.elements()) <= self.MAX_PER_LEVEL]
            rng.shuffle(pool)
            self.sizes["sheaves"] += len(pool)
            self.requests.append((
                f"check_topos_axioms {label}",
                lambda pool=pool, J=J: T.topos.check_topos_axioms(pool, J),
            ))

    def answer(self, key, report):
        bad = [r for r in report.rows if not r[2]]
        return f"FAIL {bad[0][0]} {bad[0][1]}" if bad else len(report.rows)


class Files:
    """In-process CLI requests over structure files saved at set-up.

    Files: every algebra with at most 4 elements plus the named diamond;
    over each, the T-sets and the further quasi-T-sets (not necessarily
    separated, postulate not required, empty included) with carrier <= 3,
    and the presheaves with at most 3 sections in total.  Commands:
    validate on every file, omega on algebras, atoms on T-sets, and
    sheafify -o (which writes a file) on T-sets and presheaves.  All use
    --format json so each digest covers witnesses and notes.
    """

    cap_s = 5.0
    MAX_CARRIER = 3
    MAX_TOTAL = 3

    def __init__(self, T, seed, workdir: Path):
        self.T = T
        self.workdir = workdir
        algebras = T.algebra_pool(4) + [("diamond", T.diamond())]
        jobs: list[tuple[str, str]] = []   # (command, file name)
        self.sizes = {"algebras": 0, "tsets": 0, "quasi": 0,
                      "presheaves": 0}

        def save(name: str, obj, commands: tuple[str, ...], kind: str):
            T.save_structure(workdir / name, obj)
            self.sizes[kind] += 1
            jobs.extend((cmd, name) for cmd in commands)

        for label, H in algebras:
            save(f"{label}.json", H, ("validate", "omega"), "algebras")
            tsets = T.tset_pool(H, self.MAX_CARRIER)
            known = {t.id_table for t in tsets}
            quasi = [t for t in T.tset_pool(
                H, self.MAX_CARRIER, require_separated=False,
                require_postulate=False, include_empty=True)
                if t.id_table not in known]
            presheaves = T.sheaf_pool(H, T.territory_topology(H),
                                      self.MAX_TOTAL, require_sheaf=False)
            tset_cmds = ("validate", "atoms", "sheafify")
            for j, t in enumerate(tsets):
                save(f"{label}.T{j}.json", t, tset_cmds, "tsets")
            for j, t in enumerate(quasi):
                save(f"{label}.Q{j}.json", t, tset_cmds, "quasi")
            for j, P in enumerate(presheaves):
                save(f"{label}.P{j}.json", P, ("validate", "sheafify"),
                     "presheaves")
        random.Random(seed).shuffle(jobs)
        self.requests = [(f"{cmd} {name}", self._thunk(cmd, name))
                         for cmd, name in jobs]

    def _out(self, name: str) -> Path:
        return self.workdir / ("out." + name)

    def _thunk(self, cmd: str, name: str):
        argv = [cmd, str(self.workdir / name), "--format", "json"]
        if cmd == "sheafify":
            argv += ["-o", str(self._out(name))]

        def request():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                code = self.T.cli.run_command(argv)
            return code, buf.getvalue()
        return request

    def answer(self, key, result) -> str:
        code, text = result
        digest = hashlib.sha256(
            text.replace(str(self.workdir), "$WORK").encode())
        cmd, name = key.split(" ", 1)
        if cmd == "sheafify":
            digest.update(self._out(name).read_bytes())
        return f"{code}:{digest.hexdigest()[:16]}"


CLASSES = {"census": Census, "carriers": Carriers, "topos": Topos,
           "files": Files}


# ------------------------------------------------------------- measuring

def run_pass(work, deadline: float, tracer: Tracer | None):
    """One sweep over the requests; returns (wall seconds, results).

    Each result is (key, value, error, latency); verification is left to
    the caller so it stays outside the timed interval.
    """
    clock = time.perf_counter
    results = []
    t0 = clock()
    for key, request in work.requests:
        start = clock()
        remaining = deadline - start
        if remaining <= 0:
            results.append((key, None, "timed out (run limit)", 0.0))
            continue
        if tracer is not None:
            tracer.begin_request()
        signal.setitimer(signal.ITIMER_REAL, min(work.cap_s, remaining))
        try:
            value, error = request(), None
        except RequestTimeout:
            value, error = None, f"timed out (cap {work.cap_s:g} s)"
        except Exception as e:  # a failed request is counted, not fatal
            value, error = None, f"raised {type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append((key, value, error, clock() - start))
    return clock() - t0, results


def verify(work, results, expected: dict) -> list[str]:
    """Failures among one pass's results, as printable lines."""
    failures = []
    for key, value, error, _ in results:
        if error is None:
            want = expected.get(key, "<no known answer>")
            got = work.answer(key, value)
            if got != want:
                error = f"answer {got!r}, expected {want!r}"
        if error is not None:
            failures.append(f"{key}: {error}")
    return failures


def tail_percentile(samples: int) -> int:
    """The percentile reported as request_p99_ms.

    p99 needs ten samples beyond it, so at least 1 000 requests in the
    run (files).  Census, carriers and topos send a few dozen requests a
    run at most; there it reports the median.
    """
    return 99 if samples >= 1000 else 50


def percentile(latencies: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def measure(name: str, seed: int, seconds: float, trace: bool,
            expected: dict) -> tuple[dict, int, list[str], dict]:
    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    setups = []
    try:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            T = import_package()
            work = CLASSES[name](T, seed, workdir)
            setups.append(time.perf_counter() - t0)

        untraced: list[float] = []
        traced: list[float] = []
        latencies: list[float] = []
        failures: list[str] = []
        attempted = 0
        tracer = Tracer() if trace else None
        phases = [(untraced, None, seconds / 2 if trace else seconds)]
        if trace:
            phases.append((traced, tracer, seconds))
        for times, phase_tracer, until in phases:
            context = phase_tracer or contextlib.nullcontext()
            while not times or time.perf_counter() - run_start < until:
                with context:
                    wall, results = run_pass(work, deadline, phase_tracer)
                if phase_tracer is not None:
                    phase_tracer.collect()
                times.append(wall)
                latencies += [r[3] for r in results]
                attempted += len(results)
                failures += verify(work, results, expected)
        sizes = work.sizes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if trace:
        traced_s = statistics.fmean(traced)
        metrics = tracer.metrics(len(traced), traced_s)
        metrics["trace.verdict_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (
            traced_s - statistics.median(untraced), "s")
    else:
        metrics = {
            "verdict_s": (statistics.median(untraced), "s"),
            "request_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "request_p99_ms": (percentile(
                latencies, tail_percentile(len(latencies))) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    details = {
        "workload": name, "seed": seed, "trace": int(trace),
        "pass_s": [round(t, 4) for t in untraced + traced],
        "setup_runs_s": [round(t, 4) for t in setups],
        "requests_per_pass": len(work.requests),
        "latency_samples": len(latencies),
        "tail_percentile": tail_percentile(len(latencies)),
        "src_lines": src_lines(), "pool_sizes": sizes,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    return metrics, attempted, failures, details


def report(metrics: dict, attempted: int, failures: list[str],
           details: dict, trace: bool) -> None:
    for line in failures[:20]:
        print(f"FAILED {line}")
    if len(failures) > 20:
        print(f"FAILED ... {len(failures) - 20} more")
    print("details " + json.dumps(details, sort_keys=True))
    if not trace:
        print(f"metric fail_share {len(failures) / attempted:.6g} share")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    if trace:
        by_module = sorted(
            ((value, name) for name, (value, _) in metrics.items()
             if name.count(".") == 1 and name.endswith(".self_s")),
            reverse=True)
        print("self time by module: " + ", ".join(
            f"{name[:-7]} {value:.3f} s" for value, name in by_module))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def record() -> None:
    """Rewrite bench/expected.json from one pass of every workload."""
    T = import_package()
    answers: dict[str, object] = {}
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        work = CLASSES[name](T, 0, workdir)
        try:
            _, results = run_pass(work, float("inf"), None)
            for key, value, error, _ in results:
                if error is not None:
                    raise SystemExit(f"cannot record {key}: {error}")
                answers[key] = work.answer(key, value)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    EXPECTED.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(answers)} answers in {EXPECTED}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "tsettopos" / "__init__.py").is_file():
        print(f"error: no tsettopos sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    expected = json.loads(EXPECTED.read_text())
    metrics, attempted, failures, details = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), expected)
    report(metrics, attempted, failures, details, bool(args.trace))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
