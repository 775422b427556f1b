"""Self-tests of the benchmark: python3 -m pytest bench

They run the benchmark's own command on the fast workloads with a short
--seconds, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, declared", [
    ("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])])
def test_every_metric_prints_with_its_unit(trace, declared):
    proc = bench(ROOT, "--workload", "topos", "--seed", "3",
                 "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    got = result_of(proc)
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in got["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"metric {name} ")
                   and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines()), name
    if trace == "0":
        assert "metric fail_share 0 share" in proc.stdout.splitlines()


@pytest.mark.parametrize("workload, key", [
    ("topos", "check_topos_axioms diamond"),
    ("files", "omega diamond.json"),
])
def test_corrupted_expected_answer_fails_the_run(tmp_path, workload, key):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected_path = tmp_path / "bench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected[key] = "corrupted"
    expected_path.write_text(json.dumps(expected))
    proc = bench(tmp_path, "--workload", workload, "--seconds", "0.1",
                 "--trace", "0")
    assert proc.returncode == 1
    got = result_of(proc)
    assert not got["correct"] and got["failed"] >= 1
    share = next(line for line in proc.stdout.splitlines()
                 if line.startswith("metric fail_share "))
    assert float(share.split()[2]) > 0
    assert f"FAILED {key}: answer" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "census", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _bindings(T) -> dict:
    mods = [m for n, m in sys.modules.items()
            if n == "tsettopos" or n.startswith("tsettopos.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}


def test_tracer_wraps_every_namespace_and_restores_it():
    T = run.import_package()
    before = _bindings(T)
    one = T.terminal_presheaf(T.chain3())
    with Tracer() as tracer:
        # `from .sheaves import hom_presheaf` copies the name into topos
        assert T.topos.hom_presheaf is T.sheaves.hom_presheaf
        assert T.topos.hom_presheaf.__wrapped__ is \
            before[("tsettopos.sheaves", "hom_presheaf")]
        T.hom_presheaf(one, one)
        T.topos.hom_presheaf(one, one)
    tracer.collect()
    assert tracer.calls["sheaves.hom_presheaf"] == 2
    assert tracer.counts["sheaves.hom_presheaf.repeats"] == 1
    after = _bindings(T)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_request_over_its_cap_counts_as_timed_out():
    class Slow:
        cap_s = 0.05
        requests = [("sleep", lambda: time.sleep(1))]

    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        start = time.perf_counter()
        _, results = run.run_pass(Slow(), time.perf_counter() + 10, None)
        assert time.perf_counter() - start < 0.5
    finally:
        signal.signal(signal.SIGALRM, previous)
    [(key, value, error, _)] = results
    assert value is None and error.startswith("timed out")
