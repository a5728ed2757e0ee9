"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bregmanqn as bq  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_cases, recheck, solve  # noqa: E402

# small cases that together reach every traced module, the secant oracle too
PICKS = {
    "dense-small": (
        "rosenbrock bfgs #0",
        "rosenbrock vbfgs:bounded:c=0.5 #0",
        "rosenbrock vdfp:log #0",
    ),
    "sparse-band": ("broyden-tridiagonal:4 vbfgs:bounded:c=0.5 alg2 T=3",),
}


def picked_cases(seed):
    return [
        case
        for workload, labels in PICKS.items()
        for case in build_cases(bq, workload, seed)
        if case.label in labels
    ]


def solve_traced(case, tracer):
    with tracer.installed("bregmanqn", list(run.trace_targets())):
        outcome = solve(bq, case, wrap=tracer.wrap)
    tracer.drain()
    return outcome


def test_tracing_changes_no_result():
    cases = picked_cases(seed=1)
    assert len(cases) == 4
    tracer = Tracer()
    for case in cases:
        plain = solve(bq, case)
        traced = solve_traced(case, tracer)
        assert plain.signature() == traced.signature(), case.label
        assert plain.nfev > 0 and plain.ngev > 0
    assert tracer.absent == []
    assert tracer.stats["solver.minimize"].calls == len(cases)
    assert tracer.stats["problems.value"].calls == sum(solve(bq, c).nfev for c in cases)
    assert tracer.stats["sparse.sparse_secant_oracle"].calls > 0
    assert tracer.counters[run.G_EVALS] > 0


def test_counts_repeat_for_a_seed_and_follow_it():
    def counts(seed):
        return [solve(bq, c).signature() for c in picked_cases(seed)]

    first = counts(seed=3)
    assert counts(seed=3) == first
    assert [s[:4] for s in counts(seed=4)] != [s[:4] for s in first]


def test_every_binding_is_wrapped_and_restored():
    originals = (bq._roots.newton_bisect_log, bq.pdlinalg.cholesky_factorize, bq.PDMatrix.solve)
    with Tracer().installed("bregmanqn", list(run.trace_targets())):
        assert bq.updates.newton_bisect_log is bq.geometry.newton_bisect_log
        assert bq.updates.newton_bisect_log is not originals[0]
        for module in (bq.pdlinalg, bq.sparse, bq.geometry, bq.updates, bq):
            assert module.cholesky_factorize is not originals[1]
        assert bq.sparse.v_bfgs_update is bq.updates.v_bfgs_update
        assert bq.PDMatrix.solve.__wrapped__ is originals[2]
    assert bq.updates.newton_bisect_log is originals[0]
    assert bq.sparse.cholesky_factorize is originals[1]
    assert bq.PDMatrix.solve is originals[2]


def test_missing_function_is_absent():
    tracer = Tracer()
    targets = [
        ("pdlinalg.no_such_function", "pdlinalg", "no_such_function", None),
        ("gone.f", "no_such_module", "f", None),
        ("pdlinalg.PDMatrix.no_such_method", "pdlinalg", "PDMatrix.no_such_method", None),
    ]
    case = picked_cases(seed=1)[0]
    with tracer.installed("bregmanqn", targets):
        outcome = solve(bq, case)
    assert sorted(tracer.absent) == sorted(name for name, *_ in targets)
    assert outcome.converged


def test_recheck_rejects_a_wrong_answer():
    case = picked_cases(seed=1)[0]
    outcome = solve(bq, case)
    assert recheck(case, outcome) is None
    outcome.x = outcome.x + 1e-3
    assert recheck(case, outcome) is not None


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
