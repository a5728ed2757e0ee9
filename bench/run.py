"""Solver benchmark: catalog workloads through bregmanqn.minimize.

    python3 bench/run.py --workload dense-small --seed 1 --seconds 35 --trace 0

One process, one caller, one solve at a time (a closed loop).  The run
solves every case of the workload once, then repeats cases while about
--seconds (counted from the start) allow, and takes each case's fastest
wall time.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs every case untraced and then traced, and prints
per-layer counts and self times from bench/tracer.py.
Every solve is rechecked against the benchmark's own objective.  The last
stdout line is one JSON object; the exit code is 1 if an output check
failed and 2 if the checkout holds no bregmanqn sources.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from setup_probe import REFERENCE_S
from tracer import SpanStats, Tracer, count_first_arg

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set before numpy is first imported; one BLAS thread keeps runs comparable.
# That is why workloads (which imports numpy) is imported inside functions.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 11

# Gated end-to-end metrics (BENCHMARK.json bounds them).  Solve timings are
# printed as well but not gated; bench/README.md says why.
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "converged_frac": "ratio",
    "nfev_per_iter": "evals/iter",
    "ngev_per_iter": "evals/iter",
    "iters_per_solve": "count",
    "peak_rss_mb": "MB",
}

# Functions timed by the tracer, by module.  A span is named
# "<module>.<qualified name>" with the leading underscore dropped.
TRACED = {
    "solver": ("minimize", "wolfe_line_search"),
    "updates": ("bfgs_update", "v_bfgs_update", "dfp_update", "self_scaling_update"),
    "pdlinalg": ("rank_one_update", "cholesky_factorize", "PDMatrix.solve"),
    "_roots": ("newton_bisect_log",),
    "geometry": ("theta_coordinate", "v_bregman_divergence", "solve_neg_theta_det"),
    "sparse": (
        "is_chordal",
        "clique_factorize",
        "theta_v_project_sparse",
        "sparse_update",
        "sparse_secant_oracle",
    ),
}
SPAN_ALIASES = {"solver.wolfe_line_search": "solver.line_search"}
G_EVALS = "roots.newton_bisect_log.g_evals"

PER_LAYER = {  # name -> unit; "<span>.<calls|self_s|failed>" are per pass
    "pdlinalg.rank_one_update.calls": "count",
    "pdlinalg.rank_one_update.self_s": "s",
    "updates.bfgs_update.self_s": "s",
    "updates.v_bfgs_update.self_s": "s",
    "updates.self_scaling_update.self_s": "s",
    "updates.dfp_update.self_s": "s",
    "pdlinalg.cholesky_factorize.calls": "count",
    "pdlinalg.cholesky_factorize.self_s": "s",
    "problems.value.calls": "count",
    "problems.gradient.calls": "count",
    "problems.self_s": "s",
    "solver.line_search.calls": "count",
    "solver.line_search.self_s": "s",
    "solver.line_search.evals_per_call": "evals/call",
    "solver.minimize.self_s": "s",
    "pdlinalg.PDMatrix.solve.self_s": "s",
    "solver.skip_frac": "ratio",
    "roots.newton_bisect_log.calls": "count",
    "roots.newton_bisect_log.self_s": "s",
    "roots.newton_bisect_log.g_evals_per_call": "evals/call",
    "roots.newton_bisect_log.failed": "count",
    "sparse.clique_factorize.calls": "count",
    "sparse.clique_factorize.self_s": "s",
    "sparse.theta_v_project_sparse.self_s": "s",
    "geometry.theta_coordinate.self_s": "s",
    "geometry.solve_neg_theta_det.self_s": "s",
    "geometry.v_bregman_divergence.self_s": "s",
    "sparse.sparse_update.self_s": "s",
    "sparse.is_chordal.self_s": "s",
    "sparse.sparse_secant_oracle.calls": "count",
    "sparse.sparse_secant_oracle.self_s": "s",
    "trace_overhead": "ratio",
}


def trace_targets():
    """(span name, module, qualified name, arg hook) for Tracer.installed."""
    for module, names in TRACED.items():
        for qualname in names:
            span = f"{module.lstrip('_')}.{qualname}"
            span = SPAN_ALIASES.get(span, span)
            hook = count_first_arg(G_EVALS) if module == "_roots" else None
            yield span, module, qualname, hook


# ---------------------------------------------------------------------------
# running the cases


class Run:
    """Outcomes and timings of repeated solves of one workload's cases."""

    def __init__(self, cases):
        self.cases = cases
        self.first = [None] * len(cases)
        self.walls = [[] for _ in cases]
        self.attempted = 0
        self.problems = []  # failed output checks, one line each

    def record(self, index, outcome, expected=None):
        """Keep a solve's time and check its output; expected is the
        signature it must reproduce (default: the case's first outcome)."""
        from workloads import recheck

        case = self.cases[index]
        self.attempted += 1
        self.walls[index].append(outcome.wall)
        if self.first[index] is None:
            self.first[index] = outcome
        if expected is None:
            expected = self.first[index].signature()
        reason = recheck(case, outcome)
        if reason is None and outcome.signature() != expected:
            reason = "outcome differs from an earlier solve of the same input"
        if reason is not None:
            self.problems.append(f"{case.label}: {reason}")

    def wall(self, index):
        # On a shared machine interference only ever adds time, so the
        # fastest repetition is the steadiest estimate of a case's cost.
        return min(self.walls[index])


def run_passes(deadline, one_pass):
    """Repeat whole passes, at least one, while the next is expected to
    end before the deadline."""
    passes = 0
    while True:
        pass_start = perf_counter()
        one_pass()
        passes += 1
        now = perf_counter()
        if now + (now - pass_start) > deadline:
            return passes


def warm_up(bq, cases):
    """One iteration of every case, so lazy imports and first-call set-up
    inside numpy, scipy and the package happen before timing."""
    from workloads import GRAD_TOL, Case, solve

    for case in cases:
        config = bq.SolverConfig(
            case.config.family, grad_tol=GRAD_TOL, max_iter=1, sparsity=case.config.sparsity
        )
        solve(bq, Case(case.label, case.problem, case.x0, config, case.seed))


def measure(bq, cases, deadline):
    """Every case once, then repeats in the same order while the next is
    expected to end before the deadline; each repeat must reproduce its
    case's first outcome exactly."""
    from workloads import solve

    run = Run(cases)
    for i, case in enumerate(cases):
        run.record(i, solve(bq, case))
    i = 0
    while perf_counter() + run.wall(i) <= deadline:
        run.record(i, solve(bq, cases[i]))
        i = (i + 1) % len(cases)
    return run


def measure_traced(bq, cases, deadline):
    """Each case untraced, then traced; the two must agree exactly."""
    from workloads import solve

    plain, traced = Run(cases), Run(cases)
    tracer = Tracer()
    targets = list(trace_targets())

    def one_pass():
        for i, case in enumerate(cases):
            plain.record(i, solve(bq, case))
            with tracer.installed(bq.__name__, targets):
                outcome = solve(bq, case, wrap=tracer.wrap)
            tracer.drain()
            traced.record(i, outcome, expected=plain.first[i].signature())

    # whole passes, so that counts are per pass; the traced solve is
    # checked against the untraced one
    passes = run_passes(deadline, one_pass)
    tracer.absent = sorted(set(tracer.absent))
    return plain, traced, tracer, passes


# ---------------------------------------------------------------------------
# metrics


def solves_with_trace(run):
    """(outcome, time) of the solves that returned a trace."""
    return [(o, run.wall(i)) for i, o in enumerate(run.first) if o.iterations is not None]


def end_to_end(run, setup):
    outs = run.first
    done = solves_with_trace(run)
    iters = sum(o.iterations for o, _ in done)
    return {
        "setup_s": statistics.median(REFERENCE_S * s / ref for s, ref in setup),
        "converged_frac": sum(o.converged for o in outs) / len(outs),
        "nfev_per_iter": sum(o.nfev for o, _ in done) / iters,
        "ngev_per_iter": sum(o.ngev for o, _ in done) / iters,
        "iters_per_solve": iters / len(done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_only(run):
    """Timings and per-solve counts, printed but not gated."""
    outs = run.first
    done = solves_with_trace(run)
    converged = [i for i, o in enumerate(outs) if o.converged]
    samples = sorted(1000.0 * w for i in converged for w in run.walls[i])
    total = sum(run.wall(i) for i in range(len(outs)))
    lines = {
        # every solve weighs the same, however long the seed made it
        "iters_per_s": (
            statistics.geometric_mean(o.iterations / w for o, w in done if o.iterations), "1/s"
        ),
        "solves_per_s": (len(converged) / total, "1/s"),
        "fail_frac": (1.0 - len(converged) / len(outs), "ratio"),
        "nfev_per_solve": (sum(o.nfev for o, _ in done) / len(done), "count"),
        "ngev_per_solve": (sum(o.ngev for o, _ in done) / len(done), "count"),
    }
    if samples:
        lines["solve_ms_p50"] = (statistics.median(samples), f"ms (n={len(samples)})")
    if len(samples) >= 100:
        p90 = statistics.quantiles(samples, n=10)[-1]
        lines["solve_ms_p90"] = (p90, f"ms (n={len(samples)})")
    return lines


def per_layer(plain, traced, tracer, passes):
    def stats(name):
        return tracer.stats.get(name) or SpanStats()

    untraced_s = sum(plain.wall(i) for i in range(len(plain.cases)))
    traced_s = sum(traced.wall(i) for i in range(len(traced.cases)))
    outs = [o for o in traced.first if o.iterations is not None]
    ls_calls = stats("solver.line_search").calls
    ls_evals = sum(
        tracer.child_calls["solver.line_search", f"problems.{f}"] for f in ("value", "gradient")
    )
    roots_calls = stats("roots.newton_bisect_log").calls
    special = {
        "problems.self_s": (stats("problems.value").self_s + stats("problems.gradient").self_s)
        / passes,
        "solver.line_search.evals_per_call": ls_evals / ls_calls if ls_calls else 0.0,
        "solver.skip_frac": sum(o.skipped for o in outs) / max(1, sum(o.iterations for o in outs)),
        "roots.newton_bisect_log.g_evals_per_call": tracer.counters[G_EVALS] / roots_calls
        if roots_calls
        else 0.0,
        "trace_overhead": traced_s / untraced_s - 1.0,
    }
    values = {}
    for name in PER_LAYER:
        if name in special:
            values[name] = special[name]
        else:
            span, stat = name.rsplit(".", 1)
            values[name] = getattr(stats(span), stat) / passes
    return values


# ---------------------------------------------------------------------------
# environment and output


def environment(args):
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {k: os.environ[k] for k in THREAD_ENV},
    }


def print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:44s} {value:14.6g}  {unit}")


def span_summary(tracer, passes):
    print("spans (per pass):")
    total = sum(st.self_s for st in tracer.stats.values())
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        print(
            f"  {name:40s} calls {st.calls / passes:10.1f}  self {st.self_s / passes:9.4f} s"
            f"  {100.0 * st.self_s / total:5.1f}%  raised {st.failed / passes:g}"
        )
    for name in tracer.absent:
        print(f"  {name:40s} absent")


def setup_times(args):
    """(set-up s, reference loop s) from each of several fresh processes."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=120)
        setup, ref = map(float, done.stdout.split()[-2:])
        times.append((setup, ref))
    return times


def parse_args(argv):
    from workloads import WORKLOADS

    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    start = perf_counter()
    os.environ.update(THREAD_ENV)
    args = parse_args(argv)
    if not (SRC / "bregmanqn" / "__init__.py").is_file():
        print(f"bench: no bregmanqn sources under {SRC}", file=sys.stderr)
        return 2
    setup = None if args.trace else setup_times(args)

    sys.path.insert(0, str(SRC))
    import bregmanqn as bq
    from workloads import build_cases

    cases = build_cases(bq, args.workload, args.seed)
    warm_up(bq, cases)
    print("env:", json.dumps(environment(args)))

    deadline = start + args.seconds
    if args.trace:
        plain, traced, tracer, passes = measure_traced(bq, cases, deadline)
        problems = plain.problems + traced.problems
        attempted = plain.attempted + traced.attempted
        values = per_layer(plain, traced, tracer, passes)
        units = PER_LAYER
        print(f"traced {passes} pass(es) of {len(cases)} solves")
        span_summary(tracer, passes)
    else:
        run = measure(bq, cases, deadline)
        problems, attempted = run.problems, run.attempted
        values = end_to_end(run, setup)
        units = END_TO_END
        outcomes = Counter(o.status for o in run.first)
        print(
            f"{len(cases)} solves ({', '.join(f'{k} {v}' for k, v in sorted(outcomes.items()))})"
            f" and {attempted - len(cases)} repeats"
        )
        print_table("not gated:", report_only(run))
        print("setup samples (s):", " ".join(f"{s:.4f}" for s, _ in setup))
        print("reference loop (s):", " ".join(f"{ref:.4f}" for _, ref in setup))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print_table("metrics:", {k: (v["value"], v["unit"]) for k, v in metrics.items()})
    for line in problems:
        print("CHECK FAILED:", line)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
