"""Benchmark and diagnostics command line.

Subcommands: solve, compare, invariance, sparse-demo, list-problems.
All randomness flows from one 64-bit seed (flag, else BREGMANQN_SEED,
else 0) which is recorded in every output file; wall time is reported on
stderr only so written artifacts stay byte-identical across runs.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from .errors import BregmanQNError, InvalidParameter
from .pdlinalg import PDMatrix
from .problems import get_problem, list_problems
from .solver import SolverConfig, invariance_check, minimize
from .sparse import SparseUpdateFamily, banded_pattern, load_pattern, sparse_update
from .updates import SecantPair, UpdateFamily

__all__ = ["export_trace", "run_command", "main"]

TRACE_COLUMNS = ("iter", "f", "grad_norm", "alpha", "det_B", "sTy", "skipped")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_value(v):
    # JSON has no Infinity or NaN, so a non-finite float is written as null
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _write_table(path, columns, rows, fmt, single=False):
    """Write rows under columns as csv, or as json records.

    single writes the one row as a json object rather than a list of one;
    non-finite floats go to json as null, and numpy scalars are written as
    the Python scalars they hold.
    """
    if fmt not in ("csv", "json"):
        raise InvalidParameter(f"format must be csv or json, got {fmt!r}")
    rows = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]
    try:
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
            data = buf.getvalue()
        else:
            records = [
                {c: _json_value(v) for c, v in zip(columns, row)} for row in rows
            ]
            data = json.dumps(records[0] if single else records, indent=2,
                              allow_nan=False) + "\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
    except OSError as exc:
        raise BregmanQNError(f"cannot write {path}: {exc}")


def export_trace(trace, path, fmt):
    """Write a solver trace or a divergence sequence to csv or json.

    Solver traces carry the iter/f/grad_norm/alpha/det_B/sTy/skipped
    columns, iterate 0 included with empty alpha and sTy; a bare
    sequence is written as (iter, divergence) rows.
    """
    if hasattr(trace, "records"):
        columns = TRACE_COLUMNS
        rows = [
            (r.k, r.f, r.grad_norm, r.alpha, r.det_b, r.sty, r.skipped)
            for r in trace.records
        ]
    else:
        columns = ("iter", "divergence")
        rows = [(k, float(v)) for k, v in enumerate(trace)]
    _write_table(path, columns, rows, fmt)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    # abbreviation off so explicit flags can be recognized verbatim in argv
    p = _Parser(prog="bregmanqn", description=__doc__.splitlines()[0],
                allow_abbrev=False)
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    def common(sp, problem=True):
        if problem:
            sp.add_argument("--problem", required=False, default="rosenbrock")
        sp.add_argument("--family", default="bfgs",
                        help="update family, potential inline: vbfgs:power:gamma=0.25")
        sp.add_argument("--tol", type=float, default=1e-6)
        sp.add_argument("--max-iter", type=int, default=200)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--config", default=None,
                        help="key=value file; command-line flags win")

    sp = sub.add_parser("solve", allow_abbrev=False, help="run one problem/family and write the trace")
    common(sp)
    sp = sub.add_parser("compare", allow_abbrev=False, help="run a family grid on one problem")
    common(sp)
    sp.add_argument("--families", default="bfgs,vbfgs:log",
                    help="comma-separated family strings")
    sp = sub.add_parser("invariance", allow_abbrev=False, help="compare a run against its affine image")
    common(sp)
    sp.add_argument("--transform", choices=("sl", "gl"), default="sl",
                    help="seeded random transform: det 1 (sl) or det 2 (gl)")
    sp = sub.add_parser("sparse-demo", allow_abbrev=False, help="run sparse update chains on a pattern")
    common(sp, problem=False)
    sp.add_argument("--pattern", default=None, help="pattern file; default tridiagonal n=10")
    sp.add_argument("--algorithm", type=int, choices=(1, 2), default=2)
    sp.add_argument("--T", type=int, default=150)
    sub.add_parser("list-problems", allow_abbrev=False, help="print the problem catalog")
    return p


def _apply_config_file(parser, args, argv):
    """Overlay key=value file entries under explicit command-line flags.

    Each entry is parsed as the flag --key=value of the same subcommand,
    so it gets the flag's type and choices.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {args.config}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise _UsageError(f"config line {lineno} is not key=value: {raw!r}")
        if key == "config":
            raise _UsageError(f"config line {lineno}: a config file cannot name another")
        option = "--" + key
        try:
            parsed = parser.parse_args([args.command, f"{option}={value}"])
        except _UsageError as exc:
            raise _UsageError(f"config line {lineno}: {exc}")
        # flags explicitly given on the command line take precedence;
        # abbreviation is disabled so the option string appears verbatim
        if not any(tok == option or tok.startswith(option + "=") for tok in argv):
            attr = key.replace("-", "_")
            setattr(args, attr, getattr(parsed, attr))
    return args


def _resolve_seed(args):
    if args.seed is not None:
        seed, source = int(args.seed), "--seed"
    else:
        env = os.environ.get("BREGMANQN_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "BREGMANQN_SEED"
        except ValueError:
            raise _UsageError(f"BREGMANQN_SEED is not an integer: {env!r}")
    if seed < 0:
        raise _UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _solve(spec, family, tol, max_iter):
    """Run family on spec from B0 = I; (trace, wall seconds)."""
    config = SolverConfig(family, grad_tol=tol, max_iter=max_iter)
    t0 = time.perf_counter()
    trace = minimize(spec.objective, spec.start, PDMatrix.identity(spec.n), config)
    return trace, time.perf_counter() - t0


def _cmd_solve(args):
    seed = _resolve_seed(args)
    spec = get_problem(args.problem, seed=seed)
    family = UpdateFamily.from_string(args.family)
    trace, wall = _solve(spec, family, args.tol, args.max_iter)
    out = args.out or f"trace.{args.format}"
    export_trace(trace, out, args.format)
    print(
        f"{spec.name} {family.label()}: {trace.status} "
        f"iters={trace.iterations} nfev={trace.nfev} ngev={trace.ngev} "
        f"f={trace.final.f:.6e} |grad|={trace.final.grad_norm:.3e} "
        f"seed={seed} -> {out}"
    )
    print(f"wall time {wall:.3f}s", file=sys.stderr)
    return 0 if trace.status == "Converged" else 2


def _cmd_compare(args):
    seed = _resolve_seed(args)
    names = [f.strip() for f in args.families.split(",") if f.strip()]
    if not names:
        raise _UsageError("no families given")
    spec = get_problem(args.problem, seed=seed)
    families = [UpdateFamily.from_string(name) for name in names]
    # one solve per distinct label; a label listed twice gives two rows
    traces = {}
    for family in families:
        if family.label() not in traces:
            traces[family.label()], _ = _solve(spec, family, args.tol, args.max_iter)
    rows = [(label, traces[label]) for label in sorted(f.label() for f in families)]
    ref_x = rows[0][1].final.x
    out = args.out or f"compare.{args.format}"
    columns = (
        "problem", "family", "status", "iterations", "final_f",
        "final_grad_norm", "x_dev_vs_first", "seed",
    )
    table = [
        (
            spec.name,
            label,
            trace.status,
            trace.iterations,
            trace.final.f,
            trace.final.grad_norm,
            float(np.abs(trace.final.x - ref_x).max()),
            seed,
        )
        for label, trace in rows
    ]
    _write_table(out, columns, table, args.format)
    for row in table:
        print(
            f"{row[0]} {row[1]}: {row[2]} iters={row[3]} f={row[4]:.6e} "
            f"|grad|={row[5]:.3e}"
        )
    print(f"summary -> {out}")
    return 0 if all(trace.status == "Converged" for _, trace in rows) else 2


def _seeded_transform(n, seed, det_target):
    rng = np.random.default_rng(seed + 0x5EED)
    M = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    d = np.linalg.det(M)
    if abs(d) < 1e-8:
        M += np.eye(n)
        d = np.linalg.det(M)
    M *= np.sign(d)
    d = abs(d)
    return M * (det_target / d) ** (1.0 / n)


def _cmd_invariance(args):
    seed = _resolve_seed(args)
    spec = get_problem(args.problem, seed=seed)
    family = UpdateFamily.from_string(args.family)
    config = SolverConfig(family=family, grad_tol=args.tol, max_iter=args.max_iter)
    det_target = 1.0 if args.transform == "sl" else 2.0
    T = _seeded_transform(spec.n, seed, det_target)
    report = invariance_check(
        spec.objective, spec.start, PDMatrix.identity(spec.n), T, config,
        k_max=min(args.max_iter, 20), tol=1e-6,
    )
    verdict = "invariant" if report.invariant else "NOT invariant"
    print(
        f"{spec.name} {family.label()} det(T)={det_target:g}: {verdict} "
        f"(x_dev={report.x_dev:.3e}, b_dev={report.b_dev:.3e}, k={report.k_used})"
    )
    if args.out:
        payload = {
            "problem": spec.name,
            "family": family.label(),
            "det_T": det_target,
            "x_dev": report.x_dev,
            "b_dev": report.b_dev,
            "k_used": report.k_used,
            "tol": report.tol,
            "invariant": report.invariant,
            "seed": seed,
        }
        _write_table(
            args.out, list(payload), [list(payload.values())], args.format, single=True
        )
    return 0 if report.invariant else 2


def _cmd_sparse_demo(args):
    seed = _resolve_seed(args)
    if args.pattern is not None:
        pattern = load_pattern(args.pattern)
    else:
        pattern = banded_pattern(10, 1)
    n = pattern.n
    family = SparseUpdateFamily(
        UpdateFamily.from_string(args.family), pattern, args.algorithm, args.T
    )

    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, n))
    feasible = pattern.restrict(base @ base.T + n * np.eye(n))
    s = rng.standard_normal(n)
    y = feasible @ s
    B0 = PDMatrix.identity(n)
    result = sparse_update(B0, SecantPair(s, y), family)
    out = args.out or f"sparse-trace.{args.format}"
    export_trace(result.trace, out, args.format)
    slack = np.diff(result.trace) <= 1e-9 if len(result.trace) > 1 else np.array([True])
    final = float(result.trace[-1])
    print(
        f"pattern n={n} algorithm={args.algorithm} T={args.T} "
        f"potential={family.potential.label()} trace={result.trace_kind} "
        f"final={final:.3e} monotone={bool(slack.all())} seed={seed} -> {out}"
    )
    return 0 if final <= args.tol else 2


def _cmd_list_problems(_args):
    for name, desc in list_problems():
        print(f"{name:32s} {desc}")
    return 0


def run_command(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    if args.command is None:
        print("error: a subcommand is required (see --help)", file=sys.stderr)
        return 1
    handlers = {
        "solve": _cmd_solve,
        "compare": _cmd_compare,
        "invariance": _cmd_invariance,
        "sparse-demo": _cmd_sparse_demo,
        "list-problems": _cmd_list_problems,
    }
    try:
        if getattr(args, "config", None) is not None:
            args = _apply_config_file(parser, args, argv)
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BregmanQNError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
