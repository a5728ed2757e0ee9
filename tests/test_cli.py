"""Command line behavior: exit codes, file schemas, determinism, config."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import bregmanqn
from bregmanqn import (
    InvalidParameter,
    IterationRecord,
    RootNotBracketed,
    SolverConfig,
    SolverTrace,
    UpdateFamily,
    get_problem,
    load_pattern,
    minimize,
)
from bregmanqn.cli import TRACE_COLUMNS, export_trace, run_command


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_writes_csv_trace(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = run_command(["solve", "--problem", "rosenbrock", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "Converged" in captured.out
    assert "seed=0" in captured.out
    assert "wall time" in captured.err
    # the summary line carries the run's evaluation counts after iters=
    spec = get_problem("rosenbrock")
    trace = minimize(spec.objective, spec.start,
                     config=SolverConfig("bfgs", grad_tol=1e-6))
    assert (f"iters={trace.iterations} nfev={trace.nfev} ngev={trace.ngev} "
            in captured.out)
    rows = read_csv(out)
    assert tuple(rows[0]) == TRACE_COLUMNS
    # iterate 0 has no step length and no curvature product
    assert rows[1][0] == "0"
    assert rows[1][3] == "" and rows[1][5] == ""
    assert rows[1][6] == "false"
    assert rows[2][3] != ""
    assert float(rows[-1][2]) <= 1e-6


def test_solve_json_schema(tmp_path):
    out = tmp_path / "t.json"
    rc = run_command(["solve", "--out", str(out), "--format", "json"])
    assert rc == 0
    data = json.loads(out.read_text())
    assert list(data[0]) == list(TRACE_COLUMNS)
    assert data[0]["alpha"] is None and data[0]["sTy"] is None
    assert data[0]["skipped"] is False
    assert data[1]["alpha"] is not None


def test_json_trace_writes_non_finite_values_as_null(tmp_path):
    # det B overflows to inf once log det B > 709; JSON has no Infinity
    trace = minimize(get_problem("rosenbrock").objective, np.array([-1.2, 1.0]),
                     config=SolverConfig("bfgs", max_iter=2))
    trace.records[1].det_b = float("inf")
    trace.records[2].det_b = float("nan")
    out = tmp_path / "t.json"
    export_trace(trace, out, "json")

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(out.read_text(), parse_constant=reject)
    assert [r["det_B"] for r in data[1:]] == [None, None]
    assert data[0]["det_B"] == trace.records[0].det_b
    csv_out = tmp_path / "t.csv"
    export_trace(trace, csv_out, "csv")
    assert [r[4] for r in read_csv(csv_out)[2:]] == ["inf", "nan"]


def test_export_trace_writes_numpy_scalars_as_python_scalars(tmp_path):
    rows = [(0, 1.5, 2.0, None, 3.0, None, False),
            (1, 0.25, 1e-3, 0.5, float("nan"), 2.0, True)]

    def trace(cast):
        records = [IterationRecord(cast(k), np.zeros(2), *map(cast, rest))
                   for k, *rest in rows]
        return SolverTrace(records=records, status="MaxIter")

    for fmt in ("csv", "json"):
        plain, numpy = tmp_path / f"plain.{fmt}", tmp_path / f"numpy.{fmt}"
        export_trace(trace(lambda v: v), plain, fmt)
        # np.array(v)[()] is the numpy scalar of v (None stays None)
        export_trace(trace(lambda v: np.array(v)[()]), numpy, fmt)
        assert numpy.read_bytes() == plain.read_bytes(), fmt


def test_solve_exit_codes(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run_command(["solve", "--max-iter", "2", "--out", str(out)]) == 2
    assert run_command(["solve", "--problem", "nope", "--out", str(out)]) == 1
    assert run_command(["solve", "--problem", "quadratic:10:4:junk", "--out", str(out)]) == 1
    assert run_command(["solve", "--family", "what", "--out", str(out)]) == 1
    capsys.readouterr()
    missing = tmp_path / "missing" / "t.csv"
    assert run_command(["solve", "--out", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")
    assert run_command(["compare", "--families", ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: no families given\n"


def test_solve_past_the_old_determinant_cap(tmp_path, capsys):
    # log det B passes 700 near iteration 200; the scaling solve's bracket
    # grows past it, so the run ends on its budget and writes every row
    out = tmp_path / "t.csv"
    rc = run_command(["solve", "--problem", "broyden-tridiagonal:200",
                      "--family", "vbfgs:bounded:c=0.5", "--out", str(out)])
    assert rc == 2
    assert "MaxIter iters=200" in capsys.readouterr().out
    rows = read_csv(out)
    assert len(rows) == 202
    assert float(rows[-1][4]) > np.exp(700.0)


def test_update_failure_exits_2_with_trace(tmp_path, capsys):
    out = tmp_path / "t.csv"
    with mock.patch.object(UpdateFamily, "apply", side_effect=RootNotBracketed("injected")):
        rc = run_command(["solve", "--out", str(out)])
    assert rc == 2
    assert "UpdateFail iters=0" in capsys.readouterr().out
    assert len(read_csv(out)) == 2


def test_parser_error_paths(capsys):
    assert run_command([]) == 1
    assert capsys.readouterr().err == "error: a subcommand is required (see --help)\n"
    assert run_command(["frobnicate"]) == 1
    assert run_command(["--help"]) == 0
    assert run_command(["sparse-demo", "--help"]) == 0
    assert run_command(["solve", "--format", "xml"]) == 1


def test_sparse_demo_takes_no_max_iter(tmp_path, capsys):
    # sparse-demo runs T rounds and never read --max-iter
    out = tmp_path / "sp.csv"
    assert run_command(["sparse-demo", "--max-iter", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: --max-iter")
    assert err.count("\n") == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-iter = 5\n")
    assert run_command(["sparse-demo", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config line 1: unrecognized arguments: --max-iter=5")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_sparse_demo_tol_follows_the_argument_rule(tmp_path, capsys, tol):
    # a NaN or negative --tol ran the whole chain and exited 2
    out = tmp_path / "sp.csv"
    assert run_command(["sparse-demo", "--tol", tol, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tol must be a finite real number >= 0, got ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["solve", "--problem", "quadratic:30:4", "--seed", "5"]
    assert run_command(argv + ["--out", str(a)]) == 0
    assert run_command(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert run_command(["solve", "--problem", "quadratic:30:4", "--seed", "6",
                        "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.csv"
    monkeypatch.setenv("BREGMANQN_SEED", "7")
    assert run_command(["solve", "--out", str(out)]) == 0
    assert "seed=7" in capsys.readouterr().out
    # explicit flag wins over the environment
    assert run_command(["solve", "--seed", "3", "--out", str(out)]) == 0
    assert "seed=3" in capsys.readouterr().out
    monkeypatch.setenv("BREGMANQN_SEED", "pi")
    assert run_command(["solve", "--out", str(out)]) == 1


def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.csv"
    for command in (["solve", "--problem", "quadratic:10:3"],
                    ["invariance", "--problem", "quadratic:10:3"],
                    ["sparse-demo"]):
        argv = command + ["--out", str(out)]
        assert run_command(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: --seed must be a non-negative integer, got -1\n"
        )
        monkeypatch.setenv("BREGMANQN_SEED", "-3")
        assert run_command(argv) == 1
        assert capsys.readouterr().err == (
            "error: BREGMANQN_SEED must be a non-negative integer, got -3\n"
        )
        monkeypatch.delenv("BREGMANQN_SEED")
    assert not out.exists()


def test_config_file_under_explicit_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for the sweep\n"
        "problem = quadratic:10:3\n"
        "family = vbfgs:log\n"
        "seed = 9\n"
    )
    out = tmp_path / "t.csv"
    rc = run_command([
        "solve", "--config", str(cfg), "--problem", "rosenbrock",
        "--out", str(out),
    ])
    assert rc == 0
    line = capsys.readouterr().out
    # problem came from the command line, family and seed from the file
    assert line.startswith("rosenbrock vbfgs:log:")
    assert "seed=9" in line


def test_config_file_keeps_its_last_entry_and_the_command_line_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\nfamily = dfp\nseed = 5\n")
    out = tmp_path / "t.csv"
    base = ["solve", "--config", str(cfg), "--out", str(out)]
    assert run_command(base) == 0
    line = capsys.readouterr().out
    assert line.startswith("rosenbrock dfp:") and "seed=5" in line
    # either spelling of a flag overrides the file, before or after --config
    for argv in (base + ["--seed=6"], ["solve", "--seed", "6"] + base[1:]):
        assert run_command(argv) == 0
        line = capsys.readouterr().out
        assert line.startswith("rosenbrock dfp:") and "seed=6" in line


def test_config_file_rejections(tmp_path, capsys):
    out = tmp_path / "t.csv"
    missing = tmp_path / "nope.cfg"
    assert run_command(["solve", "--config", str(missing), "--out", str(out)]) == 1

    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("colour = red\n")
    assert run_command(["solve", "--config", str(bad_key), "--out", str(out)]) == 1

    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("tol\n")
    assert run_command(["solve", "--config", str(bad_line), "--out", str(out)]) == 1

    bad_value = tmp_path / "c.cfg"
    bad_value.write_text("max-iter = soon\n")
    assert run_command(["solve", "--config", str(bad_value), "--out", str(out)]) == 1

    # families is a compare flag, not a solve flag
    misplaced = tmp_path / "d.cfg"
    misplaced.write_text("families = bfgs,dfp\n")
    assert run_command(["solve", "--config", str(misplaced), "--out", str(out)]) == 1
    assert run_command(["compare", "--config", str(misplaced),
                        "--out", str(tmp_path / "e.csv")]) == 0

    # file values meet the flag's choices: banana used to run the gl transform
    bad_choice = tmp_path / "f.cfg"
    bad_choice.write_text("transform = banana\n")
    assert run_command(["invariance", "--config", str(bad_choice), "--max-iter", "3"]) == 1
    assert run_command(["invariance", "--transform", "banana", "--max-iter", "3"]) == 1

    # a config file cannot name another one
    nested = tmp_path / "g.cfg"
    nested.write_text(f"config = {bad_key}\n")
    assert run_command(["solve", "--config", str(nested), "--out", str(out)]) == 1

    # bytes that are not UTF-8 end in one usage error, not a traceback
    binary = tmp_path / "h.cfg"
    binary.write_bytes(b"tol = 1e-3\n\xff\xfe\x00\x81\n")
    capsys.readouterr()
    assert run_command(["solve", "--config", str(binary), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config file")


def test_compare_summary(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run_command([
        "compare", "--families", "vbfgs:log,bfgs,dfp", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == [
        "problem", "family", "status", "iterations", "final_f",
        "final_grad_norm", "x_dev_vs_first", "seed",
    ]
    assert [r[1] for r in rows[1:]] == ["bfgs", "dfp", "vbfgs:log"]
    for r in rows[1:]:
        assert r[2] == "Converged"
    # each row's stdout line carries its run's evaluation counts after
    # iters=, as solve's does
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[3] == f"summary -> {out}"
    spec = get_problem("rosenbrock")
    for line, row in zip(lines, rows[1:]):
        trace = minimize(spec.objective, spec.start,
                         config=SolverConfig(row[1], grad_tol=1e-6))
        assert line.startswith(
            f"rosenbrock {row[1]}: Converged iters={row[3]} "
            f"nfev={trace.nfev} ngev={trace.ngev} f="), line


@pytest.mark.parametrize("families, solves", [
    ("dfp", 1),
    ("bfgs,vbfgs:log", 2),
    ("vbfgs:log,bfgs,dfp", 3),
    ("dfp,bfgs,dfp", 2),
])
def test_compare_solves_each_family_once(tmp_path, families, solves):
    # one solve per distinct label, and nothing else; a family listed
    # twice is solved once but still gives two rows
    out = tmp_path / "cmp.csv"
    with mock.patch("bregmanqn.cli.minimize", wraps=minimize) as spy:
        assert run_command(["compare", "--families", families, "--out", str(out)]) == 0
    assert spy.call_count == solves
    rows = read_csv(out)[1:]
    assert [r[1] for r in rows] == sorted(families.split(","))
    if families.count("dfp") == 2:
        assert rows[1] == rows[2]


def test_invariance_command(tmp_path, capsys):
    base = ["invariance", "--problem", "quadratic:10:3", "--tol", "1e-8"]
    assert run_command(base + ["--family", "vbfgs:bounded:c=0.5",
                               "--transform", "sl"]) == 0
    assert "invariant" in capsys.readouterr().out
    assert run_command(base + ["--family", "vbfgs:bounded:c=0.5",
                               "--transform", "gl"]) == 2
    assert "NOT invariant" in capsys.readouterr().out
    out = tmp_path / "inv.json"
    rc = run_command(base + ["--family", "vbfgs:power:gamma=0.2",
                             "--transform", "gl", "--format", "json",
                             "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["invariant"] is True
    assert payload["det_T"] == 2.0
    assert payload["x_dev"] <= 1e-6


def test_sparse_demo_default_pattern(tmp_path, capsys):
    out = tmp_path / "sp.csv"
    rc = run_command(["sparse-demo", "--out", str(out)])
    assert rc == 0
    assert "monotone=True" in capsys.readouterr().out
    rows = read_csv(out)
    assert rows[0] == ["iter", "divergence"]
    vals = np.array([float(r[1]) for r in rows[1:]])
    assert np.all(np.diff(vals) <= 1e-9)
    assert vals[-1] <= 1e-6


def test_sparse_demo_pattern_file(tmp_path, capsys):
    pat = tmp_path / "band.pat"
    pat.write_text("5\n1 2\n2 3\n3 4\n4 5\n")
    out = tmp_path / "sp.csv"
    rc = run_command([
        "sparse-demo", "--pattern", str(pat), "--algorithm", "1",
        "--T", "150", "--out", str(out),
    ])
    assert rc == 0
    assert run_command(["sparse-demo", "--pattern",
                        str(tmp_path / "missing.pat"), "--out", str(out)]) == 1
    bad = tmp_path / "bad.pat"
    bad.write_text("3\nx y\n")
    assert run_command(["sparse-demo", "--pattern", str(bad),
                        "--out", str(out)]) == 1
    # bytes that are not UTF-8 end in one error line, not a traceback
    binary = tmp_path / "binary.pat"
    binary.write_bytes(b"3\n1 2\n\xff\xfe\x00\x81\n")
    with pytest.raises(InvalidParameter):
        load_pattern(binary)
    capsys.readouterr()
    assert run_command(["sparse-demo", "--pattern", str(binary),
                        "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: pattern file")
    # only bfgs and vbfgs families run sparse; others are not reinterpreted
    for family in ("selfscale", "dfp", "vdfp:log"):
        assert run_command(["sparse-demo", "--pattern", str(pat),
                            "--family", family, "--out", str(out)]) == 1


def test_list_problems(capsys):
    assert run_command(["list-problems"]) == 0
    text = capsys.readouterr().out
    assert "rosenbrock" in text
    assert "quadratic" in text


def src_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(bregmanqn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    # python -m bregmanqn.cli runs the same command line as the script
    env = src_env()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "bregmanqn.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    listed = run("list-problems")
    assert listed.returncode == 0
    assert "rosenbrock" in listed.stdout
    assert "quadratic" in listed.stdout
    missing = run()
    assert missing.returncode == 1
    assert "subcommand is required" in missing.stderr


IMPORT_FOOTPRINT = """
import sys
import bregmanqn
from bregmanqn import LineSearchParams, SolverConfig, get_problem, minimize

spec = get_problem("rosenbrock")
wolfe = minimize(spec.objective, spec.start, config=SolverConfig("bfgs"))
print(wolfe.status, "scipy.optimize" in sys.modules)
exact = minimize(spec.objective, spec.start,
                 config=SolverConfig("bfgs", line_search=LineSearchParams(method="exact")))
print(exact.status, "scipy.optimize" in sys.modules)
"""


def test_wolfe_solve_leaves_scipy_optimize_unloaded():
    # only the exact line search needs scipy.optimize, and imports it on use
    done = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["Converged False", "Converged True"]


def test_export_trace_rejects_unknown_format(tmp_path):
    trace = minimize(get_problem("rosenbrock").objective, np.array([-1.2, 1.0]),
                     config=SolverConfig("bfgs", max_iter=1))
    with pytest.raises(InvalidParameter):
        export_trace(trace, str(tmp_path / "x.xml"), "xml")


def test_export_trace_divergence_json(tmp_path):
    # export_trace writes solver traces only; sparse-demo writes its
    # (iter, divergence) rows itself, also when five rounds miss --tol
    path = tmp_path / "d.json"
    assert run_command(["sparse-demo", "--algorithm", "1", "--T", "5",
                        "--format", "json", "--out", str(path)]) == 2
    data = json.loads(path.read_text())
    assert [list(row) for row in data] == [["iter", "divergence"]] * 5
    assert [row["iter"] for row in data] == list(range(5))
    divergences = [row["divergence"] for row in data]
    assert all(type(v) is float for v in divergences)
    assert np.all(np.diff(divergences) <= 1e-9)
