import numpy as np
import pytest

from bregmanqn import (
    InvalidParameter,
    check_gradient,
    get_problem,
    list_problems,
)


def test_catalog_listing():
    entries = list_problems()
    names = [name for name, _ in entries]
    assert names[0] == "rosenbrock"
    assert any(name.startswith("quadratic") for name in names)
    for name, blurb in entries:
        assert isinstance(blurb, str) and blurb


def test_rosenbrock_values():
    spec = get_problem("rosenbrock")
    assert spec.n == 2
    assert spec.objective.value(np.array([1.0, 1.0])) == 0.0
    assert spec.objective.value(spec.start) == pytest.approx(24.2)
    assert np.allclose(spec.objective.gradient(np.array([1.0, 1.0])), 0.0)
    assert spec.pattern is None


def test_quadratic_parsing_and_seeding():
    spec = get_problem("quadratic:100:6", seed=3)
    assert spec.n == 6
    assert spec.name == "quadratic:100:6"
    again = get_problem("quadratic:100:6", seed=3)
    x = np.arange(6, dtype=float)
    assert spec.objective.value(x) == again.objective.value(x)
    other = get_problem("quadratic:100:6", seed=4)
    assert spec.objective.value(x) != other.objective.value(x)
    # default dimension
    assert get_problem("quadratic:10").n == 10


def test_quadratic_condition_number():
    spec = get_problem("quadratic:100:5", seed=0)
    A = np.column_stack([spec.objective.gradient(e) for e in np.eye(5)])
    eigs = np.linalg.eigvalsh(A)
    assert eigs[-1] / eigs[0] == pytest.approx(100.0, rel=1e-10)


def test_extended_powell_shape():
    spec = get_problem("extended-powell:12")
    assert spec.n == 12
    assert spec.objective.value(np.zeros(12)) == 0.0
    assert get_problem("extended-powell").n == 8


def test_broyden_tridiagonal_carries_band():
    spec = get_problem("broyden-tridiagonal:7")
    assert spec.pattern is not None
    assert spec.pattern.edges == tuple((i, i + 1) for i in range(6))
    assert np.all(spec.start == -1.0)


def test_catalog_gradients_are_consistent():
    rng = np.random.default_rng(6)
    for name in ("rosenbrock", "quadratic:30:4", "extended-powell:8",
                 "broyden-tridiagonal:5"):
        spec = get_problem(name, seed=1)
        x = spec.start + 0.05 * rng.standard_normal(spec.n)
        assert check_gradient(spec.objective, x) < 1e-6, name


def test_problem_parsing_errors():
    for bad in (
        "rosenbrock:2",
        "quadratic",
        "quadratic:abc",
        "quadratic:0.5",
        "quadratic:nan:3",
        "quadratic:inf:3",
        "extended-powell:6",
        "extended-powell:x",
        "extended-powell:8:9",
        "quadratic:10:4:junk",
        "broyden-tridiagonal:5:zz",
        "broyden-tridiagonal:1",
        "nope",
        "",
    ):
        with pytest.raises(InvalidParameter):
            get_problem(bad)
