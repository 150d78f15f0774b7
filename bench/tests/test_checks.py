"""The benchmark's checks pass on the program's outputs and fail on
deliberately wrong ones.  Run with ``python3 -m pytest bench/tests``."""

import dataclasses

import numpy as np
import pytest

import checks
import workloads
from subwave import bounds, experiment, processes, wavelets
from subwave.orlicz import parse_nfunction_spec


def _rows(scale=1.0):
    return [
        {"scheme_index": 0, "epsilon": 0.13, "empirical": 0.05, "bound": 0.3 * scale,
         "stderr": 0.005, "valid": True},
        {"scheme_index": 1, "epsilon": 0.13, "empirical": 0.0, "bound": 0.01 * scale,
         "stderr": 0.0, "valid": True},
    ]


def test_tightness_fails_on_a_bound_scaled_by_a_tenth():
    assert checks.tightness_failures(_rows()) == []
    assert checks.tightness_failures(_rows(scale=0.1))


def test_tightness_fails_on_an_invalid_row():
    rows = _rows()
    rows[0]["valid"] = False
    assert checks.tightness_failures(rows)


def test_mean_error_identity():
    rng = np.random.default_rng(0)
    c = [0.05, 2e-14]
    errors = np.array([c[0] * rng.chisquare(1, 2000), np.full(2000, 2e-15)])
    assert checks.mean_error_failures(errors, c) == []
    assert checks.mean_error_failures(errors * 1.5, c)
    assert checks.mean_error_failures(errors, [0.1 * c[0], c[1]])


def test_variance_fails_on_scaled_paths():
    x = np.random.default_rng(1).standard_normal((2000, 3))
    assert checks.variance_failures(x, [1.0, 1.0, 1.0]) == []
    assert checks.variance_failures(1.5 * x, [1.0, 1.0, 1.0])


def test_row_counts():
    assert checks.row_count_failures({"a": 3}, {"a": 3}) == []
    assert checks.row_count_failures({"a": 2}, {"a": 3})
    assert checks.row_count_failures({}, {"a": 3})


def test_expansion_match_fails_on_a_perturbed_error():
    want = np.array([[0.1, 0.2], [0.03, 0.04]])
    assert checks.match_failures(want.copy(), want) == []
    got = want.copy()
    got[1, 0] *= 1.0 + 1e-6
    assert checks.match_failures(got, want)


def test_decreasing_mean_fails_when_schemes_swap():
    errors = np.array([[0.2, 0.3], [0.1, 0.05]])
    assert checks.decreasing_mean_failures(errors) == []
    assert checks.decreasing_mean_failures(errors[::-1])


def test_walk_predecessor():
    assert checks.walk_predecessor(3, 5, 64) == (3, 4)
    assert checks.walk_predecessor(3, 0, 64) == (2, 64)
    assert checks.walk_predecessor(1, 0, 64) is None


@pytest.fixture(scope="module")
def plan_sweep():
    ps = workloads.PlanSweep()
    ps.basis = {"daubechies:4": wavelets.make_basis("daubechies:4")}
    ps._models, ps._c_integral = {}, {}
    return ps


TARGET = ("separable:gauss-bump", "daubechies:4", "gaussian", 1, 2, 0.5, 0.1)


def test_plan_check_fails_on_the_predecessor_scheme(plan_sweep):
    model, basis_spec, phi, T, p, eps, delta = TARGET
    scheme, _ = bounds.plan_truncation(
        processes.parse_model_spec(model), plan_sweep.basis[basis_spec],
        parse_nfunction_spec(phi), p, T, eps, delta, workloads.ALPHA,
    )
    assert plan_sweep.check([(TARGET, scheme)]) == []
    prev = checks.walk_predecessor(*checks.lattice_position(scheme, T), workloads.PLAN_M_MAX)
    assert plan_sweep.check([(TARGET, workloads.lattice_scheme(*prev, T))])


def test_minkowski():
    assert checks.minkowski_failures("t", 0.2, 0.1) == []
    assert checks.minkowski_failures("t", 0.1, 0.2)


def test_monte_carlo_check_on_a_small_run():
    mc = workloads.MonteCarlo("test-mc", {**workloads.MC_BUMP_DB4, "n_paths": 2000})
    real = experiment.simulate_paths
    try:
        mc.setup(seed=3)
        result, files = mc.op(0)
        paths = mc._captured  # the check consumes the op's paths
        assert mc.check((result, files)) == []
        scaled = {
            key: dataclasses.replace(rep, bound=0.1 * rep.bound)
            for key, rep in result.theoretical_bound.items()
        }
        mc._captured = paths
        bad = dataclasses.replace(result, theoretical_bound=scaled)
        assert any("tightness" in f for f in mc.check((bad, files)))
    finally:
        experiment.simulate_paths = real
