"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.
"""

import math
import time

import numpy as np
import pytest

from subwave.bounds import (
    _numeric_threshold,
    c_n_infty_integral,
    c_n_infty_uniform,
    epsilon_threshold,
    plan_truncation,
    tail_probability_bound,
)
from subwave.errors import InfeasiblePlanError
from subwave.expansion import (
    TruncationScheme,
    second_moment_eta,
    second_moment_eta_spectral_bound,
    second_moment_eta_spectral_bound_ns,
)
from subwave.experiment import config_from_dict, run_experiment, tightness_report
from subwave.orlicz import (
    make_gaussian,
    make_power_family,
    numeric_conjugate,
)
from subwave.processes import minkowski_gap, make_ou
from subwave.wavelets import envelope_constant, eval_dilated, make_basis, tail_constant


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")


def test_criterion_1_conjugate_duality():
    t0 = time.monotonic()
    families = [make_gaussian()] + [make_power_family(a) for a in (1.2, 1.5, 2.0)]
    xs = np.array([-10.0, -6.3, -2.0, -0.5, 0.0, 0.7, 1.0, 4.1, 10.0])
    ok = True
    for nf in families:
        for x in xs:
            num = numeric_conjugate(nf.phi, float(x))
            ref = nf.conjugate_closed_form(float(x))
            ok = ok and abs(num - ref) <= 1e-8 * max(abs(ref), 1.0)
    for nf in families[1:]:
        def conj(y, _nf=nf):
            return numeric_conjugate(_nf.phi, y)

        for x in xs:
            val = numeric_conjugate(conj, float(x))
            ref = nf.phi(float(x))
            ok = ok and abs(val - ref) <= 1e-6 * max(abs(ref), 1.0)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, f"conjugate duality + biconjugation ({elapsed:.2f} s)", ok)
    assert ok


def test_criterion_2_threshold_formulas():
    ok = True
    families = [make_gaussian()] + [make_power_family(a) for a in (1.2, 1.5, 2.0)]
    for nf in families:
        for c in (0.5, 1.0, 3.0):
            for p in (1.0, 2.0, 4.0):
                closed = epsilon_threshold(nf, c, p)
                numeric = _numeric_threshold(nf, c, p)
                ok = ok and abs(numeric - closed) <= 1e-9 * closed
    _report(2, "epsilon-threshold closed forms vs numeric solver", ok)
    assert ok


def test_criterion_3_lattice_sum_constants():
    T, x = 5.0, np.linspace(-5.0, 5.0, 200)
    k_all = np.arange(-200, 201)
    ok = True
    for family in ("meyer", "daubechies:3"):
        b = make_basis(family)
        cd = envelope_constant(b.envelope_m)
        sums = np.abs(b.m_wavelet(x[:, None] - k_all[None, :])).sum(axis=1)
        ok = ok and bool(np.all(sums <= cd + 1e-9))
        for k1 in (7, 10):
            cdk = tail_constant(b.envelope_m, T, k1)
            kt = k_all[np.abs(k_all) >= k1]
            tails = np.abs(b.m_wavelet(x[:, None] - kt[None, :])).sum(axis=1)
            ok = ok and bool(np.all(tails <= cdk + 1e-9))
    _report(3, "lattice-sum constants dominate direct sums (0 violations)", ok)
    assert ok


def test_criterion_4_orthonormality():
    b = make_basis("daubechies:2")
    h = 2.0**-15
    t = np.arange(-9.0, 12.0 + h, h)
    rows = [eval_dilated(b, "f", 0, k, t) for k in range(-8, 9)]
    for j in range(4):
        rows += [eval_dilated(b, "m", j, k, t) for k in range(-8, 9)]
    B = np.array(rows)
    G = (B * h) @ B.T
    dev = float(np.max(np.abs(G - np.eye(len(G)))))
    ok = dev <= 1e-4
    _report(4, f"daubechies:2 Gram deviation {dev:.2e} <= 1e-4", ok)
    assert ok


def test_criterion_5_spectral_dominance_and_slopes():
    ou = make_ou(1.0)
    meyer = make_basis("meyer")
    from subwave.processes import make_gauss_bump

    sep = make_gauss_bump()
    ok = True
    bounds_st = [second_moment_eta_spectral_bound(ou, meyer, j, 0.5) for j in range(6)]
    for j in range(6):
        for k in range(-10, 11):
            ok = ok and second_moment_eta(ou, meyer, j, k) <= bounds_st[j] + 1e-9
    slopes = np.diff(np.log2(bounds_st))
    ok = ok and bool(np.all(np.abs(slopes + 1.5) < 1e-12))

    bounds_ns = [
        second_moment_eta_spectral_bound_ns(sep, meyer, j, 1.0) for j in range(5)
    ]
    for j in range(5):
        for k in range(-10, 11):
            ok = ok and second_moment_eta(sep, meyer, j, k) <= bounds_ns[j] + 1e-9
    slopes_ns = np.diff(np.log2(bounds_ns))
    ok = ok and bool(np.all(np.abs(slopes_ns + 3.0) < 1e-12))
    _report(5, "spectral moment bounds dominate; decay slopes -(1+a), -(1+2a)", ok)
    assert ok


def test_criterion_6_integral_tau_inequality():
    ok = True
    for lam in (0.5, 1.0, 2.0):
        for T in (1.0, 5.0):
            lhs, rhs = minkowski_gap(make_ou(lam), T)
            ok = ok and lhs <= rhs + 1e-12
    lhs, rhs = minkowski_gap(make_ou(1.0), 1.0)
    closed = math.sqrt(2.0 * (1.0 - 1.0 + math.exp(-1.0)))
    ok = ok and abs(lhs - closed) <= 1e-4 and abs(rhs - 1.0) <= 1e-4
    _report(6, f"integral tau-norm inequality; lhs {lhs:.5f} ~ {closed:.5f}, rhs ~ 1", ok)
    assert ok


def test_criterion_7_rate_constant_convergence():
    t0 = time.monotonic()
    ou = make_ou(1.0)
    meyer = make_basis("meyer")

    def lattice(n, m):
        return TruncationScheme(
            k0_prime=2 + m, levels=tuple(math.ceil(2.0**j) + 1 + m for j in range(n))
        )

    uniform = [
        c_n_infty_uniform(ou, meyer, lattice(n, m), 2.0, 1.0, 0.5)
        for n, m in ((2, 2), (4, 4), (6, 8))
    ]
    integral = [
        c_n_infty_integral(ou, meyer, lattice(n, m), 2.0, 1.0)
        for n, m in ((1, 0), (2, 1), (3, 2))
    ]
    elapsed = time.monotonic() - t0
    ok = (
        uniform[0] > uniform[1] > uniform[2] > 0.0
        and integral[0] > integral[1] > integral[2] > 0.0
        and elapsed < 120.0
    )
    _report(
        7,
        f"rate constants strictly decreasing along refinements ({elapsed:.0f} s)",
        ok,
    )
    assert ok


def test_criterion_8_monte_carlo_bound_validity():
    t0 = time.monotonic()
    ou = make_ou(1.0)
    meyer = make_basis("meyer")
    scheme_a = TruncationScheme(2, (2, 3))
    c_a = c_n_infty_integral(ou, meyer, scheme_a, 2.0, 1.0)
    thr = epsilon_threshold(make_gaussian(), c_a, 2.0)
    eps = [thr * f for f in (1.1, 1.35, 1.7, 2.2, 3.0)]
    cfg = config_from_dict(
        {
            "model_spec": "ou:1",
            "basis_spec": "meyer",
            "nfunction_spec": "gaussian",
            "schemes": ["k0'=2;k=2,3", "k0'=3;k=3,4,5"],
            "p": 2,
            "T": 1,
            "grid_L": 53.0,
            "grid_h": 1.0 / 32.0,
            "n_paths": 2000,
            "epsilons": eps,
            "seed": 20260809,
        }
    )
    result = run_experiment(cfg)
    rep = tightness_report(result)
    all_valid = all(r["valid"] for r in rep["rows"])
    elapsed = time.monotonic() - t0
    ok = all_valid and rep["violations"] == 0 and elapsed < 300.0
    _report(
        8,
        f"empirical exceedance <= bound + 3 SE at all 10 points ({elapsed:.0f} s)",
        ok,
    )
    assert ok


def test_criterion_9_boxplot_reproduction():
    cfg = config_from_dict(
        {
            "model_spec": "ou:1",
            "basis_spec": "meyer",
            "nfunction_spec": "gaussian",
            "schemes": ["k0'=1;k=1", "k0'=2;k=2,3", "k0'=3;k=3,4,5"],
            "p": 2,
            "T": 1,
            "grid_L": 53.0,
            "grid_h": 1.0 / 32.0,
            "n_paths": 500,
            "epsilons": [1.0],
            "seed": 42,
        }
    )
    result = run_experiment(cfg)
    med = [s["median"] for s in result.summary]
    q3 = [s["q3"] for s in result.summary]
    ok = med[0] > med[1] > med[2] and q3[0] > q3[1] > q3[2]
    _report(
        9,
        f"medians {med[0]:.3f} > {med[1]:.3f} > {med[2]:.3f}, quartiles decreasing",
        ok,
    )
    assert ok


def test_criterion_10_planner_soundness():
    """The planner meets both targets on its n <= 12 lattice, soundly and
    minimally.

    For the unit-rate exponential model with the Meyer basis over [0, 1]
    the planner must find lattice schemes with exceedance bound <= 0.1 at
    epsilon = 0.5 and <= 0.05 at epsilon = 0.25.  Soundness: the returned
    scheme's re-evaluated bound meets the target with epsilon above the
    validity threshold.  Minimality: the scheme just before it in the
    planner's walk misses the target.  The targets are reachable because
    the uniform-route constant uses the direct lattice sums of the
    tabulated wavelets and the exact Parseval level moments; with the
    fitted-envelope constants and the Lipschitz spectral moment bounds the
    best reachable bound stays above the targets.
    """
    ou = make_ou(1.0)
    meyer = make_basis("meyer")
    nf = make_gaussian()
    failures = []
    for eps, delta in ((0.5, 0.1), (0.25, 0.05)):
        try:
            scheme, rep = plan_truncation(ou, meyer, nf, 2.0, 1.0, eps, delta, 0.5)
        except InfeasiblePlanError as exc:
            failures.append((eps, delta, exc))
            continue
        # soundness: re-evaluated bound meets the target
        c = c_n_infty_uniform(ou, meyer, scheme, 2.0, 1.0, 0.5)
        again = tail_probability_bound(nf, c, 2.0, eps)
        assert again.valid and again.bound <= delta
        # minimality: the lexicographic predecessor misses the target
        m = scheme.k0_prime - 2
        n = scheme.n
        pred = None
        if m > 0:
            pred = TruncationScheme(
                k0_prime=1 + m, levels=tuple(math.ceil(2.0**j) + m for j in range(n))
            )
        elif n > 1:
            pred = TruncationScheme(
                k0_prime=2 + 64,
                levels=tuple(math.ceil(2.0**j) + 1 + 64 for j in range(n - 1)),
            )
        if pred is not None:
            c_pred = c_n_infty_uniform(ou, meyer, pred, 2.0, 1.0, 0.5)
            assert tail_probability_bound(nf, c_pred, 2.0, eps).bound > delta
    ok = not failures
    _report(10, "planner reaches bound <= delta on the n<=12 lattice", ok)
    if failures:
        eps, delta, exc = failures[0]
        pytest.fail(
            f"planner infeasible for (eps={eps}, delta={delta}): {exc} "
            "[the uniform-route constant no longer reaches this target on "
            "the n <= 12 lattice; see the criterion docstring]"
        )
