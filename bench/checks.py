"""Property checks on the outputs of one benchmark operation.

Every function returns a list of failure messages; an empty list means the
check passed.  None of them pins an exact number or plan of the program:
each states a property the theory or the definitions guarantee, with a
tolerance that covers Monte Carlo noise and the known quadrature biases
(see README.md).  They take plain numbers and arrays, so the tests in
``tests/`` can feed them deliberately wrong inputs.
"""

import math

import numpy as np

# Monte Carlo tolerance of the tightness table, as stated by the program's
# own report ("flag empirical > bound + 3 standard errors").
TIGHTNESS_N_SE = 3.0
# Sampling tolerance of the moment checks (mean error, path variance).
MOMENT_N_SE = 4.0
# p = 2 identity E int_0^T |X - X_n|^2 = c: relative slack for the known
# systematic gaps (integral-route quadrature up to +2.2%, grid
# discretisation down to -3.5% on OU/Meyer), plus an absolute term for
# schemes at the quadrature floor (c ~ 3e-14 against ~2e-15 on the
# deepest rank-one scheme).
IDENTITY_RTOL = 0.08
IDENTITY_ATOL = 1e-12
# Single-path expansion against the batched oracle.
EXPANSION_RTOL = 1e-9


def tightness_failures(rows):
    """The theorem: on every valid row, empirical <= bound + 3 SE.

    ``rows`` are the dicts of ``tightness_report(result)["rows"]``.  Every
    row must also be valid, since the workloads choose epsilons above every
    scheme's threshold.
    """
    out = []
    for r in rows:
        tag = f"scheme {r['scheme_index']} eps {r['epsilon']!r}"
        if not r["valid"]:
            out.append(f"tightness {tag}: epsilon below the validity threshold")
        elif r["empirical"] > r["bound"] + TIGHTNESS_N_SE * r["stderr"]:
            out.append(
                f"tightness {tag}: empirical {r['empirical']!r} > bound "
                f"{r['bound']!r} + {TIGHTNESS_N_SE:g} SE ({r['stderr']!r})"
            )
    return out


def mean_error_failures(errors, c_values):
    """p = 2 identity: the mean per-path error of scheme s agrees with c_s.

    ``errors`` is [scheme, path]; the allowed gap is
    4 SE + IDENTITY_RTOL * c + IDENTITY_ATOL.
    """
    errors = np.asarray(errors, dtype=float)
    out = []
    for s, (e, c) in enumerate(zip(errors, c_values)):
        mean = float(np.mean(e))
        se = float(np.std(e, ddof=1)) / math.sqrt(len(e))
        tol = MOMENT_N_SE * se + IDENTITY_RTOL * c + IDENTITY_ATOL
        if not abs(mean - c) <= tol:
            out.append(
                f"p=2 identity scheme {s}: mean error {mean!r} vs c {c!r} "
                f"(allowed gap {tol!r})"
            )
    return out


def variance_failures(samples, r_tt):
    """Path variance at a few nodes equals R(t,t) within 4 SE.

    ``samples`` is [path, node] of zero-mean path values, ``r_tt`` the
    model variance at those nodes.
    """
    x2 = np.asarray(samples, dtype=float) ** 2
    out = []
    for i, r in enumerate(r_tt):
        var = float(np.mean(x2[:, i]))
        se = float(np.std(x2[:, i], ddof=1)) / math.sqrt(x2.shape[0])
        if not abs(var - r) <= MOMENT_N_SE * se:
            out.append(f"path variance node {i}: {var!r} vs R(t,t) {r!r} (SE {se!r})")
    return out


def row_count_failures(counts, expected):
    """Output files have the expected numbers of data rows."""
    return [
        f"{name}: {counts.get(name)} rows, expected {n}"
        for name, n in expected.items()
        if counts.get(name) != n
    ]


def decreasing_mean_failures(errors):
    """The mean error falls from each scheme to the next, larger one."""
    means = [float(np.mean(e)) for e in errors]
    return [
        f"mean error does not fall from scheme {s} ({a!r}) to {s + 1} ({b!r})"
        for s, (a, b) in enumerate(zip(means[:-1], means[1:]))
        if not b < a
    ]


def match_failures(got, want, rtol=EXPANSION_RTOL):
    """Elementwise relative agreement of two error arrays."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"shape {got.shape} != oracle shape {want.shape}"]
    gap = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    bad = int(np.sum(~(gap <= rtol)))
    if bad:
        return [f"{bad} per-path errors differ from the oracle (max rel {gap.max():.3e})"]
    return []


def target_failures(tag, report, delta):
    """A plan's re-evaluated bound is valid and meets the target."""
    if not report.valid:
        return [f"{tag}: epsilon below the threshold of the returned scheme"]
    if not report.bound <= delta:
        return [f"{tag}: re-evaluated bound {report.bound!r} > delta {delta!r}"]
    return []


def predecessor_failures(tag, report, delta):
    """The scheme just before the returned one in the walk misses the target."""
    if report is not None and report.valid and report.bound <= delta:
        return [f"{tag}: the predecessor already meets the target (bound {report.bound!r})"]
    return []


def minkowski_failures(tag, c_uniform, c_integral):
    """The uniform route bounds the integral route from above."""
    if not c_uniform >= c_integral:
        return [f"{tag}: c_uniform {c_uniform!r} < c_integral {c_integral!r}"]
    return []


def lattice_position(scheme, T):
    """(n, m) of a lattice scheme k_j = ceil(2^j T) + 1 + m, k0' = ceil(T) + 1 + m."""
    return scheme.n, scheme.k0_prime - math.ceil(T) - 1


def walk_predecessor(n, m, m_max):
    """(n, m) visited just before (n, m) by the planner's row-major walk."""
    if m > 0:
        return n, m - 1
    if n > 1:
        return n - 1, m_max
    return None


def batched_lp_errors(B, B_sub, w, w_sub, mask, X, p):
    """Reference batched expansion: int_0^T |X - X_n|^p per path (columns
    of X), from trapezoid weights and basis values on the full grid (B) and
    on the nodes in [0, T] (B_sub, selected by ``mask``)."""
    coefs = (B * w) @ X
    recon = B_sub.T @ coefs
    return w_sub @ (np.abs(X[mask, :] - recon) ** p)
