"""Fine-grid reference for the integral-route rate constant on OU / Meyer.

    python3 bench/reference.py

For the OU model R(u, v) = exp(-|u - v|) and an orthonormal family w_c,

    c = int_0^T E(X - X_n)^2 dt
      = int_0^T ( 1 - 2 sum_c w_c(t) (K w_c)(t) + sum_cc' w_c(t) G_cc' w_c'(t) ) dt,

with (K f)(t) = int exp(-|t - u|) f(u) du and G_cc' = <w_c, K w_c'>.  The
convolution is done on a uniform grid by a two-pass (forward and backward)
recursion of the exponential kernel, with trapezoid weights, on [-60, 60]
at step 2^-9; w_c are the program's own dilated basis functions.  The
Monte Carlo checks of the benchmark compare against these values, which
are independent of the program's tensor-Simpson integral route.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from subwave import eval_dilated, make_basis, parse_scheme_spec  # noqa: E402

HALF_WIDTH, STEP = 60.0, 2.0**-9
SCHEMES = ("k0'=2;k=2,3", "k0'=3;k=3,4,5")


def exp_convolution(F, w, h):
    """(K f)(t_i) = sum_j w_j f_j exp(-|t_i - t_j|) for every column of F."""
    a = math.exp(-h)
    G = F * w[:, None]
    fwd, bwd = np.empty_like(G), np.empty_like(G)
    fwd[0] = G[0]
    for i in range(1, len(G)):
        fwd[i] = a * fwd[i - 1] + G[i]
    bwd[-1] = G[-1]
    for i in range(len(G) - 2, -1, -1):
        bwd[i] = a * bwd[i + 1] + G[i]
    return fwd + bwd - G


def rate_constant(basis, scheme, T=1.0):
    n = int(round(2 * HALF_WIDTH / STEP))
    t = -HALF_WIDTH + STEP * np.arange(n + 1)
    w = np.full(n + 1, STEP)
    w[0] = w[-1] = STEP / 2
    W = np.column_stack([eval_dilated(basis, kind, j, k, t) for kind, j, k in scheme.indices()])
    KW = exp_convolution(W, w, STEP)
    G = W.T @ (KW * w[:, None])
    inside = (t >= -1e-12) & (t <= T + 1e-12)
    Wi, KWi = W[inside], KW[inside]
    ms = 1.0 - 2.0 * np.sum(Wi * KWi, axis=1) + np.sum((Wi @ G) * Wi, axis=1)
    wi = np.full(inside.sum(), STEP)
    wi[0] = wi[-1] = STEP / 2
    return float(wi @ ms)


def main():
    basis = make_basis("meyer")
    for spec in SCHEMES:
        print(f"{spec}: {rate_constant(basis, parse_scheme_spec(spec)):.7g}")


if __name__ == "__main__":
    main()
