import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from subwave import expansion
from subwave.errors import (
    DivergenceError,
    SupportCoverageError,
    ValidationError,
)
from subwave.expansion import (
    CoefficientSet,
    TruncationScheme,
    _frequency_moments,
    _frequency_segments,
    _frequency_side,
    _hat_nodes,
    _node_spans,
    _tensor_moments,
    basis_matrix,
    batch_lp_errors,
    coefficient_moments,
    compute_coefficients,
    interval_window,
    lp_error,
    parse_scheme_spec,
    reconstruct,
    second_moment_eta,
    second_moment_eta_parseval,
    second_moment_eta_spectral_bound,
    second_moment_xi_bound,
)
from subwave.processes import (
    _PATH_BLOCK,
    Kernel,
    ProcessModel,
    SampleBatch,
    SamplePath,
    Stationary,
    _one_blas_thread,
    make_ou,
    make_separable,
    parse_model_spec,
    simulate_paths,
    simulation_grid,
)
from subwave.quad import trapezoid_weights
from subwave.wavelets import band_breaks, eval_dilated, make_basis


def make_path(grid, values):
    return SamplePath(grid=grid, values=values, path_index=0)


class TestTruncationScheme:
    def test_basic_properties(self):
        s = TruncationScheme(k0_prime=2, levels=(1, 3))
        assert s.n == 2
        assert s.count() == 5 + 3 + 7
        assert len(s.indices()) == s.count()

    def test_empty_scheme(self):
        s = TruncationScheme(k0_prime=-1, levels=())
        assert s.count() == 0
        assert s.indices() == []

    def test_invariants(self):
        with pytest.raises(ValidationError):
            TruncationScheme(k0_prime=-2, levels=())
        with pytest.raises(ValidationError):
            TruncationScheme(k0_prime=1, levels=(-1,))

    def test_nesting(self):
        small = TruncationScheme(k0_prime=1, levels=(2,))
        big = TruncationScheme(k0_prime=2, levels=(3, 4))
        assert big.contains(small)
        assert not small.contains(big)

    def test_spec_string_roundtrip(self):
        s = TruncationScheme(k0_prime=4, levels=(4, 5, 7))
        assert s.spec_string() == "k0'=4;k=4,5,7"
        assert parse_scheme_spec(s.spec_string()) == s
        assert parse_scheme_spec("k0'=3;k=") == TruncationScheme(3, ())

    @pytest.mark.parametrize("bad", ["k0=3;k=1", "k0'=3", "k0'=a;k=1", "k0'=3;k=1,b"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_scheme_spec(bad)

    @pytest.mark.parametrize(
        "k0, levels",
        [(2, (2.7, 3)), (1.5, ()), (True, ()), (2, (2, False)), (2.0, (2,)), (2, ("3",)), (2, 3)],
        ids=["float-level", "float-k0", "bool-k0", "bool-level", "integral-float-k0", "str-level", "int-levels"],
    )
    def test_cuts_must_be_integers(self, k0, levels):
        with pytest.raises(ValidationError, match="scheme cuts must be integers"):
            TruncationScheme(k0, levels)

    def test_numpy_integer_cuts_are_ints(self):
        s = TruncationScheme(np.int64(2), (np.int32(2), np.uint8(3)))
        assert s == TruncationScheme(2, (2, 3)) and s.spec_string() == "k0'=2;k=2,3"
        assert all(type(k) is int for k in (s.k0_prime, *s.levels))

    def test_coefficient_set_must_match_scheme(self):
        s = TruncationScheme(k0_prime=0, levels=())
        with pytest.raises(ValidationError):
            CoefficientSet(s, [0.0, 0.0])
        assert CoefficientSet(s, [1.0]).values.tolist() == [1.0]


class TestCoefficients:
    def test_zero_path_gives_zero_coefficients(self, db2):
        grid = np.arange(-8.0, 8.0 + 2.0**-8, 2.0**-8)
        path = make_path(grid, np.zeros_like(grid))
        coeffs = compute_coefficients(path, db2, TruncationScheme(2, (2, 2)))
        assert np.all(coeffs.values == 0.0)

    def test_haar_coefficient_matches_quadrature_oracle(self, haar):
        # X = g * z with g the Gaussian bump; eta_00 = z * int g psi
        z = 1.7
        grid = np.arange(-6.0, 6.0 + 2.0**-10, 2.0**-10)
        g = np.exp(-0.5 * grid**2)
        path = make_path(grid, z * g)
        coeffs = compute_coefficients(path, haar, TruncationScheme(0, (0,)))
        eta_00 = coeffs.values[coeffs.scheme.indices().index(("m", 0, 0))]
        gfun = lambda t: math.exp(-0.5 * t * t)
        upper, _ = quad(gfun, 0.0, 0.5, epsabs=1e-13)
        lower, _ = quad(gfun, 0.5, 1.0, epsabs=1e-13)
        # trapezoid is first order across the Haar jumps: tolerance ~ grid step
        assert eta_00 == pytest.approx(z * (upper - lower), abs=1e-3)

    def test_self_coefficient_is_one(self, db2):
        h = 2.0**-12
        grid = np.arange(-6.0, 9.0 + h, h)
        path = make_path(grid, eval_dilated(db2, "m", 0, 0, grid))
        coeffs = compute_coefficients(path, db2, TruncationScheme(2, (2, 2)))
        for index, v in zip(coeffs.scheme.indices(), coeffs.values):
            target = 1.0 if index == ("m", 0, 0) else 0.0
            assert v == pytest.approx(target, abs=1e-3)

    def test_support_coverage_error(self, meyer):
        grid = np.arange(-4.0, 4.0 + 0.125, 0.125)
        path = make_path(grid, np.zeros_like(grid))
        with pytest.raises(SupportCoverageError) as err:
            compute_coefficients(path, meyer, TruncationScheme(1, (1,)))
        assert err.value.level in ("f", "m")


class TestReconstruct:
    def test_zero_coefficients(self, db2):
        s = TruncationScheme(1, (1,))
        coeffs = CoefficientSet(s, np.zeros(6))
        t = np.linspace(-2, 2, 33)
        assert np.all(reconstruct(coeffs, db2, t) == 0.0)

    def test_single_scaling_term_reproduces_basis(self, db2):
        s = TruncationScheme(0, ())
        coeffs = CoefficientSet(s, [1.0])
        t = np.linspace(-1, 4, 101)
        assert np.allclose(reconstruct(coeffs, db2, t), db2.f_wavelet(t))

    @staticmethod
    def _bump_path(h, L, z):
        grid = np.arange(-L, L + h / 2, h)
        return make_path(grid, z * np.exp(-0.5 * grid**2))

    def test_roundtrip_error_matches_parseval_tail(self, db3):
        h = 2.0**-9
        path = self._bump_path(h, 9.0, z=1.3)
        scheme = TruncationScheme(4, (4, 8, 16))
        coeffs = compute_coefficients(path, db3, scheme)
        recon = reconstruct(coeffs, db3, path.grid)
        err_sq = np.sum((path.values - recon) ** 2) * h
        tail = np.sum(path.values**2) * h - np.sum(coeffs.values**2)
        assert err_sq == pytest.approx(tail, abs=1e-6)

    def test_nested_schemes_reduce_l2_error(self, db3):
        h = 2.0**-9
        path = self._bump_path(h, 9.0, z=-0.8)
        errs = []
        for scheme in (
            TruncationScheme(2, ()),
            TruncationScheme(2, (4,)),
            TruncationScheme(4, (4, 8)),
            TruncationScheme(4, (4, 8, 16)),
        ):
            coeffs = compute_coefficients(path, db3, scheme)
            recon = reconstruct(coeffs, db3, path.grid)
            errs.append(np.sum((path.values - recon) ** 2) * h)
        assert all(b <= a + 1e-6 for a, b in zip(errs[:-1], errs[1:]))


class TestLpError:
    def _path(self):
        grid = np.arange(-1.0, 2.0 + 2.0**-8, 2.0**-8)
        return make_path(grid, np.zeros_like(grid))

    def test_zero_difference(self):
        p = self._path()
        assert lp_error(p, p.values, 2.0, 1.0) == 0.0

    def test_unit_difference(self):
        p = self._path()
        assert lp_error(p, p.values + 1.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear_difference(self):
        p = self._path()
        recon = p.values + p.grid
        assert lp_error(p, recon, 2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_rejects_small_p(self):
        with pytest.raises(ValidationError):
            lp_error(self._path(), self._path().values, 0.5, 1.0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_non_finite_p(self, haar, p):
        path = self._path()
        batch = SampleBatch(path.grid, np.zeros((2, path.grid.size)))
        with pytest.raises(ValidationError, match="p must be >= 1 and finite"):
            lp_error(path, path.values + 1.0, p, 1.0)
        with pytest.raises(ValidationError, match="p must be >= 1 and finite"):
            batch_lp_errors(haar, [TruncationScheme(0, ())], batch, p, 1.0)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_rejects_non_finite_T(self, haar, T):
        path = self._path()
        batch = SampleBatch(path.grid, np.zeros((2, path.grid.size)))
        with pytest.raises(ValidationError, match="nonempty interval inside the path grid"):
            lp_error(path, path.values + 1.0, 2.0, T)
        with pytest.raises(ValidationError, match="nonempty interval inside the path grid"):
            batch_lp_errors(haar, [TruncationScheme(0, ())], batch, 2.0, T)

    @pytest.mark.parametrize("extra", [7, -1])
    def test_rejects_recon_of_another_length(self, extra):
        p = self._path()
        recon = np.zeros(p.values.size + extra)
        with pytest.raises(ValidationError, match="recon has shape"):
            lp_error(p, recon, 2.0, 1.0)

    def test_rejects_uncovered_interval(self):
        with pytest.raises(ValidationError):
            lp_error(self._path(), self._path().values, 2.0, 5.0)

    def test_rejects_zero_off_the_grid(self):
        # nodes at -1.3 + 0.2 i: 0 falls between -0.1 and 0.1, so a window
        # of nodes would drop the piece [0, 0.1] (and [0.9, 1]) of [0, 1]
        grid = simulation_grid(1.3, 0.2)
        p = make_path(grid, np.zeros_like(grid))
        with pytest.raises(ValidationError, match="must be nodes"):
            lp_error(p, p.values + 1.0, 2.0, 1.0)

    def test_rejects_window_without_nodes(self):
        # nodes -0.75, -0.25, 0.25, 0.75: only 0.25 lies in [0, 0.5]
        grid = simulation_grid(0.75, 0.5)
        p = make_path(grid, np.zeros_like(grid))
        with pytest.raises(ValidationError, match="must be nodes"):
            lp_error(p, p.values + 1.0, 2.0, 0.5)
        with pytest.raises(ValidationError, match="two nodes"):
            interval_window(np.array([0.0]), 1.0)

    def test_rejects_nonpositive_T(self):
        with pytest.raises(ValidationError):
            lp_error(self._path(), self._path().values, 2.0, 0.0)

    def test_nodes_off_by_rounding_are_kept(self):
        # -1.3 + 13 * 0.1 and -1.3 + 23 * 0.1 miss 0 and 1 by rounding only
        grid = simulation_grid(1.3, 0.1)
        p = make_path(grid, np.zeros_like(grid))
        window, w = interval_window(grid, 1.0)
        assert (window.start, window.stop) == (13, 24)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
        assert lp_error(p, p.values + 1.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)


class TestBatchOfOne:
    """The single-path functions and the batch agree with the dense products."""

    def test_rows_match_single_paths(self, db3):
        paths = simulate_paths(make_ou(1.0), 8.0, 2.0**-5, 4, 5)
        grid = paths.grid
        scheme = TruncationScheme(2, (2, 3))
        weighted = basis_matrix(db3, scheme, grid) * trapezoid_weights(grid)
        E = batch_lp_errors(db3, [scheme], paths, 2.0, 1.0)[0]
        dense = dense_lp_errors(db3, [scheme], grid, paths.values.T, 2.0, 1.0)[0]
        for i, path in enumerate(paths):
            coeffs = compute_coefficients(path, db3, scheme)
            np.testing.assert_allclose(coeffs.values, weighted @ path.values, rtol=1e-12, atol=1e-15)
            err = lp_error(path, reconstruct(coeffs, db3, grid), 2.0, 1.0)
            assert err == pytest.approx(E[i], rel=1e-12)
            assert err == pytest.approx(dense[i], rel=1e-12)

    @pytest.mark.parametrize("family", ["haar", "daubechies:4", "meyer"])
    def test_basis_matrix_rows_are_eval_dilated(self, family):
        # unsorted points, off the grid and outside the supports, and a scalar
        basis = make_basis(family)
        scheme = TruncationScheme(2, (2, 3))
        t = np.random.default_rng(3).uniform(-9.0, 9.0, 301)
        B = basis_matrix(basis, scheme, t)
        at = basis_matrix(basis, scheme, 0.3)
        assert B.shape == (scheme.count(), t.size) and at.shape == (scheme.count(),)
        for r, (kind, j, k) in enumerate(scheme.indices()):
            assert np.array_equal(B[r], eval_dilated(basis, kind, j, k, t))
            assert at[r] == eval_dilated(basis, kind, j, k, 0.3)

    def test_reconstruct_at_a_point(self, db3):
        path = simulate_paths(make_ou(1.0), 8.0, 2.0**-5, 1, 5)[0]
        coeffs = compute_coefficients(path, db3, TruncationScheme(2, (2, 3)))
        at = reconstruct(coeffs, db3, 0.3)
        assert np.shape(at) == ()
        assert float(at) == pytest.approx(reconstruct(coeffs, db3, [0.3, 0.5])[0], rel=1e-12)

    def test_empty_scheme_reconstructs_zero(self, db3):
        path = simulate_paths(make_ou(1.0), 8.0, 2.0**-5, 1, 5)[0]
        coeffs = compute_coefficients(path, db3, TruncationScheme(-1, ()))
        assert coeffs.values.shape == (0,)
        assert np.all(reconstruct(coeffs, db3, path.grid) == 0.0)


def dense_lp_errors(basis, schemes, grid, X, p, T, dtype=float):
    """The oracle: one full-grid product and reconstruction per scheme, on
    the grid x path matrix X."""
    window, w = interval_window(grid, T)
    X, w = X.astype(dtype), w.astype(dtype)
    weights = trapezoid_weights(grid).astype(dtype)
    out = []
    for scheme in schemes:
        coefs = (basis_matrix(basis, scheme, grid).astype(dtype) * weights) @ X
        recon = basis_matrix(basis, scheme, grid[window]).astype(dtype).T @ coefs
        out.append(w @ np.abs(X[window] - recon) ** p)
    return np.array(out)


def per_scheme_lp_errors(basis, schemes, grid, X, p, T):
    """The oracle of the stacked block step: the same restricted rows and
    window, but one masked window matrix, reconstruction product and window
    integral per scheme, on the path x grid matrix X in zero-padded blocks
    of ``_PATH_BLOCK`` rows."""
    window, w = interval_window(grid, T)
    idx = schemes[-1].indices()
    starts, stops = _node_spans(basis, idx, grid)
    kept = np.flatnonzero((starts < window.stop) & (stops > window.start))
    rows = [idx[r] for r in kept]
    Bw, nodes = expansion._weighted_rows(basis, rows, (starts[kept], stops[kept]), grid)
    B = expansion._rows(basis, rows, grid[window])
    masked = []
    for scheme in schemes:
        member = set(scheme.indices())
        keep = np.array([i in member for i in rows], dtype=float)
        masked.append((B * keep[:, None]).T)
    errors = np.empty((len(schemes), len(X)))
    for start in range(0, len(X), _PATH_BLOCK):
        count = min(_PATH_BLOCK, len(X) - start)
        block = np.zeros((_PATH_BLOCK, X.shape[1]))
        block[:count] = X[start : start + count]
        with _one_blas_thread():
            coefs = Bw @ block[:, nodes].T
            values = block[:, window].T
            for s, M in enumerate(masked):
                d = np.subtract(values, M @ coefs)
                np.abs(d, out=d)
                d **= p
                errors[s, start : start + count] = (w @ d)[:count]
    return errors


@lru_cache(maxsize=None)
def _oracle_paths(model_spec, L, h):
    return simulate_paths(parse_model_spec(model_spec), L, h, 300, 5)


# The deepest compact scheme keeps level 4 out to |k| = 21, so many of its
# rows are 0 on [0, 1] (on daubechies:4, those with k < -7 or k > 16).
COMPACT_SCHEMES = ("k0'=2;k=2,3", "k0'=3;k=3,4,6", "k0'=4;k=4,5,7,13,21")
MEYER_SCHEMES = ("k0'=2;k=2,3", "k0'=3;k=3,4,5")


class TestNestedLpErrors:
    """``batch_lp_errors`` over nested schemes from one restricted pass."""

    @pytest.mark.parametrize("model_spec", ["ou:1", "separable:gauss-bump"])
    @pytest.mark.parametrize("family", ["haar", "daubechies:2", "daubechies:4", "meyer"])
    def test_matches_dense_per_scheme_oracle(self, family, model_spec):
        basis = make_basis(family)
        if family == "meyer":
            L, h, specs = 53.0, 1 / 32, MEYER_SCHEMES
        else:
            L, h, specs = 14.0, 1 / 64, COMPACT_SCHEMES
        schemes = [parse_scheme_spec(s) for s in specs]
        paths = simulate_paths(parse_model_spec(model_spec), L, h, 40, 3)
        grid, X = paths.grid, paths.values.T
        got = batch_lp_errors(basis, schemes, paths, 2.0, 1.0)
        dense = dense_lp_errors(basis, schemes, grid, X, 2.0, 1.0)
        assert got.shape == (len(schemes), 40)
        if family == "meyer":
            np.testing.assert_allclose(got, dense, rtol=1e-12)
            return
        window, _ = interval_window(grid, 1.0)
        starts, stops = _node_spans(basis, schemes[-1].indices(), grid)
        assert np.sum((starts < window.stop) & (stops > window.start)) < schemes[-1].count()
        # deep rank-one errors cancel to ~1e-8 of the signal, where any two
        # summation orders differ; so both sides are held to a long-double
        # reference, and the restricted pass may be no farther from it
        ref = dense_lp_errors(basis, schemes, grid, X, 2.0, 1.0, np.longdouble)
        off_got = np.max(np.abs(got - ref) / ref, axis=1).astype(float)
        off_dense = np.max(np.abs(dense - ref) / ref, axis=1).astype(float)
        assert np.all(off_got <= 4.0 * off_dense + 1e-14), (off_got, off_dense)

    @pytest.mark.parametrize("nested", [2, 3], ids=["two-schemes", "three-schemes"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize(
        "model_spec, family, L, h, specs",
        [
            ("ou:1", "meyer", 52.0, 1 / 8, ("k0'=0;k=", "k0'=1;k=1", "k0'=2;k=2,3")),
            ("ou:1", "daubechies:4", 14.0, 1 / 64, COMPACT_SCHEMES),
            ("separable:gauss-bump", "daubechies:4", 14.0, 1 / 64,
             ("k0'=4;k=4,5,7", "k0'=5;k=5,6,8,11", "k0'=6;k=6,7,9,13,21")),
            ("ou:1", "haar", 4.0, 1 / 8, ("k0'=0;k=", "k0'=1;k=1", "k0'=2;k=2,3")),
        ],
        ids=["ou-meyer", "ou-db4", "bump-db4", "ou-haar"],
    )
    def test_stacked_step_is_the_per_scheme_loop(self, model_spec, family, L, h, specs, p, nested):
        # one reconstruction product and one window integral for all the
        # schemes round every error as a product and an integral per scheme
        # would, bit for bit; 300 paths leave a last block of 44
        basis = make_basis(family)
        schemes = [parse_scheme_spec(s) for s in specs[-nested:]]
        paths = _oracle_paths(model_spec, L, h)
        got = batch_lp_errors(basis, schemes, paths, p, 1.0)
        want = per_scheme_lp_errors(basis, schemes, paths.grid, paths.values, p, 1.0)
        assert got.shape == (nested, 300)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("counts", [(300, 600), (100, 2000), (257, 1000)])
    @pytest.mark.parametrize(
        "model_spec, family",
        [("separable:gauss-bump", "daubechies:4"), ("ou:1", "meyer"), ("ou:1", "daubechies:4")],
    )
    def test_errors_do_not_depend_on_path_count(self, model_spec, family, counts):
        # path i's errors are a function of (seed, i) alone, bit for bit
        basis = make_basis(family)
        if family == "meyer":
            L, h, specs = 52.0, 1 / 8, ("k0'=1;k=1", "k0'=2;k=2,3")
        else:
            L, h, specs = 14.0, 1 / 64, COMPACT_SCHEMES
        schemes = [parse_scheme_spec(s) for s in specs]
        model = parse_model_spec(model_spec)
        few, many = (
            batch_lp_errors(basis, schemes, paths, 2.0, 1.0)
            for paths in (simulate_paths(model, L, h, n, 6) for n in counts)
        )
        assert np.array_equal(few, many[:, : counts[0]])

    @pytest.mark.parametrize("model_spec", ["ou:1", "separable:gauss-bump"])
    def test_batch_of_grid_major_values(self, model_spec):
        # a caller's C-ordered grid x path matrix, made a batch, is stored
        # path-major like the sampler's, so every product rounds the same
        basis = make_basis("daubechies:4")
        schemes = [parse_scheme_spec(s) for s in COMPACT_SCHEMES]
        paths = simulate_paths(parse_model_spec(model_spec), 14.0, 1 / 64, 300, 2)
        X = np.ascontiguousarray(paths.values.T)
        batch = SampleBatch(paths.grid, X.T)
        got = batch_lp_errors(basis, schemes, batch, 2.0, 1.0)
        assert np.array_equal(got, batch_lp_errors(basis, schemes, paths, 2.0, 1.0))

    def test_schemes_without_rows_leave_the_path_integral(self, haar):
        # no row of an empty scheme takes part: every error is int |X|^p
        paths = simulate_paths(make_ou(1.0), 4.0, 0.125, 300, 1)
        empty = TruncationScheme(-1, ())
        got = batch_lp_errors(haar, [empty, empty], paths, 2.0, 1.0)
        window, w = interval_window(paths.grid, 1.0)
        want = w @ np.abs(paths.values[:, window].T) ** 2
        np.testing.assert_allclose(got, [want, want], rtol=1e-13)

    def test_schemes_must_fit_in_the_last(self, db3):
        paths = simulate_paths(make_ou(1.0), 8.0, 2.0**-5, 2, 5)
        args = (paths, 2.0, 1.0)
        with pytest.raises(ValidationError, match="contained in the last"):
            batch_lp_errors(db3, [TruncationScheme(2, (2, 3)), TruncationScheme(1, (1,))], *args)
        with pytest.raises(ValidationError, match="at least one"):
            batch_lp_errors(db3, [], *args)

    def test_coverage_is_checked_on_the_whole_last_scheme(self, db3):
        # the effective supports of (m, 0, -6) and (m, 0, 6), [-11, -1] and
        # [1, 11], leave the grid [-10, 10], though those rows are 0 on
        # [0, 1] and take no part in the product; the rows that do are covered
        paths = simulate_paths(make_ou(1.0), 10.0, 2.0**-5, 2, 5)
        args = (paths, 2.0, 1.0)
        assert batch_lp_errors(db3, [TruncationScheme(1, (5,))], *args).shape == (1, 2)
        with pytest.raises(SupportCoverageError) as err:
            batch_lp_errors(db3, [TruncationScheme(1, (6,))], *args)
        assert (err.value.j, err.value.k) == (0, -6)

    def test_memory_is_kept_rows_and_window(self):
        basis = make_basis("daubechies:4")
        schemes = [parse_scheme_spec(s) for s in ("k0'=4;k=4,5,7", "k0'=6;k=6,7,9,13,21")]
        n_paths = 2000
        paths = simulate_paths(parse_model_spec("separable:gauss-bump"), 14.0, 1 / 64, n_paths, 1)
        grid = paths.grid
        batch_lp_errors(basis, schemes, paths, 2.0, 1.0)  # warm the caches
        window, _ = interval_window(grid, 1.0)
        starts, stops = _node_spans(basis, schemes[-1].indices(), grid)
        kept = int(np.sum((starts < window.stop) & (stops > window.start)))
        tracemalloc.start()
        try:
            batch_lp_errors(basis, schemes, paths, 2.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beyond the paths: the coefficient rows, a few window-sized matrices
        # and the small basis matrices (78 x 897 doubles here); the full-grid
        # product of all 130 rows would need 2.1 MB for its coefficients alone
        n_window = window.stop - window.start
        assert peak <= 8 * n_paths * (kept + 3 * n_window) + 1e6


class TestSecondMoments:
    def test_separable_rank_one_oracle(self, gauss_bump, meyer):
        h = 2.0**-8
        t = np.arange(-52.0, 53.0, h)
        g = np.exp(-0.5 * t * t)
        for j, k in ((0, 0), (1, 2), (2, -3)):
            oracle = (np.sum(g * eval_dilated(meyer, "m", j, k, t)) * h) ** 2
            val = second_moment_eta(gauss_bump, meyer, j, k)
            assert val == pytest.approx(oracle, rel=1e-4, abs=1e-12)

    def test_ou_haar_frequency_cross_check(self, ou1, haar):
        td = second_moment_eta(ou1, haar, 0, 0)
        fd = second_moment_eta_parseval(ou1, haar, 0)
        assert abs(td / fd - 1.0) < 0.02

    @pytest.mark.parametrize("family", ["haar", "meyer", "daubechies:3"])
    def test_frequency_side_dominates(self, ou1, family):
        from subwave.wavelets import make_basis

        b = make_basis(family)
        for j in range(6):
            td = second_moment_eta(ou1, b, j, 0)
            fd = second_moment_eta_parseval(ou1, b, j)
            assert td <= fd * 1.02

    def test_nonnegative(self, ou1, gauss_bump, meyer, db3):
        for model in (ou1, gauss_bump):
            for basis in (meyer, db3):
                for j, k in ((0, 0), (2, 5), (4, -3)):
                    assert second_moment_eta(model, basis, j, k) >= 0.0

    def test_rejects_negative_level(self, ou1, haar):
        with pytest.raises(ValidationError):
            second_moment_eta(ou1, haar, -1, 0)


class TestMomentRoutes:
    """``coefficient_moments``: frequency side on Meyer for models with
    spectral data, the time-side tensor quadrature otherwise."""

    T_POINTS = tuple(np.linspace(-0.5, 1.5, 9).tolist())

    @pytest.mark.parametrize("spec", ["k0'=1;k=1", "k0'=2;k=2,3", "k0'=0;k=0,0,0"])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_frequency_side_matches_tensor_oracle(self, meyer, spec, lam):
        model = make_ou(lam)
        idx = tuple(parse_scheme_spec(spec).indices())
        G, M = coefficient_moments(model, meyer, idx, self.T_POINTS)
        Gt, Mt = _tensor_moments(model, meyer, idx, np.array(self.T_POINTS))
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() > 0.0
        # the tensor Simpson rule overshoots across the kink of
        # exp(-lam |u - v|): by 0.2-0.3% of the diagonal here, never below
        scale = np.sqrt(np.outer(np.diag(G), np.diag(G)))
        assert np.all(np.abs(G - Gt) <= 5e-3 * scale)
        assert np.all(np.diag(Gt) >= np.diag(G))
        assert np.max(np.abs(M - Mt)) < 1e-5

    def test_frequency_rule_converged(self, meyer, monkeypatch):
        # OU at rate 0.02 puts a spectral peak of width 0.02 at z = 0; without
        # the geometric split of [0, 2pi/3] this moves by 2.4e-5
        model = make_ou(0.02)
        idx = tuple(parse_scheme_spec("k0'=3;k=3,4,5,6").indices())
        t = np.linspace(-3.0, 3.0, 25)
        G, M = _frequency_moments(model, meyer, idx, t)
        monkeypatch.setattr(expansion, "_PANEL_NODES", 2 * expansion._PANEL_NODES)
        monkeypatch.setattr(expansion, "_PANEL_PHASE", expansion._PANEL_PHASE / 2.0)
        monkeypatch.setattr(expansion, "_ZERO_GRADING", 2 * expansion._ZERO_GRADING)
        G2, M2 = _frequency_moments(model, meyer, idx, t)
        assert np.max(np.abs(G - G2)) < 1e-13 and np.max(np.abs(M - M2)) < 1e-13

    def test_rank_one_matches_tensor_oracle(self, gauss_bump, meyer):
        idx = tuple(parse_scheme_spec("k0'=2;k=2,3").indices())
        gamma = coefficient_moments(gauss_bump, meyer, idx)
        assert np.max(np.abs(gamma - _tensor_moments(gauss_bump, meyer, idx, np.zeros(0)))) < 1e-7

    def test_rank_one_tail_coefficient_vanishes(self, gauss_bump, meyer):
        # g_hat is ~1e-15 on the band of level 2; the coarse tail nodes of
        # the time side read 4.7e-8 for this coefficient
        gamma = coefficient_moments(gauss_bump, meyer, (("m", 2, 1),))
        assert abs(gamma[0]) < 1e-13

    def test_model_without_spectral_data_takes_tensor_route(self, meyer):
        damped = ProcessModel(
            Kernel(
                lambda t, s: np.exp(
                    -np.abs(np.asarray(t) - np.asarray(s)) - 0.1 * (np.asarray(t) ** 2 + np.asarray(s) ** 2)
                )
            )
        )
        assert not _frequency_side(damped, meyer)
        idx = tuple(parse_scheme_spec("k0'=1;k=1").indices())
        G, M = coefficient_moments(damped, meyer, idx, self.T_POINTS)
        Gt, Mt = _tensor_moments(damped, meyer, idx, np.array(self.T_POINTS))
        assert np.array_equal(G, Gt) and np.array_equal(M, Mt)

    def test_route_depends_on_model_and_basis(self, ou1, gauss_bump, meyer, haar, db3):
        assert _frequency_side(ou1, meyer) and _frequency_side(gauss_bump, meyer)
        for basis in (haar, db3):
            assert not _frequency_side(ou1, basis)
            assert not _frequency_side(gauss_bump, basis)

    def test_results_are_read_only(self, ou1, gauss_bump, meyer):
        idx = (("f", 0, 0), ("m", 1, -1))
        G, M = coefficient_moments(ou1, meyer, idx, (0.25,))
        gamma = coefficient_moments(gauss_bump, meyer, idx)
        for arr in (G, M, gamma):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestSpectralBounds:
    def test_level_scaling_exact(self, ou1, meyer):
        a = 0.5
        b0 = second_moment_eta_spectral_bound(ou1, meyer, 0, a)
        for j in range(1, 6):
            bj = second_moment_eta_spectral_bound(ou1, meyer, j, a)
            assert bj / b0 == pytest.approx(2.0 ** (-j * (1 + a)), rel=1e-12)

    def test_level_scaling_exact_ns(self, gauss_bump, meyer):
        a = 1.0
        b0 = second_moment_eta_spectral_bound(gauss_bump, meyer, 0, a)
        for j in range(1, 5):
            bj = second_moment_eta_spectral_bound(gauss_bump, meyer, j, a)
            assert bj / b0 == pytest.approx(2.0 ** (-j * (1 + 2 * a)), rel=1e-12)

    @pytest.mark.parametrize("family", ["meyer", "daubechies:3"])
    def test_dominates_quadrature_moments(self, ou1, family):
        from subwave.wavelets import make_basis

        b = make_basis(family)
        for j in range(6):
            bound = second_moment_eta_spectral_bound(ou1, b, j, 0.5)
            for k in range(-10, 11):
                assert second_moment_eta(ou1, b, j, k) <= bound + 1e-9

    def test_ns_dominates_exact_moments(self, gauss_bump, meyer):
        for j in range(5):
            bound = second_moment_eta_spectral_bound(gauss_bump, meyer, j, 1.0)
            for k in range(-10, 11):
                assert second_moment_eta(gauss_bump, meyer, j, k) <= bound + 1e-9

    def test_separable_weight_integral_value(self, gauss_bump, meyer):
        # int |g_hat(z)| |z| dz = 2 sqrt(2 pi) for the Gaussian bump
        got = second_moment_eta_spectral_bound(gauss_bump, meyer, 0, 1.0)
        from subwave.expansion import _lipschitz_constant

        C = _lipschitz_constant(meyer, 1.0)
        expect = C * C * (2.0 * math.sqrt(2.0 * math.pi)) ** 2 / (2.0 * math.pi) ** 2
        assert got == pytest.approx(expect, rel=1e-9)

    def test_requires_matching_model_kind(self, ou1, meyer):
        # both names, the rank-one one kept for the benchmark, are one function
        general = ProcessModel(Kernel(ou1.covariance))
        for bound in (second_moment_eta_spectral_bound, expansion.second_moment_eta_spectral_bound_ns):
            with pytest.raises(ValidationError, match="needs a stationary or rank-one model"):
                bound(general, meyer, 0, 0.5)

    def test_divergent_weight_detected(self, ou1, meyer):
        # OU spectrum decays like z^-2, so the weight integral needs a < 1
        with pytest.raises(DivergenceError):
            second_moment_eta_spectral_bound(ou1, meyer, 0, 1.2)


class TestXiBound:
    def test_ou_haar_equals_closed_form_moment(self, ou1, haar):
        # for |phi_hat|^2 of the unit box against the OU spectrum the bound
        # equals E|xi_00|^2 = 2(T - 1 + e^-T) at T=1
        val = second_moment_xi_bound(ou1, haar)
        assert val == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)

    def test_scaling_in_spectrum(self, ou1, haar):
        doubled = ProcessModel(
            Stationary(
                r=lambda tau: 2.0 * np.exp(-np.abs(tau)),
                r_hat=lambda z: 4.0 / (1.0 + np.asarray(z, dtype=float) ** 2),
            )
        )
        assert second_moment_xi_bound(doubled, haar) == pytest.approx(
            2.0 * second_moment_xi_bound(ou1, haar), rel=1e-12
        )

    def test_bounded_by_total_spectrum_mass(self, ou1, haar, meyer):
        # |phi_hat| <= 1 makes the bound at most (1/2pi) int |R_hat| = R(0)
        for b in (haar, meyer):
            assert second_moment_xi_bound(ou1, b) <= 1.0 + 1e-9

    def test_separable_route(self, gauss_bump, meyer):
        val = second_moment_xi_bound(gauss_bump, meyer)
        # dominates the exact E|xi_0k|^2 = (int g phi_0k)^2
        h = 2.0**-8
        t = np.arange(-52.0, 53.0, h)
        g = np.exp(-0.5 * t * t)
        for k in (-2, 0, 3):
            exact = (np.sum(g * eval_dilated(meyer, "f", 0, k, t)) * h) ** 2
            assert exact <= val + 1e-9

    def test_requires_spectral_data(self, haar):
        plain = ProcessModel(Kernel(lambda t, s: np.exp(-np.abs(np.asarray(t) - np.asarray(s)))))
        with pytest.raises(ValidationError):
            second_moment_xi_bound(plain, haar)


def _shifted_bump(a):
    """The unit Gaussian bump moved to t = a: g_hat is the centred bump's
    times e^{-iaz}, complex, with the same modulus."""
    root_two_pi = math.sqrt(2.0 * math.pi)
    return make_separable(
        g=lambda t: np.exp(-0.5 * (np.asarray(t, dtype=float) - a) ** 2),
        g_hat=lambda z: root_two_pi * np.exp(-0.5 * np.asarray(z) ** 2 - 1j * a * np.asarray(z)),
    )


class TestComplexGHat:
    """The rank-one spectral bounds integrate |g_hat|, the complex modulus."""

    @pytest.mark.parametrize("family", ["meyer", "haar", "daubechies:4"])
    def test_shifted_bump_has_the_centred_bounds(self, gauss_bump, family):
        basis = make_basis(family)
        shifted = _shifted_bump(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning would mean Re g_hat
            xi = second_moment_xi_bound(shifted, basis)
            eta = second_moment_eta_spectral_bound(shifted, basis, 0, 0.5)
        assert xi == pytest.approx(second_moment_xi_bound(gauss_bump, basis), rel=1e-13)
        assert eta == pytest.approx(second_moment_eta_spectral_bound(gauss_bump, basis, 0, 0.5), rel=1e-13)

    def test_shifted_bump_bounds_dominate_its_moments(self, meyer):
        shifted = _shifted_bump(2.0)
        xi = second_moment_xi_bound(shifted, meyer)
        assert xi == pytest.approx(0.997, abs=1e-3)  # |Re g_hat| gave 0.404
        h = 2.0**-8
        t = np.arange(-52.0, 53.0, h)
        g = np.exp(-0.5 * (t - 2.0) ** 2)
        for k in range(-2, 5):
            assert (np.sum(g * eval_dilated(meyer, "f", 0, k, t)) * h) ** 2 <= xi + 1e-9
        for j in range(3):
            bound = second_moment_eta_spectral_bound(shifted, meyer, j, 1.0)
            for k in range(-4, 9):
                assert second_moment_eta(shifted, meyer, j, k) <= bound + 1e-9


class TestOneBandRule:
    """Level moments, the xi bound and the Gram share one rule on the Meyer band."""

    @pytest.mark.parametrize("which", ["f", "m"])
    def test_nodes_are_the_engine_panels(self, meyer, which):
        lo = band_breaks(meyer, which)[0]
        band = [(a, b) for a, b in _frequency_segments(meyer, ((which, 0, 0),)) if a >= lo]
        u, w, _ = _hat_nodes(meyer, which)
        assert len(u) == 2 * expansion._PANEL_NODES * len(band)
        assert np.all(np.abs(u) >= lo) and np.all(np.abs(u) <= band[-1][1])
        assert np.all(np.diff(u) > 0) and np.all(w > 0)

    @pytest.mark.parametrize("which", ["f", "m"])
    def test_plancherel_on_hat_nodes(self, meyer, which):
        # ||w||_2 = 1, so int |w_hat|^2 = 2 pi
        _, w, h = _hat_nodes(meyer, which)
        assert abs(np.sum(w * h**2) - 2.0 * math.pi) <= 1e-13

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("j", [0, 3, 10])
    def test_parseval_level_moment_is_the_gram(self, meyer, lam, j):
        model = make_ou(lam)
        G, _ = coefficient_moments(model, meyer, (("m", j, 0),))
        assert second_moment_eta_parseval(model, meyer, j) == pytest.approx(G[0, 0], rel=1e-14)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_xi_bound_is_the_gram(self, meyer, lam):
        model = make_ou(lam)
        G, _ = coefficient_moments(model, meyer, (("f", 0, 0),))
        assert second_moment_xi_bound(model, meyer) == pytest.approx(G[0, 0], rel=1e-14)


class TestUnreachedValidation:
    def test_detail_keys_must_match_scheme(self):
        # four indices: one scaling and three detail coefficients
        for values in (np.zeros(2), np.zeros((4, 1))):
            with pytest.raises(ValidationError, match=r"the scheme \(4,\)"):
                CoefficientSet(TruncationScheme(0, (1,)), values)

    def test_parseval_needs_a_spectral_density(self, gauss_bump, meyer):
        with pytest.raises(ValidationError, match="needs a spectral density"):
            second_moment_eta_parseval(gauss_bump, meyer, 0)

    @pytest.mark.parametrize("order", [0.0, -0.5])
    def test_spectral_bounds_need_a_positive_order(self, ou1, gauss_bump, meyer, order):
        with pytest.raises(ValidationError, match="order must be positive"):
            second_moment_eta_spectral_bound(ou1, meyer, 0, order)
        with pytest.raises(ValidationError, match="order must be positive"):
            second_moment_eta_spectral_bound(gauss_bump, meyer, 0, order)
