import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subwave import processes
from subwave.errors import ValidationError
from subwave.processes import (
    ProcessModel,
    RankOne,
    Stationary,
    _covariance_factor,
    _linear_sampler,
    _block_rng,
    SampleBatch,
    SamplePath,
    dump_paths,
    make_gauss_bump,
    make_ou,
    make_separable,
    minkowski_gap,
    parse_model_spec,
    simulate_paths,
    simulation_grid,
    validate_model,
)


def _ou_cov(t, s):
    return np.exp(-np.abs(np.asarray(t) - np.asarray(s)))


def _ones(t):
    return np.ones_like(np.asarray(t, dtype=float))


class TestOU:
    def test_covariance_values(self, ou1):
        assert ou1.covariance(0.0, 0.0) == 1.0
        assert ou1.covariance(0.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_spectral_density_at_zero(self, ou1):
        assert ou1.structure.r_hat(0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("z", [0.0, 1.0, 5.0])
    def test_spectral_density_matches_numeric_transform(self, ou1, z):
        t = np.linspace(-40.0, 40.0, 160001)
        vals = np.exp(-np.abs(t)) * np.cos(z * t)
        numeric = np.trapezoid(vals, t)
        assert abs(numeric - ou1.structure.r_hat(z)) < 1e-3

    def test_unit_tau(self):
        m = make_ou(2.0)
        t = np.linspace(-3, 3, 7)
        assert np.allclose(m.tau_phi(t), 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            make_ou(0.0)
        with pytest.raises(ValidationError):
            make_ou(-1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_rejects_non_finite_rate(self, lam):
        with pytest.raises(ValidationError, match="OU rate must be positive and finite"):
            make_ou(lam)


class TestSeparable:
    def test_covariance_value(self, gauss_bump):
        assert gauss_bump.covariance(1.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_g_hat_origin(self, gauss_bump):
        # the double transform g_hat(z) g_hat(w) at the origin
        assert gauss_bump.structure.g_hat(0.0) ** 2 == pytest.approx(2.0 * math.pi)

    def test_g_hat_matches_numeric_transform(self, gauss_bump):
        t = np.linspace(-20.0, 20.0, 40001)
        numeric = np.trapezoid(np.exp(-0.5 * t * t), t)
        assert numeric == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-9)

    def test_rank_one_covariance(self, gauss_bump):
        t = np.linspace(-2, 2, 9)
        K = gauss_bump.covariance(t[:, None], t[None, :])
        w = np.linalg.eigvalsh(K)
        assert w[-1] > 0.1
        assert np.all(np.abs(w[:-1]) < 1e-10)


class TestModelValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValidationError):
            ProcessModel(
                covariance=lambda t, s: np.asarray(t) - np.asarray(s),
                det_constant=1.0,
                tau_phi=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                gaussian=False,
            )

    def test_gaussian_tau_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ProcessModel(
                covariance=lambda t, s: np.exp(-np.abs(np.asarray(t) - np.asarray(s))),
                det_constant=1.0,
                tau_phi=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
            )

    def test_spectral_density_needs_lag_covariance(self):
        # a model with R_hat is stationary, so R(t,s) must depend on t - s only
        with pytest.raises(ValidationError, match="lag"):
            ProcessModel(
                covariance=lambda t, s: np.asarray(t) * np.asarray(s),
                det_constant=1.0,
                tau_phi=lambda t: np.abs(np.asarray(t, dtype=float)),
                structure=Stationary(lambda z: np.ones_like(np.asarray(z, dtype=float))),
            )

    def test_structure_must_be_a_structure_value(self):
        # a bare R_hat, as a caller of the old spectral_density= field would
        # pass it, is neither Stationary, RankOne nor None
        with pytest.raises(ValidationError, match="structure must be Stationary, RankOne or None"):
            ProcessModel(
                covariance=_ou_cov,
                det_constant=1.0,
                tau_phi=_ones,
                structure=lambda z: 2.0 / (1.0 + np.asarray(z, dtype=float) ** 2),
            )

    @pytest.mark.parametrize(
        "cov, det, tau, gaussian, message",
        [
            (_ou_cov, 0.0, _ones, True, "determinative constant must be positive"),
            (_ou_cov, -1.0, _ones, False, "determinative constant must be positive"),
            # 1 - (t - s)^2 has a unit diagonal but a negative eigenvalue
            (lambda t, s: 1.0 - (np.asarray(t) - np.asarray(s)) ** 2, 1.0, _ones, True,
             "not positive semidefinite"),
            (lambda t, s: -_ou_cov(t, s), 1.0, _ones, False, "negative variance"),
            (_ou_cov, 2.0, _ones, True, "C_X = 1"),
        ],
    )
    def test_model_axioms(self, cov, det, tau, gaussian, message):
        with pytest.raises(ValidationError, match=message):
            ProcessModel(covariance=cov, det_constant=det, tau_phi=tau, gaussian=gaussian)

    def test_spec_strings(self):
        ou = parse_model_spec("ou:1.5")
        assert isinstance(ou.structure, Stationary)
        bump = parse_model_spec("separable:gauss-bump")
        assert isinstance(bump.structure, RankOne)
        for bad in ("ou:", "ou:x", "separable:other", "wiener"):
            with pytest.raises(ValidationError):
                parse_model_spec(bad)

    def test_spec_models_are_values(self):
        assert parse_model_spec("ou:1") is parse_model_spec("ou:1")
        assert parse_model_spec("ou:1") is parse_model_spec("ou:1.0")
        assert make_ou(1) is make_ou(1.0)
        assert make_ou(1.0) is not make_ou(2.0)
        bump = parse_model_spec("separable:gauss-bump")
        assert bump is parse_model_spec("separable:gauss-bump") is make_gauss_bump()


class TestSimulation:
    def test_grid_limits(self):
        with pytest.raises(ValidationError, match="limit 10000"):
            simulation_grid(100.0, 0.01)
        with pytest.raises(ValidationError):
            simulation_grid(1.0, 0.3)  # 0.3 does not divide [-1, 1]

    def test_sample_path_invariants(self):
        with pytest.raises(ValidationError):
            SamplePath(grid=np.array([0.0, 1.0]), values=np.zeros(3), seed=0, path_index=0)
        with pytest.raises(ValidationError):
            SamplePath(
                grid=np.array([0.0, 1.0, 3.0]), values=np.zeros(3), seed=0, path_index=0
            )
        with pytest.raises(ValidationError, match="increasing"):
            SamplePath(grid=np.linspace(2.0, -2.0, 33), values=np.zeros(33), seed=0, path_index=0)
        with pytest.raises(ValidationError, match="two nodes"):
            SamplePath(grid=np.array([0.0]), values=np.zeros(1), seed=0, path_index=0)

    def test_determinism(self, ou1):
        a = simulate_paths(ou1, 2.0, 0.125, 3, seed=42)
        b = simulate_paths(ou1, 2.0, 0.125, 3, seed=42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.values, pb.values)
        c = simulate_paths(ou1, 2.0, 0.125, 3, seed=43)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_variance_at_origin(self, ou1):
        paths = simulate_paths(ou1, 2.0, 0.25, 1000, seed=1)
        grid = paths[0].grid
        i0 = int(np.argmin(np.abs(grid)))
        x0 = np.array([p.values[i0] for p in paths])
        assert abs(np.var(x0) - 1.0) < 0.15

    def test_empirical_covariance_lag_half(self, ou1):
        paths = simulate_paths(ou1, 2.0, 0.25, 2000, seed=5)
        grid = paths[0].grid
        i0 = int(np.argmin(np.abs(grid)))
        i5 = int(np.argmin(np.abs(grid - 0.5)))
        prod = np.array([p.values[i0] * p.values[i5] for p in paths])
        se = float(np.std(prod) / math.sqrt(len(prod)))
        assert abs(np.mean(prod) - math.exp(-0.5)) < 3.0 * se

    def test_separable_paths_proportional_to_g(self, gauss_bump):
        paths = simulate_paths(gauss_bump, 2.0, 0.25, 4, seed=9)
        g = np.exp(-0.5 * paths[0].grid ** 2)
        for p in paths:
            z = p.values[np.argmax(g)]  # value at t=0, where g=1
            assert np.allclose(p.values, z * g, atol=1e-10)

    def test_paths_are_rows_of_one_batch(self, ou1, gauss_bump):
        for model in (ou1, gauss_bump):
            paths = simulate_paths(model, 2.0, 0.25, 5, seed=2)
            assert isinstance(paths, SampleBatch)
            assert paths.values.shape == (5, 17) and len(paths) == 5
            for i, p in enumerate(paths):
                assert np.shares_memory(p.values, paths.values)
                assert p.grid is paths.grid and p.seed == 2 and p.path_index == i
                assert np.array_equal(p.values, paths.values[i])

    @pytest.mark.parametrize("name", ["ou1", "gauss_bump", "damped_ou"])
    def test_each_path_is_contiguous(self, name, request):
        # the batch is one C-contiguous path x grid matrix
        model = _damped_ou() if name == "damped_ou" else request.getfixturevalue(name)
        paths = simulate_paths(model, 2.0, 0.125, 300, seed=3)
        assert paths.values.flags.c_contiguous
        for p in paths[::37]:
            assert p.values.flags.c_contiguous
            assert np.shares_memory(p.values, paths.values)

    def test_batch_indexing(self, ou1):
        paths = simulate_paths(ou1, 2.0, 0.25, 5, seed=2)
        last = paths[-1]
        assert last.path_index == 4
        assert np.array_equal(last.values, paths.values[4])
        assert [p.path_index for p in paths[1:4]] == [1, 2, 3]
        assert [p.path_index for p in paths[::-2]] == [4, 2, 0]
        assert paths[7:] == []
        with pytest.raises(IndexError):
            paths[5]
        with pytest.raises(IndexError):
            paths[-6]

    def test_batch_invariants(self):
        grid = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(ValidationError, match="path x grid"):
            SampleBatch(grid=grid, values=np.zeros(9), seed=0)
        with pytest.raises(ValidationError, match="equal length"):
            SampleBatch(grid=grid, values=np.zeros((9, 2)), seed=0)
        with pytest.raises(ValidationError, match="uniform"):
            SampleBatch(grid=grid**3, values=np.zeros((2, 9)), seed=0)
        # a C-contiguous float matrix is kept as it is; any other is copied
        # into one, so every batch's paths are contiguous rows
        values = np.zeros((2, 9))
        assert SampleBatch(grid=grid, values=values, seed=0).values is values
        for other in (np.zeros((9, 2)).T, np.zeros((2, 9), dtype=int)):
            batch = SampleBatch(grid=list(grid), values=other, seed=0)
            assert batch.values.flags.c_contiguous and batch.values.dtype == float
            assert batch.grid.dtype == float and batch[1].values.shape == (9,)

    @pytest.mark.parametrize("name", ["ou1", "gauss_bump", "damped_ou"])
    def test_path_does_not_depend_on_path_count(self, name, request):
        # rank-one, circulant and dense samplers
        model = _damped_ou() if name == "damped_ou" else request.getfixturevalue(name)
        batches = [simulate_paths(model, 2.0, 0.125, n, seed=4) for n in (3, 10, 300, 600)]
        for few, many in zip(batches[:-1], batches[1:]):
            assert np.array_equal(few.values, many.values[: len(few)])
        # path i is L z_i, z_i row i mod 256 of the stream of block i // 256
        paths = batches[2]
        k, sample = _linear_sampler(model, paths.grid)
        for i in (0, 9, 255, 256, 299):
            rows = _block_rng(4, i // 256).standard_normal((i % 256 + 1, k))
            out = np.empty((len(rows), len(paths.grid)))
            sample(rows, out)
            assert np.array_equal(paths[i].values, out[-1])

    @pytest.mark.parametrize("n_paths", [600, 1000])
    @pytest.mark.parametrize("name", ["ou1", "gauss_bump", "damped_ou"])
    def test_paths_do_not_depend_on_thread_count(self, name, n_paths, request, monkeypatch):
        model = _damped_ou() if name == "damped_ou" else request.getfixturevalue(name)
        batches = []
        for workers in (1, 3):
            monkeypatch.setattr(processes, "_worker_count", lambda: workers)
            batches.append(simulate_paths(model, 2.0, 0.125, n_paths, seed=8))
        assert np.array_equal(batches[0].values, batches[1].values)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_scratch_matches_a_fresh_run(self, ou1, workers, monkeypatch):
        # 33 paths leave a partial slab, 257 a partial block, 700 both; each
        # worker's normals and spectrum carry over from slab to slab and
        # from block to block, so nothing of one slab may leak into the next
        monkeypatch.setattr(processes, "_worker_count", lambda: workers)
        many = simulate_paths(ou1, 8.0, 1 / 16, 2000, seed=21)
        for n in (33, 257, 700):
            few = simulate_paths(ou1, 8.0, 1 / 16, n, seed=21)
            assert np.array_equal(few.values, many.values[:n])
        # and each path is its own rows mapped by a sampler made for them alone
        for i in (31, 32, 255, 256, 699, 1999):
            k, sample = _linear_sampler(ou1, many.grid)
            z = _block_rng(21, i // 256).standard_normal((i % 256 + 1, k))[-1:]
            out = np.empty((1, len(many.grid)))
            sample(z, out)
            assert np.array_equal(many[i].values, out[0])

    def test_sampler_memory_is_bounded(self):
        # beyond the path-major result, each worker holds one slab of normals
        # and one of spectra (32 rows of the 3,393-node grid and its
        # 6,784-point embedding, ~1.7 MB each)
        args = (make_ou(1.0), 53.0, 1 / 32, 2000, 6)
        simulate_paths(*args)  # warm: FFT plans and generator set-up
        tracemalloc.start()
        try:
            X = simulate_paths(*args).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = min(processes._worker_count(), -(-2000 // 256))
        assert peak <= X.nbytes + 8e6 * workers

    def test_needs_a_path(self, ou1):
        with pytest.raises(ValidationError, match="n_paths must be >= 1"):
            simulate_paths(ou1, 1.0, 0.5, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, -5, 2**64, 5 + 2**64])
    def test_seed_outside_64_bits_rejected(self, ou1, seed):
        # the streams key on 64 bits: -1 would replay 2^64 - 1, 5 + 2^64 seed 5
        with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\^64\)"):
            simulate_paths(ou1, 1.0, 0.5, 2, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(3.0)])
    def test_non_integer_seed_rejected(self, ou1, seed):
        # int(1.5) keys the streams of seed 1, so 1.5 would alias it
        with pytest.raises(ValidationError, match="seed must be an integer"):
            simulate_paths(ou1, 2.0, 0.125, 3, seed)

    def test_numpy_integer_seed_accepted(self, ou1):
        a = simulate_paths(ou1, 2.0, 0.125, 3, np.uint64(2**64 - 1)).values
        assert np.array_equal(a, simulate_paths(ou1, 2.0, 0.125, 3, 2**64 - 1).values)

    def test_seed_range_ends_differ(self, ou1):
        first = simulate_paths(ou1, 1.0, 0.5, 2, seed=0).values
        last = simulate_paths(ou1, 1.0, 0.5, 2, seed=2**64 - 1).values
        assert not np.array_equal(first, last)

    @pytest.mark.parametrize(
        "L, h, message",
        [
            (math.inf, 0.125, "finite L > 0 and h > 0"),
            (math.nan, 0.125, "finite L > 0 and h > 0"),
            (1.0, math.inf, "finite L > 0 and h > 0"),
            (1.0, math.nan, "finite L > 0 and h > 0"),
            (1.0, 1e-320, "inf points"),  # 2 L / h overflows before rounding
            (1e300, 1e-300, "limit 10000"),
        ],
    )
    def test_grid_rejects_non_finite_input(self, L, h, message):
        with pytest.raises(ValidationError, match=message):
            simulation_grid(L, h)

    def test_non_gaussian_not_simulatable(self):
        m = ProcessModel(
            covariance=lambda t, s: np.exp(-np.abs(np.asarray(t) - np.asarray(s))),
            det_constant=2.0,
            tau_phi=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
            gaussian=False,
        )
        with pytest.raises(ValidationError):
            simulate_paths(m, 1.0, 0.5, 1, seed=0)

    def test_dump_paths(self, ou1, tmp_path):
        paths = simulate_paths(ou1, 1.0, 0.5, 2, seed=3)
        written = dump_paths(paths, tmp_path)
        assert sorted(written) == [
            str(tmp_path / "path_0.csv"),
            str(tmp_path / "path_1.csv"),
        ]
        lines = (tmp_path / "path_0.csv").read_text().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 1 + len(paths[0].grid)

    def test_dump_batch_matches_dump_of_its_paths(self, ou1, tmp_path):
        paths = simulate_paths(ou1, 1.0, 0.5, 3, seed=3)
        written = dump_paths(paths, tmp_path / "batch")
        listed = dump_paths(list(paths), tmp_path / "list")
        assert [Path(f).name for f in written] == [Path(f).name for f in listed]
        for a, b in zip(written, listed):
            assert Path(a).read_bytes() == Path(b).read_bytes()


def _squared_exponential():
    root_two_pi = math.sqrt(2.0 * math.pi)
    return ProcessModel(
        covariance=lambda t, s: np.exp(-0.5 * (np.asarray(t) - np.asarray(s)) ** 2),
        det_constant=1.0,
        tau_phi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        structure=Stationary(lambda z: root_two_pi * np.exp(-0.5 * np.asarray(z, dtype=float) ** 2)),
    )


def _damped_ou():
    # neither stationary nor rank-one
    return ProcessModel(
        covariance=lambda t, s: np.exp(
            -np.abs(np.asarray(t) - np.asarray(s)) - 0.1 * (np.asarray(t) ** 2 + np.asarray(s) ** 2)
        ),
        det_constant=1.0,
        tau_phi=lambda t: np.exp(-0.1 * np.asarray(t, dtype=float) ** 2),
    )


class TestLinearSampler:
    """Each sampler's linear map L, read off identity normals, has L L^T = K."""

    GRID = simulation_grid(2.0, 0.125)  # n = 33, circulant size m = 64

    @pytest.mark.parametrize(
        "make, k",
        [
            (lambda: make_ou(0.5), 64),
            (lambda: make_ou(1.0), 64),
            (lambda: make_ou(3.0), 64),
            (make_gauss_bump, 1),
            # its minimal embedding has min/max eigenvalue -2.1e-5: dense fallback
            (_squared_exponential, 33),
            (_damped_ou, 33),
        ],
        ids=["ou0.5", "ou1", "ou3", "gauss-bump", "squared-exponential", "damped-ou"],
    )
    def test_map_reproduces_covariance(self, make, k):
        model = make()
        grid = self.GRID
        width, sample = _linear_sampler(model, grid)
        assert width == k
        rows = np.full((k, len(grid)), np.nan)
        sample(np.eye(k), rows)  # row i is L e_i
        L = rows.T
        assert L.shape == (len(grid), k)
        K = model.covariance(grid[:, None], grid[None, :])
        F = _covariance_factor(model, grid)  # the dense eigh oracle
        assert np.max(np.abs(L @ L.T - K)) <= 1e-10
        assert np.max(np.abs(L @ L.T - F @ F.T)) <= 1e-10
        if k == len(grid):
            assert np.array_equal(L, F)


class TestValidateModel:
    def test_ou_with_constant_bound(self, ou1, meyer):
        rep = validate_model(ou1, meyer, lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)), 2.0)
        assert rep["passed"]
        assert rep["growth_condition"]["A_estimates"][2.0] == pytest.approx(1.0)

    def test_separable_passes(self, gauss_bump, db3):
        rep = validate_model(
            gauss_bump, db3, lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)), 2.0
        )
        assert rep["passed"]

    def test_c_bound_preconditions(self, ou1, meyer):
        ones = lambda t: 0.5 * np.ones_like(np.asarray(t, dtype=float))
        with pytest.raises(ValidationError):
            validate_model(ou1, meyer, ones, 1.0)  # c(0) <= 1
        with pytest.raises(ValidationError):
            validate_model(ou1, meyer, lambda t: 2.0 + np.asarray(t, dtype=float), 1.0)  # odd
        with pytest.raises(ValidationError):
            validate_model(
                ou1, meyer, lambda t: 2.0 / (1.0 + np.abs(np.asarray(t))), 1.0
            )  # decreasing

    def test_failed_domination_reported(self, meyer):
        # tau = 1 but c_bound dips to 1.01 only at huge |t|... use growing tau
        m = make_separable(
            g=lambda t: 1.0 + np.asarray(t, dtype=float) ** 2,
            g_hat=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        )
        rep = validate_model(
            m, meyer, lambda t: 1.5 * np.ones_like(np.asarray(t, dtype=float)), 2.0
        )
        assert not rep["tau_dominated"]["passed"]
        assert not rep["passed"]


class TestMinkowski:
    def test_ou_closed_form(self, ou1):
        lhs, rhs = minkowski_gap(ou1, 1.0)
        assert lhs == pytest.approx(math.sqrt(2.0 * math.exp(-1.0)), abs=1e-4)
        assert rhs == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_interval_ratio(self, ou1):
        lhs, rhs = minkowski_gap(ou1, 1e-3)
        assert lhs / rhs == pytest.approx(1.0, abs=1e-3)

    def test_saturation_for_constant_g(self):
        # g ~ 1 on [0, T]: perfectly correlated, equality up to the taper
        m = make_separable(
            g=lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 200.0),
            g_hat=lambda z: math.sqrt(200.0 * math.pi)
            * np.exp(-50.0 * np.asarray(z, dtype=float) ** 2),
        )
        lhs, rhs = minkowski_gap(m, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-5)
        assert rhs == pytest.approx(1.0, abs=5e-3)

    def test_needs_a_gaussian_model(self):
        m = ProcessModel(covariance=_ou_cov, det_constant=2.0, tau_phi=_ones, gaussian=False)
        with pytest.raises(ValidationError, match="assumes a Gaussian model"):
            minkowski_gap(m, 1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_inequality_ou(self, lam, T):
        lhs, rhs = minkowski_gap(make_ou(lam), T)
        assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_inequality_separable(self, gauss_bump, T):
        lhs, rhs = minkowski_gap(gauss_bump, T)
        assert lhs <= rhs + 1e-9
