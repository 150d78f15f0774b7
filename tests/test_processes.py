import dataclasses
import hashlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subwave import processes
from subwave.errors import ResourceLimitError, ValidationError
from subwave.expansion import _frequency_side
from subwave.processes import (
    Gaussian,
    Kernel,
    ProcessModel,
    RankOne,
    Stationary,
    SubGaussian,
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
)


def _ou_cov(t, s):
    return np.exp(-np.abs(np.asarray(t) - np.asarray(s)))


def _ones(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _map_slabs(sample, Z, n):
    """The paths of the rows of Z, fed to ``sample`` in slabs of at most
    ``_SLAB`` rows, as ``simulate_paths`` feeds a map."""
    out = np.full((len(Z), n), np.nan)
    for start in range(0, len(Z), processes._SLAB):
        sample(Z[start : start + processes._SLAB], out[start : start + processes._SLAB])
    return out


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
        assert np.allclose(np.sqrt(m.covariance(t, t)), 1.0)

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


class TestModelType:
    """A model is its structure and its law; the rest is derived from them."""

    GRID = np.linspace(-3.0, 3.0, 25)

    def test_fields_are_structure_and_law(self):
        assert tuple(f.name for f in dataclasses.fields(ProcessModel)) == ("structure", "law")

    def test_ou_values(self, ou1):
        t, s = self.GRID[:, None], self.GRID[None, :]
        # bit for bit the covariance OU stated before it was derived from r
        assert np.array_equal(ou1.covariance(t, s), np.exp(-1.0 * np.abs(np.asarray(t) - np.asarray(s))))
        assert np.array_equal(np.sqrt(ou1.covariance(self.GRID, self.GRID)), np.ones(len(self.GRID)))
        assert ou1.det_constant == 1.0 and ou1.gaussian and ou1.law == Gaussian()

    def test_bump_values(self, gauss_bump):
        g = gauss_bump.structure.g
        t, s = self.GRID[:, None], self.GRID[None, :]
        assert np.array_equal(gauss_bump.covariance(t, s), np.asarray(g(t)) * np.asarray(g(s)))
        assert np.array_equal(np.sqrt(gauss_bump.covariance(self.GRID, self.GRID)), np.abs(g(self.GRID)))
        assert gauss_bump.det_constant == 1.0 and gauss_bump.gaussian

    def test_kernel_values(self):
        model = _damped_ou()
        t = self.GRID
        assert np.array_equal(model.covariance(t, t), model.structure.covariance(t, t))
        assert np.allclose(np.sqrt(model.covariance(t, t)), np.exp(-0.1 * t**2), rtol=1e-15, atol=0.0)
        assert model.det_constant == 1.0 and model.gaussian

    def test_sub_gaussian_values(self):
        model = ProcessModel(Kernel(_ou_cov), SubGaussian(2.0))
        assert model.det_constant == 2.0 and not model.gaussian
        assert model.covariance is _ou_cov

    def test_kernel_takes_dense_sampler_and_tensor_engine(self, meyer):
        model = _damped_ou()
        grid = simulation_grid(2.0, 0.125)
        k, sample = _linear_sampler(model, grid)
        assert (k, sample.__name__) == (len(grid), "dense")
        assert not _frequency_side(model, meyer)


class TestModelValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValidationError):
            ProcessModel(
                Kernel(lambda t, s: np.asarray(t) - np.asarray(s)),
                SubGaussian(1.0),
            )

    def test_takes_no_derived_argument(self, gauss_bump):
        # the covariance, tau and C_X follow from the structure and the law,
        # so gauss-bump's structure on OU's covariance cannot be written
        for name, value in (("covariance", _ou_cov), ("tau_phi", _ones), ("det_constant", 1.0)):
            with pytest.raises(TypeError, match=name):
                ProcessModel(gauss_bump.structure, **{name: value})

    def test_spectral_mass_must_match_variance(self, ou1):
        # 10x OU's R_hat integrates to 10 x 2 pi, against r(0) = 1
        with pytest.raises(ValidationError, match="R_hat does not match the covariance"):
            ProcessModel(Stationary(ou1.structure.r, lambda z: 10.0 * ou1.structure.r_hat(z)))

    def test_g_hat_must_match_g(self, gauss_bump):
        # 10x the bump's g_hat inverts to 10 at 0, against g(0) = 1
        g, g_hat = gauss_bump.structure.g, gauss_bump.structure.g_hat
        with pytest.raises(ValidationError, match="g_hat does not match g"):
            make_separable(g, lambda z: 10.0 * g_hat(z))
        with pytest.raises(ValidationError, match="g_hat does not match g"):
            make_separable(g, lambda z: g_hat(z) * (1.0 + 1e-5))

    @pytest.mark.parametrize("lam", [1e-4, 0.02, 1.0, 1e4])
    def test_ou_spectral_mass_on_every_scale(self, lam):
        # OU's R_hat is a Lorentzian of width lam; each builds, as does the
        # squared exponential (the doubled OU builds in test_expansion.py)
        assert make_ou(lam).covariance(0.0, 0.0) == 1.0
        _squared_exponential()

    def test_structure_must_be_a_structure_value(self, ou1):
        # a bare R_hat, as a caller of the old spectral_density= field would
        # pass it, and the old general-covariance None are not structures
        for bad in (lambda z: 2.0 / (1.0 + np.asarray(z, dtype=float) ** 2), None):
            with pytest.raises(ValidationError, match="structure must be Stationary, RankOne or Kernel"):
                ProcessModel(bad)
        with pytest.raises(ValidationError, match="law must be Gaussian or SubGaussian"):
            ProcessModel(ou1.structure, law=2.0)

    @pytest.mark.parametrize(
        "cov, det, tau, gaussian, message",
        [
            (_ou_cov, 0.0, _ones, False, "determinative constant must be positive"),
            (_ou_cov, -1.0, _ones, False, "determinative constant must be positive"),
            # 1 - (t - s)^2 has a unit diagonal but a negative eigenvalue
            (lambda t, s: 1.0 - (np.asarray(t) - np.asarray(s)) ** 2, 1.0, _ones, True,
             "not positive semidefinite"),
            (lambda t, s: -_ou_cov(t, s), 1.0, _ones, False, "negative variance"),
        ],
    )
    def test_model_axioms(self, cov, det, tau, gaussian, message):
        # a Gaussian law has C_X = 1, any other states it; tau is no part of
        # a law, and its column only keeps these cases' ids
        with pytest.raises(ValidationError, match=message):
            ProcessModel(Kernel(cov), Gaussian() if gaussian else SubGaussian(det))

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


def _model(name, request):
    # the helpers below by name, or a conftest fixture
    made = {"damped_ou": _damped_ou, "matern32": _matern32}
    return made[name]() if name in made else request.getfixturevalue(name)


class TestSimulation:
    def test_grid_limits(self):
        with pytest.raises(ValidationError, match="limit 10000"):
            simulation_grid(100.0, 0.01)
        with pytest.raises(ValidationError):
            simulation_grid(1.0, 0.3)  # 0.3 does not divide [-1, 1]

    def test_sample_path_invariants(self):
        with pytest.raises(ValidationError):
            SamplePath(grid=np.array([0.0, 1.0]), values=np.zeros(3), path_index=0)
        with pytest.raises(ValidationError):
            SamplePath(grid=np.array([0.0, 1.0, 3.0]), values=np.zeros(3), path_index=0)
        with pytest.raises(ValidationError, match="increasing"):
            SamplePath(grid=np.linspace(2.0, -2.0, 33), values=np.zeros(33), path_index=0)
        with pytest.raises(ValidationError, match="two nodes"):
            SamplePath(grid=np.array([0.0]), values=np.zeros(1), path_index=0)

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
                assert p.grid is paths.grid and p.path_index == i
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
            SampleBatch(grid=grid, values=np.zeros(9))
        with pytest.raises(ValidationError, match="equal length"):
            SampleBatch(grid=grid, values=np.zeros((9, 2)))
        with pytest.raises(ValidationError, match="uniform"):
            SampleBatch(grid=grid**3, values=np.zeros((2, 9)))
        # a C-contiguous float matrix is kept as it is; any other is copied
        # into one, so every batch's paths are contiguous rows
        values = np.zeros((2, 9))
        assert SampleBatch(grid=grid, values=values).values is values
        for other in (np.zeros((9, 2)).T, np.zeros((2, 9), dtype=int)):
            batch = SampleBatch(grid=list(grid), values=other)
            assert batch.values.flags.c_contiguous and batch.values.dtype == float
            assert batch.grid.dtype == float and batch[1].values.shape == (9,)

    @pytest.mark.parametrize("name", ["ou1", "gauss_bump", "damped_ou", "matern32"])
    def test_path_does_not_depend_on_path_count(self, name, request):
        # Markov, rank-one, dense and circulant samplers
        model = _model(name, request)
        batches = [simulate_paths(model, 2.0, 0.125, n, seed=4) for n in (3, 10, 300, 600)]
        for few, many in zip(batches[:-1], batches[1:]):
            assert np.array_equal(few.values, many.values[: len(few)])
        # path i is L z_i, z_i row i mod 256 of the stream of block i // 256,
        # mapped in its slab of the block's rows
        paths = batches[2]
        k, sample = _linear_sampler(model, paths.grid)
        for i in (0, 9, 255, 256, 299):
            rows = _block_rng(4, i // 256).standard_normal((i % 256 + 1, k))
            slab = rows[i % 256 // processes._SLAB * processes._SLAB :]
            out = np.empty((len(slab), len(paths.grid)))
            with processes._one_blas_thread():
                sample(slab, out)
            assert np.array_equal(paths[i].values, out[-1])

    @pytest.mark.parametrize("n_paths", [600, 1000])
    @pytest.mark.parametrize("name", ["ou1", "gauss_bump", "damped_ou", "matern32"])
    def test_paths_do_not_depend_on_thread_count(self, name, n_paths, request, monkeypatch):
        model = _model(name, request)
        batches = []
        for workers in (1, 3):
            monkeypatch.setattr(processes, "_worker_count", lambda: workers)
            batches.append(simulate_paths(model, 2.0, 0.125, n_paths, seed=8))
        assert np.array_equal(batches[0].values, batches[1].values)

    def test_kernel_paths_do_not_depend_on_blas_threads(self):
        # the dense map's eigh factor and its product round by the BLAS
        # thread count; both run on one BLAS thread whatever the setting
        src = Path(processes.__file__).resolve().parents[1]
        script = inspect.getsource(_damped_ou) + (
            "import hashlib\nimport numpy as np\n"
            "from subwave.processes import Kernel, ProcessModel, simulate_paths\n"
            "values = simulate_paths(_damped_ou(), 2.0, 1 / 64, 300, seed=3).values\n"
            "print(hashlib.sha1(values.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
            )
            digests.append(run.stdout)
        values = simulate_paths(_damped_ou(), 2.0, 1 / 64, 300, seed=3).values
        assert digests == [hashlib.sha1(values.tobytes()).hexdigest() + "\n"] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_scratch_matches_a_fresh_run(self, ou1, workers, monkeypatch):
        # 33 paths leave a partial slab, 257 a partial block, 700 both; each
        # worker's normals (and the circulant map's spectrum) carry over from
        # slab to slab and from block to block, so nothing of one slab may
        # leak into the next; OU takes the Markov map, Matern the circulant
        monkeypatch.setattr(processes, "_worker_count", lambda: workers)
        for model in (ou1, _matern32()):
            many = simulate_paths(model, 8.0, 1 / 16, 2000, seed=21)
            for n in (33, 257, 700):
                few = simulate_paths(model, 8.0, 1 / 16, n, seed=21)
                assert np.array_equal(few.values, many.values[:n])
            # and each path is its own rows mapped by a sampler made for them alone
            for i in (31, 32, 255, 256, 699, 1999):
                k, sample = _linear_sampler(model, many.grid)
                z = _block_rng(21, i // 256).standard_normal((i % 256 + 1, k))[-1:]
                out = np.empty((1, len(many.grid)))
                sample(z, out)
                assert np.array_equal(many[i].values, out[0])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["ou1", "gauss_bump", "damped_ou", "matern32"])
    def test_block_hook_sees_each_whole_block_once(self, name, workers, request, monkeypatch):
        # 600 paths: two full blocks and one of 88 paths and 168 pad rows
        model = _model(name, request)
        monkeypatch.setattr(processes, "_worker_count", lambda: workers)
        seen = []
        batch = simulate_paths(
            model, 2.0, 0.125, 600, seed=8, on_block=lambda first, rows: seen.append((first, rows.copy()))
        )
        assert sorted(first for first, _ in seen) == [0, 256, 512]
        for first, rows in seen:
            assert rows.shape == (processes._PATH_BLOCK, len(batch.grid))
            count = min(processes._PATH_BLOCK, 600 - first)
            assert np.array_equal(rows[:count], batch.values[first : first + count])
            assert not rows[count:].any()
        assert np.array_equal(batch.values, simulate_paths(model, 2.0, 0.125, 600, seed=8).values)

    @pytest.mark.parametrize("name", ["ou1", "gauss_bump", "damped_ou", "matern32"])
    def test_every_map_is_fed_slabs(self, name, request, monkeypatch):
        # 600 paths: two blocks of eight full slabs, then 88 paths in two
        # full slabs and a partial one of 24
        made, sizes = processes._linear_sampler, []

        def counting(model, grid):
            k, sample = made(model, grid)

            def counted(Z, out):
                sizes.append(len(Z))
                sample(Z, out)

            return k, counted

        monkeypatch.setattr(processes, "_linear_sampler", counting)
        simulate_paths(_model(name, request), 2.0, 0.125, 600, seed=8)
        assert sorted(sizes) == [24] + [processes._SLAB] * 18

    def test_batch_is_a_view_of_whole_blocks(self, ou1):
        # the last block is filled and read in place, not copied to pad it
        blocks = []
        batch = simulate_paths(ou1, 2.0, 0.125, 300, seed=3, on_block=lambda first, rows: blocks.append(rows))
        assert batch.values.shape == (300, len(batch.grid)) and batch.values.flags.c_contiguous
        assert all(np.shares_memory(rows, batch.values) for rows in blocks)

    def test_sampler_memory_is_bounded(self):
        # beyond the path-major result, each worker holds one slab of 32 rows:
        # OU's Markov map 3,393 normals a row (~0.9 MB), Matern's circulant
        # map the 6,912 normals of its embedding and a 3,457-entry spectrum
        # a row (~1.8 MB each), on the criterion-8 grid of 3,393 nodes
        workers = min(processes._worker_count(), -(-2000 // 256))
        for model in (make_ou(1.0), _matern32()):
            args = (model, 53.0, 1 / 32, 2000, 6)
            simulate_paths(*args)  # warm: FFT plans and generator set-up
            tracemalloc.start()
            try:
                X = simulate_paths(*args).values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= X.nbytes + 8e6 * workers

    def test_needs_a_path(self, ou1):
        with pytest.raises(ValidationError, match="n_paths must be >= 1"):
            simulate_paths(ou1, 1.0, 0.5, 0, seed=0)

    def test_paths_past_memory_refused_before_allocation(self, ou1):
        # 10^16 paths of 5 nodes need 4e17 bytes, past any machine's memory
        # (and past its address space, so an unchecked run fails to allocate)
        with pytest.raises(ResourceLimitError, match="10000000000000000 paths of 5 nodes need"):
            simulate_paths(ou1, 1.0, 0.5, 10**16, seed=1)

    def test_memory_limit_is_the_whole_block_buffer(self, monkeypatch):
        # a block of 256 rows of 5 float nodes is 10,240 bytes, the paths
        # past n_paths included
        monkeypatch.setattr(processes, "_physical_memory", lambda: 256 * 5 * 8)
        processes.check_path_memory(1, 5)
        processes.check_path_memory(256, 5)
        for n_paths, per_path in ((257, 0), (256, 1)):
            with pytest.raises(ResourceLimitError, match="more than this machine's"):
                processes.check_path_memory(n_paths, 5, per_path)

    def test_memory_error_at_allocation_is_a_resource_limit(self, ou1, unchecked_memory):
        with pytest.raises(ResourceLimitError, match="cannot allocate a 10000000000000000 x 5 float array"):
            simulate_paths(ou1, 1.0, 0.5, 10**16, seed=1)

    @pytest.mark.parametrize("n_paths", [2.5, 2.0, True, "2", None])
    def test_non_integer_path_count_rejected(self, ou1, n_paths):
        # a float would reach range()'s TypeError, and True would draw one path
        with pytest.raises(ValidationError, match="n_paths must be an integer"):
            simulate_paths(ou1, 1.0, 0.5, n_paths, seed=0)

    def test_numpy_integer_path_count(self, ou1):
        batch = simulate_paths(ou1, 1.0, 0.5, np.int64(3), seed=0)
        assert batch.values.tobytes() == simulate_paths(ou1, 1.0, 0.5, 3, seed=0).values.tobytes()

    @pytest.mark.parametrize("seed", [-1, -5, 2**64, 5 + 2**64])
    def test_seed_outside_64_bits_rejected(self, ou1, seed):
        # the seed range is [0, 2^64): a negative seed raises ValidationError,
        # not SeedSequence's bare ValueError, and a wider one is refused too
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
            Kernel(lambda t, s: np.exp(-np.abs(np.asarray(t) - np.asarray(s)))),
            SubGaussian(2.0),
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
        Stationary(
            r=lambda tau: np.exp(-0.5 * tau**2),
            r_hat=lambda z: root_two_pi * np.exp(-0.5 * np.asarray(z, dtype=float) ** 2),
        )
    )


def _cauchy(ell):
    # R = 1 / (1 + tau^2 / ell^2), R_hat = pi ell exp(-ell |z|)
    return ProcessModel(
        Stationary(
            r=lambda tau: 1.0 / (1.0 + (tau / ell) ** 2),
            r_hat=lambda z: math.pi * ell * np.exp(-ell * np.abs(np.asarray(z, dtype=float))),
        )
    )


def _matern32():
    # R = (1 + a |tau|) exp(-a |tau|), R_hat = 4 a^3 / (a^2 + z^2)^2, a = sqrt 3:
    # not Markov, so it takes the circulant map
    a = math.sqrt(3.0)
    return ProcessModel(
        Stationary(
            r=lambda tau: (1.0 + a * np.abs(tau)) * np.exp(-a * np.abs(tau)),
            r_hat=lambda z: 4.0 * a**3 / (a**2 + np.asarray(z, dtype=float) ** 2) ** 2,
        )
    )


def _mixture():
    # 0.5 OU + 0.5 squared exponential: half OU, yet not geometric
    root_two_pi = math.sqrt(2.0 * math.pi)
    return ProcessModel(
        Stationary(
            r=lambda tau: 0.5 * np.exp(-np.abs(tau)) + 0.5 * np.exp(-0.5 * tau**2),
            r_hat=lambda z: 1.0 / (1.0 + np.asarray(z, dtype=float) ** 2)
            + 0.5 * root_two_pi * np.exp(-0.5 * np.asarray(z, dtype=float) ** 2),
        )
    )


def _oscillating():
    # R = exp(-tau^2/2) cos 3 tau, R_hat = sqrt(pi/2) (exp(-(z-3)^2/2) + exp(-(z+3)^2/2)):
    # at h = 1 its lag-1 correlation is -0.60, so it has no AR(1) map
    c = math.sqrt(math.pi / 2.0)
    return ProcessModel(
        Stationary(
            r=lambda tau: np.exp(-0.5 * tau**2) * np.cos(3.0 * tau),
            r_hat=lambda z: c * (np.exp(-0.5 * (np.asarray(z, dtype=float) - 3.0) ** 2)
                                 + np.exp(-0.5 * (np.asarray(z, dtype=float) + 3.0) ** 2)),
        )
    )


def _damped_ou():
    # neither stationary nor rank-one
    return ProcessModel(
        Kernel(
            lambda t, s: np.exp(
                -np.abs(np.asarray(t) - np.asarray(s)) - 0.1 * (np.asarray(t) ** 2 + np.asarray(s) ** 2)
            )
        )
    )


class TestLinearSampler:
    """Each sampler's linear map L, read off identity normals, has L L^T = K."""

    GRID = simulation_grid(2.0, 0.125)  # n = 33, minimal circulant size 2(n - 1) = 64
    COARSE = simulation_grid(8.0, 1.0)  # n = 17, minimal circulant size 32

    @pytest.mark.parametrize(
        "make, k, dense, grid",
        [
            # the Markov map: k = n
            (lambda: make_ou(0.5), 33, False, GRID),
            (lambda: make_ou(1.0), 33, False, GRID),
            (lambda: make_ou(3.0), 33, False, GRID),
            (make_gauss_bump, 1, False, GRID),
            (_matern32, 64, False, GRID),
            # its minimal embedding has min/max eigenvalue -2.1e-5: grown to 108
            (_squared_exponential, 108, False, GRID),
            # minimal embedding indefinite: grown to 120
            (lambda: _cauchy(0.5), 120, False, GRID),
            (_damped_ou, 33, True, GRID),
            # a negative lag-1 correlation: the circulant map, not the Markov one
            (_oscillating, 32, False, COARSE),
        ],
        ids=["ou0.5", "ou1", "ou3", "gauss-bump", "matern32", "squared-exponential", "cauchy0.5", "damped-ou",
             "oscillating"],
    )
    def test_map_reproduces_covariance(self, make, k, dense, grid):
        model = make()
        width, sample = _linear_sampler(model, grid)
        assert width == k
        L = _map_slabs(sample, np.eye(k), len(grid)).T  # row i of the paths is L e_i
        assert L.shape == (len(grid), k)
        K = model.covariance(grid[:, None], grid[None, :])
        F = _covariance_factor(model, grid)  # the dense eigh oracle
        assert np.max(np.abs(L @ L.T - K)) <= 1e-10
        assert np.max(np.abs(L @ L.T - F @ F.T)) <= 1e-10
        if dense:
            assert np.array_equal(L, F)

    def test_fast_lengths_are_the_even_five_smooth_numbers(self):
        def five_smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        want = [m for m in range(2, 2001, 2) if five_smooth(m)]
        assert processes._fast_lengths(1, 2000) == want
        assert processes._fast_lengths(212, 250) == [216, 240, 250]
        assert processes._fast_lengths(6784, 6912) == [6912]

    @pytest.mark.parametrize("L, h, m", [(2.0, 0.125, 64), (6.625, 0.125, 216), (53.0, 1 / 32, 6912)])
    def test_width_is_the_smallest_fast_length(self, L, h, m):
        # 2(n - 1) = 64 is already fast; 212 = 2^2 53 pads to 216 = 2^3 3^3,
        # and the criterion-8 grid's 6,784 = 2^7 53 to 6,912 = 2^8 3^3;
        # Matern-3/2's embedding is nonnegative at each of these lengths
        grid = simulation_grid(L, h)
        assert m == min(processes._fast_lengths(2 * (len(grid) - 1), 10**5))
        assert _linear_sampler(_matern32(), grid)[0] == m

    @pytest.mark.parametrize("make, k", [(_squared_exponential, 108), (lambda: _cauchy(0.5), 120)])
    def test_growth_past_an_indefinite_embedding(self, make, k):
        model, grid = make(), self.GRID
        h = grid[1] - grid[0]

        def indefinite(m):
            row = model.covariance(grid[0] + h * np.arange(m // 2 + 1), grid[0])
            lam = np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real
            return lam.min() < -1e-10 * max(lam.max(), 1.0)

        tried = processes._fast_lengths(64, k)
        assert tried[0] == 64 and tried[-1] == k
        assert all(indefinite(m) for m in tried[:-1]) and not indefinite(k)
        assert _linear_sampler(model, grid)[0] == k

    @pytest.mark.parametrize(
        "make, growth",
        [
            # no nonnegative embedding up to the default cap, 8 x 64, on this grid
            (lambda: _cauchy(1.0), None),
            # with the cap at 1 x 64 only the indefinite minimal length is tried
            (_squared_exponential, 1),
        ],
        ids=["cauchy1", "squared-exponential-cap-1"],
    )
    def test_dense_past_the_cap(self, make, growth, monkeypatch):
        if growth is not None:
            monkeypatch.setattr(processes, "_EMBEDDING_GROWTH", growth)
        model, grid = make(), self.GRID
        width, sample = _linear_sampler(model, grid)
        assert (width, sample.__name__) == (len(grid), "dense")
        L = _map_slabs(sample, np.eye(width), len(grid))
        assert np.array_equal(L.T, _covariance_factor(model, grid))

    def test_rows_of_the_criterion_8_map(self):
        # six full rows of L L^T on the 3,393-node grid: Matern-3/2's
        # circulant map (m = 6,912), whose lag row runs past the grid's end,
        # and OU's Markov map (k = n); L is read off in column slabs
        grid = simulation_grid(53.0, 1 / 32)
        rows = np.array([0, 1, 1234, 1696, 3391, 3392])
        for model, width in ((_matern32(), 6912), (make_ou(1.0), len(grid))):
            k, sample = _linear_sampler(model, grid)
            assert k == width
            LLt = np.zeros((len(rows), len(grid)))
            for start in range(0, k, processes._SLAB):
                cols = np.empty((min(processes._SLAB, k - start), len(grid)))
                sample(np.eye(len(cols), k, start), cols)  # row j is L e_(start + j)
                LLt += cols[:, rows].T @ cols
            K = model.covariance(grid[rows, None], grid[None, :])
            assert np.max(np.abs(LLt - K)) <= 1e-14

    @pytest.mark.parametrize(
        "model, L, h",
        [(make_ou(0.5), 2.0, 0.125), (make_ou(1.0), 2.0, 0.125), (make_ou(3.0), 2.0, 0.125),
         (make_ou(1.0), 53.0, 1 / 32)],
        ids=["ou0.5", "ou1", "ou3", "ou1-criterion-8"],
    )
    def test_geometric_lag_row_takes_the_markov_map(self, model, L, h):
        grid = simulation_grid(L, h)
        k, sample = _linear_sampler(model, grid)
        assert (k, sample.__name__) == (len(grid), "markov")

    @pytest.mark.parametrize(
        "make, k, grid",
        [(_matern32, 64, GRID), (_squared_exponential, 108, GRID), (_mixture, 64, GRID),
         (_oscillating, 32, COARSE)],
        ids=["matern32", "squared-exponential", "mixture", "oscillating"],
    )
    def test_other_stationary_models_take_the_circulant_map(self, make, k, grid):
        # half of the mixture is OU, yet its lag row departs from the
        # geometric row of its own rho by 0.22 c_0 on this grid; the
        # oscillating lag row's rho = r(1)/r(0) is -0.60, outside [0, 1]
        width, sample = _linear_sampler(make(), grid)
        assert (width, sample.__name__) == (k, "circulant")

    def test_markov_map_of_an_underflowed_rho_is_the_scaled_normals(self):
        # rho = exp(-1e4 / 8) underflows to 0: each node is its own normal
        model, grid = make_ou(1e4), self.GRID
        assert model.covariance(grid[1], grid[0]) == 0.0
        k, sample = _linear_sampler(model, grid)
        Z = _block_rng(3, 0).standard_normal((32, k))
        out = np.empty((32, len(grid)))
        sample(Z.copy(), out)
        assert np.array_equal(out, math.sqrt(model.covariance(0.0, 0.0)) * Z)

    def test_markov_map_of_a_constant_lag_row_repeats_the_first_node(self):
        # rho = 1: sigma = 0, so every node is x_0 = sqrt(c_0) z_0
        Z = _block_rng(3, 0).standard_normal((20, 107))
        out = np.empty_like(Z)
        processes._markov_map(107, 2.5, 1.0)(Z.copy(), out)
        assert np.array_equal(out, np.repeat(math.sqrt(2.5) * Z[:, :1], 107, axis=1))

    @pytest.mark.parametrize("rho", [math.exp(-1 / 32), math.exp(-1e-6 / 8), math.exp(-8)])
    @pytest.mark.parametrize("n", [2, 32, 33, 65, 107, 3393])
    def test_markov_map_is_the_sequential_recursion(self, n, rho):
        # n below, at and off a chunk boundary
        c0, sigma = 2.5, math.sqrt(2.5 * (1.0 - rho * rho))
        Z = _block_rng(7, n).standard_normal((20, n))
        x = np.empty_like(Z)
        x[:, 0] = math.sqrt(c0) * Z[:, 0]
        for i in range(1, n):
            x[:, i] = rho * x[:, i - 1] + sigma * Z[:, i]
        out = np.empty_like(Z)
        sample = processes._markov_map(n, c0, rho)
        sample(Z.copy(), out)
        assert np.max(np.abs(out - x)) <= 1e-13 * np.max(np.abs(x))
        for i in (0, 19):  # each product has one shape per path, the partial chunk's too
            alone = np.empty((1, n))
            sample(Z[i : i + 1].copy(), alone)
            assert np.array_equal(alone[0], out[i])

    @pytest.mark.parametrize(
        "make",
        [lambda: make_ou(1.0), _matern32, make_gauss_bump, _damped_ou],
        ids=["ou1", "matern32", "gauss-bump", "damped-ou"],
    )
    def test_a_row_maps_alone_as_in_a_slab(self, make):
        # the Markov, circulant, rank-one and dense maps, each fed a full slab
        model, grid = make(), simulation_grid(8.0, 1 / 16)
        k, sample = _linear_sampler(model, grid)
        Z = _block_rng(5, 0).standard_normal((processes._SLAB, k))
        slab = np.empty((processes._SLAB, len(grid)))
        sample(Z.copy(), slab)
        for i in (0, 17, processes._SLAB - 1):
            alone = np.empty((1, len(grid)))
            sample(Z[i : i + 1].copy(), alone)
            assert np.array_equal(alone[0], slab[i])

    @pytest.mark.parametrize("count", [processes._PATH_BLOCK, 88], ids=["full-block", "partial-block"])
    def test_rank_one_map_is_the_outer_product(self, gauss_bump, count):
        # every entry is the one product z_i g(t_j), bit for bit, whether
        # the block is whole or the last one's 88 rows (a partial last slab)
        grid = simulation_grid(14.0, 1 / 64)
        k, sample = _linear_sampler(gauss_bump, grid)
        assert (k, sample.__name__) == (1, "rank_one")
        z = _block_rng(11, 0).standard_normal(count)
        out = _map_slabs(sample, z[:, None].copy(), len(grid))
        g = np.asarray(gauss_bump.structure.g(grid), dtype=float)
        assert out.tobytes() == np.multiply(z[:, None], g).tobytes()


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
        m = ProcessModel(Kernel(_ou_cov), SubGaussian(2.0))
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
