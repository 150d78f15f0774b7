import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from subwave.errors import NumericError, ValidationError
from subwave.wavelets import (
    _MEYER_PERIOD,
    Envelope,
    _StepFunc,
    _TableFunc,
    _meyer_f_hat_abs,
    _meyer_m_hat_abs,
    band_breaks,
    box_envelope,
    daubechies_filter,
    dilated_support,
    envelope_constant,
    eval_dilated,
    exponential_envelope,
    lattice_constant,
    lattice_tail_constant,
    lipschitz_fit,
    make_basis,
    rational_envelope,
    tail_constant,
)


class TestHaar:
    def test_mother_values(self, haar):
        assert haar.m_wavelet(0.25) == 1.0
        assert haar.m_wavelet(0.75) == -1.0
        assert haar.m_wavelet(1.5) == 0.0
        assert haar.f_wavelet(0.5) == 1.0

    def test_m_hat_zero_at_origin(self, haar):
        assert abs(haar.m_hat(0.0)) < 1e-12

    def test_flagged_discontinuous(self, haar):
        assert haar.continuous is False


class TestMakeBasis:
    @pytest.mark.parametrize("bad", ["sym4", "daubechies:5", "daubechies:x", "meyerr"])
    def test_unknown_family(self, bad):
        with pytest.raises(ValidationError):
            make_basis(bad)

    def test_daubechies_filter_reference_values(self):
        # db2 filter, classical table values
        h = daubechies_filter(2)
        ref = np.array([0.4829629131445341, 0.8365163037378079,
                        0.2241438680420134, -0.1294095225512604])
        assert np.allclose(h, ref, atol=1e-12)
        for n in (2, 3, 4):
            h = daubechies_filter(n)
            assert np.sum(h) == pytest.approx(math.sqrt(2.0), rel=1e-12)
            # orthonormality of even shifts
            for s in range(1, n):
                assert abs(np.dot(h[2 * s :], h[: len(h) - 2 * s])) < 1e-12

    def test_continuous_families_flagged(self, db2, meyer):
        assert db2.continuous and meyer.continuous


class TestEvalDilated:
    def test_haar_base_level(self, haar):
        assert eval_dilated(haar, "m", 0, 0, 0.25) == 1.0

    def test_haar_dilation(self, haar):
        # 2^{1/2} psi(0.25)
        assert eval_dilated(haar, "m", 1, 0, 0.125) == pytest.approx(math.sqrt(2.0))

    def test_outside_support_is_zero(self, db2, meyer):
        assert eval_dilated(db2, "m", 2, 5, 10.0) == 0.0
        assert eval_dilated(meyer, "m", 2, 5, 1e5) == 0.0

    def test_rejects_bad_args(self, haar):
        with pytest.raises(ValidationError):
            eval_dilated(haar, "m", -1, 0, 0.0)
        with pytest.raises(ValidationError):
            eval_dilated(haar, "g", 0, 0, 0.0)

    @pytest.mark.parametrize("family", ["haar", "daubechies:2", "daubechies:3", "daubechies:4", "meyer"])
    @pytest.mark.parametrize("which", ["f", "m"])
    def test_zero_outside_dilated_support(self, family, which):
        basis = make_basis(family)
        step = (basis.f_wavelet if which == "f" else basis.m_wavelet).dx
        for j in range(6):
            # on meyer (x0 = -56) k = 55 puts the table's first node near
            # t = 0, where 2^j t - k rounds onto x0 from just below it
            for k in (-1000, -37, -1, 0, 5, 55, 1000):
                lo, hi = dilated_support(basis, which, j, k)
                width = hi - lo
                below = np.concatenate([lo - width * np.linspace(1.0, 1e-6, 400), [np.nextafter(lo, -np.inf)]])
                above = np.concatenate([hi + width * np.linspace(1e-6, 1.0, 400), [np.nextafter(hi, np.inf)]])
                assert np.all(eval_dilated(basis, which, j, k, below) == 0.0)
                assert np.all(eval_dilated(basis, which, j, k, above) == 0.0)
                # and no wider than the table plus a step of it on each side
                near = np.linspace(0.0, 2.5 * step / 2**j, 251)
                assert np.any(eval_dilated(basis, which, j, k, lo + near) != 0.0)
                assert np.any(eval_dilated(basis, which, j, k, hi - near) != 0.0)

    @pytest.mark.parametrize("j", [0, 3, 5])
    def test_haar_half_open_edge(self, haar, j):
        # psi is -1 on [1/2, 1) and 0 from 1 on, so hi may sit on the edge
        lo, hi = dilated_support(haar, "m", j, 3)
        edge = 4.0 / 2**j
        assert eval_dilated(haar, "m", j, 3, np.nextafter(edge, 0.0)) == -(2.0 ** (j / 2.0))
        assert eval_dilated(haar, "m", j, 3, edge) == 0.0
        assert lo <= 3.0 / 2**j and edge <= hi

    def test_dilated_support_rejects_bad_args(self, haar):
        with pytest.raises(ValidationError):
            dilated_support(haar, "m", -1, 0)
        with pytest.raises(ValidationError):
            dilated_support(haar, "g", 0, 0)

    @pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0)], ids=["float", "bool", "numpy-float"])
    @pytest.mark.parametrize("arg", ["j", "k"])
    def test_indices_must_be_integers(self, haar, arg, bad):
        # 1.5 would give 2^0.75 psi(2^1.5 t), not a basis element
        j, k = (bad, 0) if arg == "j" else (1, bad)
        with pytest.raises(ValidationError, match="must be integers"):
            eval_dilated(haar, "m", j, k, 0.1)
        with pytest.raises(ValidationError, match="must be integers"):
            dilated_support(haar, "m", j, k)

    def test_numpy_integer_indices_accepted(self, haar):
        j, k = np.int64(1), np.int64(-1)
        assert eval_dilated(haar, "m", j, k, -0.375) == eval_dilated(haar, "m", 1, -1, -0.375)
        assert dilated_support(haar, "m", j, k) == dilated_support(haar, "m", 1, -1)

    @pytest.mark.parametrize("family", ["haar", "daubechies:2", "meyer"])
    def test_nan_maps_to_nan(self, family):
        basis = make_basis(family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for which in ("f", "m"):
                vals = eval_dilated(basis, which, 0, 0, [math.nan, -math.inf, math.inf])
                assert math.isnan(vals[0]) and vals[1] == vals[2] == 0.0
                assert math.isnan(eval_dilated(basis, which, 2, 1, math.nan))

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
    def test_l2_normalization(self, db3, j):
        h = 2.0**-14
        t = np.arange(0.0, 5.0 / 2**j + h, h)
        vals = eval_dilated(db3, "m", j, 0, t)
        assert np.sum(vals**2) * h == pytest.approx(1.0, abs=1e-4)


class TestMeyerTables:
    """The tabulated Meyer values against an independent quadrature of the
    inverse transform w(x) = (1/pi) int |w_hat(y)| cos((x - center) y) dy."""

    B = 2.0 * math.pi / 3.0
    # (center, smooth pieces of |w_hat| between its kinks) per function
    CASES = {"f": (0.0, (0.0, B, 2.0 * B)), "m": (0.5, (B, 2.0 * B, 4.0 * B))}

    @pytest.mark.parametrize("which", ["f", "m"])
    def test_values_match_quadrature(self, meyer, which):
        center, kinks = self.CASES[which]
        w = meyer.f_wavelet if which == "f" else meyer.m_wavelet
        hat = meyer.f_hat if which == "f" else meyer.m_hat

        def profile(y):
            return abs(complex(hat(np.array([y]))[0]))

        mid = len(w.grid) // 2
        rng = np.random.default_rng(7)
        offsets = np.concatenate(
            [
                np.arange(-8, 9),  # the centre, node by node
                rng.integers(-2048, 2049, 12),  # the main lobes, |x - center| <= 2
                rng.integers(-mid, mid + 1, 10),  # the tails, out to the window edge
                [-mid, mid],
            ]
        )
        x = w.grid[mid + offsets]
        assert len(x) >= 40 and np.allclose(x[8], center)
        # QAWO per smooth piece; epsrel below 1e-11 trips its roundoff
        # warning on the constant piece of f_hat
        oracle = [
            sum(
                quad(profile, a, b, weight="cos", wvar=u, epsabs=1e-15, epsrel=1e-11)[0]
                for a, b in zip(kinks[:-1], kinks[1:])
            )
            / math.pi
            for u in x - center
        ]
        assert np.max(np.abs(w(x) - oracle)) <= 1e-13

    @pytest.mark.parametrize("which", ["f", "m"])
    def test_values_match_full_period_inverse_fft(self, meyer, which):
        # the same P-periodised function from every harmonic up to n/2 and
        # every one of the n = P/dx nodes of the period
        center, _ = self.CASES[which]
        w = meyer.f_wavelet if which == "f" else meyer.m_wavelet
        profile = _meyer_f_hat_abs if which == "f" else _meyer_m_hat_abs
        n = round(_MEYER_PERIOD / w.dx)
        half = len(w.values) // 2
        spectrum = profile(2.0 * math.pi / _MEYER_PERIOD * np.arange(n // 2 + 1))
        full = np.fft.irfft(spectrum, n=n) / w.dx
        oracle = np.concatenate([full[-half:], full[: half + 1]])
        assert len(w.values) == 2 * half + 1 and w.x0 == center - half * w.dx
        assert np.max(np.abs(w.values - oracle)) <= 4 * np.spacing(np.max(np.abs(oracle)))
        # the harmonics above K = floor(edge P / 2pi) are exact zeros
        K = math.floor(band_breaks(meyer, which)[-1] * _MEYER_PERIOD / (2.0 * math.pi))
        assert K == {"f": 1365, "m": 2730}[which]
        assert spectrum[K] > 0.0 and not np.any(spectrum[K + 1 :])


class TestEnvelopes:
    def test_envelope_constant_exponential(self):
        env = exponential_envelope()
        assert envelope_constant(env) == pytest.approx(3.0 + 4.0 * math.exp(-0.5), rel=1e-12)

    def test_envelope_constant_box(self):
        assert envelope_constant(box_envelope(1.0, 1.0)) == pytest.approx(5.0)

    def test_envelope_constant_linear_in_phi(self):
        assert envelope_constant(box_envelope(2.0, 1.0)) == pytest.approx(10.0)
        assert envelope_constant(exponential_envelope(amplitude=2.0)) == pytest.approx(
            2.0 * (3.0 + 4.0 * math.exp(-0.5))
        )

    def test_tail_constant_exponential(self):
        env = exponential_envelope()
        assert tail_constant(env, 1.0, 3) == pytest.approx(
            math.exp(-1.0) + math.exp(-2.0), rel=1e-12
        )

    def test_tail_constant_box_vanishes(self):
        assert tail_constant(box_envelope(1.0, 1.0), 1.0, 3) == 0.0

    def test_tail_constant_hypothesis(self):
        with pytest.raises(ValidationError):
            tail_constant(exponential_envelope(), 3.0, 3)

    def test_tail_constant_vanishes_monotonically(self):
        env = exponential_envelope()
        vals = [tail_constant(env, 1.0, k1) for k1 in (3, 5, 9, 17)]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] < 1e-6

    def test_increasing_envelope_rejected(self):
        with pytest.raises(ValidationError):
            Envelope(
                big_phi=lambda x: 1.0 + np.asarray(x),
                tail_integral=lambda a: 1.0,
            )

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"big_phi": lambda x: np.where(np.asarray(x) == 0.0, np.inf, 1.0)},
             "finite at 0"),
            ({"tail_integral": lambda a: math.inf}, "must be integrable"),
            ({"tail_integral": lambda a: 1.0 + a}, "tail integral must be nonincreasing"),
        ],
        ids=["infinite-at-0", "infinite-total", "increasing-tail"],
    )
    def test_rejections(self, kw, message):
        exp_env = {
            "big_phi": lambda x: np.exp(-np.asarray(x)),
            "tail_integral": lambda a: math.exp(-a),
        }
        with pytest.raises(ValidationError, match=message):
            Envelope(**{**exp_env, **kw})

    def test_effective_support_unreachable(self):
        # a tail 1/(1 + log(1 + a)) still holds 4.6% of the mass at a = 1e9
        env = Envelope(
            big_phi=lambda x: 1.0 / ((1.0 + np.asarray(x)) * (1.0 + np.log1p(x)) ** 2),
            tail_integral=lambda a: 1.0 / (1.0 + math.log1p(a)),
        )
        with pytest.raises(NumericError, match="does not reach the target mass"):
            env.effective_support()

    def test_effective_support_box(self):
        s = box_envelope(1.0, 3.0).effective_support()
        assert s == pytest.approx(3.0, abs=1e-4)

    @pytest.mark.parametrize("family", ["haar", "daubechies:3", "meyer"])
    def test_domination_on_grid(self, family):
        b = make_basis(family)
        x = np.linspace(-40, 40, 2001)
        assert np.all(np.abs(b.m_wavelet(x)) <= b.envelope_m.big_phi(np.abs(x)) + 1e-9)
        assert np.all(np.abs(b.f_wavelet(x)) <= b.envelope_f.big_phi(np.abs(x)) + 1e-9)


class TestLatticeSums:
    """Direct verification of the envelope lattice-sum constants."""

    @pytest.mark.parametrize("family", ["meyer", "daubechies:3"])
    def test_full_sum_dominated(self, family):
        b = make_basis(family)
        cd = envelope_constant(b.envelope_m)
        x = np.linspace(-5.0, 5.0, 200)
        k = np.arange(-200, 201)
        sums = np.abs(b.m_wavelet(x[:, None] - k[None, :])).sum(axis=1)
        assert np.all(sums <= cd + 1e-6)

    @pytest.mark.parametrize("family", ["meyer", "daubechies:3"])
    @pytest.mark.parametrize("k1", [7, 10])
    def test_tail_sum_dominated(self, family, k1):
        b = make_basis(family)
        T = 5.0
        cdk = tail_constant(b.envelope_m, T, k1)
        x = np.linspace(-T, T, 200)
        k = np.arange(-200, 201)
        k = k[np.abs(k) >= k1]
        sums = np.abs(b.m_wavelet(x[:, None] - k[None, :])).sum(axis=1)
        assert np.all(sums <= cdk + 1e-6)


def _lattice_windows():
    """(T, k1) pairs: a few plain windows plus the level windows 2^j T and
    cuts k_j = ceil(2^j T) + 1 + m of the planner lattice at T = 1."""
    plain = [(1.0, 2), (1.0, 4), (2.5, 4), (5.0, 7), (5.0, 10)]
    planner = [(2.0**j, math.ceil(2.0**j) + 1 + m) for j in range(6) for m in (0, 3)]
    return plain + planner


class TestDirectLatticeSums:
    """The direct lattice-sum constants bound brute-force sums of the
    evaluated functions, are attained, and never exceed the envelope
    constants they replace in the uniform route."""

    FAMILIES = ["meyer", "daubechies:3", "haar"]

    @staticmethod
    def _pick(b, which):
        env = b.envelope_f if which == "f" else b.envelope_m
        return (b.f_wavelet if which == "f" else b.m_wavelet), env

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("which", ["f", "m"])
    def test_full_constant_dominates_and_is_attained(self, family, which):
        b = make_basis(family)
        w, env = self._pick(b, which)
        c = lattice_constant(b, which)
        k = np.arange(-200, 201)
        x = np.linspace(-2.0, 2.0, 4001) + 1e-4 * math.pi  # off the table nodes
        sums = np.abs(w(x[:, None] - k[None, :])).sum(axis=1)
        assert np.all(sums <= c + 1e-9)
        nodes = np.arange(0.0, 1.0, w.dx)  # one period of table nodes
        at_nodes = np.abs(w(nodes[:, None] - k[None, :])).sum(axis=1)
        assert np.max(at_nodes) == pytest.approx(c, rel=1e-9)
        assert c <= envelope_constant(env)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("which", ["f", "m"])
    def test_tail_constant_dominates(self, family, which):
        b = make_basis(family)
        w, env = self._pick(b, which)
        k = np.arange(-200, 201)
        for T, k1 in _lattice_windows():
            c = lattice_tail_constant(b, which, T, k1)
            x = np.linspace(-T, T, 4001)
            kt = k[np.abs(k) >= k1]
            sums = np.abs(w(x[:, None] - kt[None, :])).sum(axis=1)
            assert np.all(sums <= c + 1e-9), (T, k1)
            assert c <= tail_constant(env, T, k1) + 1e-12, (T, k1)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("which", ["f", "m"])
    def test_tail_constant_attained_at_window_nodes(self, family, which):
        b = make_basis(family)
        w, _ = self._pick(b, which)
        k = np.arange(-200, 201)
        for T, k1 in ((1.0, 2), (1.0, 4), (4.0, 6), (8.0, 10)):
            c = lattice_tail_constant(b, which, T, k1)
            nodes = np.arange(-T, T + w.dx / 2, w.dx)
            kt = k[np.abs(k) >= k1]
            sums = np.abs(w(nodes[:, None] - kt[None, :])).sum(axis=1)
            assert np.max(sums) == pytest.approx(c, rel=1e-9, abs=1e-12), (T, k1)

    def test_meyer_far_below_envelope(self, meyer):
        assert lattice_constant(meyer, "m") < envelope_constant(meyer.envelope_m) / 500.0
        assert lattice_tail_constant(meyer, "m", 1.0, 2) < tail_constant(meyer.envelope_m, 1.0, 2) / 50.0

    def test_tail_constant_hypothesis(self, meyer):
        with pytest.raises(ValidationError):
            lattice_tail_constant(meyer, "m", 3.0, 3)

    def test_untabulated_functions_rejected(self):
        # every pair has value tables, so the lattice sums need no fallback
        b = make_basis("daubechies:3")
        with pytest.raises(ValidationError, match="f-wavelet must be a value table"):
            dataclasses.replace(b, f_wavelet=lambda x: b.f_wavelet(x))


def _scaled(w, factor):
    return _TableFunc(w.x0, w.dx, factor * w.values)


class TestPairChecksItself:
    """A pair made by ``dataclasses.replace`` runs the same checks as one
    made by ``make_basis``."""

    @pytest.mark.parametrize(
        "family, change, message",
        [
            ("daubechies:2", lambda b: {"m_wavelet": _scaled(b.m_wavelet, 2.0)},
             "m-wavelet exceeds its envelope"),
            ("meyer", lambda b: {"f_wavelet": _scaled(b.f_wavelet, 1.01)},
             "f-wavelet exceeds its envelope"),
            ("meyer", lambda b: {"m_hat": b.f_hat}, "must vanish at 0"),
            ("haar", lambda b: {"f_wavelet": _StepFunc(0.0, 0.3, [1.0, 1.0])},
             "f-wavelet table must be aligned"),
            ("haar", lambda b: {"m_wavelet": _StepFunc(0.1, 0.5, [1.0, -1.0])},
             "m-wavelet table must be aligned"),
        ],
        ids=["above-envelope-db2", "above-envelope-meyer", "m_hat(0)", "step-0.3", "offset-x0"],
    )
    def test_rejected(self, family, change, message):
        b = make_basis(family)
        with pytest.raises(ValidationError, match=message):
            dataclasses.replace(b, **change(b))

    def test_continuity_read_off_the_tables(self, haar, db2):
        steps = dataclasses.replace(db2, f_wavelet=haar.f_wavelet, envelope_f=haar.envelope_f,
                                    f_hat=haar.f_hat)
        assert steps.continuous is False
        assert dataclasses.replace(db2).continuous is True


class TestOrthonormality:
    def test_db3_gram_small_window(self, db3):
        h = 2.0**-14
        t = np.arange(-5.0, 10.0 + h, h)
        funcs = [eval_dilated(db3, "f", 0, k, t) for k in range(-4, 5)]
        for j in range(3):
            funcs += [eval_dilated(db3, "m", j, k, t) for k in range(-4, 5)]
        B = np.array(funcs)
        G = (B * h) @ B.T
        assert np.max(np.abs(G - np.eye(len(G)))) < 1e-4

    def test_meyer_gram(self, meyer):
        h = 2.0**-8
        t = np.arange(-40.0, 41.0 + h, h)
        funcs = [eval_dilated(meyer, "f", 0, k, t) for k in range(-4, 5)]
        for j in range(3):
            funcs += [eval_dilated(meyer, "m", j, k, t) for k in range(-4, 5)]
        B = np.array(funcs)
        G = (B * h) @ B.T
        assert np.max(np.abs(G - np.eye(len(G)))) < 1e-4

    @pytest.mark.parametrize("family", ["haar", "daubechies:2", "meyer"])
    def test_partition_identity(self, family):
        b = make_basis(family)
        k = np.arange(-300, 301)
        for y in (-3.0, -1.2, 0.0, 0.7, 2.9):
            s = np.sum(np.abs(b.f_hat(y + 2.0 * math.pi * k)) ** 2)
            assert s == pytest.approx(1.0, abs=1e-3)


class TestFourierConsistency:
    @pytest.mark.parametrize("family", ["haar", "daubechies:2", "meyer"])
    def test_m_hat_matches_sampled_transform(self, family):
        b = make_basis(family)
        h = 2.0**-10
        t = np.arange(-56.0, 57.0, h)
        psi = b.m_wavelet(t)
        for z in (0.5, 1.0, 2.0):
            ft = np.sum(psi * np.exp(-1j * z * t)) * h
            assert abs(ft - complex(np.atleast_1d(b.m_hat(z))[0])) < 1e-3

    def test_m_hat_vanishes_at_zero(self, db2, db3, meyer):
        for b in (db2, db3, meyer):
            assert abs(complex(np.atleast_1d(b.m_hat(0.0))[0])) < 1e-8


class TestLipschitzFit:
    def test_haar_order_one_quarter_constant(self, haar):
        order, c = lipschitz_fit(haar, [0.25, 0.5, 0.75, 1.0])
        assert order == 1.0
        assert c == pytest.approx(0.25, abs=1e-3)

    def test_haar_rejects_orders_above_one(self, haar):
        # |psi_hat| ~ |z|/4 near 0, so order 1.5 cannot stabilize
        with pytest.raises(NumericError):
            lipschitz_fit(haar, [1.5])

    def test_meyer_order_one_finite_constant(self, meyer):
        order, c = lipschitz_fit(meyer, [0.25, 0.5, 0.75, 1.0])
        assert order == 1.0
        # transform vanishes near 0; constant realized on the support band
        assert 0.1 < c < 1.0

    def test_empty_candidate_set(self, meyer):
        with pytest.raises(ValidationError):
            lipschitz_fit(meyer, [])


class TestBandBreaks:
    def test_breaks_match_the_meyer_transforms(self, meyer):
        f, m = band_breaks(meyer, "f"), band_breaks(meyer, "m")
        assert f[0] == 0.0 and list(f) == sorted(f) and list(m) == sorted(m)
        # |phi_hat| = 1 up to its first interior kink
        assert np.all(np.abs(meyer.f_hat(np.linspace(0.0, f[1], 1001))) == 1.0)
        # both vanish past the last kink, |psi_hat| also below the first
        assert np.max(np.abs(meyer.f_hat(np.linspace(f[-1], 60.0, 2001)))) < 1e-15
        assert np.max(np.abs(meyer.m_hat(np.linspace(m[-1], 60.0, 2001)))) < 1e-15
        assert np.max(np.abs(meyer.m_hat(np.linspace(0.0, m[0], 1001)))) == 0.0
        # and neither vanishes between two kinks
        for hat, breaks in ((meyer.f_hat, f), (meyer.m_hat, m)):
            mids = 0.5 * (np.array(breaks[:-1]) + np.array(breaks[1:]))
            assert np.all(np.abs(hat(mids)) > 0.1)

    @pytest.mark.parametrize("family", ["haar", "daubechies:2"])
    def test_not_band_limited(self, family):
        b = make_basis(family)
        assert band_breaks(b, "f") is None and band_breaks(b, "m") is None


class TestUnknownWhich:
    @pytest.mark.parametrize("func", [lattice_constant, band_breaks])
    def test_rejects_unknown_function(self, meyer, func):
        with pytest.raises(ValidationError, match="which must be 'f' or 'm'"):
            func(meyer, "x")

    @pytest.mark.parametrize("T", [math.inf, math.nan, -5.0])
    def test_tail_constants_need_a_finite_window(self, meyer, T):
        # a window |x| <= T with T < 0 is empty: no constant to report
        with pytest.raises(ValidationError, match="finite T >= 0"):
            lattice_tail_constant(meyer, "f", T, 3)
        with pytest.raises(ValidationError, match="finite T >= 0"):
            tail_constant(meyer.envelope_f, T, 3)
