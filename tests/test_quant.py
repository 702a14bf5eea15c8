import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lioncomm.errors import ConfigError, PackFormatError, PackRangeError
from lioncomm import quant
from lioncomm.quant import (BLOCK, INF, QuantSpec, SignPolicy, _log_map, apply_sign,
                            lp_mean_norm, pack, pack_ints, pooled, quantize,
                            sround, unpack, unpack_ints, vote_input)


class TestLpMeanNorm:
    def test_l1_of_unit_signs(self):
        assert lp_mean_norm(np.array([1, -1, 1, -1]), 1) == 1.0

    def test_max_norm(self):
        assert lp_mean_norm(np.array([3, 4]), INF) == 4.0

    def test_p_zero_is_geometric_mean(self):
        assert lp_mean_norm(np.array([1.0, 4.0]), 0) == pytest.approx(2.0)
        # cross-check: the p -> 0 limit of the finite-p formula
        assert lp_mean_norm(np.array([1.0, 4.0]), 1e-4) == pytest.approx(2.0, rel=1e-3)

    def test_p_zero_excludes_exact_zeros(self):
        assert lp_mean_norm(np.array([0.0, 4.0]), 0) == pytest.approx(4.0)
        assert lp_mean_norm(np.zeros(3), 0) == 0.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ConfigError):
            lp_mean_norm(np.array([]), 1)

    def test_large_p_does_not_overflow(self):
        x = np.array([1e200, 1e-200])
        assert np.isfinite(lp_mean_norm(x, 64.0))


class TestQuantize:
    def test_unit_signs_4bit_l1(self):
        q = quantize(np.array([1.0, -1, 1, -1]), QuantSpec(bits=4, norm_p=1))
        assert q.tolist() == [4, -4, 4, -4]

    def test_clamp_branch(self):
        q = quantize(np.array([7.0, 1, 1, 1]), QuantSpec(bits=4, norm_p=1))
        assert q.tolist() == [7, 1, 1, 1]

    def test_qinf_outlier_collapse(self):
        # small entries scale to 0.007 under the max norm: almost surely 0
        spec = QuantSpec(bits=4, norm_p=INF, rounding="stochastic")
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(200):
            q = quantize(np.array([1000.0, 1, 1, 1]), spec, rng=rng)
            hits += q.tolist() == [7, 0, 0, 0]
        assert hits / 200 >= 0.97 - 0.04

    def test_all_zero_input(self):
        q = quantize(np.zeros(5), QuantSpec(bits=8, norm_p=1))
        assert not q.any()

    def test_scale_invariance_finite_p(self):
        rng = np.random.default_rng(1)
        x = rng.laplace(size=257)
        spec = QuantSpec(bits=8, norm_p=1)
        for c in (1e-6, 0.5, 3.0, 1e7):
            assert np.array_equal(quantize(c * x, spec), quantize(x, spec))

    def test_sign_preservation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_cauchy(size=1000)
        for spec in (QuantSpec(bits=8, norm_p=1),
                     QuantSpec(bits=8, norm_p=INF, rounding="stochastic"),
                     QuantSpec(bits=4, norm_p=0),
                     QuantSpec(bits=8, norm_p=1, log_transform=True)):
            q = quantize(x, spec, rng=rng)
            assert not np.any(np.sign(q) == -np.sign(x))

    def test_outlier_robustness(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([[1e4], rng.laplace(0, 1, size=1000)])
        q1 = quantize(x, QuantSpec(bits=8, norm_p=1))
        assert np.count_nonzero(q1) / x.size >= 0.9
        qinf = quantize(x, QuantSpec(bits=8, norm_p=INF, rounding="stochastic"),
                        rng=rng)
        assert np.count_nonzero(qinf) / x.size <= 0.1

    def test_no_zero_maps_small_values_to_sign(self):
        x = np.array([1e3, 0.5, -0.5, 0.0])
        spec = QuantSpec(bits=8, norm_p=INF, rounding="nearest", no_zero=True)
        q = quantize(x, spec)
        assert q[1] == 1 and q[2] == -1
        assert q[3] == 0  # true zeros stay zero

    def test_log_transform_roundtrip(self):
        # Log map y = sign(x) ln(1 + |x|/s), s = M_1(x), then max-norm scaling.
        rng = np.random.default_rng(4)
        x = rng.laplace(size=500)
        spec = QuantSpec(bits=8, norm_p=INF, rounding="nearest",
                         log_transform=True)
        s = lp_mean_norm(x, 1.0)
        y = np.sign(x) * np.log1p(np.abs(x) / s)
        q = quantize(x, spec)
        assert np.array_equal(q, np.round(spec.qmax / np.abs(y).max() * y))
        big = np.abs(x) > s
        assert np.all(np.sign(q[big]) == np.sign(x[big]))

    def test_dequantize_inverts_scaling(self):
        # L1 scaling: 2 M_1(x) maps to qmax, and larger values clamp.
        rng = np.random.default_rng(5)
        x = rng.normal(size=300)
        spec = QuantSpec(bits=8, norm_p=1)
        scale = 2 * lp_mean_norm(x, 1)
        q = quantize(x, spec)
        expect = np.round(spec.qmax / scale * x)
        assert np.array_equal(q, np.clip(expect, -spec.qmax, spec.qmax))
        inside = np.abs(x) < scale  # not clamped: within half a step of x
        assert np.max(np.abs(q[inside] * (scale / spec.qmax) - x[inside])) \
            <= scale / spec.qmax / 2
        assert not inside.all()  # the clamp is exercised too

    def test_stochastic_requires_rng(self):
        with pytest.raises(ConfigError):
            quantize(np.ones(3), QuantSpec(bits=8, norm_p=INF,
                                           rounding="stochastic"))

    @pytest.mark.parametrize("spec", [
        QuantSpec(bits=8, norm_p=1),
        QuantSpec(bits=8, norm_p=INF, rounding="stochastic"),
        QuantSpec(bits=4, norm_p=0, log_transform=True),
    ], ids=str)
    def test_non_finite_input_raises_with_count(self, spec):
        # One NaN or inf would otherwise zero the whole layer's vote.
        x = np.array([1.0, np.nan, -2.0, 3.0, np.inf, -np.inf])
        with pytest.raises(ConfigError, match="3 non-finite"):
            quantize(x, spec, rng=np.random.default_rng(0))


class TestVoteRange:
    """``QuantSpec.qmax`` is the vote range and ``vote_input`` the vote."""

    @pytest.mark.parametrize("bits", [0, 33])
    def test_bits_outside_1_to_32_rejected(self, bits):
        with pytest.raises(ConfigError, match="1..32"):
            QuantSpec(bits=bits)

    def test_qmax_is_one_for_signs(self):
        assert [QuantSpec(bits=b).qmax for b in (1, 2, 3, 8, 32)] == [
            1, 1, 3, 127, 2 ** 31 - 1]

    def test_one_bit_spec_is_not_quantized(self):
        with pytest.raises(ConfigError, match="1-bit"):
            quantize(np.array([3.0, -1.0, 0.5, 0.0]), QuantSpec(bits=1))

    @pytest.mark.parametrize("iteration", [1, 2])
    def test_vote_input_of_each_kind_of_spec(self, iteration):
        x = np.array([3.0, -1.0, 0.5, 0.0])
        policy = SignPolicy("alternating", iteration)
        assert vote_input(x, None, policy) is x
        assert np.array_equal(vote_input(x, QuantSpec(bits=1), policy),
                              apply_sign(x, policy))
        spec = QuantSpec(bits=4, norm_p=INF, rounding="stochastic")
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(vote_input(x, spec, policy, a),
                              quantize(x, spec, rng=b))


def _int64_quantize(x, spec, rng=None):
    """The quantizer as it stood with int64 output: round (or sround),
    then clamp to +-qmax.  An oracle for the narrow, clamp-first one."""
    qmax = spec.qmax
    y = x
    if spec.log_transform:
        s = lp_mean_norm(x, 1.0)
        if s > 0:
            y = _log_map(x, s)
    m = lp_mean_norm(y, spec.norm_p)
    if m == 0 or qmax == 0:
        q = np.zeros(x.shape, dtype=np.int64)
    else:
        scaled = (qmax / (m if spec.norm_p == INF else 2.0 * m)) * y
        if spec.rounding == "stochastic":
            lo = np.floor(scaled)
            q = (lo + (rng.random(scaled.shape) < scaled - lo)).astype(np.int64)
        else:
            q = np.round(scaled).astype(np.int64)
        q = np.clip(q, -qmax, qmax)
    if spec.no_zero:
        q = np.where((q == 0) & (x != 0), np.sign(x).astype(np.int64), q)
    return q


class TestNarrowQuantize:
    """``quantize`` clamps before rounding and returns a narrow dtype."""

    @pytest.mark.parametrize("bits,dtype", [
        (2, np.int8), (8, np.int8), (9, np.int16),
        (16, np.int16), (17, np.int32), (32, np.int32)])
    def test_narrowest_dtype_that_holds_qmax(self, bits, dtype):
        x = np.array([3.0, -1.0, 0.5, 0.0])
        assert quantize(x, QuantSpec(bits=bits, norm_p=1)).dtype == dtype
        assert quantize(np.zeros(3), QuantSpec(bits=bits)).dtype == dtype

    @pytest.mark.parametrize("rounding", ["nearest", "stochastic"])
    def test_scaled_value_above_qmax_is_clamped_not_wrapped(self, rounding):
        # The outlier scales to 127 * 1000 / (2 * 250.75), about 253: cast
        # to int8 before the clamp it would wrap to -3.
        x = np.array([1000.0, 1.0, -1.0, 1.0, -1000.0])
        spec = QuantSpec(bits=8, norm_p=1, rounding=rounding)
        q = quantize(x, spec, rng=np.random.default_rng(0))
        assert q.dtype == np.int8
        assert (q[0], q[-1]) == (127, -127)

    @pytest.mark.parametrize("spec", [
        QuantSpec(bits=8, norm_p=1),
        QuantSpec(bits=4, norm_p=2, no_zero=True),
        QuantSpec(bits=8, norm_p=INF, rounding="stochastic"),
        QuantSpec(bits=3, norm_p=1, rounding="stochastic"),
        QuantSpec(bits=8, norm_p=0, log_transform=True),
        QuantSpec(bits=12, norm_p=1, rounding="stochastic", no_zero=True),
    ], ids=str)
    def test_same_integers_and_draws_as_int64_oracle(self, spec):
        for seed in range(20):
            x = np.random.default_rng(seed).standard_cauchy(size=301)
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = quantize(x, spec, rng=a)
            assert np.array_equal(got, _int64_quantize(x, spec, rng=b))
            assert a.random() == b.random()  # the same number of draws


class TestSround:
    def test_integer_fixed_point(self):
        rng = np.random.default_rng(0)
        assert np.all(sround(np.full(100, 3.0), rng) == 3)

    def test_unbiasedness(self):
        rng = np.random.default_rng(1)
        n = 100_000
        for v in (0.1, 0.25, 0.5, -0.7):
            draws = sround(np.full(n, v), rng)
            frac = abs(v - np.floor(v))
            se = np.sqrt(frac * (1 - frac) / n)
            assert abs(draws.mean() - v) < 3 * se

    def test_neighbor_values_only(self):
        rng = np.random.default_rng(2)
        draws = sround(np.full(1000, -0.5), rng)
        assert set(np.unique(draws)) <= {-1, 0}


class TestBlockedSround:
    """``sround`` runs block by block; the whole-array formula is the
    oracle, for its integers and for the draws it leaves in ``rng``."""

    @staticmethod
    def whole_array(v, rng, dtype):
        lo = np.floor(v)
        up = rng.random(v.shape) < v - lo
        q = lo.astype(dtype)
        q += up
        return q

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   3 * BLOCK + 5])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_integers_and_stream_match_one_draw(self, n, dtype):
        v = np.random.default_rng(n).uniform(-100, 100, size=n)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        got = sround(v, a, dtype)
        want = self.whole_array(v, b, dtype)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert a.random() == b.random()

    @pytest.mark.parametrize("shape", [(), (0,), (3, 4), (2, BLOCK + 3)])
    def test_any_shape(self, shape):
        v = np.random.default_rng(1).uniform(-5, 5, size=shape)
        a, b = np.random.default_rng(2), np.random.default_rng(2)
        got = sround(v, a)
        want = self.whole_array(v, b, np.int64)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert a.random() == b.random()


class TestPooled:
    """``pooled`` hands an array out again only once nothing else holds it."""

    SHAPE = (BLOCK + 11,)       # a key no other test asks for

    def test_a_dropped_array_comes_back(self):
        a = pooled(self.SHAPE, np.float64)
        ptr = a.ctypes.data
        del a
        b = pooled(self.SHAPE, np.float64)
        assert b.ctypes.data == ptr and b.shape == self.SHAPE

    def test_a_held_array_or_its_view_is_never_handed_out(self):
        a = pooled(self.SHAPE, np.float64)
        view = pooled(self.SHAPE, np.float64)[5:9]
        taken = {a.ctypes.data, view.base.ctypes.data}
        others = [pooled(self.SHAPE, np.float64) for _ in range(3)]
        assert not taken & {o.ctypes.data for o in others}
        assert len(taken | {o.ctypes.data for o in others}) == 5

    def test_keys_are_shape_and_dtype(self):
        a = pooled(self.SHAPE, np.float64)
        ptr = a.ctypes.data
        del a
        assert pooled(self.SHAPE, np.float32).ctypes.data != ptr
        assert pooled((1,) + self.SHAPE, np.float64).ctypes.data != ptr

    @pytest.mark.parametrize("shape", [(), (0,), (BLOCK,), (2, BLOCK // 2)])
    def test_small_arrays_never_enter_the_pool(self, shape):
        a = pooled(shape, np.float64)
        assert a.shape == shape
        assert all(np.prod(key[0]) > BLOCK for key in quant._POOL)

    def test_threads_never_share_an_array(self):
        start, bad = threading.Barrier(4), []

        def work(k):
            start.wait()
            for _ in range(200):
                a = pooled(self.SHAPE, np.int64)
                a[::997] = k
                time.sleep(0)           # let another thread take its turn
                if not (a[::997] == k).all():
                    bad.append(k)
                del a

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads as often as it can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not bad
        # At most one array a thread: the sentinel and four.
        assert len(quant._POOL[(self.SHAPE, np.dtype(np.int64))]) <= 1 + 4


class TestQuantizeNonFinite:
    @pytest.mark.parametrize("p", [0, 1.0, INF])
    def test_counts_every_non_finite_entry(self, p):
        # The p=0 norm skips NaN itself, so the check must come first.
        x = np.array([1.0, np.nan, -2.0, np.inf, np.nan, -np.inf, 3.0])
        with pytest.raises(ConfigError,
                           match="cannot quantize 4 non-finite entries"):
            quantize(x, QuantSpec(bits=8, norm_p=p, rounding="stochastic"),
                     rng=np.random.default_rng(0))

    def test_nan_at_p0(self):
        x = np.ones(BLOCK + 1)
        x[[0, BLOCK]] = np.nan
        with pytest.raises(ConfigError,
                           match="cannot quantize 2 non-finite entries"):
            quantize(x, QuantSpec(bits=8, norm_p=0))


class TestApplySign:
    def test_exact_ternary(self):
        p = SignPolicy(mode="exact-ternary")
        assert apply_sign(np.array([2.5, -0.1, 0.0]), p).tolist() == [1, -1, 0]

    def test_alternating_odd_maps_zero_up(self):
        assert apply_sign(np.array([0.0]),
                          SignPolicy("alternating", 3)).tolist() == [1]

    def test_alternating_even_maps_zero_down(self):
        assert apply_sign(np.array([0.0]),
                          SignPolicy("alternating", 4)).tolist() == [-1]

    def test_parity_flips_only_zeros(self):
        x = np.array([1.0, 0.0, -3.0])
        a = apply_sign(x, SignPolicy("alternating", 5))
        b = apply_sign(x, SignPolicy("alternating", 6))
        assert np.array_equal(a != b, x == 0)


class TestApplySignOracle:
    """``apply_sign`` against a plain ``np.sign`` + ``np.where`` oracle."""

    @given(st.lists(st.one_of(st.floats(allow_nan=False),
                              st.sampled_from([0.0, -0.0])),
                    min_size=1, max_size=200),
           st.sampled_from(["exact-ternary", "alternating"]),
           st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_oracle(self, vals, mode, iteration):
        x = np.array(vals, dtype=np.float64)
        expect = np.sign(x)
        if mode == "alternating":
            expect = np.where(x == 0, 1 if iteration % 2 else -1, expect)
        got = apply_sign(x, SignPolicy(mode, iteration))
        assert got.dtype == np.int8
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("mode", ["exact-ternary", "alternating"])
    def test_nan_raises_with_count(self, mode):
        x = np.array([1.0, np.nan, 0.0, np.nan, -2.0, np.nan])
        with pytest.raises(ConfigError, match="3 NaN"):
            apply_sign(x, SignPolicy(mode, 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_found_in_any_block(self, dtype):
        x = np.ones(3 * BLOCK + 5, dtype)
        x[[0, 2 * BLOCK + 1, -1]] = np.nan
        with pytest.raises(ConfigError, match="3 NaN"):
            apply_sign(x, SignPolicy("alternating", 1))

    def test_infinities_and_empty_inputs_have_signs(self):
        x = np.array([np.inf, -np.inf, 0.0])
        assert apply_sign(x, SignPolicy("exact-ternary")).tolist() == [1, -1, 0]
        for mode in ("exact-ternary", "alternating"):
            out = apply_sign(np.empty(0), SignPolicy(mode, 1))
            assert out.dtype == np.int8 and out.size == 0


def _shift_sum_pack(signs):
    """The original uint32 shift-and-sum encoder of the sign map
    {-1, +1} -> {0, 1}, kept as a payload oracle."""
    stored = (np.asarray(signs, dtype=np.int64) + 1) >> 1
    padded = np.zeros((stored.size + 7) // 8 * 8, dtype=np.uint8)
    padded[:stored.size] = stored
    shifts = np.arange(8, dtype=np.uint32)
    lanes = padded.reshape(-1, 8).astype(np.uint32) << shifts
    return lanes.sum(axis=1).astype(np.uint8).tobytes()


class TestPackOracle:
    """Payloads equal the original encoder's, byte for byte."""

    def test_payload_matches_shift_sum_encoder(self):
        rng = np.random.default_rng(11)
        for n in range(1, 201):
            v = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
            payload = pack(v)
            assert payload == _shift_sum_pack(v), n
            assert np.array_equal(unpack(payload, n), v), n

    def test_sign_map_unpacks_to_int8(self):
        assert unpack(pack(np.array([1, -1, -1])), 3).dtype == np.int8

    def test_sign_map_rejects_non_signs(self):
        with pytest.raises(PackRangeError) as e:
            pack(np.array([1, -1, 0, 1], dtype=np.int8))
        assert e.value.index == 2 and e.value.value == 0


class TestPackUnpack:
    def test_nibbles_low_first(self):
        # Elements 0-3 fill the low nibble: (+, +, -, -) is 3, (-, -, +, +) 12.
        assert pack(np.array([1, 1, -1, -1, -1, -1, 1, 1])) == b"\xc3"

    def test_bits_low_first(self):
        assert pack(np.array([1, -1, 1, 1, -1, -1, -1, -1])) == b"\x0d"

    def test_sign_map(self):
        payload = pack(np.array([-1, 1]))
        assert payload == b"\x02"
        assert unpack(payload, 2).tolist() == [-1, 1]

    def test_roundtrip_exhaustive_nibbles(self):
        for nibble in range(16):
            v = np.array([1 if nibble >> i & 1 else -1 for i in range(4)])
            assert pack(v) == bytes([nibble])
            assert unpack(pack(v), 4).tolist() == v.tolist()

    def test_out_of_range_reports_index(self):
        with pytest.raises(PackRangeError) as e:
            pack(np.array([1, -1, 99]))
        assert e.value.index == 2 and e.value.value == 99

    def test_fraction_is_not_a_sign(self):
        with pytest.raises(PackRangeError) as e:
            pack(np.array([1.0, -1.0, 1.5]))
        assert e.value.index == 2 and e.value.value == 1.5

    def test_truncated_payload(self):
        payload = pack(np.ones(10))
        with pytest.raises(PackFormatError):
            unpack(payload[:-1], 10)

    def test_wire_format_layout(self):
        # Bare sign bits: ceil(n/8) bytes, padding bits clear, no header.
        assert pack(np.ones(9)) == b"\xff\x01"
        for n in (1, 7, 8, 9, 1000):
            assert len(pack(-np.ones(n))) == (n + 7) // 8

    def test_wire_format_rejects_bad_length(self):
        payload = pack(np.ones(9))
        with pytest.raises(PackFormatError):
            unpack(payload + b"\x00", 9)

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_width8_random(self, payload):
        # Every byte pattern is a sign payload: unpack, then pack, gives it back.
        assert pack(unpack(payload, 8 * len(payload))) == payload

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_subbyte_random(self, vals):
        v = np.array(vals, dtype=np.int8)
        payload = pack(v)
        assert len(payload) == (v.size + 7) // 8
        assert np.array_equal(unpack(payload, v.size), v)


def _column_pack_ints(values, bits):
    """Per-column OR encoder of ``bits``-wide fields, a payload oracle."""
    per = 8 // bits
    fields = np.zeros(-(-len(values) // per) * per, dtype=np.uint8)
    fields[:len(values)] = np.asarray(values, dtype=np.int64) & ((1 << bits) - 1)
    columns = fields.reshape(-1, per)
    out = np.zeros(columns.shape[0], dtype=np.uint8)
    for j in range(per):
        out |= columns[:, j] << (bits * j)
    return out.tobytes()


class TestPackInts:
    """Signed 2- and 4-bit fields, element 0 in the low bits of byte 0."""

    @pytest.mark.parametrize("bits", [2, 4])
    def test_every_value_round_trips_at_counts_1_to_9(self, bits):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        span = hi - lo + 1
        for count in range(1, 10):
            for offset in range(span):  # every value at every position
                v = np.array([lo + (i + offset) % span for i in range(count)],
                             dtype=np.int8)
                payload = pack_ints(v, bits)
                assert len(payload) == -(-count * bits // 8)
                back = unpack_ints(payload, count, bits)
                assert back.dtype == np.int8
                assert np.array_equal(back, v), (bits, count, offset)

    def test_field_layout(self):
        # 2 bits: 1, -1, 0, -2 are 01, 11, 00, 10 from the low end up.
        assert pack_ints(np.array([1, -1, 0, -2]), 2) == b"\x8d"
        # 4 bits: 7 and -8 share byte 0; -1 fills byte 1's low nibble and
        # the padding nibble stays clear.
        assert pack_ints(np.array([7, -8, -1]), 4) == b"\x87\x0f"

    @pytest.mark.parametrize("bits", [2, 4])
    def test_payload_matches_column_encoder(self, bits):
        rng = np.random.default_rng(bits)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        for n in range(1, 201):
            v = rng.integers(lo, hi + 1, size=n)
            assert pack_ints(v, bits) == _column_pack_ints(v, bits), n
            assert pack_ints(v.astype(np.int8), bits) == pack_ints(v, bits)

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_a_block_packs_row_by_row(self, bits):
        # A collective phase encodes its frames as one block: each row must
        # pack to the bytes it packs to alone, however few values it holds.
        rng = np.random.default_rng(bits)
        lo, hi = (-1, 1) if bits == 1 else (-(1 << (bits - 1)),
                                            (1 << (bits - 1)) - 1)
        for n in range(10):
            block = rng.integers(lo, hi + 1, size=(3, n)).astype(np.int8)
            if bits == 1:
                block[block == 0] = 1
                assert pack(block) == b"".join(pack(row) for row in block)
            else:
                assert pack_ints(block, bits) == b"".join(
                    pack_ints(row, bits) for row in block)

    @pytest.mark.parametrize("bits,values,index", [
        (2, [1, -2, 2], 2), (2, [-3], 0), (4, [7, 8], 1), (4, [0, -9, 9], 1)])
    def test_out_of_range_reports_index(self, bits, values, index):
        with pytest.raises(PackRangeError) as e:
            pack_ints(np.array(values), bits)
        assert e.value.index == index and e.value.value == values[index]

    @pytest.mark.parametrize("bits", [2, 4])
    def test_wrong_length_is_rejected(self, bits):
        payload = pack_ints(np.zeros(9, dtype=np.int8), bits)
        for bad in (payload[:-1], payload + b"\x00"):
            with pytest.raises(PackFormatError):
                unpack_ints(bad, 9, bits)

    @pytest.mark.parametrize("bits", [1, 3, 8])
    def test_only_2_and_4_bit_fields(self, bits):
        with pytest.raises(ConfigError):
            pack_ints(np.zeros(4, dtype=np.int8), bits)
        with pytest.raises(ConfigError):
            unpack_ints(b"\x00", 1, bits)

    @given(st.binary(min_size=1, max_size=200), st.sampled_from([2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_every_byte_pattern_is_a_payload(self, payload, bits):
        count = 8 * len(payload) // bits
        assert pack_ints(unpack_ints(payload, count, bits), bits) == payload
