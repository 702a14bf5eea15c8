import io
import math

import pytest

from lioncomm import cli
from lioncomm.costmodel import (ALGOS, CSV_COLUMNS, CostParams, cost, sweep,
                                write_sweep_csv)
from lioncomm.errors import ConfigError


def bw(algo, **kw):
    return cost(algo, CostParams(**kw))[1]


class TestFormulaFidelity:
    def test_bandwidth_at_p8_n1e6(self):
        kw = dict(alpha=0.0, beta=1e-9, workers=8, params=10 ** 6,
                  word_bits=32)
        assert bw("ps_naive", **kw) == pytest.approx(0.512, rel=1e-12)
        assert bw("ps_efficient", **kw) == pytest.approx(0.084, rel=1e-12)
        assert bw("direct_allreduce", **kw) == pytest.approx(0.007, rel=1e-12)
        assert bw("compressed_1bit", **kw) == pytest.approx(0.001875,
                                                            rel=1e-12)

    def test_all_terms_at_p2_n1(self):
        cp = CostParams(alpha=1.0, beta=1.0, workers=2, params=1,
                        word_bits=32)
        assert cost("ps_naive", cp) == (2.0, 128.0, 130.0)
        assert cost("ps_efficient", cp) == (2.0, 48.0, 50.0)
        assert cost("direct_allreduce", cp) == (2.0, 2.0, 4.0)
        assert cost("compressed_1bit", cp) == (2.0, 1.5, 3.5)

    def test_all_terms_at_p8_n1e6(self):
        a, b = 1e-5, 1e-9
        cp = CostParams(alpha=a, beta=b, workers=8, params=10 ** 6,
                        word_bits=32)
        assert cost("ps_naive", cp)[0] == pytest.approx(14 * a, rel=1e-12)
        assert cost("ps_efficient", cp)[0] == pytest.approx(6 * a, rel=1e-12)
        assert cost("direct_allreduce", cp)[0] == pytest.approx(6 * a,
                                                                rel=1e-12)
        assert cost("compressed_1bit", cp)[0] == pytest.approx(10 * a,
                                                               rel=1e-12)

    def test_direct_vs_compressed_at_p2(self):
        n, b = 12345, 1e-9
        kw = dict(alpha=0.0, beta=b, workers=2, params=n, word_bits=32)
        assert bw("direct_allreduce", **kw) == pytest.approx(2 * n * b)
        assert bw("compressed_1bit", **kw) == pytest.approx(1.5 * n * b)

    def test_non_power_of_two_uses_real_log(self):
        cp = CostParams(alpha=1.0, beta=0.0, workers=5, params=1)
        assert cost("direct_allreduce", cp)[0] == pytest.approx(
            2 * math.log2(5))

    def test_unknown_algo(self):
        with pytest.raises(ConfigError):
            cost("magic", CostParams(alpha=1, beta=1, workers=2, params=1))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            CostParams(alpha=1, beta=1, workers=1, params=1)
        with pytest.raises(ConfigError):
            CostParams(alpha=-1, beta=1, workers=2, params=1)

    @pytest.mark.parametrize("field, value", [
        ("workers", 2.5), ("params", True), ("word_bits", 8.5),
        ("alpha", math.nan), ("alpha", math.inf), ("beta", math.nan),
        ("beta", math.inf), ("beta", "1e-9")])
    def test_fractional_bool_or_non_finite_field_is_named(self, field, value):
        kw = dict(alpha=1e-6, beta=1e-9, workers=8, params=10 ** 6,
                  word_bits=32)
        kw[field] = value
        with pytest.raises(ConfigError, match=field):
            CostParams(**kw)

    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"),
                                             ("--beta", "inf")])
    def test_cli_exits_2_on_a_non_finite_cost(self, tmp_path, flag, value):
        out = tmp_path / "out"
        assert cli.main(["costmodel", "--out", str(out), flag, value]) == 2
        assert not (out / "costmodel.csv").exists()


class TestRegimes:
    def test_latency_dominated_ordering(self):
        # beta=0: direct and ps_efficient tie and beat the rest for P>2
        cp = CostParams(alpha=1.0, beta=0.0, workers=8, params=10 ** 6)
        totals = {a: cost(a, cp)[2] for a in ALGOS}
        assert totals["direct_allreduce"] == totals["ps_efficient"]
        assert totals["direct_allreduce"] < totals["compressed_1bit"]
        assert totals["direct_allreduce"] < totals["ps_naive"]

    def test_bandwidth_dominated_ordering(self):
        cp = CostParams(alpha=0.0, beta=1e-9, workers=8, params=10 ** 6)
        totals = {a: cost(a, cp)[2] for a in ALGOS}
        assert min(totals, key=totals.get) == "compressed_1bit"

    def test_crossover_exists_for_p8_b32(self):
        # direct total - compressed total = -4a + 5.125Nb at P=8, b=32:
        # the sign flips as the alpha/beta ratio crosses 1.28125*N
        n = 10 ** 6

        def diff(a):
            cp = CostParams(alpha=a, beta=1e-9, workers=8, params=n)
            return cost("direct_allreduce", cp)[2] - \
                cost("compressed_1bit", cp)[2]

        assert diff(1e-9 * n) > 0        # bandwidth-bound: compressed wins
        assert diff(10 * 1e-9 * n) < 0   # latency-bound: direct wins

    def test_total_nondecreasing_in_n(self):
        for algo in ALGOS:
            prev = -1.0
            for n in (1, 10, 10 ** 3, 10 ** 6):
                cp = CostParams(alpha=1e-6, beta=1e-9, workers=8, params=n)
                t = cost(algo, cp)[2]
                assert t >= prev
                prev = t


class TestSweep:
    def test_one_point_four_rows_one_argmin(self):
        rows = sweep([8], [10 ** 6], [1e-6], [1e-9])
        assert len(rows) == 4
        assert sum(r["is_argmin"] for r in rows) == 1

    def test_beta_dominated_argmin(self):
        rows = sweep([8], [10 ** 6], [0.0], [1e-9])
        winner = [r for r in rows if r["is_argmin"]]
        assert winner[0]["algo"] == "compressed_1bit"

    def test_rows_match_cost(self):
        rows = sweep([2, 8], [100], [1e-6], [1e-9, 1e-7])
        assert len(rows) == 4 * 2 * 2
        for r in rows:
            cp = CostParams(alpha=r["alpha"], beta=r["beta"],
                            workers=r["P"], params=r["N"])
            lat, bwv, tot = cost(r["algo"], cp)
            assert r["latency_s"] == lat
            assert r["bandwidth_s"] == bwv
            assert r["total_s"] == tot

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep([], [1], [1.0], [1.0])

    def test_csv_layout(self):
        buf = io.StringIO()
        write_sweep_csv(sweep([8], [100], [1e-6], [1e-9]), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
