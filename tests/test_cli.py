import argparse
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lioncomm
from lioncomm import cli, runner
from lioncomm.errors import ConfigError
from lioncomm.collectives import majority_sign
from lioncomm.optimizer import WorkerState, hash_params, lion_step
from lioncomm.quant import SignPolicy, apply_sign
from lioncomm.workloads import (init_mlp, noisy_client_grads,
                                teacher_student_batch)
from test_frames import free_base_port


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_TRAIN = {
    "train": {"steps": 10, "clients": 2, "batch_size": 16},
    "quant": {"kind": "sign"},
    "algo": "compressed1bit",
    "noise": {"levy_alpha": 2.0, "scale": 1e-3},
    "seed": 0,
    "metrics_every": 2,
}


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestExitCodes:
    def test_train_success(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL_TRAIN)
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command,doc", [
        ("train", {"algo": "telepathy"}),
        ("train", {**SMALL_TRAIN, "metrics_every": 0}),
        ("train", {**SMALL_TRAIN, "metrics_every": -1}),
        ("train", {**SMALL_TRAIN, "sync": {"period": 5, "layers": ["hed"]}}),
        ("quant-bench", {"workers": 0}),
        ("quant-bench", {"workers": 2.5}),
        ("quant-bench", {"bits": 8.5}),
        ("train", {**SMALL_TRAIN, "train": {**SMALL_TRAIN["train"],
                                            "batch_size": 0}}),
        ("train", {**SMALL_TRAIN, "train": {**SMALL_TRAIN["train"],
                                            "batch_size": -1}}),
        ("train", {**SMALL_TRAIN, "model": {"hidden": 0}}),
        ("train", {**SMALL_TRAIN, "model": {"in_dim": 0}}),
        ("train", {**SMALL_TRAIN, "model": {"out_dim": -2}}),
    ], ids=["unknown-algo", "metrics-every-0", "metrics-every-negative",
            "unknown-sync-layer", "quant-bench-no-workers",
            "quant-bench-fractional-workers", "quant-bench-fractional-bits",
            "batch-size-0",
            "batch-size-negative", "hidden-0", "in-dim-0", "out-dim-negative"])
    def test_bad_config_exits_2(self, tmp_path, command, doc):
        cfgp = write_config(tmp_path, doc)
        assert cli.main([command, "--config", cfgp,
                         "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("train", [5, [1]], ids=["number", "list"])
    def test_train_section_not_an_object_exits_2_with_world(
            self, tmp_path, capsys, train):
        # --world writes into ``train`` before any reader sees it.
        cfgp = write_config(tmp_path, {**SMALL_TRAIN, "train": train})
        assert cli.main(["train", "--config", cfgp, "--world", "2",
                         "--out", str(tmp_path / "out")]) == 2
        assert "train must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {**SMALL_TRAIN, "train": {**SMALL_TRAIN["train"], "clients": 0}},
        {**SMALL_TRAIN, "seed": -1},
        {**SMALL_TRAIN, "noise": {**SMALL_TRAIN["noise"],
                                  "per_client_seed": -5}},
        {**SMALL_TRAIN, "noise": {**SMALL_TRAIN["noise"],
                                  "per_client_seed": 1.5}},
        {**SMALL_TRAIN, "model": {"hidden": 2.5}},
        {**SMALL_TRAIN, "train": {**SMALL_TRAIN["train"], "clients": 2.5}},
    ], ids=["clients-0", "seed-negative", "per-client-seed-negative",
            "per-client-seed-fractional", "hidden-fractional",
            "clients-fractional"])
    def test_bad_config_exits_2_before_any_rank_starts(self, tmp_path, doc):
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfgp, "--out", str(out),
                         "--transport", "socket",
                         "--port", str(free_base_port(world=2))]) == 2
        assert not out.exists()

    def test_bad_quant_kind_exits_2(self, tmp_path):
        cfgp = write_config(tmp_path, {"quant": {"kind": "fft"}})
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("rank_args", [
        ["--rank", "1"],                              # no socket transport
        ["--transport", "socket", "--rank", "2"],     # outside a world of 2
        ["--transport", "socket", "--rank", "-1"],
    ])
    def test_unusable_rank_exits_2(self, tmp_path, rank_args):
        cfgp = write_config(tmp_path, SMALL_TRAIN)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfgp, "--out", str(out),
                         "--port", str(free_base_port(world=3))]
                        + rank_args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("port", [65535, 70000])
    def test_port_block_outside_range_exits_2(self, tmp_path, capsys, port):
        # 65535 would leave rank 1 on 65536; 70000 fits no socket at all.
        cfgp = write_config(tmp_path, SMALL_TRAIN)
        assert cli.main(["train", "--config", cfgp, "--transport", "socket",
                         "--world", "2", "--port", str(port),
                         "--out", str(tmp_path / "out")]) == 2
        assert "1..65535" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "quant-bench", "costmodel"])
    def test_out_below_a_file_exits_2_before_any_work(self, tmp_path, capsys,
                                                      monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for fn in ("run_training", "run_quant_bench"):
            monkeypatch.setattr(runner, fn, no_work)
        monkeypatch.setattr(cli.costmodel, "sweep", no_work)
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "out")
        assert cli.main([command, "--out", out]) == 2
        assert out in capsys.readouterr().err


def test_rank_processes_match_inproc(tmp_path):
    """``lioncomm train --transport socket --rank R``, one process per
    rank: both exit 0, and rank 0 alone writes (and says it wrote) the
    inproc run's metrics."""
    cfgp = write_config(tmp_path, SMALL_TRAIN)
    base = free_base_port(world=2)
    src = os.path.dirname(os.path.dirname(lioncomm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen(
        [sys.executable, "-m", "lioncomm.cli", "train", "--config", cfgp,
         "--transport", "socket", "--rank", str(rank), "--port", str(base),
         "--out", str(tmp_path / f"rank{rank}")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for rank in (0, 1)]
    try:
        outs = [p.communicate(timeout=60) for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    assert [p.returncode for p in procs] == [0, 0], outs
    assert "wrote" in outs[0][0] and outs[1][0] == ""
    assert cli.main(["train", "--config", cfgp,
                     "--out", str(tmp_path / "inproc")]) == 0
    assert ((tmp_path / "rank0" / "metrics.csv").read_bytes()
            == (tmp_path / "inproc" / "metrics.csv").read_bytes())
    assert not (tmp_path / "rank1").exists()


def test_subcommands_match_readme():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"train", "quant-bench", "costmodel"}
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as f:
        block = f.read().split("## Command line", 1)[1].split("```")[1]
    named = [line.split()[1] for line in block.splitlines()
             if line.startswith("lioncomm ")]
    assert named and set(named) <= set(sub.choices)


class TestTrainOutputs:
    def test_metrics_csv_header(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL_TRAIN)
        out = str(tmp_path / "out")
        assert cli.main(["train", "--config", cfgp, "--out", out]) == 0
        with open(os.path.join(out, "metrics.csv")) as f:
            header = f.readline().strip()
        assert header == "step,loss,tie_rate,sign_match,flip_rate," \
                         "div_head,div_input"

    def test_report_json_roundtrip(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL_TRAIN)
        out = str(tmp_path / "out")
        cli.main(["train", "--config", cfgp, "--out", out])
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
        assert report == json.loads(json.dumps(report))  # lossless
        assert report["environment"]["world_size"] == 2
        assert report["config"]["algo"] == "compressed1bit"
        assert set(report["summary"]["phase_seconds"]) == {
            "compute", "quantize_pack", "communicate"}

    def test_p1_identity_matches_lion_reference(self, tmp_path):
        doc = {"train": {"steps": 15, "clients": 1, "batch_size": 16},
               "quant": {"kind": "none"}, "algo": "ps",
               "noise": {"scale": 0.0}, "seed": 3, "metrics_every": 1}
        cfg = runner.RunConfig.from_dict(doc)
        result = runner.run_training(cfg)
        losses = [r["loss"] for r in result["rows"]]

        teacher = init_mlp(cfg.model, np.random.default_rng(
            np.random.SeedSequence([3, 1])))
        state = WorkerState.initial(init_mlp(cfg.model, np.random.default_rng(
            np.random.SeedSequence([3, 2]))))
        ref_losses = []
        batch_rng = np.random.default_rng(np.random.SeedSequence([3, 3]))
        for t in range(1, 16):
            loss, grads = teacher_student_batch(state.params, teacher,
                                                cfg.model, 16, batch_rng)
            ref_losses.append(loss)
            state = lion_step(state, grads, cfg.hyper)

        assert losses == ref_losses  # byte-for-byte float equality
        final = result["state"]
        for k in final.params:
            assert np.array_equal(final.params[k], state.params[k])

    @pytest.mark.parametrize("world", [1, 2, 4], ids=["P1", "P2", "P4"])
    def test_single_process_replay_matches_training(self, world):
        """Sign votes on ``direct`` with Levy noise and no sync, replayed
        in one loop with no Topology or thread: one (seed, 3) batch
        stream, per rank a (per_client_seed, rank) noise stream and its
        own momentum, the int sum of the signs, its majority sign under
        the alternating policy, and the descent in ``lion_step``'s order."""
        doc = {"train": {"steps": 15, "clients": world, "batch_size": 16},
               "quant": {"kind": "sign"}, "algo": "direct",
               "noise": {"levy_alpha": 0.5, "scale": 1e-3}, "seed": 3,
               "metrics_every": 1}
        cfg = runner.RunConfig.from_dict(doc)
        result = runner.run_training(cfg)

        h = cfg.hyper
        teacher = init_mlp(cfg.model, np.random.default_rng([3, 1]))
        params = init_mlp(cfg.model, np.random.default_rng([3, 2]))
        moms = [{n: np.zeros_like(p) for n, p in params.items()}
                for _ in range(world)]
        batch_rng = np.random.default_rng([3, 3])
        noise_rngs = [np.random.default_rng([cfg.noise.per_client_seed, r])
                      for r in range(world)]
        losses = []
        for t in range(1, 16):
            policy = SignPolicy(mode="alternating", iteration=t)
            loss, clean = teacher_student_batch(params, teacher, cfg.model,
                                                16, batch_rng)
            losses.append(loss)
            votes = {n: [] for n in params}
            for m, rng in zip(moms, noise_rngs):
                g = noisy_client_grads(clean, cfg.noise, rng)
                for n in params:
                    c = h.beta1 * m[n] + (1.0 - h.beta1) * g[n]
                    votes[n].append(apply_sign(c, policy))
                    m[n] = h.beta2 * m[n] + (1.0 - h.beta2) * g[n]
            params = {n: p - h.lr * (majority_sign(np.sum(votes[n], axis=0),
                                                   policy)
                                     + h.weight_decay * p)
                      for n, p in params.items()}

        assert [r["loss"] for r in result["rows"]] == losses  # bit for bit
        assert result["final_params_hash"] == hash_params(params)

    def test_sync_policy_changes_only_momentum_columns(self, tmp_path):
        base = {"train": {"steps": 20, "clients": 4, "batch_size": 16},
                "quant": {"kind": "sign"}, "algo": "compressed1bit",
                "noise": {"levy_alpha": 2.0, "scale": 1e-2}, "seed": 1,
                "metrics_every": 1}
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        cli.main(["train", "--config", write_config(tmp_path, base, "a.json"),
                  "--out", out_a])
        with_sync = dict(base, sync={"period": 10, "layers": ["head"]})
        cli.main(["train", "--config",
                  write_config(tmp_path, with_sync, "b.json"),
                  "--out", out_b])
        rows_a = read_csv(os.path.join(out_a, "metrics.csv"))
        rows_b = read_csv(os.path.join(out_b, "metrics.csv"))
        # before the first sync at t=10 the runs are identical; at and
        # after it, only momentum-dependent columns may differ at t=10
        for ra, rb in zip(rows_a, rows_b):
            if int(ra["step"]) < 10:
                assert ra == rb
        t10a = next(r for r in rows_a if r["step"] == "10")
        t10b = next(r for r in rows_b if r["step"] == "10")
        assert t10a["loss"] == t10b["loss"]
        assert float(t10b["div_head"]) == 0.0
        assert float(t10a["div_head"]) > 0.0

    def test_run_is_reproducible(self, tmp_path):
        cfg = runner.RunConfig.from_dict(SMALL_TRAIN)
        a = runner.run_training(cfg)
        b = runner.run_training(cfg)
        assert a["rows"] == b["rows"]

    def test_socket_transport_matches_inproc(self, tmp_path):
        cfg = runner.RunConfig.from_dict(SMALL_TRAIN)
        a = runner.run_training(cfg, transport="inproc")
        b = runner.run_training(cfg, transport="socket",
                                base_port=free_base_port(world=2))
        assert a["rows"] == b["rows"]


class TestQuantBenchCommand:
    def test_csv_schema_and_ordering(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"d": 2000, "workers": 4})
        out = str(tmp_path / "out")
        assert cli.main(["quant-bench", "--config", cfgp, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "quant_bench.csv"))
        assert [r["quantizer"] for r in rows] == list(runner.BENCH_VARIANTS)
        assert set(rows[0]) == {"quantizer", "sign_match_rate", "flip_rate"}
        for r in rows:
            assert 0.0 <= float(r["sign_match_rate"]) <= 1.0
            assert 0.0 <= float(r["flip_rate"]) <= 1.0

    def test_unanimous_workers_match_perfectly(self):
        rng = np.random.default_rng(0)
        shared = rng.laplace(size=500)
        updates = [shared.copy() for _ in range(4)]
        # variants that never emit a zero: unanimous inputs match exactly
        rows = runner.quant_bench(updates, bits=8, seed=0,
                                  variants=("1bit", "qinf_nozero"))
        for r in rows:
            assert r["sign_match_rate"] == 1.0
            assert r["flip_rate"] == 0.0
        # sign-preserving variants never flip, even when they emit zeros
        for r in runner.quant_bench(updates, bits=8, seed=0):
            assert r["flip_rate"] == 0.0

    def test_every_variant_votes_signs_at_one_bit(self):
        # A 1-bit spec votes signs whatever its norm, as in training.
        rows = runner.run_quant_bench({"bits": 1, "d": 1000})
        assert [r["quantizer"] for r in rows] == list(runner.BENCH_VARIANTS)
        for r in rows:
            assert (r["sign_match_rate"], r["flip_rate"]) == (
                rows[0]["sign_match_rate"], rows[0]["flip_rate"])
        assert rows[0]["sign_match_rate"] > 0.5

    def test_unknown_variant_is_rejected(self):
        with pytest.raises(ConfigError, match="nope"):
            runner.run_quant_bench({"d": 100, "variants": ["q1", "nope"]})


class TestCostmodelCommand:
    def test_single_point(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["costmodel", "--out", out, "--workers", "8",
                         "--params", "1000000", "--alpha", "0",
                         "--beta", "1e-9"]) == 0
        rows = read_csv(os.path.join(out, "costmodel.csv"))
        assert len(rows) == 4
        winners = [r for r in rows if r["is_argmin"] in ("True", "1")]
        assert len(winners) == 1
        assert winners[0]["algo"] == "compressed_1bit"

    def test_default_grid_every_point_has_argmin(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["costmodel", "--out", out]) == 0
        rows = read_csv(os.path.join(out, "costmodel.csv"))
        points = {}
        for r in rows:
            key = (r["P"], r["N"], r["alpha"], r["beta"])
            points.setdefault(key, 0)
            if r["is_argmin"] in ("True", "1"):
                points[key] += 1
        assert all(v == 1 for v in points.values())
