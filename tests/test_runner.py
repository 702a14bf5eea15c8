"""The cross-rank parameter hash of a training run, one-rank-per-call socket
training, config checks made before any rank starts, and the sign lane of
``direct_allreduce`` on narrow inputs."""

import json
import threading

import numpy as np
import pytest

from lioncomm import runner
from lioncomm.collectives import direct_allreduce, run_ranks
from lioncomm.errors import CollectiveError, ConfigError
from lioncomm.optimizer import hash_params
from test_frames import free_base_port

SMALL = {"train": {"steps": 3, "clients": 2}, "metrics_every": 1}


def test_final_params_hash_is_reported(tmp_path):
    cfg = runner.RunConfig.from_dict(SMALL)
    result = runner.run_training(cfg, out_dir=str(tmp_path))
    digest = hash_params(result["state"].params)
    assert result["final_params_hash"] == digest
    with open(tmp_path / "report.json") as f:
        assert json.load(f)["final_params_hash"] == digest


def test_diverged_ranks_raise_collective_error(monkeypatch):
    real = runner.train_worker

    def diverging(topo, cfg):
        result = real(topo, cfg)
        if topo.rank == 1:
            result["final_params_hash"] = "0" * 64
        return result

    monkeypatch.setattr(runner, "train_worker", diverging)
    with pytest.raises(CollectiveError) as err:
        runner.run_training(runner.RunConfig.from_dict(SMALL))
    assert err.value.rank == 1


@pytest.mark.parametrize("lr", [0, -3e-4])
def test_non_positive_lr_is_rejected_by_the_config(lr):
    with pytest.raises(ConfigError, match="lr"):
        runner.RunConfig.from_dict({"train": {"lr": lr}})


def test_rank_per_call_socket_run_matches_inproc(tmp_path):
    """``run_training(rank=R)`` (``lioncomm train --rank R``) for every rank,
    each in its own thread over sockets, gives rank 0's inproc metrics."""
    cfg = runner.RunConfig.from_dict({
        "train": {"steps": 10, "clients": 3}, "quant": {"kind": "sign"},
        "algo": "compressed1bit", "metrics_every": 1})
    base = free_base_port(world=3)
    results = [None] * 3

    def rank_main(rank):
        results[rank] = runner.run_training(
            cfg, str(tmp_path / "socket") if rank == 0 else None, "socket",
            base, rank=rank)

    threads = [threading.Thread(target=rank_main, args=(r,), daemon=True)
               for r in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert all(r is not None for r in results)
    inproc = runner.run_training(cfg, out_dir=str(tmp_path / "inproc"))
    assert ((tmp_path / "socket" / "metrics.csv").read_bytes()
            == (tmp_path / "inproc" / "metrics.csv").read_bytes())
    assert {r["final_params_hash"] for r in results} == {
        inproc["final_params_hash"]}


def test_diverged_rank_processes_raise_collective_error(monkeypatch):
    """The final-hash check runs in-band: with one ``run_training(rank=R)``
    per rank, every rank learns that rank 1 diverged."""
    real = runner.train_worker

    def diverging(topo, cfg):
        result = real(topo, cfg)
        if topo.rank == 1:
            result["final_params_hash"] = "0" * 64
        return result

    monkeypatch.setattr(runner, "train_worker", diverging)
    cfg = runner.RunConfig.from_dict(SMALL)
    base = free_base_port(world=2)
    errors = [None, None]

    def rank_main(rank):
        try:
            runner.run_training(cfg, transport="socket", base_port=base, rank=rank)
        except CollectiveError as exc:
            errors[rank] = exc

    threads = [threading.Thread(target=rank_main, args=(r,), daemon=True)
               for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert all(e is not None for e in errors)
    assert [(e.rank, e.phase) for e in errors] == [(1, "final hash")] * 2


@pytest.mark.parametrize("world", [1, 2, 3])
def test_direct_binary_lane_takes_int8_signs(world):
    rng = np.random.default_rng(world)
    signs = [np.where(rng.random(37) < 0.5, -1, 1) for _ in range(world)]

    def fn(topo):
        wide = direct_allreduce(signs[topo.rank].astype(np.int64), topo,
                                q_max=1)
        narrow = direct_allreduce(signs[topo.rank].astype(np.int8), topo,
                                  q_max=1)
        return wide, narrow

    expect = np.sum(signs, axis=0)
    for wide, narrow in run_ranks(world, fn):
        assert np.array_equal(narrow.values, expect)
        assert narrow.values.dtype == wide.values.dtype
        assert narrow.ties == wide.ties
        assert narrow.ties == int(np.count_nonzero(expect == 0))


@pytest.mark.parametrize("bad", [2, -2])
def test_direct_binary_lane_rejects_non_signs(bad):
    q = np.ones(5, dtype=np.int8)
    q[3] = bad

    def fn(topo):
        return direct_allreduce(q, topo, q_max=1)

    with pytest.raises(ConfigError):
        run_ranks(2, fn)
