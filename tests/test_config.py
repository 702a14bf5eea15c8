"""The run config reader: every key is a field of the dataclass it builds,
anything else exits 2 naming its path, and ``report.json`` echoes the
resolved config, which reads back to the same run."""

import json
import os
import re

import numpy as np
import pytest

from lioncomm import cli, runner
from lioncomm.errors import ConfigError
from lioncomm.runner import RunConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = {"steps": 2, "clients": 2}


def train(tmp_path, doc, name="cfg"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / name
    return cli.main(["train", "--config", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("doc,key", [
    ({"train": {**SMALL, "stepz": 3}}, "train.stepz"),
    ({"train": SMALL, "quant": {"kind": "lp", "bitz": 4}}, "quant.bitz"),
    ({"train": SMALL, "metric_every": 1}, "metric_every"),
    ({"train": SMALL, "sync": {"every": 3}}, "sync.every"),
    ({"train": SMALL, "quant": {"kind": "sign", "bits": 8}}, "quant.bits"),
    ({"train": SMALL, "quant": {"kind": "none", "bits": 4}, "algo": "ps"},
     "quant.bits"),
    ({"train": SMALL, "algo": "compressed1bit",
      "quant": {"kind": "lp", "bitz": 4}}, "quant.bitz"),
    ({"train": {**SMALL, "lr": True}}, "train.lr"),
    ({"train": {**SMALL, "weight_decay": True}}, "train.weight_decay"),
    ({"train": {**SMALL, "lr": float("inf")}}, "train.lr"),
    ({"train": {**SMALL, "weight_decay": float("inf")}},
     "train.weight_decay"),
    ({"train": SMALL, "quant": {"norm_p": True}}, "quant.norm_p"),
    ({"train": SMALL, "noise": {"levy_alpha": True}}, "noise.levy_alpha"),
    ({"train": SMALL, "quant": {"no_zero": "false"}}, "quant.no_zero"),
    ({"train": SMALL, "quant": {"log_transform": "no"}},
     "quant.log_transform"),
    ({"train": 5}, "train"),
    ({"train": [1]}, "train"),
    ({"train": SMALL, "algo": ["ps"]}, "algo"),
    ({"train": SMALL, "sync": {"layers": 5}}, "sync.layers"),
    ({"train": SMALL, "sync": {"layers": [["head"]]}}, "sync.layers"),
    ({"train": SMALL, "sync": {"layers": {"head": 1}}}, "sync.layers"),
], ids=["train.stepz", "quant.bitz", "metric_every", "sync.every",
        "sign-with-bits", "none-with-bits", "compressed1bit-bad-quant",
        "lr-bool", "weight-decay-bool", "lr-infinite",
        "weight-decay-infinite", "norm-p-bool", "levy-alpha-bool",
        "no-zero-string", "log-transform-string", "train-number",
        "train-list", "algo-list", "sync-layers-number",
        "sync-layers-nested-list", "sync-layers-object"])
def test_unknown_key_or_mistyped_value_exits_2_naming_its_path(
        tmp_path, capsys, doc, key):
    code, out = train(tmp_path, doc)
    assert code == cli.EXIT_CONFIG
    assert re.search(rf"\b{re.escape(key)}\b", capsys.readouterr().err)
    assert not out.exists()


def test_direct_with_full_precision_is_rejected_by_the_config():
    # Before any rank starts or binds a port.
    with pytest.raises(ConfigError, match="direct"):
        RunConfig.from_dict({"algo": "direct", "quant": {"kind": "none"}})


def test_compressed1bit_votes_and_echoes_signs():
    cfg = RunConfig.from_dict({"algo": "compressed1bit",
                               "quant": {"kind": "lp", "bits": 8}})
    assert cfg.quant == runner.QuantSpec(bits=1)
    assert cfg.to_dict()["quant"] == {"kind": "sign"}


def test_default_config_is_the_empty_config():
    assert RunConfig.from_dict(runner.DEFAULT_CONFIG) == RunConfig.from_dict({})
    assert runner.DEFAULT_CONFIG["train"]["lr"] == 3e-4
    assert runner.DEFAULT_CONFIG["sync"]["layers"] == "none"


EVERY_SECTION = {
    "model": {"in_dim": 4, "hidden": 8, "out_dim": 2},
    "train": {"steps": 6, "batch_size": 8, "clients": 3, "lr": 1e-3,
              "beta1": 0.8, "beta2": 0.95, "weight_decay": 0.01},
    "sync": {"period": 2, "layers": ["head"]},
    "noise": {"levy_alpha": 1.5, "scale": 1e-3},
    "seed": 3, "metrics_every": 2,
}


@pytest.mark.parametrize("algo,quant", [
    ("ps", {"kind": "lp", "bits": 4, "norm_p": "inf", "log_transform": True,
            "no_zero": True}),
    ("direct", {"kind": "lp", "bits": 8, "norm_p": 1.0}),
    ("ps_efficient", {"kind": "none"}),
    ("direct", {"kind": "sign"}),
    ("compressed1bit", {"kind": "lp", "bits": 8, "norm_p": 2}),
])
def test_echoed_config_reads_back_and_reruns_bit_for_bit(tmp_path, algo,
                                                         quant):
    doc = {**EVERY_SECTION, "algo": algo, "quant": quant}
    code, out = train(tmp_path, doc, "first")
    assert code == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    assert RunConfig.from_dict(echo) == RunConfig.from_dict(doc)
    code, again = train(tmp_path, echo, "again")
    assert code == 0
    assert ((out / "metrics.csv").read_bytes()
            == (again / "metrics.csv").read_bytes())


def test_readme_config_example_parses():
    with open(os.path.join(ROOT, "README.md")) as f:
        blocks = re.findall(r"```json\n(.*?)```", f.read(), re.S)
    assert blocks
    for block in blocks:
        RunConfig.from_dict(json.loads(block))


@pytest.mark.parametrize("doc,key", [
    ({"d": 100, "dd": 5}, "dd"),
    ({"d": 100, "variants": "q1"}, "variants"),
    ({"d": 100, "common_weight": True}, "common_weight"),
], ids=["unknown-key", "variants-not-a-list", "common-weight-bool"])
def test_quant_bench_config_errors_exit_2(tmp_path, capsys, doc, key):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["quant-bench", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "quant-bench"])
def test_a_config_that_is_not_an_object_exits_2(tmp_path, command):
    # --seed writes into the config before any reader sees it.
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert cli.main([command, "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_quant_bench_passes_only_the_shape_keys_it_is_given(monkeypatch):
    # An omitted key runs make_worker_updates' own parameter default.
    seen = []
    original = runner.make_worker_updates

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "make_worker_updates", spy)
    base = {"d": 64, "workers": 3, "variants": ["q1"]}
    omitted = runner.run_quant_bench(base)
    runner.run_quant_bench({**base, "outlier_count": 2})
    assert seen == [{}, {"outlier_count": 2}]
    explicit = runner.quant_bench(original(
        3, 64, "laplace_with_outliers",
        np.random.default_rng(np.random.SeedSequence([0, 7]))), 8,
        variants=["q1"])
    assert omitted == explicit
