"""lioncomm benchmark: one workload, all four vote algorithms in turn.

Run from the repository root:

    python3 bench/run.py --workload toy --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json,
measured in PARTS fresh interpreters one after another (``part.py``);
``--trace 1`` runs each algorithm untraced and then traced, in this
process, and reports the per-layer metrics.  Output is a readable table,
a provenance line, and last one JSON line
``{"correct", "attempted", "failed", "metrics"}``.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import reference
from setup_probe import SHAPES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# An end-to-end run is split into this many parts, each in a fresh
# interpreter; steps_per_s is the median over parts.  Set-up is timed once
# after each part, in a fresh interpreter too; setup_s is the median.
PARTS = 8
# The parts and probes of a run, hung or not, end within this many seconds.
PARTS_DEADLINE_S = 140.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description="lioncomm benchmark")
    ap.add_argument("--workload", choices=sorted(SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_sample(workload: str, pacer: pace.Pacer,
                 timeout: float) -> tuple[float, float]:
    """One set-up time, scaled by the pace loop timed just before it, and
    unscaled."""
    pace_ms = 1000 * statistics.median(pacer.once() for _ in range(3))
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True)
    setup = float(done.stdout.split()[-1])
    return setup * pace.REF_MS / pace_ms, setup


def provenance(args, layer_sizes: list[int], numpy_version: str,
               cpus: set[int]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "lioncomm").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "parts": 1 if args.trace else PARTS,
            "P": SHAPES[args.workload]["P"], "N": layer_sizes,
            "nproc": len(cpus), "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "src_sha256": src.hexdigest()}


def run_parts(args, loads):
    """The parts of an end-to-end run, one after another, each followed by
    a set-up probe; stops at the first failure."""
    cmd = [sys.executable, str(HERE / "part.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / PARTS),
           "--parts", str(PARTS)]
    if args.workload != "toy":
        digests = reference.reference_digests(args.workload, args.seed, loads.ALGOS)
        cmd += ["--digests", json.dumps(digests)]
    deadline = time.monotonic() + PARTS_DEADLINE_S
    parts, setups, problems = [], [], []

    def left() -> float:
        return max(deadline - time.monotonic(), 1.0)

    pacer = pace.Pacer()
    try:
        for k in range(PARTS):
            try:
                done = subprocess.run(cmd + ["--part", str(k)], cwd=ROOT,
                                      capture_output=True, text=True, timeout=left())
                parts.append(json.loads(done.stdout.strip().splitlines()[-1]))
            except (ValueError, IndexError):
                tail = done.stderr.strip().splitlines()[-1:] or [""]
                problems.append(f"part {k} exited {done.returncode}: {tail[0]}")
                break
            except subprocess.TimeoutExpired:
                problems.append(f"part {k} ran past the deadline")
                break
            if any(ph["errors"] for ph in parts[-1]["phases"].values()):
                break
            try:
                setups.append(setup_sample(args.workload, pacer, left()))
            except (subprocess.SubprocessError, ValueError) as exc:
                problems.append(f"set-up probe after part {k} failed: {exc!r}")
                break
    finally:
        pacer.close()
    return parts, setups, problems


def end_to_end(args, loads):
    """Medians over parts of steps_per_s and setup_s; counts and losses
    over all parts.  Toy rates are scaled by the pace loop's time over
    REF_MS; ``notes`` keeps the unscaled medians and the pace."""
    parts, setups, problems = run_parts(args, loads)
    toy = args.workload == "toy"
    paces = [part["pace_s"] * 1000 for part in parts] if toy else []
    metrics, unscaled = {}, {}
    for algo in loads.ALGOS:
        runs = [part["phases"][algo] for part in parts]
        steps = sum(run["steps"] for run in runs)
        rates = [run["steps"] / run["wall_s"] if run["steps"] else None for run in runs]
        unscaled[algo] = statistics.median(r for r in rates if r) if any(rates) else 0.0
        if toy:
            rates = [r and r * ms / pace.REF_MS for r, ms in zip(rates, paces)]
        rates = [r for r in rates if r]
        sent = [sum(per_rank) for per_rank in zip(*(run["bytes"] for run in runs))]
        losses = [loss for run in runs for loss in run["losses"]]
        if toy and not problems and len(losses) != loads.TOY_REPLICAS:
            problems.append(f"{algo}: {len(losses)} of {loads.TOY_REPLICAS} toy losses")
        metrics[f"steps_per_s.{algo}"] = (
            statistics.median(rates) if rates else 0.0, "steps/s")
        metrics[f"wire_bytes_per_step.{algo}"] = (
            max(sent) / steps if steps else 0.0, "bytes")
        metrics[f"final_loss.{algo}"] = (
            statistics.fmean(losses) if losses else 0.0, "MSE")
        problems += [f"{algo}: {err}" for run in runs for err in run["errors"]]
    metrics["peak_rss_mb"] = (max((p["peak_rss_mb"] for p in parts), default=0.0), "MB")
    metrics["setup_s"] = (statistics.median(s for s, _ in setups) if setups else 0.0, "s")
    attempted = sum(run["attempted"] for p in parts for run in p["phases"].values())
    failed = sum(run["failed"] for p in parts for run in p["phases"].values())
    notes = {"pace_ref_ms": pace.REF_MS,
             "unscaled_setup_s": statistics.median(u for _, u in setups) if setups else 0.0}
    if toy and paces:
        notes.update(pace_ms=statistics.median(paces), unscaled_steps_per_s=unscaled)
    return metrics, attempted, failed, problems, notes


def traced(wl, seconds: float, loads, tracing):
    """Each algorithm untraced and traced, all eight phases round robin."""
    pairs = [(wl.phase(algo), wl.phase(algo, traced=True)) for algo in loads.ALGOS]
    phases = [ph for pair in pairs for ph in pair]
    wl.measure(phases, seconds, 1)
    metrics, problems = {}, []
    for plain, spans in pairs:
        missing = tracing.missing_spans(spans.tracer, wl.name, spans.algo)
        if missing:
            problems.append(f"{spans.algo}: no spans for {', '.join(missing)}")
        if not (plain.steps and spans.steps):
            continue
        layer = tracing.layer_metrics(
            spans.tracer, spans.algo, spans.steps, wl.world, wl.layer_sizes,
            cpu_per_wall=plain.cpu_s / plain.wall_s,
            traced_steps_per_s=spans.steps_per_s,
            plain_steps_per_s=plain.steps_per_s)
        metrics.update({k: (v["value"], v["unit"]) for k, v in layer.items()})
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    problems += [f"{ph.algo}: {err}" for ph in phases for err in ph.errors]
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lioncomm" / "__init__.py").is_file():
        print(f"error: lioncomm sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    if args.workload == "toy":
        # A toy step is a chain of GIL hand-offs between rank threads.
        # Spread over cores, each is a cross-core wake-up whose cost swings
        # with the host's load; on one core the steps run 3-6x faster and
        # steadier.  Threads, parts and set-up probes started below
        # inherit this.
        os.sched_setaffinity(0, {max(cpus)})
    sys.path.insert(0, str(SRC))
    import numpy as np
    import loads
    import tracing

    if args.trace:
        wl = loads.Workload(args.workload, args.seed)
        try:
            metrics, attempted, failed, problems = traced(
                wl, args.seconds, loads, tracing)
            notes = {}
        finally:
            wl.close()
    else:
        metrics, attempted, failed, problems, notes = end_to_end(args, loads)
    info = provenance(args, loads.layer_sizes(args.workload), np.__version__, cpus)
    info.update(notes)

    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in declared[kind]]
    if sorted(metrics) != sorted(names):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(names) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(names))}")
        for name in names:
            metrics.setdefault(name, (0.0, "none"))

    for name in names:
        value, unit = metrics[name]
        print(f"{name:<52} {value:>16.6f} {unit}")
    print(f"{'error_rate':<52} {failed / max(attempted, 1):>16.6f} ratio")
    for problem in problems:
        print(f"FAILED {problem}")
    print("provenance " + json.dumps(info))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
