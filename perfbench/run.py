"""The masko benchmark: one workload per call, measured in worker processes.

Run from the repository root:

    python3 perfbench/run.py --workload vanilla-mlp --seed 1 --seconds 25 --trace 0

The workloads, their reference values and the layer predictions are in
``perfbench/spec.json``; metric names, units and bounds in
``BENCHMARK.json``.  The seed makes the inputs, and the train-step count
of a workload is ``--seconds`` divided by its nominal step time, so the
same seed and seconds give the same work and the same checkpoint bytes.

``--trace 0`` runs the workload's set-up in several worker processes one
after another (``setup_s`` is the median); the last one goes on to the
timed job, a closed loop of train steps (one client, one process)
followed by checkpoint, collapse and fixed-mask eval.  ``--trace 1`` is
the separate traced run: one worker steps an untraced and a traced copy
of the job in turn and reports the per-layer metrics.  ``--smoke``
shrinks everything to a toy size for ``perfbench/test_smoke.py``.

Reported times are wall times scaled to a fixed reference speed of the
machine, measured by a reference kernel the workers time between the
program's calls (see ``reference_about`` in spec.json); the raw wall times
are printed too.

Workers get their own environment with the BLAS thread count pinned
(checkpoint bytes depend on it); nothing machine-wide changes.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only when every output check passed; a worker that cannot
run (for example without ``src/masko``) ends the benchmark with exit code
2 and no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_run"
# Every worker is killed once this much time has passed since the start.
DEADLINE_S = 170.0
# Timing metrics that are also printed as raw wall time.
RAW_SHOWN = ("setup_s", "train_step_ms_p50", "train_step_ms_p95", "train_images_per_s",
             "collapse_ms", "score_ms", "eval_images_per_s", "run_s")


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy size: n=12, four train steps")
    return p.parse_args(argv)


def run_worker(mode: str, args, env: dict, deadline: float) -> dict:
    """Start one worker and collect its events, each stamped with the
    seconds since the worker was started."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", str(OUT_DIR)]
    if args.smoke:
        cmd.append("--smoke")
    events = {}
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - started), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                sys.stderr.write(line)
                continue
            msg = json.loads(line)
            events[msg.pop("event")] = (time.perf_counter() - started, msg)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or "result" not in events:
        raise WorkerError(f"{mode} worker for {args.workload} exited with code {code}")
    return events


def check_reference(spec: dict, args, metrics: dict, checks: dict) -> None:
    """Compare test_mse and train_loss with the workload's reference values.

    The references are medians over seeds 101-110 at the full size and the
    reference run length; they do not apply to other sizes or lengths,
    because the step count follows ``--seconds``.
    """
    if args.smoke or args.seconds != spec["reference_seconds"]:
        print(f"note: reference check needs the full size and --seconds {spec['reference_seconds']}")
        return
    for name, ref in spec["workloads"][args.workload]["reference"].items():
        rel = abs(metrics[name] - ref["value"]) / ref["value"]
        checks[f"reference_{name}"] = (rel <= ref["rel_tol"],
                                       f"{metrics[name]:.6g} vs {ref['value']:.6g}, off by {rel:.1%},"
                                       f" tolerance {ref['rel_tol']:.0%}")


def measure(args, spec: dict, env: dict, deadline: float) -> tuple[dict, dict, dict]:
    """Returns (result of the last worker, metrics, checks)."""
    if args.trace:
        events = run_worker("trace", args, env, deadline)
        result = events["result"][1]
        dom = result["dominant"]
        ranking = ", ".join(f"{name} {share:.1%}" for name, share in dom["ranking"])
        print(f"self time over {result['steps']} traced train steps: {ranking}")
        print(f"expected leaders {', '.join(dom['expected'])}: "
              + ("met" if dom["met"] else "NOT MET, the traced run does not confirm this workload's dominant layers"))
        print(f"spans written to {result['trace_file']}")
        checks = {"trace_digest": (result["checks"]["trace_digest"],
                                   f"untraced {result['checkpoint_digest'][:16]}…, "
                                   f"traced {result['traced_checkpoint_digest'][:16]}…")}
        return result, result["metrics"], checks

    setups = []  # (seconds from start to ready, the same at the reference speed, digest)
    for _ in range(spec["setup_repeats"] - 1):
        events = run_worker("setup", args, env, deadline)
        ready_s, setup = events["ready"][0], events["result"][1]
        setups.append((ready_s, ready_s * setup["setup_scale"], setup["warmup_digest"]))
    events = run_worker("run", args, env, deadline)
    result = events["result"][1]
    ready_s = events["ready"][0]
    setups.append((ready_s, ready_s * result["setup_scale"], result["warmup_digest"]))
    metrics, raw = dict(result["metrics"]), dict(result["raw"])
    metrics["setup_s"] = statistics.median(s for _, s, _ in setups)
    raw["setup_s"] = statistics.median(s for s, _, _ in setups)
    metrics["run_s"] = setups[-1][1] + metrics["job_s"]
    raw["run_s"] = ready_s + raw["job_s"]
    digests = {d for _, _, d in setups}
    checks = {name: (ok, "") for name, ok in result["checks"].items()}
    checks["warmup_digest"] = (len(digests) == 1,
                               f"{len(setups)} processes, sha256 {', '.join(sorted(d[:16] for d in digests))}…")
    print(f"train steps: {result['steps']} of B={result['batch_size']}; p50 and p95 over "
          f"{result['timed_steps']} timed steps, {result['p95_tail']} of them above p95; "
          f"collapse and eval medians over {result['collapse_calls']} and {result['eval_calls']} calls")
    print(f"collapse mask sizes {result['mask_sizes']}; checkpoint sha256 {result['checkpoint_digest']}")
    print(f"setup_s is the median of {len(setups)} worker processes; run_s is the last one's "
          f"start to eval done")
    print(f"times are at the reference speed ({spec['reference_call_ms']} ms per reference call); "
          f"as raw wall time they read: "
          + ", ".join(f"{k} {raw[k]:.6g}" for k in RAW_SHOWN))
    check_reference(spec, args, metrics, checks)
    return result, metrics, checks


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(spec["workloads"]):
        print(f"BENCHMARK.json workloads {names} differ from perfbench/spec.json "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "masko").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'masko'} is missing", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    threads = str(spec["pinned_threads"])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    print(f"masko benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}{', smoke size' if args.smoke else ''}")
    try:
        result, measured, checks = measure(args, spec, env, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env_block = ", ".join(f"{k} {v}" for k, v in result["environment"].items())
    print(f"environment: {env_block}")
    for err in result["errors"]:
        print(f"failed operation: {err}")

    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in listed:
        value = measured.get(m["name"], math.nan)
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None, "unit": m["unit"]}
        print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
    if not args.trace:
        # Printed but not in BENCHMARK.json: the seed-to-seed spread of
        # test_mse (training noise) and of collapse_ms (on vanilla-mlp a
        # 0.1 ms call whose cost depends on the trained law) exceeds any
        # allowed bound, and error_rate is 0 when nothing fails.
        print(f"  {'collapse_ms':<36} {measured['collapse_ms']:>14.6g} ms (not bounded; part of score_ms)")
        print(f"  {'test_mse':<36} {measured['test_mse']:>14.6g} mse (lower mask; checked, not bounded)")
        print(f"  {'error_rate':<36} {result['failed'] / result['attempted']:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']} operations failed)")
    missing = [m["name"] for m in listed if m["name"] not in measured]
    checks["metrics_listed"] = (not missing, f"missing {missing}" if missing else "")
    bad = [name for name, m in metrics.items() if m["value"] is None]
    if not args.trace and not math.isfinite(measured["test_mse"]):
        bad.append("test_mse")
    checks["metrics_finite"] = (not bad, f"non-finite {bad}" if bad else "")
    for name, (ok, detail) in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}{f' ({detail})' if detail else ''}")

    correct = all(ok for ok, _ in checks.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
