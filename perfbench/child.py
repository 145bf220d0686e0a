"""Worker process of the masko benchmark; run.py starts it.

It runs one workload in one of three modes and writes JSON lines to
standard output, the last one being ``{"event": "result", ...}``:

* ``setup``: import, generate the data, warm up on a throwaway model and
  checkpoint it, then build the job to be timed; report the warm-up
  checkpoint digest.
* ``run``: the same set-up, then the timed job: train steps over shuffled
  column batches, checkpoint, collapse, fixed-mask eval.
* ``trace``: the same set-up, then two copies of the job from the same
  seed, stepped in turn, one untraced and one traced; report per-layer
  metrics and both checkpoint digests.

The program is driven through public functions of masko only.

In ``setup`` and ``run`` a fixed reference kernel (``Speed``) is timed
between the program's calls, and every reported time is scaled to the
reference speed given in spec.json.  On a shared cloud VM other tenants
make the speed swing by up to 40% within seconds; the scaled times cancel
most of that swing.  Raw wall times are reported too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import masko
from masko import data, evaluate, model, samplers, training
from masko.errors import MaskoError
from masko.rng import STREAM_LATENT, STREAM_SHUFFLE, stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
# Collapse and eval of the trained model are repeated at least
# REPEAT_MIN_CALLS times and until REPEAT_S has passed, so that
# sub-millisecond calls are timed over many repetitions and the
# 1.7 s conv_resnet eval over more than one.
REPEAT_S = 1.0
REPEAT_MIN_CALLS = 3
REPEAT_MAX_CALLS = 5000


class Speed:
    """The machine's current speed, from a fixed reference kernel.

    ``tick`` times ``CALLS`` calls of a small cache-resident kernel (a
    matmul and a transposing copy, numpy only, never the program).  Each
    timed span of the program is later scaled by the reference speed around
    it: its duration times ``ref_ms`` over the median reference call time
    within ``WINDOW_S`` of the span.  Every timed span must have a tick
    before and after it.
    """

    CALLS = 2
    WINDOW_S = 0.25

    def __init__(self, ref_ms: float):
        rng = np.random.default_rng(0)
        self.x, self.y, self.z = rng.random((128, 256)), rng.random((256, 128)), rng.random((256, 512))
        self.ref_s = ref_ms / 1e3
        self.at: list[float] = []
        self.dur: list[float] = []

    def tick(self) -> None:
        for _ in range(self.CALLS):
            t0 = time.perf_counter()
            self.x @ self.y
            self.z.T.copy()
            self.at.append(t0)
            self.dur.append(time.perf_counter() - t0)

    def factor(self, t0: float, t1: float) -> float:
        """Reference call time over the median one near [t0, t1]."""
        lo, hi = np.searchsorted(self.at, (t0 - self.WINDOW_S, t1 + self.WINDOW_S))
        return self.ref_s / float(np.median(self.dur[lo:hi]))

    def scaled(self, spans) -> np.ndarray:
        """Durations of ``spans`` [(t0, t1), ...] at the reference speed, in seconds."""
        return np.array([(t1 - t0) * self.factor(t0, t1) for t0, t1 in spans])


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", required=True, type=Path)
    return p.parse_args(argv)


class Job:
    """One training run of the workload: model, optimizer state and streams."""

    def __init__(self, cfg: training.TrainConfig, flat_train: np.ndarray, mc_samples: int):
        self.cfg = cfg
        self.mc_samples = mc_samples
        self.params, self.dec = training.init_run(cfg)
        arrays = {f"s.{k}": a for k, a in samplers.param_arrays(self.params)}
        arrays.update({f"d.{k}": a for k, a in model.decoder_param_arrays(self.dec)})
        self.param_count = sum(a.size for a in arrays.values())
        self.state = training.AdamState.for_arrays(arrays)
        self.latent_rng = stream(cfg.seed, STREAM_LATENT)
        self._batches = self._shuffled_batches(flat_train, stream(cfg.seed, STREAM_SHUFFLE))
        self.steps_done = 0
        self.steps: list[tuple[float, float]] = []  # (start, end) of each step
        self.losses: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.save: tuple[float, float] | None = None

    def _shuffled_batches(self, flat: np.ndarray, shuffle_rng):
        """Batches as (n*n, B) columns in the order train_loop uses."""
        count = flat.shape[0]
        batch = min(self.cfg.batch_size, count)
        while True:
            order = shuffle_rng.permutation(count)
            for b in range(count // batch):
                yield np.ascontiguousarray(flat[order[b * batch : (b + 1) * batch]].T)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def train(self, steps: int, tracer=None, speed: Speed | None = None) -> None:
        """Run ``steps`` train steps, with a speed tick before each and after the last."""
        for _ in range(steps):
            i = self.steps_done
            self.steps_done += 1
            self.attempted += 1
            cols = next(self._batches)
            if tracer is not None:
                tracer.run = f"step:{i}"
            if speed is not None:
                speed.tick()
            t0 = time.perf_counter()
            try:
                breakdown = training.train_step(
                    cols, self.params, self.dec, self.state, self.cfg, self.latent_rng
                )
            except MaskoError as exc:
                self.fail(f"train step {i}: {exc}")
                continue
            finally:
                self.steps.append((t0, time.perf_counter()))
            if math.isfinite(breakdown.total):
                self.losses.append(breakdown.total)
            else:
                self.fail(f"train step {i}: non-finite loss")
        if speed is not None:
            speed.tick()

    def checkpoint_digest(self, path: Path, speed: Speed | None = None) -> str:
        if speed is not None:
            speed.tick()
        t0 = time.perf_counter()
        training.save_checkpoint(self.params, self.dec, path)
        self.save = (t0, time.perf_counter())
        if speed is not None:
            speed.tick()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
        return digest

    def collapse(self):
        return evaluate.collapse_distribution(self.params, mc_samples=self.mc_samples, seed=self.cfg.seed)


def timed_repeats(fn, speed: Speed, same=lambda result: True) -> tuple[list, object, bool]:
    """Call ``fn`` at least REPEAT_MIN_CALLS times and until REPEAT_S has passed, with a
    speed tick before each call and after the last.

    Returns the (start, end) of each call, the last result, and whether
    ``same`` held for every result.
    """
    spans, all_same = [], True
    started = time.perf_counter()
    while len(spans) < REPEAT_MIN_CALLS or (
        time.perf_counter() - started < REPEAT_S and len(spans) < REPEAT_MAX_CALLS
    ):
        speed.tick()
        t0 = time.perf_counter()
        result = fn()
        spans.append((t0, time.perf_counter()))
        all_same = all_same and same(result)
    speed.tick()
    return spans, result, all_same


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def collapse_and_eval(job: Job, test: np.ndarray, speed: Speed | None = None) -> dict:
    """Collapse the trained law and score its lower rounded mask on ``test``.

    The first collapse and eval calls are the ones a user waits for.  With
    ``speed`` (the timed run) both are then repeated, every repeat must give
    the same result, and speed ticks bracket every call.
    """
    tick = speed.tick if speed is not None else lambda: None
    out = {"test_mse": math.nan, "mask_sizes": [], "collapse": [], "eval": [], "checks": {}}
    job.attempted += 2
    tick()
    t0 = time.perf_counter()
    try:
        collapsed = job.collapse()
    except MaskoError as exc:
        collapsed = None
        job.fail(f"collapse: {exc}")
    out["collapse"].append((t0, time.perf_counter()))
    tick()
    if collapsed is None or not np.isfinite(collapsed.probs).all():
        if collapsed is not None:
            job.fail("collapse: non-finite probabilities")
        job.fail("eval: no mask to score")
        return out

    mask = collapsed.masks[0]

    def score():
        return evaluate.eval_fixed_mask(mask, job.dec, test)

    t0 = time.perf_counter()
    try:
        mse = score()
    except MaskoError as exc:
        mse = math.nan
        job.fail(f"eval: {exc}")
    out["eval"].append((t0, time.perf_counter()))
    tick()
    if not math.isfinite(mse):
        job.fail("eval: non-finite mse")
    out["test_mse"] = mse
    out["mask_sizes"] = collapsed.mask_sizes
    if speed is not None and math.isfinite(mse):
        spans, _, same = timed_repeats(
            job.collapse, speed,
            lambda c: np.array_equal(c.probs, collapsed.probs) and c.mask_sizes == collapsed.mask_sizes,
        )
        out["collapse"] += spans
        out["checks"]["collapse_repeatable"] = same
        spans, _, same = timed_repeats(score, speed, lambda m: m == mse)
        out["eval"] += spans
        out["checks"]["eval_repeatable"] = same
    return out


def median_or_nan(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return float(np.median(finite)) if finite else math.nan


def wall(spans) -> np.ndarray:
    """Raw durations of ``spans`` [(t0, t1), ...], in seconds."""
    return np.array([t1 - t0 for t0, t1 in spans])


def timings(job: Job, scored: dict, duration, test_count: int) -> dict:
    """Timing metrics, with ``duration`` turning a list of spans into seconds.

    Collapse and eval times are medians over the repeated calls on the
    trained model; score_ms is their sum, the wait after training for a
    collapsed and scored mask.  job_s is what the user waits for after
    set-up: every train step, the checkpoint, one collapse and one eval.
    """
    step_ms = duration(job.steps) * 1e3
    collapse_s, eval_s = duration(scored["collapse"]), duration(scored["eval"])
    collapse, evaluation = median_or_nan(collapse_s), median_or_nan(eval_s)
    return {
        "train_step_ms_p50": float(np.percentile(step_ms, 50)),
        "train_step_ms_p95": float(np.percentile(step_ms, 95)),
        "train_images_per_s": len(step_ms) * job.cfg.batch_size / (step_ms.sum() / 1e3),
        "collapse_ms": collapse * 1e3,
        "score_ms": (collapse + evaluation) * 1e3,
        "eval_images_per_s": test_count / evaluation,
        "job_s": float(step_ms.sum() / 1e3 + duration([job.save])[0] + collapse_s[:1].sum() + eval_s[:1].sum()),
    }


def run_metrics(job: Job, scored: dict, speed: Speed, test_count: int) -> tuple[dict, dict]:
    """Metrics measured inside the worker (all but setup_s and run_s), with
    times at the reference speed, and the same times as raw wall time."""
    metrics = timings(job, scored, speed.scaled, test_count)
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_mse": scored["test_mse"],
        "train_loss": float(np.mean(job.losses)) if job.losses else math.nan,
        "success_rate": 1.0 - job.failed / job.attempted,
    })
    return metrics, timings(job, scored, wall, test_count)


# Ops whose forward and backward time, call count and FLOPs are reported.
NAMED_OPS = ("matmul", "conv2d", "transpose", "add", "mul", "sigmoid_temp",
             "leaky_relu", "clamp01", "normal_cdf", "tensor_sum")
# Per-step inclusive times of these spans, as metric name -> span name.
STEP_SPANS = {
    "autodiff.backward_ms": "autodiff.backward",
    "training.train_step_ms": "training.train_step",
    "training.adam_step_ms": "training.adam_step",
    "samplers.draw_latent_ms": "samplers.draw_latent",
    "samplers.sampler_forward_ms": "samplers.sampler_forward",
    "distributions.stretch_ms": "distributions.stretch",
    "distributions.expected_l0_terms_ms": "distributions.expected_l0_terms",
    "model.objective_ms": "model.objective",
}
# Per-call inclusive times of spans outside the train steps.
CALL_SPANS = {
    "training.save_checkpoint_ms": ("checkpoint", "training.save_checkpoint"),
    "model.decoder_apply_ms": ("score", "model.decoder_apply"),
    "evaluate.collapse_distribution_ms": ("score", "evaluate.collapse_distribution"),
    "evaluate.eval_fixed_mask_ms": ("score", "evaluate.eval_fixed_mask"),
}


def per_layer(tracer, steps: int, job: Job, overhead: float) -> dict:
    """Per-layer metrics of the traced run, per train step unless named per call."""
    step = tracer.totals("step")
    out = {}
    for op in NAMED_OPS:
        fwd, bwd = step[f"autodiff.{op}"], step[f"autodiff.{op}.bwd"]
        out[f"autodiff.{op}.fwd_ms"] = fwd["ns"] / 1e6 / steps
        out[f"autodiff.{op}.bwd_ms"] = bwd["ns"] / 1e6 / steps
        out[f"autodiff.{op}.calls"] = fwd["calls"] / steps
    for op in ("matmul", "conv2d"):
        # computed from operand shapes: 2 flops per multiply-add
        flop = tracer.count("step", f"autodiff.{op}.flop")
        busy_ns = step[f"autodiff.{op}"]["ns"] + step[f"autodiff.{op}.bwd"]["ns"]
        out[f"autodiff.{op}.gflop"] = flop / 1e9 / steps
        out[f"autodiff.{op}.gflops"] = flop / busy_ns if busy_ns else 0.0
    out["autodiff.record.mib"] = tracer.count("step", "autodiff.record.bytes") / 2**20 / steps
    out["runtime.gc_collections"] = tracer.count("step", "runtime.gc_collections") / steps
    out["runtime.gc_pause_ms"] = tracer.count("step", "runtime.gc_pause_ns") / 1e6 / steps
    for metric, span in STEP_SPANS.items():
        out[metric] = step[span]["ns"] / 1e6 / steps
    out["training.train_step.self_ms"] = step["training.train_step"]["self_ns"] / 1e6 / steps
    out["training.adam.params"] = float(job.param_count)
    for metric, (phase, span) in CALL_SPANS.items():
        agg = tracer.totals(phase)[span]
        out[metric] = agg["ns"] / 1e6 / agg["calls"] if agg["calls"] else math.nan
    applies = tracer.totals("score")["model.decoder_apply"]["calls"]
    out["model.decoder_apply.back_rules"] = (
        tracer.count("score", "autodiff.back_rules") / applies if applies else math.nan
    )
    out["data.gen_digits_s"] = tracer.totals("setup")["data.gen_digits"]["ns"] / 1e9
    out["trace.overhead"] = overhead
    return out


def dominant_layers(tracer, expected: list[str], top: int = 3) -> dict:
    """Rank layers by self time over the train steps (forward and backward summed)."""
    self_ns: dict[str, float] = {}
    for name, agg in tracer.totals("step").items():
        layer = name.removesuffix(".bwd")
        self_ns[layer] = self_ns.get(layer, 0) + agg["self_ns"]
    total = sum(self_ns.values())
    ranked = sorted(self_ns.items(), key=lambda kv: -kv[1])
    leaders = [name for name, _ in ranked[:top]]
    return {
        "ranking": [[name, ns / total] for name, ns in ranked[:6]],
        "expected": expected,
        "met": all(name in leaders for name in expected),
    }


def main() -> None:
    args = parse_args()
    if not Path(masko.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"masko imported from {masko.__file__}, not from {ROOT / 'src'}")
    wl = SPEC["workloads"][args.workload]
    size = SPEC["sizes"]["smoke" if args.smoke else "full"]
    n, train_count, test_count = size["n"], size["train_count"], size["test_count"]
    steps = size["steps"] or max(1, round(args.seconds / wl["nominal_step_s"]))
    warmup = 1 if args.smoke else wl["warmup_steps"]
    cfg = training.TrainConfig(n=n, seed=args.seed, **wl["config"])
    args.out.mkdir(parents=True, exist_ok=True)
    scratch = args.out / f"checkpoint-{os.getpid()}.bin"
    speed = Speed(SPEC["reference_call_ms"])
    speed.tick()

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    images = data.gen_digits(train_count + test_count, n=n, seed=args.seed).images
    if tracer is not None:
        tracer.uninstall()
    flat_train = images[:train_count].reshape(train_count, n * n)
    test = images[train_count:]
    speed.tick()

    warm = Job(cfg, flat_train, wl["mc_samples"])
    warm.train(warmup, speed=speed)
    common = {"warmup_digest": warm.checkpoint_digest(scratch), "environment": environment()}
    del warm
    # the job to be timed; every mode builds it before it reports ready
    job = Job(cfg, flat_train, wl["mc_samples"])
    speed.tick()
    # set-up at the reference speed is its wall time times this
    common["setup_scale"] = speed.ref_s / float(np.median(speed.dur))

    if args.mode == "setup":
        emit("ready")
        emit("result", **common)
        return

    if args.mode == "run":
        emit("ready")
        job.train(steps, speed=speed)
        # Free the training's tapes (reference cycles) before the scoring
        # phase is timed; left to the collector, they slow collapse by a
        # varying 30-40% on hypernet-mlp.
        gc.collect()
        digest = job.checkpoint_digest(scratch, speed)
        scored = collapse_and_eval(job, test, speed)
        metrics, raw = run_metrics(job, scored, speed, test_count)
        emit(
            "result",
            **common,
            checkpoint_digest=digest,
            steps=steps,
            timed_steps=len(job.steps),
            p95_tail=int(np.sum(speed.scaled(job.steps) * 1e3 > metrics["train_step_ms_p95"])),
            collapse_calls=len(scored["collapse"]),
            eval_calls=len(scored["eval"]),
            batch_size=cfg.batch_size,
            metrics=metrics,
            raw=raw,
            mask_sizes=scored["mask_sizes"],
            attempted=job.attempted,
            failed=job.failed,
            errors=job.errors,
            checks=scored["checks"],
        )
        return

    # trace: the same job twice from the same seed, one step untraced and
    # one step traced in turn, so that both see the same machine state
    trace_steps = max(1, steps // 2)
    plain = Job(cfg, flat_train, wl["mc_samples"])
    emit("ready")
    for _ in range(trace_steps):
        plain.train(1)
        tracer.install()
        try:
            job.train(1, tracer)
        finally:
            tracer.uninstall()
    plain_digest = plain.checkpoint_digest(scratch)
    tracer.install()
    try:
        tracer.run = "checkpoint:0"
        traced_digest = job.checkpoint_digest(scratch)
        tracer.run = "score:0"
        collapse_and_eval(job, test)
    finally:
        tracer.uninstall()
    trace_path = args.out / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    overhead = float(np.median(wall(job.steps)) / np.median(wall(plain.steps)))
    emit(
        "result",
        **common,
        checkpoint_digest=plain_digest,
        traced_checkpoint_digest=traced_digest,
        steps=trace_steps,
        batch_size=cfg.batch_size,
        metrics=per_layer(tracer, trace_steps, job, overhead),
        dominant=dominant_layers(tracer, wl["dominant"]),
        trace_file=str(trace_path.relative_to(ROOT)),
        attempted=plain.attempted + job.attempted,
        failed=plain.failed + job.failed,
        errors=plain.errors + job.errors,
        checks={"trace_digest": plain_digest == traced_digest},
    )


if __name__ == "__main__":
    main()
