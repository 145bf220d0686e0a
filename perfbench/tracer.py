"""In-memory span tracer for the traced benchmark run.

The tracer changes no code of the program.  ``install`` replaces public
names on the module where their caller looks them up (for example
``masko.training.adam_step``, which ``train_step`` calls) with a timing
wrapper, and ``uninstall`` puts the originals back.  ``Tape.record`` is
wrapped too, so each backward rule is timed as a span of the op that
recorded it.  Wrappers only read arguments and results, so a traced run
writes the same checkpoint bytes as an untraced one.

Spans hold name, start, end, parent and run id and stay in memory until
``write`` saves them.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict

from masko import autodiff, data, evaluate, model, samplers, training

# (module, attribute looked up by the caller, span name)
WRAPPED = (
    (data, "gen_digits", "data.gen_digits"),
    (training, "train_step", "training.train_step"),
    (training, "draw_latent", "samplers.draw_latent"),
    (training, "sampler_forward", "samplers.sampler_forward"),
    (training, "objective", "model.objective"),
    (training, "adam_step", "training.adam_step"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (samplers, "stretch", "distributions.stretch"),
    (model, "expected_l0_terms", "distributions.expected_l0_terms"),
    (evaluate, "collapse_distribution", "evaluate.collapse_distribution"),
    (evaluate, "eval_fixed_mask", "evaluate.eval_fixed_mask"),
    (evaluate, "decoder_apply", "model.decoder_apply"),
)

# Differentiable primitives of masko.autodiff.  Tensor operators and the
# other modules reach them through the autodiff module namespace.
OPS = (
    "add", "sub", "neg", "mul", "div", "matmul", "transpose", "reshape",
    "sigmoid_temp", "clamp01", "leaky_relu", "softplus", "exp", "log",
    "sqrt", "normal_cdf", "tensor_sum", "tensor_mean", "conv2d",
)


def _reduction_size(op: str, inputs) -> int:
    """Multiply-adds per output element of a contraction op, from operand shapes."""
    if op == "matmul":
        return inputs[0].data.shape[-1]
    if op == "conv2d":
        _, ci, kh, kw = inputs[1].data.shape
        return ci * kh * kw
    return 0


class Tracer:
    """Spans and counters of one traced run, grouped by run id."""

    def __init__(self) -> None:
        # each span: [name, start_ns, end_ns, parent index or -1, run id]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.run = "setup:0"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0

    # --- spans -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def _add(self, name: str, value: float) -> None:
        self.counts[(self.run.split(":")[0], name)] += value

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(sid)

        return traced

    # --- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAPPED:
            self._patch(module, attr, self._timed(getattr(module, attr), name))
        for op in OPS:
            self._patch(autodiff, op, self._timed(getattr(autodiff, op), f"autodiff.{op}"))
        tape = autodiff.Tape
        self._patch(tape, "backward", self._timed(tape.backward, "autodiff.backward"))
        self._patch(tape, "record", self._record_wrapper(tape.record))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _record_wrapper(self, record):
        tracer = self

        @functools.wraps(record)
        def traced_record(tape, out_data, inputs, back):
            op = tracer.spans[tracer._stack[-1]][0] if tracer._stack else "autodiff.untraced"
            tracer._add("autodiff.record.bytes", out_data.nbytes)
            if any(t.requires_grad for t in inputs):
                tracer._add("autodiff.back_rules", 1)
            flops = 2 * out_data.size * _reduction_size(op[len("autodiff."):], inputs)
            if flops:
                tracer._add(f"{op}.flop", flops)
            bwd_name = f"{op}.bwd"

            def traced_back(g, needs):
                sid = tracer._enter(bwd_name)
                try:
                    return back(g, needs)
                finally:
                    tracer._exit(sid)
                    if flops:
                        tracer._add(f"{op}.flop", flops * sum(needs))

            return record(tape, out_data, inputs, traced_back)

        return traced_record

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self._add("runtime.gc_collections", 1)
            self._add("runtime.gc_pause_ns", time.perf_counter_ns() - self._gc_start)

    # --- aggregation -----------------------------------------------------

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name within one phase: calls, inclusive ns and self ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        prefix = phase + ":"
        for sid, (name, start, end, parent, run) in enumerate(self.spans):
            if run.startswith(prefix):
                agg = out[name]
                agg["calls"] += 1
                agg["ns"] += end - start
                agg["self_ns"] += end - start - child_ns[sid]
        return out

    def count(self, phase: str, name: str) -> float:
        return self.counts.get((phase, name), 0.0)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as f:
            for sid, (name, start, end, parent, run) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "run": run}) + "\n")
