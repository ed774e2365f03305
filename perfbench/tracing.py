"""Span tracing of amdet from outside the package.

``Tracer.install`` replaces module attributes (``amdet.harness.fit``,
``amdet.model.spectral_block``, ...), the ``Tape`` op methods and
``Tape.backward``/``AdamW.step`` with wrappers that record wall-clock spans
(name, start, end, parent, tag). Each op wrapper also wraps the backward
closure of the node it recorded, tagged with the model block that was running,
so backward time can be assigned to op types and blocks. ``Tracer.uninstall``
puts every original back. Nothing inside ``src/amdet`` changes.

Spans live in memory; ``per_layer`` turns them into the per-layer metrics and
``dump`` writes them out at the end of a run. The benchmark opens one root
span per phase (``setup``, ``op``, ``check``) so numbers can be taken per
operation.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from amdet import (attribution, checkpoint, data, engine, features, harness,
                   model)

MODULES = {"attribution": attribution, "checkpoint": checkpoint,
           "data": data, "engine": engine, "features": features,
           "harness": harness, "model": model}

# span name -> every (module, attribute) that holds the function, because a
# `from .x import f` copy is looked up in the importing module
FUNCTIONS = {
    "data.synth_generate": [("data", "synth_generate")],
    "data.write_recording": [("data", "write_recording")],
    "data.read_recording": [("data", "read_recording")],
    "data.write_features": [("data", "write_features")],
    "data.read_features": [("data", "read_features")],
    "features.extract_features": [("features", "extract_features")],
    "features.baseline_frames": [("features", "baseline_frames")],
    "features.baseline_subtract": [("features", "baseline_subtract")],
    "features.band_component": [("features", "band_component")],
    "model.forward": [("model", "forward"), ("harness", "forward"),
                      ("attribution", "forward")],
    "model.predict": [("model", "predict"), ("harness", "predict")],
    "model.spectral": [("model", "spectral_block")],
    "model.spatial": [("model", "spatial_block")],
    "model.temporal": [("model", "temporal_block")],
    "model.classifier": [("model", "classify")],
    "harness.train": [("harness", "train")],
    "harness.kfold_split": [("harness", "kfold_split")],
    "harness.fit": [("harness", "fit")],
    "harness.evaluate": [("harness", "evaluate")],
    "harness.write_report": [("harness", "write_report")],
    "checkpoint.save": [("checkpoint", "save_checkpoint"),
                        ("harness", "save_checkpoint")],
    "checkpoint.load": [("checkpoint", "load_checkpoint")],
    "attribution.rank_channels": [("attribution", "rank_channels")],
    "attribution.grad_cam": [("attribution", "grad_cam_channels")],
}
BLOCKS = ("spectral", "spatial", "temporal", "classifier")

# every Tape method that records a node
OPS = ("matmul", "add", "mul", "scale", "transpose", "reshape", "slice_last",
       "concat_last", "relu", "softmax", "layer_norm", "sum_all",
       "cross_entropy")
# the ops one training step of the model records; the metric list names these
STEP_OPS = ("matmul", "add", "scale", "transpose", "reshape", "slice_last",
            "concat_last", "relu", "softmax", "layer_norm", "cross_entropy")


def _feature_file_bytes(path) -> int:
    """Manifest plus payload size of an EEGR or FEAT file pair."""
    base = Path(path)
    if base.suffix in (".json", ".f32"):
        base = base.with_suffix("")
    return sum((base.parent / (base.name + ext)).stat().st_size
               for ext in (".json", ".f32"))


# counters fed from positional call arguments:
# span name -> (counter, measure(args))
ARG_COUNTERS = {
    "data.read_recording": ("data.bytes_read",
                            lambda args: _feature_file_bytes(args[0])),
    "data.read_features": ("data.bytes_read",
                           lambda args: _feature_file_bytes(args[0])),
    "attribution.rank_channels": ("attribution.samples",
                                  lambda args: len(args[2])),
}


class Tracer:
    """In-memory span recorder; install() patches amdet, uninstall() restores."""

    def __init__(self):
        # [name, start, end, parent index or -1, tag]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._block: str | None = None
        self._undo: list[tuple[object, str, object]] = []
        # root span index -> counter name -> amount
        self.counts: dict[int, Counter] = defaultdict(Counter)
        # engine.backward span index -> (nodes, matmul flops, gradient bytes)
        self.backward_info: dict[int, tuple[int, int, int]] = {}

    # ---------------------------------------------------------- recording

    def open(self, name: str, tag: str | None = None) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, tag])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self._stack[0] if self._stack else -1][name] += amount

    @contextlib.contextmanager
    def root(self, phase: str):
        """One phase span (setup, op or check) around the calls inside."""
        i = self.open("phase." + phase)
        try:
            yield
        finally:
            self.close(i)

    # ----------------------------------------------------------- patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _function(self, name: str, fn):
        tracer = self
        short = name.removeprefix("model.")
        block = short if short in BLOCKS else None
        counter = ARG_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.count(counter[0], counter[1](args))
            outer = tracer._block
            if block is not None:
                tracer._block = block
            i = tracer.open(name, tracer._block)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
                tracer._block = outer

        return wrapper

    def _backward_closure(self, name: str, tag: str | None, fn):
        tracer = self

        def backward(g):
            i = tracer.open(name, tag)
            try:
                return fn(g)
            finally:
                tracer.close(i)

        return backward

    def _op(self, op: str, fn):
        tracer = self
        fwd, bwd = "engine.op." + op, "engine.bwd." + op

        def method(tape, *args, **kwargs):
            i = tracer.open(fwd, tracer._block)
            try:
                out = fn(tape, *args, **kwargs)
            finally:
                tracer.close(i)
            node = tape.nodes[-1]
            node.backward = tracer._backward_closure(bwd, tracer._block,
                                                     node.backward)
            return out

        return method

    def _tape_backward(self, fn):
        tracer = self

        def backward(tape, loss):
            i = tracer.open("engine.backward", tracer._block)
            try:
                fn(tape, loss)
            finally:
                tracer.close(i)
            grad_bytes = sum(t.data.nbytes for node in tape.nodes
                             for t in node.inputs)
            tracer.backward_info[i] = (len(tape.nodes), tape.matmul_flops(),
                                       grad_bytes)

        return backward

    def _tape_init(self, fn):
        tracer = self

        def init(tape, *args, **kwargs):
            tracer.count("engine.tapes")
            fn(tape, *args, **kwargs)

        return init

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                owner = MODULES[module_name]
                self._patch(owner, attr,
                            self._function(name, getattr(owner, attr)))
        tape = engine.Tape
        for op in OPS:
            self._patch(tape, op, self._op(op, getattr(tape, op)))
        self._patch(tape, "backward", self._tape_backward(tape.backward))
        self._patch(tape, "__init__", self._tape_init(tape.__init__))
        self._patch(engine.AdamW, "step",
                    self._function("engine.adamw", engine.AdamW.step))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- analysis

    def _roots(self) -> list[int]:
        roots = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
        return roots

    def _steps(self, roots: list[int]) -> list[dict]:
        """One record per training step: model.forward through AdamW.step
        under the same harness.fit span."""
        spans = self.spans
        last_forward: dict[int, int] = {}
        steps = []
        for i, (name, _, _, parent, _) in enumerate(spans):
            if name == "model.forward":
                last_forward[parent] = i
            elif name == "engine.adamw" and parent in last_forward:
                step = self._step(last_forward.pop(parent), i)
                step["root"] = roots[i]
                steps.append(step)
        return steps

    def _step(self, first: int, last: int) -> dict:
        spans = self.spans
        step = {"ms": (spans[last][2] - spans[first][1]) * 1e3,
                "adamw_ms": (spans[last][2] - spans[last][1]) * 1e3}
        op_fwd, op_bwd, block_bwd = Counter(), Counter(), Counter()
        block_fwd = Counter()
        child_bwd = 0.0
        backward = None
        for j in range(first, last + 1):
            name, start, end, parent, tag = spans[j]
            dur = (end - start) * 1e3
            if name.startswith("engine.op."):
                op_fwd[name[10:]] += dur
            elif name.startswith("engine.bwd."):
                op_bwd[name[11:]] += dur
                block_bwd[tag] += dur
                if parent == backward:
                    child_bwd += dur
            elif name == "engine.backward":
                backward = j
                step["backward_ms"] = dur
            elif name.startswith("model.") and name[6:] in BLOCKS:
                block_fwd[name[6:]] += dur
        step["backward_self_ms"] = step["backward_ms"] - child_bwd
        step["coverage"] = (sum(op_fwd.values()) + sum(op_bwd.values())) \
            / step["ms"]
        step.update(op_fwd=op_fwd, op_bwd=op_bwd, block_fwd=block_fwd,
                    block_bwd=block_bwd)
        step["exact"] = self.backward_info[backward]
        return step

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _per_root(self, roots: list[int]) -> dict[int, dict]:
        """Totals per root span: seconds per span name, calls, counters."""
        out: dict[int, dict] = {}
        for i, root in enumerate(roots):
            name, start, end, _, _ = self.spans[i]
            rec = out.setdefault(root, {"phase": self.spans[root][0][6:],
                                        "seconds": Counter(),
                                        "calls": Counter()})
            rec["seconds"][name] += end - start
            rec["calls"][name] += 1
            if name == "engine.backward" and \
                    self._under(i, "attribution.rank_channels"):
                rec["calls"]["attribution.backward_passes"] += 1
        for root, counter in self.counts.items():
            if root in out:
                out[root]["calls"].update(counter)
        return out

    def exact_counts(self) -> dict[int, dict]:
        """Counts that must repeat exactly between runs of the same phase."""
        roots = self._roots()
        steps = defaultdict(list)
        for step in self._steps(roots):
            steps[step["root"]].append(step["exact"])
        out = {}
        for root, rec in self._per_root(roots).items():
            calls = rec["calls"]
            out[root] = {
                "phase": rec["phase"],
                "engine.tapes": calls["engine.tapes"],
                "features.band_component_calls":
                    calls["features.band_component"],
                "attribution.backward_passes":
                    calls["attribution.backward_passes"],
                "data.bytes_read": calls["data.bytes_read"],
                "steps": steps[root],
            }
        return out

    def per_layer(self) -> dict:
        """Per-layer metrics.

        A module function's time or count is its median total per traced
        operation; a function that never runs in an operation (set-up work
        on the kfold workloads, training on explain) reports its median per
        traced set-up instead. Step metrics are medians over the training
        steps of the operations, or of the set-ups when operations train
        nothing.
        """
        phase, fallback = "op", "setup"
        span_roots = self._roots()
        roots = self._per_root(span_roots)

        def med(kind: str, *names: str) -> float:
            def per_root(ph: str) -> list[float]:
                return [sum(rec[kind][n] for n in names)
                        for rec in roots.values() if rec["phase"] == ph]

            vals = per_root(phase)
            if not any(vals):
                vals = per_root(fallback)
            return statistics.median(vals) if vals else 0.0

        m: dict[str, float] = {}
        m["features.extract_s"] = med("seconds", "features.extract_features")
        m["features.baseline_s"] = med("seconds", "features.baseline_frames",
                                       "features.baseline_subtract")
        m["features.band_component_calls"] = med(
            "calls", "features.band_component")
        rank_s = med("seconds", "attribution.rank_channels")
        samples = med("calls", "attribution.samples")
        m["attribution.rank_s"] = rank_s
        m["attribution.ms_per_sample"] = rank_s * 1e3 / samples \
            if samples else 0.0
        m["attribution.backward_passes"] = med(
            "calls", "attribution.backward_passes")
        m["data.read_recording_s"] = med("seconds", "data.read_recording")
        m["data.write_features_s"] = med("seconds", "data.write_features")
        m["data.read_features_s"] = med("seconds", "data.read_features")
        m["data.bytes_read"] = med("calls", "data.bytes_read")
        m["checkpoint.save_s"] = med("seconds", "checkpoint.save")
        m["checkpoint.load_s"] = med("seconds", "checkpoint.load")
        for short in ("fit", "evaluate", "write_report", "kfold_split"):
            m[f"harness.{short}_s"] = med("seconds", f"harness.{short}")
        m["model.predict_ms"] = med("seconds", "model.predict") * 1e3
        m["engine.tapes_per_op"] = med("calls", "engine.tapes")

        all_steps = self._steps(span_roots)
        steps = [s for s in all_steps if roots[s["root"]]["phase"] == phase] \
            or [s for s in all_steps
                if roots[s["root"]]["phase"] == fallback]
        m.update(step_metrics(steps))
        return m

    def dump(self, path: str | Path) -> None:
        names = sorted({s[0] for s in self.spans} |
                       {str(s[4]) for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        Path(path).write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "tag"],
            "names": names,
            "spans": [[ids[n], round(a, 7), round(b, 7), p, ids[str(t)]]
                      for n, a, b, p, t in self.spans],
        }, separators=(",", ":")))


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def step_metrics(steps: list[dict]) -> dict[str, float]:
    """Medians (and p95 for step and backward) over training steps."""
    if not steps:
        return {}
    med = statistics.median
    m = {
        "engine.step_ms.p50": med(s["ms"] for s in steps),
        "engine.step_ms.p95": _quantile([s["ms"] for s in steps], 0.95),
        "engine.backward_ms.p50": med(s["backward_ms"] for s in steps),
        "engine.backward_ms.p95": _quantile(
            [s["backward_ms"] for s in steps], 0.95),
        "engine.adamw_ms": med(s["adamw_ms"] for s in steps),
        "engine.backward_self_ms": med(s["backward_self_ms"] for s in steps),
        "engine.nodes_per_step": med(s["exact"][0] for s in steps),
        "engine.matmul_mflops_per_step": med(s["exact"][1]
                                             for s in steps) / 1e6,
        "engine.grad_mbytes_per_step": med(s["exact"][2] for s in steps) / 1e6,
        "trace.coverage": med(s["coverage"] for s in steps),
    }
    for op in STEP_OPS:
        m[f"engine.op.{op}.fwd_ms"] = med(s["op_fwd"][op] for s in steps)
        m[f"engine.op.{op}.bwd_ms"] = med(s["op_bwd"][op] for s in steps)
    for block in BLOCKS:
        m[f"model.{block}.fwd_ms"] = med(s["block_fwd"][block] for s in steps)
        m[f"model.{block}.bwd_ms"] = med(s["block_bwd"][block] for s in steps)
    return m
