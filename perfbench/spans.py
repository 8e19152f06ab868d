"""In-memory span recorder and the wrappers that time unify_rnnt from outside.

A traced run replaces selected functions at the name where their callers look
them up (module attributes and class attributes) with thin wrappers that
record one span per call: name, start, end, parent span and the benchmark
operation it belongs to.  Nothing under ``src/`` is edited; ``uninstall``
restores every replaced attribute.

Spans are plain tuples ``(name, t0, t1, parent, op)`` kept in a list whose
index is the span id; ``op`` indexes ``Recorder.ops``, the list of benchmark
operations (one train step, one decoded utterance, one loss-head call).
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# tape ops the toy model and the training step call; depthwise_conv1d is the
# name the tape records for depthwise_conv1d_windows
TENSOR_OPS = ("linear", "layer_norm", "masked_attention", "depthwise_conv1d", "add",
              "relu", "matmul", "outer_add", "tanh", "reshape", "embedding",
              "gru_sequence", "weighted_sum")
TENSOR_ATTR = {"depthwise_conv1d": "depthwise_conv1d_windows"}
BACKWARD_ONLY_OPS = ("rnnt_loss", "mcr_loss")


class Recorder:
    """Spans and per-operation counters of one run.

    Untraced runs record only the operation spans; a traced run adds the
    spans of the wrapped functions inside them.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.ops: list[tuple[str, str]] = []
        self.op_spans: list[int] = []
        self.op_keys: list = []
        self._stack: list[int] = []
        self._op = -1
        self.counts: dict = defaultdict(int)

    # -- recording ------------------------------------------------------------

    @contextmanager
    def operation(self, kind: str, label: str = "", key=None):
        """One benchmark operation: a top-level span named ``kind``.

        ``key`` names the position: operations with equal keys repeat the
        same work.
        """
        self.ops.append((kind, label))
        self.op_keys.append(key)
        self._op = len(self.ops) - 1
        try:
            with self.span(kind) as sid:
                self.op_spans.append(sid)
                yield
        finally:
            self._op = -1

    def _op_durations(self, kind: str, label: str | None):
        for (op_kind, op_label), key, sid in zip(self.ops, self.op_keys, self.op_spans):
            if op_kind == kind and (label is None or op_label == label):
                _name, t0, t1, _parent, _op = self.spans[sid]
                yield key, t1 - t0

    def durations(self, kind: str, label: str | None = None) -> list[float]:
        """Seconds taken by each operation of ``kind`` (and ``label``)."""
        return [d for _key, d in self._op_durations(kind, label)]

    def best(self, kind: str, label: str | None = None) -> dict:
        """``{key: fastest seconds}`` over the repeats of each position."""
        out: dict = {}
        for key, d in self._op_durations(kind, label):
            out[key] = min(d, out.get(key, d))
        return out

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self._op, name)] += n

    @contextmanager
    def span(self, name: str):
        sid = self._open()
        try:
            yield sid
        finally:
            self._close(sid, name)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        # the start time is written by _close; keep the parent now
        self.spans[sid] = (self._stack[-2] if len(self._stack) > 1 else -1, perf_counter())
        return sid

    def _close(self, sid: int, name: str) -> None:
        t1 = perf_counter()
        parent, t0 = self.spans[sid]
        self._stack.pop()
        self.spans[sid] = (name, t0, t1, parent, self._op)

    def timed(self, name: str, fn, tally=None):
        """Wrap ``fn`` so each call records a span; ``tally(args)`` may add counts."""
        rec = self

        def wrapper(*args, **kwargs):
            sid = rec._open()
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(sid, name)
                if tally is not None:
                    tally(rec, args)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        out = []
        for sid, (_name, t0, t1, _parent, _op) in enumerate(self.spans):
            out.append((t1 - t0) - covered(t0, t1, children.get(sid, ())))
        return out

    def totals(self) -> dict:
        """``{(kind, label, name): [calls, total_s, self_s]}`` over spans inside operations."""
        selfs = self.self_times()
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, t0, t1, _parent, op), st in zip(self.spans, selfs):
            if op >= 0:
                acc = out[self.ops[op] + (name,)]
                acc[0] += 1
                acc[1] += t1 - t0
                acc[2] += st
        return out

    def op_counts(self) -> dict:
        """``{(kind, label, counter): total}`` over counts made inside operations."""
        out: dict = defaultdict(int)
        for (op, name), n in self.counts.items():
            if op >= 0:
                out[self.ops[op] + (name,)] += n
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines, one per span: id, name, start, end, parent, op id, kind, label."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                kind, label = self.ops[op] if op >= 0 else ("", "")
                fh.write(json.dumps([sid, name, t0, t1, parent, op, kind, label]) + "\n")


def covered(t0: float, t1: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[t0, t1]``."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _encode_frames(rec: Recorder, args) -> None:
    # args = (model, features, mode[, grid_offset]); frames after subsampling
    model, features = args[0], args[1]
    rec.count("encode_frames", model.encoded_length(len(features)))


class Instrumentation:
    """Replace the traced attributes with timing wrappers; ``uninstall`` undoes it."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, name: str, tally=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.rec.timed(name, original, tally))

    def install(self) -> "Instrumentation":
        from unify_rnnt import mcr, model, rnnt_loss, tensor, training

        rec = self.rec
        for op in TENSOR_OPS:
            self._patch(tensor, TENSOR_ATTR.get(op, op), "fwd." + op)

        original_record = tensor.Tape.__dict__["record"]

        def record(tape, name, backward_fn):
            rec.count("tape_records")
            return original_record(tape, name, rec.timed("bwd." + name, backward_fn))
        self._saved.append((tensor.Tape, "record", original_record))
        tensor.Tape.record = record

        self._patch(tensor.Tape, "backward", "Tape.backward")
        for meth in ("pred_sequence", "joint", "joint_vec", "predict"):
            self._patch(model.TransducerModel, meth, "model." + meth)
        self._patch(model.TransducerModel, "encode", "model.encode", _encode_frames)
        self._patch(model, "build_attention_mask", "contexts.build_attention_mask")
        self._patch(model, "plan_conv_chunks", "contexts.plan_conv_chunks")
        # both the training loss nodes and the batched loss entry points
        for owner in (training, rnnt_loss):
            self._patch(owner, "rnnt_forward_single", "rnnt_forward_single")
        for owner in (training, mcr):
            self._patch(owner, "mcr_forward", "mcr_forward")
            self._patch(owner, "mcr_backward", "mcr_backward")
        self._patch(training.AdamW, "step", "AdamW.step")
        self._patch(training, "clip_global_norm", "clip_global_norm")
        return self

    def set(self, on: bool) -> None:
        """Install or uninstall, whichever makes the wrappers ``on``."""
        if on and not self._saved:
            self.install()
        elif not on and self._saved:
            self.uninstall()

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
