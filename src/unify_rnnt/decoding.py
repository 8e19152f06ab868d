"""Greedy transducer decoding and evaluation: one chunk loop for every mode.

A mode is a ``ContextSpec | None``, as in :mod:`model`.  :func:`decode_mode`
runs the greedy loop over chunks of C encoder frames, carrying the predictor
state, with one encoder chunk step per chunk on its raw frames
``[s, min(T, s+C+R))`` and a :class:`model.StreamState`, so no computation
reads past the visible horizon; its rows equal the training path's up to
rounding.  Offline is one chunk step of ``(T, T, 0)``: all T frames.
Input shorter than one encoder frame decodes to nothing in zero chunks.  A
result records the measured compute time of each chunk (encoder step plus
greedy loop) next to the theoretical latency (chunk plus right context).

:func:`evaluate` is the one evaluation loop: per-utterance rows and one
summary row per mode, which every eval file and table projects.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .contexts import ContextSpec, latency_of
from .corpus import atomic_write
from .errors import EmptyBatchError
from .model import StreamState, TransducerModel

MAX_SYMBOLS_PER_FRAME = 10


@dataclass
class DecodeResult:
    tokens: list[int] = field(default_factory=list)
    emit_frame: list[int] = field(default_factory=list)
    worst_case_latency_s: float = math.inf
    chunk_ms: list[float] = field(default_factory=list)

    @property
    def steps(self) -> int:
        """Chunks decoded: one per encoder step, one for offline decoding."""
        return len(self.chunk_ms)


def _greedy_over_frames(model: TransducerModel, enc: np.ndarray, frame_base: int,
                        state: np.ndarray, result: DecodeResult) -> np.ndarray:
    """Run the greedy emit loop over encoder frames, mutating ``result``.

    Ties in the argmax resolve to the lowest token id (``ndarray.argmax``).
    At most ``MAX_SYMBOLS_PER_FRAME`` non-blank emissions per frame, then a
    forced frame advance.
    """
    for i in range(enc.shape[0]):
        emitted = 0
        while emitted < MAX_SYMBOLS_PER_FRAME:
            logits = model.joint_vec(enc[i], state)
            k = int(logits.argmax())
            if k == 0:
                break
            result.tokens.append(k)
            result.emit_frame.append(frame_base + i)
            state = model.predict(k, state)
            emitted += 1
    return state


def decode_mode(model: TransducerModel, features: np.ndarray, spec: ContextSpec | None,
                frame_ms: float) -> DecodeResult:
    """Greedy decode in chunks of C encoder frames (offline: one chunk of T).

    Each chunk encodes its frames ``[s, min(T, s + C + R))`` as a chunk step
    after the cached left context (offline, one step of ``(T, T, 0)``), keeps
    encoder frames ``[s, s + C)`` and continues the greedy loop with the
    carried predictor state.
    """
    features = np.asarray(features)
    q = model.cfg.subsample_factor
    total = model.encoded_length(features.shape[0])
    result = DecodeResult(worst_case_latency_s=latency_of(spec, frame_ms))
    if total < 1:
        return result
    step = ContextSpec(total, total, 0) if spec is None else spec
    cache = StreamState()
    state = model.predictor_start()
    for s in range(0, total, step.chunk):
        t0 = perf_counter()
        end = min(total, s + step.chunk + step.right)
        enc = model.encode(features[s * q:end * q], step, cache).data
        state = _greedy_over_frames(model, enc, s, state, result)
        result.chunk_ms.append((perf_counter() - t0) * 1e3)
    return result


def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two token sequences."""
    b = list(b)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def token_error_rate(hyp, ref) -> float:
    """Edit distance over reference length; empty references clamp to 1."""
    return levenshtein(hyp, ref) / max(1, len(list(ref)))


def mode_label(spec: ContextSpec | None) -> str:
    return "offline" if spec is None else f"streaming_C{spec.chunk}_R{spec.right}"


def evaluate(model: TransducerModel, utterances, modes, frame_ms: float
             ) -> tuple[list[dict], list[dict]]:
    """Decode every utterance in each mode, in the order given.

    Returns the per-utterance rows (``utt_id``, ``mode``, ``latency_s``,
    ``ter``, ``ref_tokens``, ``chunks``, ``chunk_compute_ms`` per chunk),
    mode by mode, and one summary row per mode: its label ``mode``, ``spec``,
    ``chunk_s`` and ``right_s`` (None offline), ``latency_s``,
    ``chunk_compute_ms`` pooled over every chunk, and ``ter``, the mean of
    the per-utterance TERs.  No utterances raise ``EmptyBatchError``: a mean
    over none is not a TER.
    """
    if not utterances:
        raise EmptyBatchError("eval corpus is empty")
    utt_rows, summary = [], []
    for spec in modes:
        label, latency = mode_label(spec), latency_of(spec, frame_ms)
        rows, chunk_ms = [], []
        for utt in utterances:
            res = decode_mode(model, utt.features, spec, frame_ms)
            chunk_ms += res.chunk_ms
            rows.append({"utt_id": utt.id, "mode": label, "latency_s": latency,
                         "ter": token_error_rate(res.tokens, list(utt.tokens)),
                         "ref_tokens": len(utt.tokens), "chunks": res.steps,
                         "chunk_compute_ms": sum(res.chunk_ms) / max(1, res.steps)})
        summary.append({
            "mode": label,
            "spec": spec,
            "chunk_s": None if spec is None else spec.chunk * frame_ms / 1000.0,
            "right_s": None if spec is None else spec.right * frame_ms / 1000.0,
            "latency_s": latency,
            "chunk_compute_ms": sum(chunk_ms) / max(1, len(chunk_ms)),
            "ter": float(np.mean([r["ter"] for r in rows])),
        })
        utt_rows += rows
    return utt_rows, summary


def write_csv(path, rows, columns) -> None:
    """Write the ``columns`` of ``rows`` to ``path`` atomically.

    A column is a row key, or a ``(header, function of the row)`` pair.
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c if isinstance(c, str) else c[0] for c in columns])
        writer.writerows([row[c] if isinstance(c, str) else c[1](row) for c in columns]
                         for row in rows)
