"""Greedy transducer decoding, offline and stateful chunked streaming.

A mode is a ``ContextSpec | None``, as in :mod:`model`: ``decode_mode`` and
``evaluate_utterances`` decode offline for ``None`` and stream at the spec
otherwise.

Streaming decoding runs one encoder chunk step per chunk on that chunk's raw
frames ``[s, min(T, s+C+R))``, so no computation can read past the visible
horizon by construction.  A :class:`model.StreamState` carries the encoder's
per-block left context from step to step, and the predictor state carries
across steps; the last emitted token does not.  The encoder rows equal the
training path's rows (``TransducerModel.encode`` without a state) up to
rounding.  Next to the theoretical worst-case latency (chunk plus right
context), a result records the measured compute time of each chunk: its
encoder step plus its greedy loop (offline decoding is one chunk).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .contexts import ContextSpec, latency_of
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
                        state: np.ndarray, result: DecodeResult,
                        max_symbols: int) -> np.ndarray:
    """Run the greedy emit loop over encoder frames, mutating ``result``.

    Ties in the argmax resolve to the lowest token id (np.argmax convention).
    At most ``max_symbols`` non-blank emissions per frame, then a forced
    frame advance.
    """
    pred_vec = state
    for i in range(enc.shape[0]):
        emitted = 0
        while emitted < max_symbols:
            logits = model.joint_vec(enc[i], pred_vec)
            k = int(np.argmax(logits))
            if k == 0:
                break
            result.tokens.append(k)
            result.emit_frame.append(frame_base + i)
            pred_vec, state = model.predict(k, state)
            emitted += 1
    return state


def greedy_decode_offline(model: TransducerModel, features: np.ndarray,
                          max_symbols_per_frame: int = MAX_SYMBOLS_PER_FRAME) -> DecodeResult:
    """Full-context greedy decode; latency reported as infinite."""
    t0 = perf_counter()
    enc = model.encode(features).data
    result = DecodeResult()
    state = model.predictor_start()
    _greedy_over_frames(model, enc, 0, state, result, max_symbols_per_frame)
    result.chunk_ms.append((perf_counter() - t0) * 1e3)
    return result


def greedy_decode_streaming(model: TransducerModel, features: np.ndarray,
                            spec: ContextSpec, frame_ms: float,
                            max_symbols_per_frame: int = MAX_SYMBOLS_PER_FRAME) -> DecodeResult:
    """Stateful chunked decode with step size C.

    Each step encodes the chunk's frames ``[s, min(T, s + C + R))`` after the
    cached left context, keeps encoder frames ``[s, s + C)``, and continues
    the greedy loop with the carried predictor state.
    """
    features = np.asarray(features)
    q = model.cfg.subsample_factor
    total = model.encoded_length(features.shape[0])
    result = DecodeResult(worst_case_latency_s=latency_of(spec, frame_ms))
    if total < 1:
        return result
    cache = StreamState()
    state = model.predictor_start()
    for s in range(0, total, spec.chunk):
        t0 = perf_counter()
        end = min(total, s + spec.chunk + spec.right)
        enc = model.encode(features[s * q:end * q], spec, cache).data
        state = _greedy_over_frames(model, enc, s, state, result, max_symbols_per_frame)
        result.chunk_ms.append((perf_counter() - t0) * 1e3)
    return result


def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two token sequences."""
    a = list(a)
    b = list(b)
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def token_error_rate(hyp, ref) -> float:
    """Edit distance over reference length; empty references clamp to 1."""
    return levenshtein(hyp, ref) / max(1, len(list(ref)))


def decode_mode(model: TransducerModel, features: np.ndarray, spec: ContextSpec | None,
                frame_ms: float) -> DecodeResult:
    if spec is None:
        return greedy_decode_offline(model, features)
    return greedy_decode_streaming(model, features, spec, frame_ms)


def evaluate_utterances(model: TransducerModel, utterances, spec: ContextSpec | None,
                        frame_ms: float) -> list[dict]:
    """One row per utterance: id, mode label, latency, TER, token count, and
    the chunk count and mean measured compute ms per chunk."""
    rows = []
    if spec is None:
        label, latency = "offline", math.inf
    else:
        label = f"streaming_C{spec.chunk}_R{spec.right}"
        latency = latency_of(spec, frame_ms)
    for utt in utterances:
        res = decode_mode(model, utt.features, spec, frame_ms)
        rows.append({
            "utt_id": utt.id,
            "mode": label,
            "latency_s": latency,
            "ter": token_error_rate(res.tokens, list(utt.tokens)),
            "ref_tokens": len(utt.tokens),
            "chunks": res.steps,
            "chunk_compute_ms": sum(res.chunk_ms) / max(1, res.steps),
        })
    return rows


def write_utterance_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["utt_id", "mode", "latency_s", "ter", "ref_tokens",
                                                "chunks", "chunk_compute_ms"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def mean_ter(rows) -> float:
    if not rows:
        return 0.0
    return float(np.mean([r["ter"] for r in rows]))


def mean_chunk_ms(rows) -> float:
    """Measured compute ms per chunk over every chunk of ``rows``."""
    chunks = sum(r["chunks"] for r in rows)
    if not chunks:
        return 0.0
    return sum(r["chunk_compute_ms"] * r["chunks"] for r in rows) / chunks
