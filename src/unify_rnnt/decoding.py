"""Greedy transducer decoding, offline and stateful chunked streaming.

Streaming decoding re-encodes a window of raw features per chunk step from a
buffer truncated at the window end, so no computation can read past the
visible horizon by construction.  The predictor state carries across steps;
the last emitted token does not.  Only theoretical worst-case latency (chunk
plus right context) is reported.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .contexts import ContextSpec, latency_of
from .model import OFFLINE, ModeSelector, TransducerModel, streaming_mode

MAX_SYMBOLS_PER_FRAME = 10


@dataclass
class DecodeResult:
    tokens: list[int] = field(default_factory=list)
    emit_frame: list[int] = field(default_factory=list)
    worst_case_latency_s: float = math.inf
    steps: int = 0


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
    enc = model.encode(features, OFFLINE).data
    result = DecodeResult()
    state = model.predictor_start()
    _greedy_over_frames(model, enc, 0, state, result, max_symbols_per_frame)
    return result


def greedy_decode_streaming(model: TransducerModel, features: np.ndarray,
                            spec: ContextSpec, frame_ms: float,
                            conv_right_mode: str = "real",
                            max_symbols_per_frame: int = MAX_SYMBOLS_PER_FRAME) -> DecodeResult:
    """Stateful chunked decode with step size C.

    Each step re-encodes the window [s - L, s + C + R) from a truncated
    feature buffer, keeps encoder frames [s, s + C), and continues the greedy
    loop with the carried predictor state.  The window is re-encoded from
    scratch every step; there is no hidden-state cache.
    """
    features = np.asarray(features)
    q = model.cfg.subsample_factor
    total = model.encoded_length(features.shape[0])
    result = DecodeResult(worst_case_latency_s=latency_of(spec, frame_ms))
    if total < 1:
        return result
    mode = streaming_mode(spec, conv_right_mode)
    state = model.predictor_start()
    for s in range(0, total, spec.chunk):
        w0 = max(0, s - spec.left)
        w1 = min(total, s + spec.chunk + spec.right)
        window = features[w0 * q:w1 * q]
        enc = model.encode(window, mode, grid_offset=w0).data
        keep = enc[s - w0:min(s + spec.chunk, total) - w0]
        state = _greedy_over_frames(model, keep, s, state, result, max_symbols_per_frame)
        result.steps += 1
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


def decode_mode(model: TransducerModel, features: np.ndarray, mode: ModeSelector,
                frame_ms: float) -> DecodeResult:
    if mode.kind == "offline":
        return greedy_decode_offline(model, features)
    return greedy_decode_streaming(model, features, mode.spec, frame_ms,
                                   conv_right_mode=mode.conv_right_mode)


def evaluate_utterances(model: TransducerModel, utterances, mode: ModeSelector,
                        frame_ms: float) -> list[dict]:
    """One row per utterance: id, mode label, latency, TER, token count."""
    rows = []
    if mode.kind == "offline":
        label, latency = "offline", math.inf
    else:
        label = f"streaming_C{mode.spec.chunk}_R{mode.spec.right}"
        latency = latency_of(mode.spec, frame_ms)
    for utt in utterances:
        res = decode_mode(model, utt.features, mode, frame_ms)
        rows.append({
            "utt_id": utt.id,
            "mode": label,
            "latency_s": latency,
            "ter": token_error_rate(res.tokens, list(utt.tokens)),
            "ref_tokens": len(utt.tokens),
        })
    return rows


def write_utterance_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["utt_id", "mode", "latency_s", "ter", "ref_tokens"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def mean_ter(rows) -> float:
    if not rows:
        return 0.0
    return float(np.mean([r["ter"] for r in rows]))
