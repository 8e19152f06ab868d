"""Synthetic transduction corpus with controllable future-context dependence.

Each symbol gets an embedding; members of an ambiguous pair share one base
embedding, and the generator constrains which symbols may follow each pair
member (low half of the alphabet after the first member, high half after the
second).  Every frame mixes the next symbol's embedding in with weight
``coarticulation``, so the evidence that separates pair members sits in the
future: the successor identity, carried mostly by the following frames.
Models without right context must guess within pairs.

A corpus is reproducible from its seed because every utterance takes its
random numbers in one order: its length, then one scalar draw per token
(``rng.integers``, or ``rng.choice`` when ``ambiguous_boost`` is not 1),
then its durations, then one ``standard_normal`` block of
``[sum(durations), feat_dim]`` noise for all its frames (an utterance
generated without a ``uid`` first draws its id).

Manifest format, one JSON record per line:
``{"id": str, "path": str, "frames": int, "tokens": [int, ...]}``
Feature files are raw little-endian float32, row-major [frames, feat_dim].
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .errors import MalformedRecordError, ManifestMismatchError, MissingFeatureFileError


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_number_fields(cfg) -> None:
    """Reject a bool or a non-integer in any ``int`` field of the dataclass
    ``cfg``, and a bool or a non-number in any ``float`` field (YAML reads
    ``1e-3``, which has no dot, as a string).

    The config modules postpone annotations, so a field's type is the string
    it was declared with."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int" and not _is_int(value):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and not (_is_int(value) or isinstance(value, (float, np.floating))):
            raise ValueError(f"{f.name} must be a number, got {value!r}")


@dataclass(frozen=True)
class CorpusConfig:
    n_symbols: int = 16
    feat_dim: int = 16
    min_duration: int = 1
    max_duration: int = 4
    min_symbols: int = 4
    max_symbols: int = 12
    coarticulation: float = 0.4
    noise_sigma: float = 0.3
    ambiguous_pairs: int = 4
    ambiguous_boost: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_number_fields(self)
        if self.min_duration < 1 or self.max_duration < self.min_duration:
            raise ValueError("durations must satisfy 1 <= min <= max")
        if self.min_symbols < 1 or self.max_symbols < self.min_symbols:
            raise ValueError("utterance lengths must satisfy 1 <= min <= max")
        if not 0.0 <= self.coarticulation < 1.0:
            raise ValueError("coarticulation must be in [0, 1)")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.feat_dim < 1:
            raise ValueError("feat_dim must be >= 1")
        if self.ambiguous_pairs * 2 > self.n_symbols:
            raise ValueError("ambiguous pairs cannot exceed n_symbols / 2")
        if not 0 < self.ambiguous_boost < math.inf:
            raise ValueError("ambiguous_boost must be finite and positive")


@dataclass
class Utterance:
    id: str
    features: np.ndarray
    tokens: np.ndarray


EMBEDDING_SCALE = 1.75


def symbol_embeddings(cfg: CorpusConfig) -> np.ndarray:
    """Symbol embeddings; row 0 is the end-of-utterance successor.

    Pair members (2i-1, 2i) for i in [1, ambiguous_pairs] share one base row.
    Distinct rows come from an orthonormal frame (scaled by EMBEDDING_SCALE)
    whenever feat_dim allows, so nearest-embedding decisions are clean.

    The table does not depend on the sampling seed, so corpora with
    different utterance draws (train vs eval) share one geometry.
    """
    rng = np.random.default_rng(0x5EED)
    distinct = 1 + cfg.n_symbols - cfg.ambiguous_pairs
    if distinct <= cfg.feat_dim:
        basis, _ = np.linalg.qr(rng.standard_normal((cfg.feat_dim, cfg.feat_dim)))
        rows = basis[:distinct]
    else:
        rows = rng.standard_normal((distinct, cfg.feat_dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    emb = np.zeros((cfg.n_symbols + 1, cfg.feat_dim))
    emb[0] = rows[0]
    at = 1
    for i in range(cfg.ambiguous_pairs):
        emb[2 * i + 1] = emb[2 * i + 2] = rows[at]
        at += 1
    for s in range(2 * cfg.ambiguous_pairs + 1, cfg.n_symbols + 1):
        emb[s] = rows[at]
        at += 1
    return emb * EMBEDDING_SCALE


def ambiguous_symbols(cfg: CorpusConfig) -> set[int]:
    return set(range(1, 2 * cfg.ambiguous_pairs + 1))


def successor_sets(cfg: CorpusConfig) -> dict[int, np.ndarray]:
    """Allowed successors per symbol.

    The two members of an ambiguous pair draw successors from disjoint sets
    (split from the unambiguous symbols when possible), so the following
    symbol identifies the member; everything else may be followed by any
    symbol.  This is the sole source of future-context value.
    """
    all_syms = np.arange(1, cfg.n_symbols + 1)
    plain = np.arange(2 * cfg.ambiguous_pairs + 1, cfg.n_symbols + 1)
    pool = plain if plain.size >= 2 else all_syms
    first, second = pool[:pool.size // 2], pool[pool.size // 2:]
    out: dict[int, np.ndarray] = {}
    for s in range(1, cfg.n_symbols + 1):
        if s <= 2 * cfg.ambiguous_pairs:
            out[s] = first if s % 2 == 1 else second
        else:
            out[s] = all_syms
    return out


def _tables(cfg: CorpusConfig) -> tuple[np.ndarray, np.ndarray, list]:
    """What every utterance of a corpus shares: the embeddings scaled by
    ``1 - coarticulation`` and by ``coarticulation``, and per previous token
    (0 before the first) its candidates with their normalized draw weights,
    ``None`` when ``ambiguous_boost`` is 1 and a token is one uniform draw."""
    emb = symbol_embeddings(cfg)
    succ = successor_sets(cfg)
    ambiguous = ambiguous_symbols(cfg)
    draws = []
    for c in [np.arange(1, cfg.n_symbols + 1)] + [succ[s] for s in range(1, cfg.n_symbols + 1)]:
        p = None
        if cfg.ambiguous_boost != 1.0:
            p = np.array([cfg.ambiguous_boost if s in ambiguous else 1.0 for s in c])
            p /= p.sum()
        draws.append((c, p))
    gamma = cfg.coarticulation
    return (1.0 - gamma) * emb, gamma * emb, draws


def generate_utterance(rng: np.random.Generator, cfg: CorpusConfig,
                       uid: str | None = None, tables=None) -> Utterance:
    """Sample one utterance: token sequence, durations, noisy mixed features.

    ``tables`` are what :func:`generate_utterances` builds once per corpus.
    The draws keep the order the module docstring gives; the frames of all
    symbols share one noise block.
    """
    own, coart, draws = _tables(cfg) if tables is None else tables
    if uid is None:
        uid = f"u{rng.integers(1 << 62):016x}"
    n = int(rng.integers(cfg.min_symbols, cfg.max_symbols + 1))
    ids = np.zeros(n + 1, dtype=np.int64)  # ids[n] = 0: the end-of-utterance successor
    prev = 0
    for i in range(n):
        candidates, p = draws[prev]
        if p is None:
            prev = int(candidates[rng.integers(len(candidates))])
        else:
            prev = int(rng.choice(candidates, p=p))
        ids[i] = prev
    durations = rng.integers(cfg.min_duration, cfg.max_duration + 1, size=n)
    noise = rng.standard_normal((int(durations.sum()), cfg.feat_dim)) * cfg.noise_sigma
    tokens = ids[:n].copy()
    base = own[tokens] + coart[ids[1:]]
    features = (base.repeat(durations, axis=0) + noise).astype(np.float32)
    return Utterance(uid, features, tokens)


def generate_utterances(cfg: CorpusConfig, n: int) -> list[Utterance]:
    rng = np.random.default_rng(cfg.seed)
    tables = _tables(cfg)
    return [generate_utterance(rng, cfg, uid=f"utt-{cfg.seed}-{i:05d}", tables=tables)
            for i in range(n)]


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temp file in ``path``'s directory for writing; on success fsync
    it and rename it over ``path``, on failure remove it.  ``path`` holds its
    previous content or the whole new one, never a torn write."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_jsonl(path, required: tuple[str, ...] = ()):
    """Yield ``(line number, object)`` for the JSON object on each nonblank
    line of ``path``.  A line that is not one, or lacks a ``required`` field,
    raises :class:`MalformedRecordError` naming the file and line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(f"{path}:{lineno}: not JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise MalformedRecordError(f"{path}:{lineno}: not a JSON object")
            if missing := [key for key in required if key not in rec]:
                raise MalformedRecordError(f"{path}:{lineno}: missing fields {missing}")
            yield lineno, rec


def generate_corpus(cfg: CorpusConfig, n: int, out_dir) -> str:
    """Write n utterances plus a manifest; returns the manifest path.  The
    manifest is written atomically after every feature file it names."""
    if n < 1:
        raise ValueError("n must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    with atomic_write(manifest_path) as mf:
        for utt in generate_utterances(cfg, n):
            fname = f"{utt.id}.f32"
            with open(os.path.join(out_dir, fname), "wb") as fh:
                fh.write(utt.features.astype("<f4").tobytes())
            record = {"id": utt.id, "path": fname,
                      "frames": int(utt.features.shape[0]),
                      "tokens": [int(t) for t in utt.tokens]}
            mf.write(json.dumps(record) + "\n")
    return manifest_path


def load_manifest(path, feat_dim: int, vocab_size: int):
    """Yield utterances in file order.

    A record whose ``path`` is not a string, ``frames`` not an integer or
    ``tokens`` not a list of integers, or whose feature file holds a value
    that is not finite, raises :class:`MalformedRecordError` naming the file
    and line, as does a token outside ``[1, vocab_size)``: 0 is the blank
    id, which no target holds, and a model of ``vocab_size`` outputs has no
    id at or past it.  A frame count the file disagrees with raises
    :class:`ManifestMismatchError`.
    """
    base = os.path.dirname(os.path.abspath(path))
    for lineno, rec in read_jsonl(path, required=("id", "path", "frames", "tokens")):
        where = f"{path}:{lineno}"
        frames, tokens = rec["frames"], rec["tokens"]
        if not isinstance(rec["path"], str):
            raise MalformedRecordError(f"{where}: path {rec['path']!r} is not a string")
        if not _is_int(frames):
            raise MalformedRecordError(f"{where}: frames {frames!r} is not an integer")
        if not isinstance(tokens, list) or not all(_is_int(t) for t in tokens):
            raise MalformedRecordError(f"{where}: tokens {tokens!r} are not a list of integers")
        if any(t < 1 for t in tokens):
            raise MalformedRecordError(f"{where}: tokens {tokens!r} hold an id below 1")
        if any(t >= vocab_size for t in tokens):
            raise MalformedRecordError(f"{where}: tokens {tokens!r} hold an id at or past "
                                       f"the vocabulary size {vocab_size}")
        fpath = os.path.join(base, rec["path"])
        if not os.path.exists(fpath):
            raise MissingFeatureFileError(
                f"utterance {rec['id']}: missing feature file {rec['path']}")
        raw = np.fromfile(fpath, dtype="<f4")
        if raw.size != frames * feat_dim:
            raise ManifestMismatchError(
                f"utterance {rec['id']}: manifest says {frames} frames, "
                f"file holds {raw.size // feat_dim}")
        if not np.isfinite(raw).all():
            raise MalformedRecordError(
                f"{where}: feature file {rec['path']} holds a value that is not finite")
        yield Utterance(rec["id"], raw.reshape(frames, feat_dim),
                        np.asarray(tokens, dtype=np.int64))
