"""Synthetic corpus: determinism, coarticulation probe, manifest roundtrips."""

import json
import os

import numpy as np
import pytest

from unify_rnnt.corpus import (CorpusConfig, ambiguous_symbols, generate_corpus,
                               generate_utterance, generate_utterances,
                               load_manifest, successor_sets, symbol_embeddings)
from unify_rnnt.errors import ManifestMismatchError, MissingFeatureFileError


class TestGeneration:
    def test_same_seed_same_utterance(self):
        cfg = CorpusConfig(seed=3)
        a = generate_utterance(np.random.default_rng(7), cfg)
        b = generate_utterance(np.random.default_rng(7), cfg)
        assert a.id == b.id
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.features, b.features)

    def test_noise_free_frames_equal_mixed_embeddings(self):
        cfg = CorpusConfig(coarticulation=0.0, noise_sigma=0.0, ambiguous_pairs=0,
                           seed=5)
        emb = symbol_embeddings(cfg)
        utt = generate_utterance(np.random.default_rng(1), cfg)
        at = 0
        for tok in utt.tokens:
            np.testing.assert_allclose(utt.features[at], emb[tok].astype(np.float32),
                                       atol=1e-6)
            while at < utt.features.shape[0] and np.allclose(
                    utt.features[at], emb[tok].astype(np.float32), atol=1e-6):
                at += 1
        assert at == utt.features.shape[0]

    def test_lengths_within_bounds(self):
        cfg = CorpusConfig(min_symbols=4, max_symbols=12, min_duration=1,
                           max_duration=4, seed=0)
        for utt in generate_utterances(cfg, 50):
            assert 4 <= len(utt.tokens) <= 12
            assert len(utt.tokens) * 1 <= utt.features.shape[0] <= len(utt.tokens) * 4
            assert utt.tokens.min() >= 1
            assert utt.tokens.max() <= cfg.n_symbols

    def test_successors_respect_pair_constraints(self):
        cfg = CorpusConfig(seed=9)
        succ = successor_sets(cfg)
        for utt in generate_utterances(cfg, 60):
            for cur, nxt in zip(utt.tokens[:-1], utt.tokens[1:]):
                assert int(nxt) in set(int(s) for s in succ[int(cur)])

    def test_pair_successor_sets_disjoint(self):
        cfg = CorpusConfig()
        succ = successor_sets(cfg)
        for i in range(cfg.ambiguous_pairs):
            a, b = 2 * i + 1, 2 * i + 2
            assert not (set(succ[a].tolist()) & set(succ[b].tolist()))

    def test_embeddings_shared_within_pairs_only(self):
        cfg = CorpusConfig()
        emb = symbol_embeddings(cfg)
        for i in range(cfg.ambiguous_pairs):
            np.testing.assert_array_equal(emb[2 * i + 1], emb[2 * i + 2])
        plain = list(range(2 * cfg.ambiguous_pairs + 1, cfg.n_symbols + 1))
        for i, a in enumerate(plain):
            for b in plain[i + 1:]:
                assert np.abs(emb[a] - emb[b]).max() > 1e-6


class TestCoarticulationProbe:
    """Nearest-embedding classifier over 1,000 sampled frame pairs.

    Frame t alone cannot separate an ambiguous pair (shared base embedding);
    the first frame of the following token identifies the successor, whose
    membership in the disjoint successor sets resolves the pair.
    """

    def _sample_cases(self, cfg, n, seed):
        emb = symbol_embeddings(cfg)
        succ = successor_sets(cfg)
        amb = sorted(ambiguous_symbols(cfg))
        g = cfg.coarticulation
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(n):
            cur = int(rng.choice(amb))
            nxt = int(succ[cur][rng.integers(len(succ[cur]))])
            nxt2 = int(succ[nxt][rng.integers(len(succ[nxt]))])
            f_t = (1 - g) * emb[cur] + g * emb[nxt] \
                + rng.standard_normal(cfg.feat_dim) * cfg.noise_sigma
            f_next = (1 - g) * emb[nxt] + g * emb[nxt2] \
                + rng.standard_normal(cfg.feat_dim) * cfg.noise_sigma
            cases.append((cur, f_t, f_next))
        return emb, succ, cases

    def test_probe_accuracies(self):
        cfg = CorpusConfig(seed=5)
        emb, succ, cases = self._sample_cases(cfg, 1000, seed=17)
        alone = two = 0
        for cur, f_t, f_next in cases:
            pair = (cur, cur + 1) if cur % 2 == 1 else (cur - 1, cur)
            d_a = np.sum((f_t - emb[pair[0]]) ** 2)
            d_b = np.sum((f_t - emb[pair[1]]) ** 2)
            alone += (pair[0] if d_a <= d_b else pair[1]) == cur
            cands = np.concatenate([succ[pair[0]], succ[pair[1]]])
            dists = [np.sum((f_next - emb[s]) ** 2) for s in cands]
            nhat = int(cands[int(np.argmin(dists))])
            two += (pair[0] if nhat in succ[pair[0]] else pair[1]) == cur
        assert alone / 1000 <= 0.6
        assert two / 1000 > 0.9


class TestManifest:
    def test_roundtrip(self, tmp_path):
        cfg = CorpusConfig(seed=21)
        manifest = generate_corpus(cfg, 20, tmp_path)
        loaded = list(load_manifest(manifest, cfg.feat_dim, cfg.n_symbols + 1))
        reference = generate_utterances(cfg, 20)
        assert len(loaded) == 20
        for got, ref in zip(loaded, reference):
            assert got.id == ref.id
            np.testing.assert_array_equal(got.tokens, ref.tokens)
            np.testing.assert_allclose(got.features, ref.features, atol=0)

    def test_manifest_line_count_and_files_exist(self, tmp_path):
        cfg = CorpusConfig(seed=4)
        manifest = generate_corpus(cfg, 12, tmp_path)
        lines = [json.loads(l) for l in open(manifest) if l.strip()]
        assert len(lines) == 12
        for rec in lines:
            path = os.path.join(tmp_path, rec["path"])
            assert os.path.exists(path)
            n_floats = os.path.getsize(path) // 4
            assert n_floats == rec["frames"] * cfg.feat_dim

    def test_disjoint_seeds_disjoint_ids(self, tmp_path):
        a = generate_utterances(CorpusConfig(seed=1), 10)
        b = generate_utterances(CorpusConfig(seed=2), 10)
        assert not ({u.id for u in a} & {u.id for u in b})
        assert any(not np.array_equal(x.tokens, y.tokens) for x, y in zip(a, b))

    def test_corrupt_frame_count_names_utterance(self, tmp_path):
        cfg = CorpusConfig(seed=6)
        manifest = generate_corpus(cfg, 3, tmp_path)
        lines = open(manifest).read().splitlines()
        rec = json.loads(lines[1])
        rec["frames"] += 2
        lines[1] = json.dumps(rec)
        with open(manifest, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ManifestMismatchError, match=rec["id"]):
            list(load_manifest(manifest, cfg.feat_dim, cfg.n_symbols + 1))

    def test_missing_feature_file(self, tmp_path):
        cfg = CorpusConfig(seed=6)
        manifest = generate_corpus(cfg, 3, tmp_path)
        victim = json.loads(open(manifest).read().splitlines()[0])
        os.remove(os.path.join(tmp_path, victim["path"]))
        with pytest.raises(MissingFeatureFileError):
            list(load_manifest(manifest, cfg.feat_dim, cfg.n_symbols + 1))


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            CorpusConfig(min_duration=0)
        with pytest.raises(ValueError):
            CorpusConfig(max_duration=1, min_duration=2)
        with pytest.raises(ValueError):
            CorpusConfig(coarticulation=1.0)
        with pytest.raises(ValueError):
            CorpusConfig(ambiguous_pairs=9)
        with pytest.raises(ValueError):
            CorpusConfig(ambiguous_boost=0.0)
        with pytest.raises(ValueError, match="n_symbols"):
            CorpusConfig(n_symbols=0, ambiguous_pairs=0)
        with pytest.raises(ValueError, match="feat_dim"):
            CorpusConfig(feat_dim=0)
