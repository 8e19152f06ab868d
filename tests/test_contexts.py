"""Streaming layout, masks, tap tables, context sampling and latency arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unify_rnnt.contexts import (ContextSets, ContextSpec, build_attention_mask,
                                 latency_of, latency_splits, plan_conv_chunks,
                                 right_context_rows, sample_context)
from unify_rnnt.errors import EmptyContextSetError

spec_strategy = st.builds(ContextSpec,
                          left=st.integers(min_value=0, max_value=12),
                          chunk=st.integers(min_value=1, max_value=8),
                          right=st.integers(min_value=0, max_value=8))


class TestLayout:
    def test_documented_example(self):
        # T=6, C=2, R=1: chunks 0, 2, 4; chunks 0 and 2 copy frames 2 and 4
        frames, owner = right_context_rows(6, ContextSpec(2, 2, 1))
        np.testing.assert_array_equal(frames, [0, 1, 2, 3, 4, 5, 2, 4])
        np.testing.assert_array_equal(owner, [0, 0, 2, 2, 4, 4, 0, 2])

    def test_offline_spec_has_no_copies(self):
        frames, owner = right_context_rows(7, ContextSpec(7, 7, 0))
        np.testing.assert_array_equal(frames, np.arange(7))
        assert (owner == 0).all()

    @given(st.integers(min_value=1, max_value=30), spec_strategy)
    def test_row_counts_and_order(self, T, spec):
        frames, owner = right_context_rows(T, spec)
        C, R = spec.chunk, spec.right
        starts = range(0, T, C)
        assert frames.size == T + sum(len(range(s + C, min(s + C + R, T))) for s in starts)
        np.testing.assert_array_equal(frames[:T], np.arange(T))
        np.testing.assert_array_equal(owner[:T], np.arange(T) // C * C)
        # copies: chunk by chunk, each chunk's right-context frames in order
        want = [(s, f) for s in starts for f in range(s + C, min(s + C + R, T))]
        assert list(zip(owner[T:].tolist(), frames[T:].tolist())) == want


class TestAttentionMask:
    def test_documented_example(self):
        # rows 6 and 7 copy frames 2 and 4 for chunks 0 and 2
        mask = build_attention_mask(6, ContextSpec(2, 2, 1))
        assert set(np.flatnonzero(mask[3])) == {0, 1, 2, 3, 7}
        assert set(np.flatnonzero(mask[0])) == {0, 1, 6}
        assert set(np.flatnonzero(mask[7])) == {0, 1, 2, 3, 7}
        assert set(np.flatnonzero(mask[5])) == {2, 3, 4, 5}

    def test_full_context_is_all_true(self):
        mask = build_attention_mask(5, ContextSpec(5, 5, 5))
        assert mask.shape == (5, 5) and mask.all()

    def test_minimal_context_is_identity(self):
        mask = build_attention_mask(7, ContextSpec(0, 1, 0))
        np.testing.assert_array_equal(mask, np.eye(7, dtype=bool))

    @given(st.integers(min_value=1, max_value=24), spec_strategy)
    def test_rows_see_exactly_their_chunk_context(self, T, spec):
        # a row owned by chunk s attends the main rows [max(0, s-L), s+C) and
        # chunk s's copies, so it never reads a frame at or past s+C+R
        mask = build_attention_mask(T, spec)
        frames, owner = right_context_rows(T, spec)
        is_main = np.arange(frames.size) < T
        for r in range(frames.size):
            s = owner[r]
            keys = np.flatnonzero(mask[r])
            want = [c for c in range(frames.size)
                    if (is_main[c] and max(0, s - spec.left) <= frames[c] < s + spec.chunk)
                    or (not is_main[c] and owner[c] == s)]
            assert keys.tolist() == want
            assert (frames[keys] < s + spec.chunk + spec.right).all()

    @given(spec_strategy, st.integers(min_value=1, max_value=16))
    def test_rows_never_empty(self, spec, T):
        assert build_attention_mask(T, spec).any(axis=1).all()

    @given(spec_strategy, st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=4))
    def test_monotonicity_under_growth(self, spec, T, grow, mult):
        # left/right growth keeps every allowed main key of every main row;
        # chunk growth keeps them when the new chunk size is a multiple of
        # the old (the chunk grid realigns otherwise, which can move a window
        # off a formerly visible key).  Right growth adds copy rows, so only
        # the main rows and keys compare.
        base = build_attention_mask(T, spec)[:T, :T]
        for grown in (ContextSpec(spec.left + grow, spec.chunk, spec.right),
                      ContextSpec(spec.left, spec.chunk, spec.right + grow),
                      ContextSpec(spec.left, spec.chunk * mult, spec.right)):
            bigger = build_attention_mask(T, grown)[:T, :T]
            assert (bigger | base == bigger).all()


class TestSampling:
    def test_singletons_are_deterministic(self):
        sets = ContextSets.from_nested([[70], [13], [13]])
        spec = sample_context(sets, np.random.default_rng(0))
        assert spec == ContextSpec(70, 13, 13)

    def test_same_seed_same_sequence(self):
        sets = ContextSets.from_nested([[70], [1, 2, 7, 13], [0, 1, 2, 3, 5, 7, 13, 26]])
        a = [sample_context(sets, np.random.default_rng(9)) for _ in range(20)]
        b = [sample_context(sets, np.random.default_rng(9)) for _ in range(20)]
        assert a == b

    def test_chunk_draw_frequencies(self):
        # 10,000 draws, each of 4 chunk values within 2500 +- 200 (binomial bound)
        sets = ContextSets.from_nested([[70], [1, 2, 7, 13], [0, 1, 2, 3, 5, 7, 13, 26]])
        rng = np.random.default_rng(1)
        counts = {1: 0, 2: 0, 7: 0, 13: 0}
        for _ in range(10000):
            counts[sample_context(sets, rng).chunk] += 1
        for value, count in counts.items():
            assert abs(count - 2500) <= 200, (value, count)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyContextSetError):
            ContextSets.from_nested([[], [1], [0]])

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            ContextSets.from_nested([[70], [0], [0]])
        with pytest.raises(ValueError):
            ContextSets.from_nested([[-1], [1], [0]])

    def test_nested_roundtrip(self):
        nested = [[70], [1, 2, 7, 13], [0, 1, 2, 3, 5, 7, 13, 26]]
        sets = ContextSets.from_nested(nested)
        assert [list(sets.left_set), list(sets.chunk_set), list(sets.right_set)] == nested


def tap_reference(T, spec, k, r, j):
    """The row that tap ``j`` of layout row ``r`` reads, from the rule itself."""
    frames, owner = right_context_rows(T, spec)
    s, f = owner[r], frames[r] - (k - 1) // 2 + j
    if 0 <= f < min(s + spec.chunk, T):
        return f
    if s + spec.chunk <= f < min(s + spec.chunk + spec.right, T):
        return next(c for c in range(T, frames.size) if owner[c] == s and frames[c] == f)
    return -1


class TestConvPlan:
    def test_documented_example(self):
        # rows 6 and 7 copy frames 2 and 4 for chunks 0 and 2
        np.testing.assert_array_equal(plan_conv_chunks(6, ContextSpec(2, 2, 1), 3),
                                      [[-1, 0, 1, 2, 3, 4, 1, 3],
                                       [0, 1, 2, 3, 4, 5, 6, 7],
                                       [1, 6, 3, 7, 5, -1, -1, -1]])

    def test_single_chunk_is_whole_sequence_convolution(self):
        # one chunk past the buffer end: every tap reads its frame if it exists
        taps = plan_conv_chunks(4, ContextSpec(0, 9, 0), 5)
        want = np.arange(5)[:, None] - 2 + np.arange(4)
        want[(want < 0) | (want >= 4)] = -1
        np.testing.assert_array_equal(taps, want)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            plan_conv_chunks(0, ContextSpec(2, 2, 1), 3)

    @given(st.integers(min_value=1, max_value=16), spec_strategy,
           st.sampled_from([1, 3, 5, 7]))
    def test_table_matches_rule(self, T, spec, k):
        taps = plan_conv_chunks(T, spec, k)
        assert taps.shape == (k, right_context_rows(T, spec)[0].size)
        for r in range(taps.shape[1]):
            for j in range(k):
                assert taps[j, r] == tap_reference(T, spec, k, r, j)

    @given(st.integers(min_value=1, max_value=20), spec_strategy)
    def test_taps_stop_at_chunk_horizon(self, T, spec):
        # every row reads itself through the centre tap and no frame at or
        # past its chunk's s + C + R
        k = 5
        taps = plan_conv_chunks(T, spec, k)
        frames, owner = right_context_rows(T, spec)
        np.testing.assert_array_equal(taps[k // 2], np.arange(frames.size))
        read = taps >= 0
        horizon = np.broadcast_to(owner + spec.chunk + spec.right, taps.shape)
        assert (frames[taps[read]] < horizon[read]).all()


class TestLatency:
    def test_paper_anchor_values(self):
        assert latency_of(ContextSpec(70, 1, 4), 80.0) == pytest.approx(0.40, abs=1e-12)
        assert latency_of(ContextSpec(70, 13, 13), 80.0) == pytest.approx(2.08, abs=1e-12)
        assert latency_of(ContextSpec(70, 1, 0), 80.0) == pytest.approx(0.08, abs=1e-12)

    @pytest.mark.parametrize("frame_ms", [0.0, -1.0, float("nan"), float("inf")])
    def test_frame_duration_must_be_finite_and_positive(self, frame_ms):
        with pytest.raises(ValueError):
            latency_of(ContextSpec(1, 1, 1), frame_ms)
        with pytest.raises(ValueError):
            latency_of(None, frame_ms)

    def test_offline_latency_is_infinite(self):
        assert latency_of(None, 40.0) == float("inf")

    def test_sweep_grid_splits_each_budget(self):
        assert latency_splits(5, [2, 3]) == [
            ContextSpec(5, 1, 1), ContextSpec(5, 2, 0),
            ContextSpec(5, 1, 2), ContextSpec(5, 2, 1), ContextSpec(5, 3, 0)]
        assert latency_splits(5, []) == []

    @pytest.mark.parametrize("budgets", [[0], [2, -3]])
    def test_sweep_grid_rejects_budget_below_one(self, budgets):
        with pytest.raises(ValueError, match="budgets must be >= 1"):
            latency_splits(5, budgets)


class TestSpecValidation:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ContextSpec(-1, 1, 0)
        with pytest.raises(ValueError):
            ContextSpec(0, 0, 0)
        with pytest.raises(ValueError):
            ContextSpec(0, 1, -2)
