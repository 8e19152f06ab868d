"""Masks, context sampling, convolution read horizons and latency arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unify_rnnt.contexts import (ContextSets, ContextSpec, build_attention_mask,
                                 latency_of, plan_conv_chunks, sample_context)
from unify_rnnt.errors import EmptyContextSetError

spec_strategy = st.builds(ContextSpec,
                          left=st.integers(min_value=0, max_value=12),
                          chunk=st.integers(min_value=1, max_value=8),
                          right=st.integers(min_value=0, max_value=8))


class TestAttentionMask:
    def test_documented_example(self):
        mask = build_attention_mask(6, ContextSpec(2, 2, 1))
        assert set(np.flatnonzero(mask[3])) == {0, 1, 2, 3, 4}
        assert set(np.flatnonzero(mask[0])) == {0, 1, 2}

    def test_full_context_is_all_true(self):
        mask = build_attention_mask(5, ContextSpec(5, 5, 5))
        assert mask.all()

    def test_minimal_context_is_identity(self):
        mask = build_attention_mask(7, ContextSpec(0, 1, 0))
        np.testing.assert_array_equal(mask, np.eye(7, dtype=bool))

    def test_offset_matches_global_grid(self):
        # masking a window cut at offset w0 must reproduce the global rows
        spec = ContextSpec(3, 2, 1)
        T, w0, w1 = 12, 3, 10
        full = build_attention_mask(T, spec)
        local = build_attention_mask(w1 - w0, spec, offset=w0)
        np.testing.assert_array_equal(local, full[w0:w1, w0:w1])

    @given(spec_strategy, st.integers(min_value=1, max_value=16))
    def test_rows_never_empty(self, spec, T):
        assert build_attention_mask(T, spec).any(axis=1).all()

    @given(spec_strategy, st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=4))
    def test_monotonicity_under_growth(self, spec, T, grow, mult):
        # left/right growth keeps every allowed key; chunk growth keeps them
        # when the new chunk size is a multiple of the old (the chunk grid
        # realigns otherwise, which can move a window off a formerly
        # visible key)
        base = build_attention_mask(T, spec)
        for grown in (ContextSpec(spec.left + grow, spec.chunk, spec.right),
                      ContextSpec(spec.left, spec.chunk, spec.right + grow),
                      ContextSpec(spec.left, spec.chunk * mult, spec.right)):
            bigger = build_attention_mask(T, grown)
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


class TestConvPlan:
    def test_documented_example(self):
        spec = ContextSpec(2, 2, 1)
        assert plan_conv_chunks(6, spec) is None
        np.testing.assert_array_equal(plan_conv_chunks(6, spec, "zero"),
                                      [2, 2, 4, 4, 6, 6])

    def test_single_chunk_equals_full_plan(self):
        # one chunk past the buffer end: every row reads up to T, the
        # whole-sequence convolution
        np.testing.assert_array_equal(plan_conv_chunks(5, ContextSpec(0, 9, 0), "zero"),
                                      [5] * 5)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            plan_conv_chunks(6, ContextSpec(2, 2, 1), "past")
        with pytest.raises(ValueError):
            plan_conv_chunks(0, ContextSpec(2, 2, 1), "zero")

    def test_zero_mode_truncates_right_halo(self):
        horizon = plan_conv_chunks(6, ContextSpec(2, 2, 1), "zero")
        chunk_end = (np.arange(6) // 2 + 1) * 2
        assert (horizon <= chunk_end).all()

    @given(st.integers(min_value=1, max_value=20), spec_strategy,
           st.integers(min_value=0, max_value=30))
    def test_horizon_invariants(self, T, spec, offset):
        assert plan_conv_chunks(T, spec, "real", offset=offset) is None
        horizon = plan_conv_chunks(T, spec, "zero", offset=offset)
        rows = np.arange(T)
        assert horizon.shape == (T,)
        # every row reads itself and nothing past the buffer
        assert ((rows < horizon) & (horizon <= T)).all()
        assert (np.diff(horizon) >= 0).all()
        # rows of one global chunk share one horizon
        chunk = (offset + rows) // spec.chunk
        same = chunk[1:] == chunk[:-1]
        assert (horizon[1:][same] == horizon[:-1][same]).all()

    @given(st.integers(min_value=1, max_value=20), spec_strategy,
           st.integers(min_value=0, max_value=60))
    def test_offset_enters_only_modulo_chunk(self, T, spec, offset):
        r = offset % spec.chunk
        np.testing.assert_array_equal(build_attention_mask(T, spec, offset=offset),
                                      build_attention_mask(T, spec, offset=r))
        for mode in ("real", "zero"):
            np.testing.assert_array_equal(plan_conv_chunks(T, spec, mode, offset=offset),
                                          plan_conv_chunks(T, spec, mode, offset=r))

    def test_offset_plan_aligns_with_global_chunks(self):
        # global chunk boundaries are multiples of 3; offset 4 sits inside [3, 6)
        horizon = plan_conv_chunks(7, ContextSpec(2, 3, 1), "zero", offset=4)
        np.testing.assert_array_equal(horizon, [2, 2, 5, 5, 5, 7, 7])


class TestLatency:
    def test_paper_anchor_values(self):
        assert latency_of(ContextSpec(70, 1, 4), 80.0) == pytest.approx(0.40, abs=1e-12)
        assert latency_of(ContextSpec(70, 13, 13), 80.0) == pytest.approx(2.08, abs=1e-12)
        assert latency_of(ContextSpec(70, 1, 0), 80.0) == pytest.approx(0.08, abs=1e-12)

    def test_frame_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            latency_of(ContextSpec(1, 1, 1), 0.0)


class TestSpecValidation:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ContextSpec(-1, 1, 0)
        with pytest.raises(ValueError):
            ContextSpec(0, 0, 0)
        with pytest.raises(ValueError):
            ContextSpec(0, 1, -2)
