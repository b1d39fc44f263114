"""Dataset batching, normalization, and split-protocol tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ChannelNormalizer,
    DatasetSpec,
    DownscalingDataset,
    Grid,
    expm1_precip,
    log1p_precip,
    quantile_bias_correct,
    year_split,
)


def _spec(**kw):
    defaults = dict(
        name="test", fine_grid=Grid(16, 32), factor=4,
        years=(2000, 2001), samples_per_year=3, seed=1,
    )
    defaults.update(kw)
    return DatasetSpec(**defaults)


class TestYearSplit:
    def test_disjoint_and_complete(self):
        years = tuple(range(1980, 2021))
        train, val, test = year_split(years)
        assert set(train) | set(val) | set(test) == set(years)
        assert not (set(train) & set(val)) and not (set(val) & set(test))

    def test_paper_proportions(self):
        # 41 years → ~38/2/1 as in the paper
        train, val, test = year_split(tuple(range(1980, 2021)))
        assert len(train) >= 35 and len(val) >= 1 and len(test) >= 1

    def test_small_year_count(self):
        train, val, test = year_split((2000, 2001, 2002))
        assert train and test

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            year_split(())

    @given(st.integers(3, 60))
    @settings(max_examples=20, deadline=None)
    def test_property_all_splits_nonempty(self, n):
        train, val, test = year_split(tuple(range(n)))
        assert len(train) > 0 and len(test) > 0


class TestChannelNormalizer:
    def test_fit_normalize_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3, 8, 8)).astype(np.float32) * 7 + 2
        norm = ChannelNormalizer.fit(x)
        z = norm.normalize(x[0])
        back = norm.denormalize(z)
        np.testing.assert_allclose(back, x[0], rtol=1e-4, atol=1e-4)

    def test_normalized_stats(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 2, 16, 16)).astype(np.float32) * 5 + 3
        norm = ChannelNormalizer.fit(x)
        z = np.stack([norm.normalize(xi) for xi in x])
        np.testing.assert_allclose(z.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(z.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_constant_channel_safe(self):
        x = np.zeros((2, 1, 4, 4))
        norm = ChannelNormalizer.fit(x)
        assert np.all(np.isfinite(norm.normalize(x[0])))

    def test_channel_mismatch_raises(self):
        norm = ChannelNormalizer(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            norm.normalize(np.zeros((2, 4, 4)))

    @pytest.mark.parametrize("shape", [(), (3,), (3, 4)])
    def test_fewer_than_three_dims_raises(self, shape):
        norm = ChannelNormalizer(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match=r"\(\.\.\., C, H, W\)"):
            norm.normalize(np.zeros(shape))
        with pytest.raises(ValueError, match=r"\(\.\.\., C, H, W\)"):
            norm.denormalize(np.zeros(shape))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ChannelNormalizer(np.zeros(3), np.zeros(3))  # zero std
        with pytest.raises(ValueError):
            ChannelNormalizer(np.zeros((2, 2)), np.ones((2, 2)))


class TestPrecipTransforms:
    def test_log1p_roundtrip(self):
        x = np.array([0.0, 0.5, 10.0, 300.0])
        np.testing.assert_allclose(expm1_precip(log1p_precip(x)), x, rtol=1e-6)

    def test_log1p_clips_negative(self):
        assert log1p_precip(np.array([-0.5]))[0] == 0.0

    def test_quantile_bias_correct_matches_reference_distribution(self):
        rng = np.random.default_rng(2)
        src = rng.gamma(2.0, 1.0, 5000)
        ref = rng.gamma(2.0, 3.0, 5000)
        corrected = quantile_bias_correct(src, ref)
        assert np.median(corrected) == pytest.approx(np.median(ref), rel=0.1)

    def test_quantile_bias_correct_monotone(self):
        rng = np.random.default_rng(3)
        src = rng.standard_normal(1000)
        ref = rng.standard_normal(1000) * 2
        corrected = quantile_bias_correct(src, ref)
        order = np.argsort(src)
        assert np.all(np.diff(corrected[order]) >= -1e-6)


class TestDownscalingDataset:
    def test_len_counts_samples(self):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        assert len(ds) == 2 * 3

    def test_raw_pair_shapes(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        x, y = ds.raw_pair(0)
        assert x.shape == (23, 4, 8)
        assert y.shape == (18, 16, 32)

    def test_batches_require_normalizer(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        with pytest.raises(RuntimeError):
            next(ds.batches(2))

    def test_batches_shapes_and_coverage(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        ds.fit_normalizer()
        batches = list(ds.batches(2))
        assert sum(b.inputs.shape[0] for b in batches) == len(ds)
        assert batches[0].inputs.shape[1:] == (23, 4, 8)
        assert batches[0].targets.shape[1:] == (18, 16, 32)

    def test_shuffle_changes_order_not_content(self):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        ds.fit_normalizer()
        keys_plain = [k for b in ds.batches(1) for k in b.keys]
        keys_shuf = [k for b in ds.batches(1, shuffle=True, rng=np.random.default_rng(4))
                     for k in b.keys]
        assert sorted(keys_plain) == sorted(keys_shuf)
        assert keys_plain != keys_shuf

    def test_output_channel_override(self):
        spec = _spec(output_channels=(5, 6))
        ds = DownscalingDataset(spec, years=(2000,))
        _, y = ds.raw_pair(0)
        assert y.shape[0] == 2

    def test_empty_years_rejected(self):
        with pytest.raises(ValueError):
            DownscalingDataset(_spec(), years=())

    def test_coarse_grid_property(self):
        assert _spec().coarse_grid.shape == (4, 8)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_below_one_rejected(self, batch_size):
        ds = DownscalingDataset(_spec(), years=(2000,))
        ds.fit_normalizer()
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            ds.batches(batch_size)


def _fresh_batches(ds, batch_size, order):
    """Batches assembled the way ``batches`` does, from uncached ``raw_pair``."""
    out = []
    for start in range(0, len(order), batch_size):
        pairs = [ds.raw_pair(int(i)) for i in order[start:start + batch_size]]
        out.append((np.stack([ds.normalizer.normalize(x) for x, _ in pairs]),
                    np.stack([ds.target_normalizer.normalize(y) for _, y in pairs]),
                    np.stack([y for _, y in pairs])))
    return out


class TestPairMemo:
    """The training readers generate each raw pair once per dataset."""

    def test_shuffled_epochs_match_fresh_generation(self):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        ds.fit_normalizer()
        for epoch in range(3):
            order = np.arange(len(ds))
            np.random.default_rng(epoch).shuffle(order)
            got = list(ds.batches(4, shuffle=True, rng=np.random.default_rng(epoch)))
            want = _fresh_batches(ds, 4, order)
            assert [k for b in got for k in b.keys] == [ds._keys[i] for i in order]
            assert len(got) == len(want)
            for b, ref in zip(got, want):
                for a, r in zip((b.inputs, b.targets, b.targets_raw), ref):
                    assert a.dtype == r.dtype and a.shape == r.shape
                    assert a.tobytes() == r.tobytes()

    def test_each_pair_generated_once(self, monkeypatch):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        calls = []
        real = ds.world.paired_sample

        def counting(year, index, *args, **kw):
            calls.append((year, index))
            return real(year, index, *args, **kw)

        monkeypatch.setattr(ds.world, "paired_sample", counting)
        ds.fit_normalizer()
        rng = np.random.default_rng(0)
        for _ in range(3):
            for _ in ds.batches(4, shuffle=True, rng=rng):
                pass
        assert sorted(calls) == sorted(ds._keys)

    def test_batch_writes_do_not_reach_later_epochs(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        ds.fit_normalizer()
        first = list(ds.batches(2))
        want = [(b.inputs.copy(), b.targets.copy(), b.targets_raw.copy()) for b in first]
        for b in first:
            b.inputs[...] = np.nan
            b.targets[...] = np.nan
            b.targets_raw[...] = np.nan
        for b, (x, y, y_raw) in zip(ds.batches(2), want):
            np.testing.assert_array_equal(b.inputs, x)
            np.testing.assert_array_equal(b.targets, y)
            np.testing.assert_array_equal(b.targets_raw, y_raw)

    def test_raw_pair_does_not_fill_memo(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        for i in range(len(ds)):
            ds.raw_pair(i)
        assert ds._pairs == {}
