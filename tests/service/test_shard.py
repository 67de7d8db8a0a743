"""Shard plans: determinism, geometry, and merge semantics."""

import numpy as np
import pytest

from repro.service import (
    ShardPlan,
    merge_attack_results,
    merge_failure_rates,
    shard_digest,
)


class TestPlanDeterminism:
    def test_pure_function_of_inputs(self):
        first = ShardPlan.plan(42, 10, 3)
        second = ShardPlan.plan(42, 10, 3)
        assert first == second
        assert [s.digest for s in first.shards] == \
            [s.digest for s in second.shards]

    def test_digest_depends_on_seed_and_range_only(self):
        assert shard_digest(1, 0, 0, 5) != shard_digest(2, 0, 0, 5)
        assert shard_digest(1, 0, 0, 5) != shard_digest(1, 0, 0, 6)
        assert shard_digest(1, 0, 0, 5) == shard_digest(1, 0, 0, 5)

    def test_digests_differ_across_shards(self):
        plan = ShardPlan.plan(0, 12, 4)
        digests = {s.digest for s in plan.shards}
        assert len(digests) == len(plan)


class TestPlanGeometry:
    def test_spans_cover_population_contiguously(self):
        for devices, shards in ((1, 1), (5, 2), (12, 4), (7, 16)):
            plan = ShardPlan.plan(0, devices, shards)
            flat = [d for start, stop in plan.spans
                    for d in range(start, stop)]
            assert flat == list(range(devices))

    def test_shard_count_capped_at_devices(self):
        plan = ShardPlan.plan(0, 3, 16)
        assert len(plan) == 3
        assert all(s.devices == 1 for s in plan.shards)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            ShardPlan.plan(0, 0, 2)
        with pytest.raises(ValueError):
            ShardPlan.plan(0, 4, 0)

    def test_slice_jobs_follows_spans(self):
        plan = ShardPlan.plan(0, 5, 2)
        sliced = plan.slice_jobs(["a", "b", "c", "d", "e"])
        assert [len(block) for block in sliced] == \
            [s.devices for s in plan.shards]
        assert sum(sliced, []) == ["a", "b", "c", "d", "e"]

    def test_slice_jobs_validates_length(self):
        plan = ShardPlan.plan(0, 5, 2)
        with pytest.raises(ValueError):
            plan.slice_jobs(["a", "b"])


class TestMerging:
    def test_failure_rates_concatenate_in_shard_order(self):
        plan = ShardPlan.plan(0, 5, 2)
        datas = [{"rates": np.array([0.1, 0.2, 0.3])},
                 {"rates": np.array([0.4, 0.5])}]
        merged = merge_failure_rates(plan, datas)
        np.testing.assert_array_equal(
            merged, [0.1, 0.2, 0.3, 0.4, 0.5])
        assert merged.dtype == np.float64

    def test_poisoned_shard_zero_fills(self):
        plan = ShardPlan.plan(0, 5, 2)
        merged = merge_failure_rates(
            plan, [None, {"rates": np.array([0.4, 0.5])}])
        np.testing.assert_array_equal(merged,
                                      [0.0, 0.0, 0.0, 0.4, 0.5])

    def test_attack_results_merge(self):
        plan = ShardPlan.plan(0, 4, 2)
        merged = merge_attack_results(
            plan, [{"results": ["r0", "r1"]}, None])
        assert merged == ["r0", "r1", None, None]
