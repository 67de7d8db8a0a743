"""One lock-step step per round, whatever the request types.

Real sequential-pairing devices run campaigns whose lanes carry all
four request types in the same round: every round evaluates one
frontier plan, and every device's replies and query counter equal the
scalar ``HelperDataOracle`` drive of a twin device.  Zero budgets are
refused with ``ValueError`` the same way on every oracle and in a
campaign lane.
"""

import numpy as np
import pytest

from repro.core import lockstep
from repro.core.batch_oracle import BatchOracle
from repro.core.framework import FailureRateComparer, select_hypothesis
from repro.core.lockstep import (
    ComparisonRequest,
    QueryBlockRequest,
    SelectionRequest,
    SPRTRequest,
    drive,
    execute_request,
)
from repro.core.oracle import HelperDataOracle
from repro.core.sprt import SPRTDistinguisher
from repro.fleet.campaign import LockstepCampaign
from repro.keygen import SequentialPairingKeyGen
from repro.keygen.sequential import PairingHypotheses, PairingManipulation
from repro.puf import ROArray, ROArrayParams

PAIRING = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)


def sequential_device(seed):
    """One enrolled sequential-pairing device (fresh twin per call)."""
    keygen = SequentialPairingKeyGen(threshold=250e3)
    array = ROArray(PAIRING, rng=seed)
    helper, _ = keygen.enroll(array, rng=seed)
    return array, keygen, helper


def mixed_requests(helper):
    """One request of each type over descriptions of *helper* and the
    helpers they describe; the probe and the plain block both read
    raw query blocks."""
    hypotheses = PairingHypotheses(helper)
    one = PairingManipulation(hypotheses, (1, 2, 3), (0, 4))
    other = PairingManipulation(hypotheses, (1, 2, 3))
    return [
        ComparisonRequest(one, other, FailureRateComparer(
            max_queries_per_side=12)),
        SPRTRequest(SPRTDistinguisher(0.05, 0.6, max_queries=30), one),
        SelectionRequest({"one": one, "other": other,
                          "again": one.materialise()}, 4,
                         early_stop=False),
        QueryBlockRequest(other, 9, stop_on_success=True),
        QueryBlockRequest(one.materialise(), 5),
    ]


def mixed_steps(helper, offset):
    """Every request of :func:`mixed_requests`, rotated by *offset*;
    returns the replies in request order."""
    requests = mixed_requests(helper)
    replies = []
    for index in range(len(requests)):
        replies.append((yield requests[(index + offset) % len(requests)]))
    return replies


def assert_replies_equal(got, want):
    assert len(got) == len(want)
    for observed, expected in zip(got, want):
        if isinstance(expected, np.ndarray):
            assert observed.dtype == expected.dtype
            np.testing.assert_array_equal(observed, expected)
        else:
            assert observed == expected


class TestMixedCampaign:
    DEVICES = 5

    @pytest.mark.parametrize("seed", [0, 21])
    def test_every_request_type_in_one_round(self, seed, monkeypatch):
        frontiers = []
        rounds = []
        plan, advance = lockstep.plan_frontier, lockstep.step

        def counted_plan(items):
            frontiers.append({id(oracle) for oracle, *_ in items})
            return plan(items)

        def counted_step(lanes):
            rounds.append({type(lane.request) for lane in lanes})
            return advance(lanes)

        monkeypatch.setattr(lockstep, "plan_frontier", counted_plan)
        monkeypatch.setattr(lockstep, "step", counted_step)

        oracles, entries = [], []
        for offset in range(self.DEVICES):
            array, keygen, helper = sequential_device(seed + offset)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            entries.append((oracle, mixed_steps(helper, offset)))
        results = LockstepCampaign(entries).run()

        # one frontier per round, the first holding every device and
        # all four request types
        assert len(frontiers) == len(rounds) > self.DEVICES
        assert frontiers[0] == {id(oracle) for oracle in oracles}
        assert rounds[0] == {ComparisonRequest, SPRTRequest,
                             SelectionRequest, QueryBlockRequest}
        for offset, (oracle, replies) in enumerate(zip(oracles,
                                                       results)):
            array, keygen, helper = sequential_device(seed + offset)
            scalar = HelperDataOracle(array, keygen)
            want = drive(mixed_steps(helper, offset), scalar)
            assert_replies_equal(replies, want)
            assert oracle.queries == scalar.queries


# ----------------------------------------------------------------------
# zero budgets


#: Requests whose budget is empty, built over one helper.
ZERO_BUDGETS = {
    "query block": lambda helper: QueryBlockRequest(helper, 0),
    "probe": lambda helper: QueryBlockRequest(helper, 0,
                                              stop_on_success=True),
    "selection budget": lambda helper: SelectionRequest({"a": helper},
                                                        0),
    "no hypotheses": lambda helper: SelectionRequest({}),
    "SPRT budget": lambda helper: SPRTRequest(
        SPRTDistinguisher(0.05, 0.6, max_queries=0), helper),
}


class TestZeroBudgets:
    @pytest.mark.parametrize("oracle_type", [HelperDataOracle,
                                             BatchOracle])
    @pytest.mark.parametrize("case", sorted(ZERO_BUDGETS))
    def test_refused_on_every_oracle(self, oracle_type, case):
        array, keygen, helper = sequential_device(3)
        oracle = oracle_type(array, keygen)
        with pytest.raises(ValueError):
            execute_request(ZERO_BUDGETS[case](helper), oracle)
        assert oracle.queries == 0

    @pytest.mark.parametrize("oracle_type", [HelperDataOracle,
                                             BatchOracle])
    def test_select_hypothesis_refuses_on_every_oracle(self,
                                                       oracle_type):
        array, keygen, helper = sequential_device(3)
        oracle = oracle_type(array, keygen)
        with pytest.raises(ValueError):
            select_hypothesis(oracle, {"a": helper},
                              queries_per_hypothesis=0)
        with pytest.raises(ValueError):
            select_hypothesis(oracle, {})
        assert oracle.queries == 0

    @pytest.mark.parametrize("case", sorted(ZERO_BUDGETS))
    def test_refused_in_a_campaign_lane(self, case):
        array, keygen, helper = sequential_device(3)
        oracle = BatchOracle(array, keygen)

        def steps():
            yield QueryBlockRequest(helper, 2)
            yield ZERO_BUDGETS[case](helper)

        with pytest.raises(ValueError):
            LockstepCampaign([(oracle, steps())]).run()
        assert oracle.queries == 2
