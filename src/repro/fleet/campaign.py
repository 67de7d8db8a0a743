"""Round-based lock-step execution of one attack across many devices.

:class:`LockstepCampaign` runs one attack over a batch of devices in
shared rounds.  Every device's attack runs as a stepwise generator
(:mod:`repro.core.lockstep`); each round the campaign gathers the
**frontier** — the pending request of every still-active device, one
:class:`~repro.core.lockstep.Lane` each — and advances all of them
through one :func:`~repro.core.lockstep.step`: every lane takes its
noise block, the whole round is evaluated through one frontier plan
(stacked groups of pair blocks, own plans for the rest) whatever the
request types, and every lane walks its results through its
distinguisher's own rule, carrying its state to the next round.
Devices whose request completed resume at once, so their next request
joins the following round.

Devices finish at different rounds; the frontier simply shrinks.
Because every lane consumes only its own oracle's stream, in request
order, with speculative tails unwound, per-device decisions, query
bills and recovered keys are **bitwise-identical** to driving each
attack alone — the property that lets the lock-step path slot under
``Fleet.attack_results`` (lock-step within a worker, processes across
chunks) without changing a single reported number.

The same property makes the campaign chunk the natural **retry unit**
for supervised execution (:mod:`repro.fleet.resilience`): a chunk's
``_AttackChunkJob`` consumes only parent-derived streams against
payload copies, so a crashed or timed-out chunk re-runs from scratch
and lands on the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.batch_oracle import BatchOracle
from repro.core.distiller_attack import DistillerPairingAttack
from repro.core.group_attack import GroupBasedAttack
from repro.core import lockstep
from repro.core.lockstep import AttackSteps, Lane
from repro.core.sequential_attack import SequentialPairingAttack
from repro.core.temp_aware_attack import TempAwareAttack


class LockstepCampaign:
    """Drives a batch of stepwise attacks in shared rounds.

    Each round, the frontier's evaluation requests are taken through
    one frontier plan (:func:`repro.core.batch_oracle.plan_frontier`):
    blocks of pair comparisons planned and finalized as one stacked
    group per stack key (a lone block too), every other block through
    its own ``plan_rows``, and **one ECC kernel
    call per distinct kernel key across every device in the round**
    (:func:`repro.ecc.kernel.run_kernels`).  Stacking and fusion only
    amortize per-call fixed costs over many tiny blocks, the measured
    hot spot of campaign rounds; per-device results are
    bitwise-identical to each attack's scalar ``run()``
    (``docs/evaluators.md``).

    Parameters
    ----------
    lanes:
        One ``(oracle, steps)`` pair per device: the device's batched
        oracle and the attack's :meth:`steps` generator.  Each lane
        owns its streams: a repeated oracle, or two oracles over one
        keygen with a sensor (one sensor stream), would take rows in
        round order rather than each device's request order, so both
        are refused with :class:`ValueError`.
    """

    def __init__(self, lanes: Sequence[Tuple[BatchOracle, AttackSteps]]
                 ) -> None:
        self._entries = list(lanes)
        oracles = [oracle for oracle, _ in self._entries]
        if len({id(oracle) for oracle in oracles}) < len(oracles):
            raise ValueError("lanes share an oracle; a lock-step "
                             "campaign needs one oracle per device")
        sensed = [id(oracle.keygen) for oracle in oracles
                  if oracle.keygen.sensor is not None]
        if len(set(sensed)) < len(sensed):
            raise ValueError("lanes share a keygen's sensor stream; a "
                             "lock-step campaign needs one sensor-"
                             "bearing keygen per device")

    def run(self) -> List[object]:
        """Execute every attack to completion; results in lane order.

        Each scheduler round is one :func:`~repro.core.lockstep.step`
        over the whole active frontier; devices whose request
        completed are resumed immediately so their next request joins
        the very next round.
        """
        results: List[object] = [None] * len(self._entries)
        active: List[Tuple[int, AttackSteps, Lane]] = []
        for index, (oracle, steps) in enumerate(self._entries):
            slot = self._advance(index, steps, oracle, None, results)
            if slot is not None:
                active.append(slot)
        while active:
            # Through the module, so the one step boundary covers
            # campaign rounds and lone lanes alike.
            lockstep.step([lane for _, _, lane in active])
            survivors: List[Tuple[int, AttackSteps, Lane]] = []
            for index, steps, lane in active:
                if not lane.finished:
                    survivors.append((index, steps, lane))
                    continue
                slot = self._advance(index, steps, lane.oracle,
                                     lane.outcome, results)
                if slot is not None:
                    survivors.append(slot)
            active = survivors
        return results

    @staticmethod
    def _advance(index: int, steps: AttackSteps, oracle: BatchOracle,
                 reply, results: List[object]
                 ) -> Optional[Tuple[int, AttackSteps, Lane]]:
        """Resume one generator; park its next request or its result."""
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            results[index] = stop.value
            return None
        return index, steps, Lane(oracle, request)


def run_campaign(oracles: Sequence[BatchOracle],
                 attacks: Sequence[object]) -> List[object]:
    """Lock-step a batch of constructed attack drivers.

    Convenience wrapper pairing each attack's ``steps()`` generator
    with its device's oracle; returns the attack results in device
    order, bitwise-identical to calling each ``run()`` alone.
    """
    if len(oracles) != len(attacks):
        raise ValueError("need exactly one oracle per attack")
    missing = [attack for attack in attacks
               if not hasattr(attack, "steps")]
    if missing:
        raise TypeError(
            f"attack driver {missing[0]!r} does not expose the "
            "stepwise protocol (steps())")
    return LockstepCampaign(
        [(oracle, attack.steps())
         for oracle, attack in zip(oracles, attacks)]).run()


# ----------------------------------------------------------------------
# picklable attack factories (module-level, for workers > 1)


@dataclass
class _BoundSequentialAttack:
    """A sequential attack with the distinguisher pre-selected.

    ``SequentialPairingAttack`` takes its *method* as a ``run()`` /
    ``steps()`` argument, but the campaign engine and the fleet drive
    attacks through the no-argument protocol.  This wrapper binds the
    method once so SPRT (and explicit paired) campaigns compose with
    ``run_campaign`` and ``Fleet.attack_results`` unchanged.
    """

    attack: SequentialPairingAttack
    method: str

    def steps(self):
        """Stepwise protocol with the bound distinguisher."""
        return self.attack.steps(self.method)

    def run(self):
        """Scalar reference drive with the bound distinguisher."""
        return self.attack.run(self.method)


@dataclass(frozen=True)
class SequentialAttackFactory:
    """Picklable §VI-A attack factory with a bound distinguisher.

    ``method`` is ``"paired"`` (adaptive reference/test comparison —
    also the entry point of the ML-decoder calibration variant, which
    the attack selects automatically from the enrolled code) or
    ``"sprt"`` (Wald's sequential test).
    """

    method: str = "paired"

    def __call__(self, oracle, keygen, helper) -> _BoundSequentialAttack:
        """Build the attack driver for one enrolled device."""
        return _BoundSequentialAttack(
            SequentialPairingAttack(oracle, keygen, helper), self.method)


@dataclass(frozen=True)
class TempAwareAttackFactory:
    """Picklable §VI-B temperature-aware attack factory."""

    def __call__(self, oracle, keygen, helper) -> TempAwareAttack:
        """Build the attack driver for one enrolled device."""
        return TempAwareAttack(oracle, keygen, helper)


@dataclass(frozen=True)
class GroupAttackFactory:
    """Picklable §VI-C group-based attack factory for a geometry."""

    rows: int
    cols: int

    def __call__(self, oracle, keygen, helper) -> GroupBasedAttack:
        """Build the attack driver for one enrolled device."""
        return GroupBasedAttack(oracle, keygen, helper, self.rows,
                                self.cols)


@dataclass(frozen=True)
class DistillerAttackFactory:
    """Picklable §VI-D distiller + pairing attack factory."""

    rows: int
    cols: int
    max_joint_bits: int = 8

    def __call__(self, oracle, keygen, helper) -> DistillerPairingAttack:
        """Build the attack driver for one enrolled device."""
        return DistillerPairingAttack(oracle, keygen, helper,
                                      self.rows, self.cols,
                                      max_joint_bits=self.max_joint_bits)
