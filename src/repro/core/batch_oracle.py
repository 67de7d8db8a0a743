"""Vectorized drop-in replacement for the scalar failure oracle.

:class:`BatchOracle` answers the same question as
:class:`~repro.core.oracle.HelperDataOracle` — did a reconstruction
attempt under given helper data succeed? — but evaluates whole blocks
of attempts in one NumPy pass.  Three properties make it a faithful
stand-in for the sequential simulation, not merely a statistical one:

* **Stream-exact noise.**  Measurement noise is drawn from the
  device's own noise stream in exactly the amounts consumed; because
  NumPy fills any output shape element-by-element, row ``i`` of a
  block draw carries exactly the values the ``i``-th sequential
  ``measure_frequencies`` call would have drawn.  Noise is additive
  and operating-point independent, so rows serve any helper and any
  operating point.
* **Unwind.**  Early-stopping consumers (Hoeffding comparison, SPRT)
  evaluate a speculative block and then return the unused tail rows
  to a buffer that later takes consume first; the query counter and
  all downstream decisions stay bitwise identical to a sequential
  run.  (The device stream itself advances by the speculated rows —
  the one observable difference, and only to *other* consumers of
  the same device object.)
* **Deterministic completion.**  The per-row success boolean is a
  function of the row's (discrete) response bits, evaluated through the
  scheme's :meth:`~repro.keygen.base.KeyGenerator.batch_evaluator`
  with one ECC decode per distinct bit pattern.

The scalar :meth:`query` interface is preserved, so attack drivers run
unchanged — handing them a :class:`BatchOracle` silently upgrades every
distinguisher to the block path.

The bitwise guarantee covers every scheme.  A query consumes the
keygen's :attr:`~repro.keygen.base.KeyGenerator.readouts` noise rows,
drawn as one ``(readouts * n)``-wide row per query, so multi-readout
devices stay stream-exact; for temp-aware the per-query sensor reads
are stream-exact too, so twin runs sharing a ``sensor_seed`` match
bitwise.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.keygen.base import KeyGenerator, OperatingPoint
from repro.keygen.batch import (
    BatchEvaluator,
    DescribedHelper,
    EvalPlan,
    FrontierEntry,
    FrontierPlan,
)
from repro.puf.ro_array import ROArray


class BatchOracle:
    """Block-evaluating helper-data failure oracle.

    Parameters
    ----------
    array, keygen, op:
        As for :class:`~repro.core.oracle.HelperDataOracle`.
    rng:
        Noise source override; defaults to the device's internal noise
        stream (matching scalar queries on the same device object).
    trajectory:
        Optional built
        :class:`~repro.scenario.trajectory.EnvironmentTrajectory`.
        When set, queries issued *without* an explicit operating
        point are measured at the ambient the trajectory resolves
        for their absolute query index; queries with an explicit
        ``op`` model an attacker-controlled chamber and override the
        ambient — but the trajectory's lifecycle state (aging drift)
        still applies, since the device has aged regardless of who
        sets the chamber temperature.  Rows are tagged with their
        draw index internally, so speculation, slicing and unwinding
        by the lock-step engines leave trajectory resolution
        bitwise-deterministic.

    Noise rows are drawn exactly on demand — one vectorized draw per
    block request — so there is no lookahead knob: how callers block
    their queries affects neither outcomes nor the device's stream
    position.
    """

    def __init__(self, array: ROArray, keygen: KeyGenerator,
                 op: OperatingPoint = OperatingPoint(),
                 rng: RNGLike = None, trajectory=None):
        self._array = array
        self._keygen = keygen
        self._op = op
        self._rng = None if rng is None else ensure_rng(rng)
        self._queries = 0
        self._trajectory = trajectory
        # One noise row per query holds all of its readouts.  With a
        # trajectory, each row carries one extra tag column: the
        # absolute index of its draw, which survives any
        # slicing/unwinding a consumer performs.
        self._readouts = keygen.readouts
        width = (self._readouts * array.n
                 + (1 if trajectory is not None else 0))
        self._buffer = np.empty((0, width))
        self._cursor = 0
        # Noise-free frequencies per operating point, tiled per readout.
        self._base: Dict[Tuple[Optional[float], Optional[float]],
                         np.ndarray] = {}
        # Evaluator per live helper object (bounded, keyed by id with a
        # strong reference so ids cannot be recycled underneath us).
        self._evaluators: Dict[
            int, Tuple[object, OperatingPoint, BatchEvaluator]] = {}
        self._evaluator_cap = 16

    # ------------------------------------------------------------------
    # scalar-oracle interface

    @property
    def queries(self) -> int:
        """Total reconstruction attempts observed so far."""
        return self._queries

    @property
    def default_op(self) -> OperatingPoint:
        """Operating point used when a query does not specify one."""
        return self._op

    @property
    def array(self) -> ROArray:
        """The simulated device whose noise stream feeds the oracle."""
        return self._array

    @property
    def keygen(self) -> KeyGenerator:
        """The device model evaluating reconstruction attempts."""
        return self._keygen

    @property
    def trajectory(self):
        """The oracle's environment trajectory, if any."""
        return self._trajectory

    def reset_query_count(self) -> None:
        """Zero the query counter; buffered noise rows are kept."""
        self._queries = 0

    def query(self, helper, op: Optional[OperatingPoint] = None) -> bool:
        """One reconstruction attempt (consumes one buffered row)."""
        return bool(self.query_block(helper, 1, op)[0])

    def failure_rate(self, helper, queries: int,
                     op: Optional[OperatingPoint] = None) -> float:
        """Empirical failure probability over *queries* attempts."""
        if queries < 1:
            raise ValueError("need at least one query")
        outcomes = self.query_block(helper, queries, op)
        return float(np.count_nonzero(~outcomes)) / queries

    # ------------------------------------------------------------------
    # block interface

    def query_block(self, helper, count: int,
                    op: Optional[OperatingPoint] = None) -> np.ndarray:
        """*count* reconstruction attempts; boolean success vector.

        Outcome ``i`` equals what the ``(queries + 1 + i)``-th
        sequential scalar query on an identically-seeded device would
        have returned.
        """
        rows = self.take_rows(count)
        return self.evaluate_rows(helper, rows, op)

    def take_rows(self, count: int) -> np.ndarray:
        """Consume *count* noise rows (unwound rows first, then fresh).

        Fresh rows are drawn in exactly the amount needed, so as long
        as no rows sit unwound, the device's stream position equals
        the query count — independent of how queries were blocked.
        """
        if count < 1:
            raise ValueError("need at least one query")
        buffered = self._buffer.shape[0]
        if buffered < count:
            fresh = count - buffered
            drawn = self._array.measurement_noise(
                fresh * self._readouts, rng=self._rng).reshape(fresh, -1)
            if self._trajectory is not None:
                tags = np.arange(self._cursor, self._cursor + fresh,
                                 dtype=float)
                drawn = np.concatenate([drawn, tags[:, None]],
                                       axis=1)
            self._cursor += fresh
            self._buffer = (drawn if buffered == 0
                            else np.concatenate([self._buffer, drawn]))
        rows, self._buffer = (self._buffer[:count],
                              self._buffer[count:])
        self._queries += count
        return rows

    def untake_rows(self, rows: np.ndarray) -> None:
        """Return the *unconsumed tail* of the last take to the buffer.

        Restores both the noise stream position and the query counter,
        so an early-stopped block leaves the oracle in exactly the
        state a sequential run would have reached.  Only valid for the
        most recently taken rows, in order.
        """
        if rows.shape[0] == 0:
            return
        self._buffer = np.concatenate([rows, self._buffer])
        self._queries -= rows.shape[0]

    def evaluate_rows(self, helper, rows: np.ndarray,
                      op: Optional[OperatingPoint] = None) -> np.ndarray:
        """Success booleans of already-taken noise rows under *helper*.

        A one-item frontier (:func:`plan_frontier`) run through its
        own kernel.  The lock-step lane engines
        (:mod:`repro.core.lockstep`) plan whole rounds the same way;
        results are bitwise-identical either way, and identical to
        per-row :class:`~repro.core.oracle.HelperDataOracle` queries
        on an identically seeded twin device.
        """
        (outcomes,) = plan_frontier([(self, helper, rows, op)]).execute()
        return outcomes

    def plan_rows(self, helper, rows: np.ndarray,
                  op: Optional[OperatingPoint] = None) -> EvalPlan:
        """Phase 1: extraction + dedup for already-taken noise rows.

        Returns the helper evaluator's :class:`EvalPlan`, declaring
        this block's kernel workload (keyed by the shared code/sketch)
        for the caller to run — alone or fused with other devices' —
        before :meth:`EvalPlan.finalize`.
        """
        resolved = op if op is not None else self._op
        evaluator = self._evaluator_for(helper, resolved)
        if self._trajectory is not None:
            return evaluator.plan_env(
                *self._trajectory_frequencies(rows, op))
        return evaluator.plan(self._base_frequencies(resolved)[None, :]
                              + rows)

    # ------------------------------------------------------------------
    # internals

    def _frontier_entry(self, helper, rows: np.ndarray,
                        op: Optional[OperatingPoint]) -> FrontierEntry:
        """This block as a stackable entry, or as its own plan.

        A block stacks when the oracle has no trajectory (its
        frequencies are ``base + rows``) and the helper is a
        :class:`~repro.keygen.batch.DescribedHelper` the keygen
        describes as a :class:`~repro.keygen.batch.PairBlock` — no
        helper or evaluator is built — or its evaluator has a
        :attr:`~repro.keygen.batch.BatchEvaluator.block`.
        """
        if self._trajectory is None:
            resolved = op if op is not None else self._op
            if isinstance(helper, DescribedHelper):
                block = helper.block(self._keygen, self._array)
                if block is not None:
                    return (block, self._base_frequencies(resolved),
                            rows, None)
            evaluator = self._evaluator_for(helper, resolved)
            if evaluator.block is not None:
                return (evaluator.block,
                        self._base_frequencies(resolved), rows,
                        evaluator)
        return self.plan_rows(helper, rows, op)

    def _trajectory_frequencies(self, rows: np.ndarray,
                                op: Optional[OperatingPoint]):
        """``(freqs, env)`` for tagged rows under the trajectory.

        An explicit *op* (attacker chamber) overrides the ambient —
        ``env`` comes back ``None`` and the scalar base-frequency
        path is used — but the aged per-oscillator offsets apply in
        both cases: aging is device state, not ambient state.
        """
        noise = rows[:, :-1]
        indices = rows[:, -1].astype(np.int64)
        if op is not None:
            base = self._base_frequencies(op)[None, :]
            env = None
        else:
            env = self._trajectory.sample(indices)
            base = np.tile(self._array.true_frequencies_batch(
                env.temperatures, env.voltages), self._readouts)
        shift = self._trajectory.oscillator_shift(self._array.n)
        if shift is not None:
            base = base + np.tile(shift, self._readouts)[None, :]
        return base + noise, env

    def _base_frequencies(self, op: OperatingPoint) -> np.ndarray:
        key = (op.temperature, op.voltage)
        base = self._base.get(key)
        if base is None:
            base = np.tile(self._array.true_frequencies(op.temperature,
                                                        op.voltage),
                           self._readouts)
            self._base[key] = base
        return base

    def _evaluator_for(self, helper,
                       op: OperatingPoint) -> BatchEvaluator:
        if isinstance(helper, DescribedHelper):
            helper = helper.materialise()
        key = id(helper)
        hit = self._evaluators.get(key)
        if hit is not None and hit[0] is helper and hit[1] == op:
            return hit[2]
        evaluator = self._keygen.batch_evaluator(self._array, helper,
                                                 op)
        if len(self._evaluators) >= self._evaluator_cap:
            # Evict the oldest entry only: clearing everything would
            # drop the completion memos of helpers still in use
            # mid-comparison.
            self._evaluators.pop(next(iter(self._evaluators)))
        self._evaluators[key] = (helper, op, evaluator)
        return evaluator


def plan_frontier(items: Sequence[Tuple[BatchOracle, object, np.ndarray,
                                        Optional[OperatingPoint]]]
                  ) -> FrontierPlan:
    """Phase 1 for ``(oracle, helper, rows, op)`` items of one round.

    Items are visited in order: one that cannot stack is planned on
    the spot through :meth:`BatchOracle.plan_rows`, so items consuming
    transient streams (the temp-aware sensor) draw them in the
    per-device order; stackable blocks draw nothing while planning.
    """
    return FrontierPlan([oracle._frontier_entry(helper, rows, op)
                         for oracle, helper, rows, op in items])
