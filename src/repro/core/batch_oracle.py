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
  ``measure_frequencies`` call would have drawn.  A keygen with an
  on-chip sensor has each query's raw sensor read drawn from its
  sensor stream in the same call, as one more column of the row.
  Noise and reads are additive and operating-point independent, so
  rows serve any helper and any operating point.
* **Unwind.**  Early-stopping consumers (Hoeffding comparison, SPRT)
  evaluate a speculative block and then return the unused tail rows
  — sensor reads included — to a buffer that later takes consume
  first; the query counter and all downstream decisions stay bitwise
  identical to a sequential run.  (The device and sensor streams
  themselves advance by the speculated rows — the one observable
  difference, and only to *other* consumers of the same device or
  keygen object.)
* **Deterministic completion.**  The per-row success boolean is a
  function of the row's (discrete) response bits, evaluated through the
  scheme's :meth:`~repro.keygen.base.KeyGenerator.batch_evaluator`
  with one ECC decode per distinct bit pattern.  :func:`plan_frontier`
  plans every item as a :class:`~repro.keygen.batch.PairBlock` (alone,
  or stacked with blocks of its stack key) or as a refusal.

The scalar :meth:`query` interface is preserved, so attack drivers run
unchanged — handing them a :class:`BatchOracle` silently upgrades every
distinguisher to the block path.

The bitwise guarantee covers every scheme.  A query consumes the
keygen's :attr:`~repro.keygen.base.KeyGenerator.readouts` noise rows,
drawn as one ``(readouts * n)``-wide row per query, so multi-readout
devices stay stream-exact.  A query's sensor read rides in its row and
the sensed temperature is formed when the rows are split, exactly as
:meth:`~repro.puf.measurement.TemperatureSensor.read` forms it, so
twin temp-aware runs sharing a ``sensor_seed`` match bitwise whatever
the rows' order of evaluation, speculation or unwinding.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.keygen.base import KeyGenerator, OperatingPoint
from repro.keygen.batch import (
    BatchEvaluator,
    DescribedHelper,
    FrontierPlan,
    PairBlock,
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
        by lock-step lanes leave trajectory resolution
        bitwise-deterministic.

    A row is the query's ``readouts * n`` noise values, then its raw
    sensor read when the keygen has a
    :attr:`~repro.keygen.base.KeyGenerator.sensor`, then the
    trajectory tag.  Rows are drawn exactly on demand — one vectorized
    draw per block request — so there is no lookahead knob: how
    callers block their queries affects neither outcomes nor the
    device's stream position.
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
        # One noise row per query holds all of its readouts.  A sensor
        # read and, with a trajectory, a tag column (the absolute index
        # of the row's draw) follow, so both survive any
        # slicing/unwinding a consumer performs.
        self._readouts = keygen.readouts
        self._sensor = keygen.sensor
        width = (self._readouts * array.n
                 + (self._sensor is not None) + (trajectory is not None))
        self._buffer = np.empty((0, width))
        self._cursor = 0
        # Noise-free base row per operating point (_base_frequencies).
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
        as no rows sit unwound, the device's (and sensor's) stream
        position equals the query count — independent of how queries
        were blocked.
        The rows are read-only views of the draw; copy them to edit.
        """
        if count < 1:
            raise ValueError("need at least one query")
        buffered = self._buffer.shape[0]
        if buffered < count:
            fresh = count - buffered
            drawn = self._array.measurement_noise(
                fresh * self._readouts, rng=self._rng).reshape(fresh, -1)
            columns = []
            if self._sensor is not None:
                columns.append(self._keygen.sensor_draws(fresh))
            if self._trajectory is not None:
                columns.append(np.arange(self._cursor,
                                         self._cursor + fresh,
                                         dtype=float))
            if columns:
                drawn = np.column_stack([drawn] + columns)
            self._cursor += fresh
            if buffered:
                drawn = np.concatenate([self._buffer, drawn])
            # Taken rows are views of the buffer, and an unwound tail
            # is kept as is: nobody may write into a shared row.
            drawn.flags.writeable = False
            self._buffer = drawn
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
        count = rows.shape[0]
        if count == 0:
            return
        # A taken tail is a read-only view: kept as is when nothing
        # else is buffered, copied only to join buffered rows (or when
        # a caller hands in rows of its own).
        if self._buffer.shape[0] or rows.flags.writeable:
            rows = np.concatenate([rows, self._buffer])
            rows.flags.writeable = False
        self._buffer = rows
        self._queries -= count

    def evaluate_rows(self, helper, rows: np.ndarray,
                      op: Optional[OperatingPoint] = None) -> np.ndarray:
        """Success booleans of already-taken noise rows under *helper*.

        A one-item frontier (:func:`plan_frontier`) run through its
        own kernel.  A lock-step round
        (:func:`repro.core.lockstep.step`) plans all its items the
        same way;
        results are bitwise-identical either way, and identical to
        per-row :class:`~repro.core.oracle.HelperDataOracle` queries
        on an identically seeded twin device.
        """
        (outcomes,) = plan_frontier([(self, helper, rows, op)]).execute()
        return outcomes

    # ------------------------------------------------------------------
    # internals

    def _frontier_entry(self, helper, rows: np.ndarray,
                        op: Optional[OperatingPoint]
                        ) -> Tuple[Optional[PairBlock], np.ndarray,
                                   Optional[np.ndarray]]:
        """This block as ``(PairBlock, noise, base)`` — a described
        helper's (no helper or evaluator is built) or its evaluator's
        :attr:`~repro.keygen.batch.BatchEvaluator.block` — or as the
        refusal ``(None, rows, None)``.  Its group adds the base
        (:meth:`_split`)."""
        block = (helper.block(self._keygen, self._array)
                 if isinstance(helper, DescribedHelper) else None)
        if block is None:
            block = self._evaluator_for(
                helper, op if op is not None else self._op).block
            if block is None:
                return None, rows, None
        return (block,) + self._split(rows, op)

    def _split(self, rows: np.ndarray, op: Optional[OperatingPoint]):
        """``(noise, base)`` of taken rows; ``base + noise`` are their
        readings: the frequencies, then, on a keygen with a sensor,
        the sensed temperature — the sensor's noiseless read-out at
        the ambient plus the row's raw read, as
        :meth:`~repro.puf.measurement.TemperatureSensor.read` forms it.

        Without a trajectory the base is the cached ``(1, width)`` row
        of the operating point.  Under the trajectory the base is each
        row's ambient, ``(B, width)``.  An explicit *op* (attacker
        chamber) overrides the ambient — the cached row is used — but
        the aged per-oscillator offsets apply in both cases: aging is
        device state, not ambient state.
        """
        if self._trajectory is None:
            return rows, self._base_frequencies(
                op if op is not None else self._op)
        noise = rows[:, :-1]
        if op is not None:
            base = self._base_frequencies(op)
        else:
            env = self._trajectory.sample(rows[:, -1].astype(np.int64))
            base = self._with_sensor(np.tile(
                self._array.true_frequencies_batch(
                    env.temperatures, env.voltages), self._readouts),
                env.temperatures)
        shift = self._trajectory.oscillator_shift(self._array.n)
        if shift is not None:
            # Frequencies age; the sensor column does not.
            base = base + self._with_sensor(
                np.tile(shift, self._readouts)[None, :], 0.0)
        return noise, base

    def _base_frequencies(self, op: OperatingPoint) -> np.ndarray:
        """The noise-free ``(1, width)`` row at *op*: the frequencies
        tiled per readout (and the sensor's noiseless read-out)."""
        key = (op.temperature, op.voltage)
        base = self._base.get(key)
        if base is None:
            base = np.tile(self._array.true_frequencies(op.temperature,
                                                        op.voltage),
                           self._readouts)[None, :]
            if self._sensor is not None:
                base = self._with_sensor(base, self._sensor.noiseless(
                    op.temperature if op.temperature is not None
                    else self._array.params.temp_nominal))
            base.flags.writeable = False
            self._base[key] = base
        return base

    def _with_sensor(self, base: np.ndarray, column) -> np.ndarray:
        """*base* with *column* appended on a keygen with a sensor."""
        if self._sensor is None:
            return base
        return np.column_stack(
            [base, np.broadcast_to(column, base.shape[:1])])

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

    Every item is a block or a refusal
    (:class:`~repro.keygen.batch.FrontierPlan`): a block joins its
    stacked group, or is a group of one.  Planning draws from no
    stream — every value an item reads, sensor reads included, came
    with its rows.
    """
    return FrontierPlan([oracle._frontier_entry(helper, rows, op)
                         for oracle, helper, rows, op in items])
