"""The attacker's view of a device: a helper-data failure oracle.

Paper §VI: the attacker can (a) read and write the public helper data
and (b) observe whether key reconstruction succeeded — *"an inability to
reconstruct the key should affect the observable behavior of any useful
application"*.  :class:`HelperDataOracle` packages exactly that
interface around a simulated device and counts every query, so attack
cost is always reported in observable-failure queries.
"""

from __future__ import annotations

from typing import Optional

from repro.keygen.base import (
    KeyGenerator,
    OperatingPoint,
    ReconstructionFailure,
)
from repro.keygen.batch import DescribedHelper
from repro.puf.ro_array import ROArray


class HelperDataOracle:
    """Query interface: write helper data, observe success/failure.

    The oracle never exposes frequencies, response bits or keys — only
    the boolean outcome of a reconstruction attempt, which is the
    weakest observation model the paper's attacks need.
    """

    def __init__(self, array: ROArray, keygen: KeyGenerator,
                 op: OperatingPoint = OperatingPoint()):
        self._array = array
        self._keygen = keygen
        self._op = op
        self._queries = 0

    @property
    def queries(self) -> int:
        """Total reconstruction attempts observed so far."""
        return self._queries

    @property
    def default_op(self) -> OperatingPoint:
        """Operating point used when a query does not specify one."""
        return self._op

    def reset_query_count(self) -> None:
        """Zero the query counter."""
        self._queries = 0

    def query(self, helper, op: Optional[OperatingPoint] = None) -> bool:
        """One reconstruction attempt under the given helper data.

        Returns ``True`` on success.  The attacker may choose the
        environmental operating point (e.g. bake the device to a
        temperature inside a crossover interval, §VI-B).  A
        :class:`~repro.keygen.batch.DescribedHelper` is evaluated as
        the helper it describes.
        """
        if isinstance(helper, DescribedHelper):
            helper = helper.materialise()
        self._queries += 1
        try:
            self._keygen.reconstruct(self._array, helper,
                                     op if op is not None else self._op)
        except ReconstructionFailure:
            return False
        return True

    def failure_rate(self, helper, queries: int,
                     op: Optional[OperatingPoint] = None) -> float:
        """Empirical failure probability over *queries* attempts."""
        if queries < 1:
            raise ValueError("need at least one query")
        failures = sum(0 if self.query(helper, op) else 1
                       for _ in range(queries))
        return failures / queries
