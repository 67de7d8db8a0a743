"""Binary narrow-sense BCH codes, built from first principles.

The group-based RO PUF (paper §V-D) and the fuzzy-extractor reference
solution (§VII-A) both rest on a ``t``-error-correcting block code; BCH is
the standard choice in the PUF literature.  This implementation contains
the complete pipeline:

* generator polynomial = lcm of the minimal polynomials of
  ``alpha^1 .. alpha^{2t}``;
* systematic encoding by polynomial division;
* decoding through syndromes, the Berlekamp–Massey algorithm and a Chien
  search, with explicit :class:`~repro.ecc.base.DecodingFailure` on
  uncorrectable words;
* a *vectorized* decode engine running the same pipeline lock-step
  across whole batches: ``syndromes_batch`` → ``solve_syndromes_batch``
  (batched Berlekamp–Massey + one-shot Chien over the alpha-power
  table) → error-pattern XOR, bitwise-equivalent to the scalar decoder
  row for row (see ``docs/ecc.md``);
* optional code *shortening*, so block lengths can be matched to the bit
  counts the PUF constructions actually produce; every shortening of
  one parent decodes the others' zero-padded words under per-row
  position bounds (``decode_batch(words, bounds)``), which is how
  code-offset workloads of one parent fuse into one kernel call.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._dedup import unique_rows
from repro.ecc.base import BlockCode, DecodingFailure, as_bit_matrix, as_bits
from repro.ecc.gf2m import GF2m, poly_degree, poly_mod, poly_mul, poly_to_bits

#: Most solved syndrome rows one code object remembers; the oldest
#: entry is evicted first.  A full memo of a 255-bit, t = 8 code
#: holds about 2.7 MiB, plus at most the rest of one partly evicted
#: solve's block.
_MEMO_ROWS = 4096


#: ``(m, t)`` -> the parent code's ``(field, generator, full_k)``,
#: derived on the first code of that ``(m, t)`` in a process and shared
#: read-only by every later one (the primitive polynomial is fixed per
#: ``m``, so ``(m, t)`` determines the parent).
_PARENTS: Dict[Tuple[int, int], Tuple[GF2m, int, int]] = {}


def _parent(m: int, t: int) -> Tuple[GF2m, int, int]:
    """The ``(m, t)`` parent; its generator polynomial is the lcm of the
    minimal polynomials of ``alpha^1 .. alpha^{2t}``."""
    parent = _PARENTS.get((m, t))
    if parent is not None:
        return parent
    field = GF2m(m)
    full_n = field.order
    if 2 * t >= full_n:
        raise ValueError(f"t={t} too large for code length {full_n}")
    generator = 1
    seen_cosets = set()
    for j in range(1, 2 * t + 1):
        coset = tuple(sorted(field.cyclotomic_coset(j)))
        if coset in seen_cosets:
            continue
        seen_cosets.add(coset)
        generator = poly_mul(generator, field.minimal_polynomial(j))
    full_k = full_n - poly_degree(generator)
    if full_k <= 0:
        raise ValueError(f"BCH(m={m}, t={t}) has no message bits")
    parent = _PARENTS[(m, t)] = (field, generator, full_k)
    return parent


class BCHCode(BlockCode):
    """Narrow-sense binary BCH code of length ``2^m - 1``, shortened by
    *shorten* leading message bits.

    Parameters
    ----------
    m:
        Field extension degree; the parent code has length ``2^m - 1``.
    t:
        Design error-correction capability (design distance ``2t + 1``).
    shorten:
        Number of message bits removed from the parent code.  A shortened
        ``[n - s, k - s]`` code keeps the same ``t``.
    """

    def __init__(self, m: int, t: int, shorten: int = 0):
        if t < 1:
            raise ValueError("use TrivialCode for t = 0")
        self._field, self._generator, full_k = _parent(m, t)
        if not 0 <= shorten < full_k:
            raise ValueError(
                f"shorten must be in [0, {full_k}), got {shorten}")

        self._m = m
        self._t = t
        self._shorten = shorten
        self._full_n = self._field.order
        self._full_k = full_k
        self._syndrome_powers: Optional[np.ndarray] = None
        # One int64 syndrome row as a single opaque memo-key item.
        self._row_key = np.dtype((np.void, 16 * t))
        # (max_position, syndrome bytes) -> (read-only error row, ok).
        self._solved: Dict[Tuple[int, bytes], Tuple[np.ndarray, bool]] = {}

    def __getstate__(self) -> Tuple[int, int, int]:
        # A code is its parameters: pickles (pool workers, registries,
        # deep copies) carry (m, t, shorten) alone and rebuild from the
        # process's parent table, with an empty solve memo.
        return (self._m, self._t, self._shorten)

    def __setstate__(self, state: Tuple[int, int, int]) -> None:
        BCHCode.__init__(self, *state)

    # ------------------------------------------------------------------
    # parameters

    @property
    def n(self) -> int:
        """Code length in bits (after shortening)."""
        return self._full_n - self._shorten

    @property
    def k(self) -> int:
        """Number of data bits."""
        return self._full_k - self._shorten

    @property
    def t(self) -> int:
        """Guaranteed error-correction radius in bits."""
        return self._t

    @property
    def m(self) -> int:
        """Field extension degree of the parent code."""
        return self._m

    @property
    def field(self) -> GF2m:
        """The underlying GF(2^m) instance."""
        return self._field

    def kernel_key(self) -> tuple:
        """Structural decode-kernel identity: ``(m, t, shorten)``.

        A BCH code is fully determined by its field degree, design
        capability and shortening (the primitive polynomial is fixed
        per ``m``), so equal keys imply bitwise-interchangeable
        decoders — the fusion precondition of
        :mod:`repro.ecc.kernel`.
        """
        return ("bch", self._m, self._t, self._shorten)

    def parent_key(self) -> "tuple | None":
        """Kernel identity of the parent: ``("bch", m, t)``.

        Shortening only removes high-order message positions, which
        are zero in every word of the shortened code, so a word of
        any shortening padded with zeros decodes under any other
        shortening of the same parent exactly as under its own code
        once corrections are bounded by its own length
        (:meth:`decode_batch` with *bounds*).  ``None`` when the code
        opts out of fusion (:meth:`kernel_key` is ``None``).
        """
        if self.kernel_key() is None:
            return None
        return ("bch", self._m, self._t)

    @property
    def generator_polynomial(self) -> np.ndarray:
        """Generator polynomial coefficients, LSB (x^0) first."""
        return poly_to_bits(self._generator,
                            poly_degree(self._generator) + 1)

    # ------------------------------------------------------------------
    # encode

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematic encoding: ``codeword = [parity | message]``.

        Bit layout (LSB-first polynomial convention): positions
        ``[0, n-k)`` carry the parity of ``m(x) * x^{n-k} mod g(x)`` and
        positions ``[n-k, n)`` carry the message.  Shortened bits are
        implicitly-zero *high-order* message positions of the parent code
        and are simply never emitted.
        """
        message = as_bits(message, self.k)
        parity_len = self._full_n - self._full_k
        msg_poly = 0
        for i, bit in enumerate(message):
            if bit:
                msg_poly |= 1 << i
        remainder = poly_mod(msg_poly << parity_len, self._generator)
        codeword = np.empty(self.n, dtype=np.uint8)
        codeword[:parity_len] = poly_to_bits(remainder, parity_len)
        codeword[parity_len:] = message
        return codeword

    def extract(self, codeword: np.ndarray) -> np.ndarray:
        """Message bits of a systematic codeword."""
        codeword = as_bits(codeword, self.n)
        return codeword[self.n - self.k:].copy()

    # ------------------------------------------------------------------
    # decode

    def _syndromes(self, word_bits: np.ndarray) -> List[int]:
        return [self._field.poly_eval(word_bits,
                                      self._field.alpha_pow(j))
                for j in range(1, 2 * self._t + 1)]

    def syndromes_batch(self, received: np.ndarray) -> np.ndarray:
        """Syndrome vectors of a ``(B, n)`` batch, shape ``(B, 2t)``.

        ``S_j = sum over set bit positions i of alpha^(j*i)`` — field
        addition is XOR, so the whole batch reduces to one table lookup
        plus an XOR-reduction, run in the narrowest unsigned dtype that
        holds a field element.  Shortened (implicitly zero) positions
        contribute nothing and are simply absent from the table.
        """
        words = as_bit_matrix(received, self.n)
        if self._syndrome_powers is None:
            j = np.arange(1, 2 * self._t + 1, dtype=np.int64)[:, None]
            i = np.arange(self.n, dtype=np.int64)[None, :]
            self._syndrome_powers = self._field.alpha_pow_array(
                j * i).astype(np.min_scalar_type(self._field.order))
        masked = (words != 0)[:, None, :] * self._syndrome_powers
        return np.bitwise_xor.reduce(masked, axis=2).astype(np.int64)

    def decode_batch(self, received: np.ndarray,
                     bounds: Optional[np.ndarray] = None
                     ) -> "tuple[np.ndarray, np.ndarray]":
        """Fully vectorized batch decode (no scalar inner loop).

        The pipeline is one NumPy pass per stage: :meth:`syndromes_batch`
        over the whole block, an all-zero-syndrome fast path (the
        overwhelmingly common case for a provisioned reliability layer),
        then :meth:`solve_syndromes_batch` — lock-step Berlekamp–Massey
        plus a one-shot Chien evaluation — over the distinct non-zero
        syndrome vectors.  The error pattern is a function of the
        syndrome alone, so deduplicating on syndromes (cheap ``2t``-wide
        rows) never changes outcomes and keeps low-distinct workloads as
        fast as before.  Results are bitwise-identical to running
        :meth:`decode` row by row; failed rows come back all-zero with
        ``ok = False``.

        *bounds*, when given, holds one position bound per row (at most
        ``n``): row ``i`` is a word of this code's parent shortened to
        ``bounds[i]`` bits, zero past them, and decodes exactly as that
        code's own :meth:`decode` would — a correction located at or
        past ``bounds[i]`` fails the row.
        """
        words = as_bit_matrix(received, self.n)
        syndromes = self.syndromes_batch(words)
        clean = ~syndromes.any(axis=1)
        codewords = np.zeros_like(words)
        ok = clean.copy()
        codewords[clean] = words[clean]
        dirty = np.flatnonzero(~clean)
        if dirty.size == 0:
            return codewords, ok
        errors, solved = self.solve_syndromes_batch(
            syndromes[dirty],
            None if bounds is None else np.asarray(bounds)[dirty])
        good = dirty[solved]
        codewords[good] = words[good] ^ errors[solved]
        ok[good] = True
        return codewords, ok

    # -- vectorized decode engine --------------------------------------

    def solve_syndromes_batch(self, syndromes: np.ndarray,
                              max_position: "int | np.ndarray" = None
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Locate the error patterns of a ``(B, 2t)`` syndrome batch.

        The vectorized counterpart of the scalar
        Berlekamp–Massey/Chien/verify chain in :meth:`decode`: returns
        ``(error_bits, ok)`` where ``error_bits`` is a ``(B, n)`` uint8
        matrix (XOR it onto the received words to correct them) and
        ``ok`` flags rows whose syndromes resolve to a correctable
        pattern.  A row fails — all-zero error bits, ``ok = False`` —
        under exactly the scalar decoder's conditions: locator degree
        beyond ``t``, a locator that does not split over the field, an
        error located at or past *max_position* (default: the shortened
        code length ``n``; a ``(B,)`` array bounds each row on its
        own), or a located pattern whose syndromes do not reproduce
        the input.  :class:`~repro.ecc.sketch.SyndromeSketch` reuses
        the kernel with ``max_position`` set to its response length,
        which is how the scalar recovery bounds corrections.

        Duplicate ``(bound, syndrome)`` rows are solved once and the
        result is scattered back (the error pattern is a function of
        the syndrome and the bound alone), so low-distinct workloads
        stay cheap without any caller-side deduplication.  Distinct
        rows this code object has already solved under the same bound
        are answered
        from a bounded memo (``_MEMO_ROWS`` rows, oldest evicted
        first, never pickled); only the rest reach the solve core.
        Hits are copied out, so callers never hold memo storage.
        All-zero rows resolve to the empty error pattern with
        ``ok = True``; batch callers typically fast-path them anyway.
        """
        if max_position is None:
            max_position = self.n
        syn = np.asarray(syndromes, dtype=np.int64)
        if syn.ndim != 2 or syn.shape[1] != 2 * self._t:
            raise ValueError(
                f"syndrome batch shape must be (B, {2 * self._t})")
        if syn.shape[0] == 0:
            return (np.zeros((0, self.n), dtype=np.uint8),
                    np.zeros(0, dtype=bool))
        if np.ndim(max_position):
            # Per-row bounds: dedup and memoize on (bound, syndrome).
            distinct, inverse = unique_rows(np.column_stack(
                [np.asarray(max_position, dtype=np.int64), syn]))
            errors, ok = self._solve_memoized(distinct[:, 1:],
                                              distinct[:, 0])
        else:
            distinct, inverse = unique_rows(syn)
            errors, ok = self._solve_memoized(distinct, max_position)
        return errors[inverse], ok[inverse]

    def _solve_memoized(self, distinct: np.ndarray,
                        bounds: "int | np.ndarray"
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct-row solve through the per-code memo.

        *bounds* is one position bound for every row, or one per row.
        """
        memo = self._solved
        rows = np.ascontiguousarray(distinct)
        per_row = np.ndim(bounds) > 0
        keys = list(zip(bounds.tolist() if per_row else repeat(bounds),
                        rows.view(self._row_key).ravel().tolist()))
        # One lookup pass; misses read as an all-zero failed row until
        # the solve below overwrites them.
        miss = (np.zeros(self.n, dtype=np.uint8), False)
        hits = list(map(memo.get, keys, repeat(miss)))
        errors = np.array([hit[0] for hit in hits])
        ok = np.array([hit[1] for hit in hits])
        missing = [index for index, hit in enumerate(hits) if hit is miss]
        if not missing:
            return errors, ok
        solved, solved_ok = self._solve_distinct_syndromes(
            rows[missing], bounds[missing] if per_row else bounds)
        errors[missing] = solved
        ok[missing] = solved_ok
        # Entries are rows of one read-only copy; eviction is oldest
        # first, so at most one partly evicted copy outlives its rows.
        entries = solved.copy()
        entries.flags.writeable = False
        memo.update(zip(map(keys.__getitem__, missing),
                        zip(entries, solved_ok.tolist())))
        while len(memo) > _MEMO_ROWS:
            del memo[next(iter(memo))]
        return errors, ok

    def _solve_distinct_syndromes(self, syn: np.ndarray,
                                  max_position: "int | np.ndarray"
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """The dedup-free solve core behind :meth:`solve_syndromes_batch`."""
        batch = syn.shape[0]
        error_bits = np.zeros((batch, self.n), dtype=np.uint8)
        ok = np.zeros(batch, dtype=bool)
        sigma = self._berlekamp_massey_batch(syn)
        degrees = (sigma.shape[1] - 1) - np.argmax(
            (sigma != 0)[:, ::-1], axis=1)
        viable = np.flatnonzero(degrees <= self._t)
        if viable.size == 0:
            return error_bits, ok
        roots = self._chien_roots_batch(sigma[viable, :self._t + 1])
        good = roots.sum(axis=1) == degrees[viable]
        if np.ndim(max_position):
            beyond = (np.arange(self._full_n)[None, :]
                      >= max_position[viable][:, None])
            good &= ~(roots & beyond).any(axis=1)
        else:
            good &= ~roots[:, max_position:].any(axis=1)
        keep = viable[good]
        if keep.size == 0:
            return error_bits, ok
        error_bits[keep] = roots[good][:, :self.n]
        # Final guard, as in the scalar path: the located pattern must
        # reproduce the input syndromes (beyond-t patterns can yield a
        # small locator that splits but corrects to a non-codeword).
        verified = np.all(
            self.syndromes_batch(error_bits[keep]) == syn[keep], axis=1)
        error_bits[keep[~verified]] = 0
        ok[keep[verified]] = True
        return error_bits, ok

    def _berlekamp_massey_batch(self, syndromes: np.ndarray
                                ) -> np.ndarray:
        """Lock-step Berlekamp–Massey over a ``(B, 2t)`` syndrome matrix.

        Runs the exact update schedule of :meth:`_berlekamp_massey` on
        every row simultaneously: one pass over the ``2t`` steps, with
        per-row discrepancy masks selecting which rows lengthen their
        LFSR, which only shift, and which skip (zero discrepancy) —
        instead of a Python loop per word.  Returns the ``(B, 2t + 2)``
        error-locator coefficient matrix (degree 0 first; trailing
        columns zero, ``sigma_0 = 1`` everywhere).  Coefficients match
        the scalar routine exactly, including for beyond-``t`` rows.
        """
        field = self._field
        syn = np.asarray(syndromes, dtype=np.int64)
        batch, steps = syn.shape
        width = steps + 2
        sigma = np.zeros((batch, width), dtype=np.int64)
        sigma[:, 0] = 1
        prev_sigma = sigma.copy()
        prev_discrepancy = np.ones(batch, dtype=np.int64)
        shift = np.ones(batch, dtype=np.int64)
        errors = np.zeros(batch, dtype=np.int64)
        columns = np.arange(width, dtype=np.int64)[None, :]
        for step in range(steps):
            # Per-row discrepancy: S_step + sum sigma_i * S_{step-i}
            # over 1 <= i <= errors (the current LFSR length).
            discrepancy = syn[:, step].copy()
            limit = min(step, width - 1)
            if limit >= 1:
                lags = np.arange(1, limit + 1)
                terms = field.mul_array(sigma[:, 1:limit + 1],
                                        syn[:, step - lags])
                in_range = lags[None, :] <= errors[:, None]
                discrepancy ^= np.bitwise_xor.reduce(
                    np.where(in_range, terms, 0), axis=1)
            active = np.flatnonzero(discrepancy)
            shift[discrepancy == 0] += 1
            if active.size == 0:
                continue
            scale = field.div_array(discrepancy[active],
                                    prev_discrepancy[active])
            # candidate = sigma - scale * x^shift * prev_sigma, with a
            # per-row shift realised as a clipped gather.
            offsets = columns - shift[active, None]
            shifted = np.where(
                offsets >= 0,
                prev_sigma[active[:, None], np.maximum(offsets, 0)],
                0)
            candidate = sigma[active] ^ field.mul_array(scale[:, None],
                                                        shifted)
            lengthen = 2 * errors[active] <= step
            grow = active[lengthen]
            stay = active[~lengthen]
            prev_sigma[grow] = sigma[grow]
            prev_discrepancy[grow] = discrepancy[grow]
            errors[grow] = step + 1 - errors[grow]
            shift[grow] = 1
            shift[stay] += 1
            sigma[active] = candidate
        return sigma

    def _chien_roots_batch(self, sigma: np.ndarray) -> np.ndarray:
        """Root masks of a batch of error locators, over all positions.

        One :meth:`~repro.ecc.gf2m.GF2m.alpha_eval_batch` pass over the
        precomputed alpha-power grid replaces the per-word Chien loop:
        entry ``[r, i]`` of the returned ``(B, full_n)`` boolean matrix
        is True where ``sigma_r(alpha^{-i}) == 0``, i.e. position ``i``
        of the parent code carries an error according to locator ``r``.
        """
        exponents = -np.arange(self._full_n, dtype=np.int64)
        return self._field.alpha_eval_batch(sigma, exponents) == 0

    def _berlekamp_massey(self, syndromes: List[int]) -> List[int]:
        """Error-locator polynomial sigma (LSB-first field coefficients)."""
        field = self._field
        sigma = [1]
        prev_sigma = [1]
        prev_discrepancy = 1
        shift = 1
        errors = 0
        for step, syndrome in enumerate(syndromes):
            discrepancy = syndrome
            for i in range(1, errors + 1):
                if i < len(sigma):
                    discrepancy ^= field.mul(sigma[i],
                                             syndromes[step - i])
            if discrepancy == 0:
                shift += 1
                continue
            scale = field.div(discrepancy, prev_discrepancy)
            candidate = sigma.copy()
            # candidate = sigma - scale * x^shift * prev_sigma
            needed = len(prev_sigma) + shift
            if len(candidate) < needed:
                candidate.extend([0] * (needed - len(candidate)))
            for i, coeff in enumerate(prev_sigma):
                candidate[i + shift] ^= field.mul(scale, coeff)
            if 2 * errors <= step:
                prev_sigma = sigma
                prev_discrepancy = discrepancy
                errors = step + 1 - errors
                shift = 1
            else:
                shift += 1
            sigma = candidate
        while len(sigma) > 1 and sigma[-1] == 0:
            sigma.pop()
        return sigma

    def _chien_search(self, sigma: List[int]) -> List[int]:
        """Error positions in the *parent* code, via root search.

        ``sigma(alpha^{-i}) = 0`` marks an error at position ``i``.
        """
        field = self._field
        positions = []
        for i in range(self._full_n):
            point = field.alpha_pow(-i)
            acc = 0
            for degree, coeff in enumerate(sigma):
                if coeff:
                    acc ^= field.mul(coeff, field.pow(point, degree))
            if acc == 0:
                positions.append(i)
        return positions

    def decode(self, received: np.ndarray) -> np.ndarray:
        """Decode an ``(n,)`` word; raises past ``t`` errors."""
        received = as_bits(received, self.n)
        # Re-extend the shortened word with the implicit zero bits.
        full = np.zeros(self._full_n, dtype=np.uint8)
        full[:self.n] = received

        syndromes = self._syndromes(full)
        if not any(syndromes):
            return received.copy()

        sigma = self._berlekamp_massey(syndromes)
        n_errors = len(sigma) - 1
        if n_errors > self._t:
            raise DecodingFailure(
                f"error locator degree {n_errors} exceeds t={self._t}")
        positions = self._chien_search(sigma)
        if len(positions) != n_errors:
            raise DecodingFailure(
                "error locator does not split over the field")
        for position in positions:
            if position >= self.n:
                # An "error" inside the shortened (known-zero) bits can
                # only arise from > t real errors.
                raise DecodingFailure(
                    "correction lands in shortened positions")
            full[position] ^= 1
        if any(self._syndromes(full)):
            raise DecodingFailure("correction did not yield a codeword")
        return full[:self.n]

    def __repr__(self) -> str:
        return (f"BCHCode(m={self._m}, t={self._t}, n={self.n}, "
                f"k={self.k}, shorten={self._shorten})")


def design_bch(data_bits: int, t: int,
               max_m: int = 12) -> BCHCode:
    """Smallest shortened BCH code carrying *data_bits* message bits.

    Scans extension degrees upward and returns the first code whose
    message length covers *data_bits*, shortened so that ``k`` equals
    *data_bits* exactly.  This mirrors how a PUF designer provisions the
    reliability layer for a given response length.
    """
    if data_bits < 1:
        raise ValueError("data_bits must be positive")
    for m in range(3, max_m + 1):
        try:
            code = BCHCode(m, t)
        except ValueError:
            continue
        if code.k >= data_bits:
            return BCHCode(m, t, shorten=code.k - data_bits)
    raise ValueError(
        f"no BCH code with k >= {data_bits} and t={t} for m <= {max_m}")
