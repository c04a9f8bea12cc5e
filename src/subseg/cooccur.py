"""Symmetric word co-occurrence counting over fixed windows.

Counts follow the ordered-pair definition: every position pair (i, j) with
i != j and |i - j| <= window inside one line contributes one count to
(token_i, token_j).  The resulting matrix is symmetric, and a pair of equal
tokens at two positions contributes 2 to the diagonal entry.  Out-of-vocab
tokens keep their position (they widen gaps) but contribute no counts, and
windows never cross line boundaries.

In memory a table is one read-only (n, 3) int64 array of upper-triangle
rows ``(i, j, count)`` with i <= j, strictly sorted by (i, j).  Counting
streams the corpus into int64 id blocks: an out-of-vocab token becomes -1
and every line is followed by ``window`` -1 gaps, so no in-window pair
crosses a line.  A block closes at a line end once it holds at least
``_BLOCK_TOKENS`` ids; for each offset k = 1..window it pairs ``ids[:-k]``
with ``ids[k:]`` and keys each in-vocab pair as ``min * |V| + max``.  The
block's distinct keys and their counts (doubled on the diagonal) are added
into the running sorted key/total arrays by exact int64 sums, and keys the
table lacks are inserted in order.  Memory stays bounded by one block plus
the distinct pairs.

On disk: a ``#COOC v1 |V|=<n> window=<w>`` header followed by upper-triangle
triples ``id1<TAB>id2<TAB>count`` with id1 <= id2, sorted by (id1, id2).
Loading parses the header and the integers of each row; every check on the
rows themselves is ``CooccurrenceCounts``'s, and a row it rejects is
reported as a ``ParseError`` at that row's line.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from subseg.errors import ArgumentError, ParseError, ValidationError, rows_from_line
from subseg.textio import Vocabulary, atomic_text_writer, read_corpus

if TYPE_CHECKING:
    from scipy import sparse

_HEADER_RE = re.compile(r"^#COOC v1 \|V\|=(\d+) window=(\d+)$")

# Ids a counting block holds before it is merged at the next line end.
_BLOCK_TOKENS = 1 << 18
# Rows pairs() turns into Python ints at a time, so that writing a table
# never holds all of it as Python objects.
_PAIR_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class CooccurrenceCounts:
    """Sparse symmetric co-occurrence table over dense word ids.

    ``counts`` is the canonical upper triangle as a read-only (n, 3) int64
    array of rows (i, j, C[i, j]) with i <= j, strictly sorted by (i, j);
    C[i, j] == C[j, i] is the ordered-pair count.  Any array-like of such
    rows is accepted and copied.
    """

    vocab_size: int
    window: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.vocab_size < 0:
            raise ArgumentError(f"vocab_size must be nonnegative, got {self.vocab_size}")
        if self.window < 1:
            raise ArgumentError(f"window must be at least 1, got {self.window}")
        try:
            table = np.array(self.counts, dtype=np.int64)
        except (OverflowError, ValueError) as exc:
            raise ValidationError(f"counts are not int64 (i, j, count) rows: {exc}") from None
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValidationError(f"counts must be (i, j, count) rows, got shape {table.shape}")
        i, j, value = table.T
        bad = np.flatnonzero((i < 0) | (i > j) | (j >= self.vocab_size))
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"pair ({i[k]}, {j[k]}) is not canonical for |V|={self.vocab_size}", k
            )
        bad = np.flatnonzero(value <= 0)
        if bad.size:
            k = int(bad[0])
            raise ValidationError(f"pair ({i[k]}, {j[k]}) has nonpositive count {value[k]}", k)
        after = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
        bad = np.flatnonzero(~after)
        if bad.size:
            k = int(bad[0]) + 1
            raise ValidationError(
                f"pair ({i[k]}, {j[k]}) does not come strictly after ({i[k - 1]}, {j[k - 1]})", k
            )
        table.flags.writeable = False
        object.__setattr__(self, "counts", table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CooccurrenceCounts):
            return NotImplemented
        return (
            self.vocab_size == other.vocab_size
            and self.window == other.window
            and np.array_equal(self.counts, other.counts)
        )

    def count(self, first: int, second: int) -> int:
        i, j = sorted((first, second))
        hit = (self.counts[:, 0] == i) & (self.counts[:, 1] == j)
        return int(self.counts[hit, 2].sum())

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Canonical triples (id1, id2, count) sorted by (id1, id2)."""
        for start in range(0, len(self.counts), _PAIR_CHUNK):
            yield from map(tuple, self.counts[start:start + _PAIR_CHUNK].tolist())

    def row_sum(self, word_id: int) -> int:
        hit = (self.counts[:, 0] == word_id) | (self.counts[:, 1] == word_id)
        return int(self.counts[hit, 2].sum())

    def matrix(self) -> sparse.csr_matrix:
        """Full symmetric matrix as float64 CSR."""
        # scipy is imported here, not at module level, so stages that never
        # pool or solve do not pay for loading it.
        from scipy import sparse

        i, j, value = self.counts.T
        off = i != j
        rows = np.concatenate([i, j[off]])
        cols = np.concatenate([j, i[off]])
        data = np.concatenate([value, value[off]])
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=(self.vocab_size, self.vocab_size), dtype=np.float64
        )


def _merge_block(
    keys: np.ndarray, totals: np.ndarray, ids: np.ndarray, vocab_size: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Add the in-window pairs of one id block to the sorted (keys, totals) table.

    Returns the merged arrays; ``totals`` is updated in place on the way.
    """
    found = []
    for k in range(1, window + 1):
        first, second = ids[:-k], ids[k:]
        keep = (first >= 0) & (second >= 0)
        first, second = first[keep], second[keep]
        found.append(np.minimum(first, second) * vocab_size + np.maximum(first, second))
    block_keys, block_totals = np.unique(np.concatenate(found), return_counts=True)
    # Both orders of an equal-token pair land on the diagonal slot.
    block_totals[block_keys // vocab_size == block_keys % vocab_size] *= 2
    # Both key arrays are sorted and unique: add where a key is present and
    # insert the rest, which costs one copy of the table rather than a sort.
    at = np.searchsorted(keys, block_keys)
    present = at < len(keys)
    present[present] = keys[at[present]] == block_keys[present]
    totals[at[present]] += block_totals[present]
    new = ~present
    return np.insert(keys, at[new], block_keys[new]), np.insert(totals, at[new], block_totals[new])


def count_cooccurrences(
    lines: Iterable[str],
    vocab: Vocabulary,
    window: int = 5,
) -> CooccurrenceCounts:
    """Count in-window co-occurrences of vocabulary words.

    Blocks merge by exact integer sum, so the result is independent of line
    order and of where the blocks close.
    """
    if window < 1:
        raise ArgumentError(f"window must be at least 1, got {window}")
    size = len(vocab)
    gap = [-1] * window
    keys = np.zeros(0, dtype=np.int64)
    totals = np.zeros(0, dtype=np.int64)
    block: list[int] = []
    for line in lines:
        block += [-1 if word_id is None else word_id for word_id in map(vocab.get, line.split())]
        block += gap
        if len(block) >= _BLOCK_TOKENS:
            keys, totals = _merge_block(keys, totals, np.array(block, dtype=np.int64), size, window)
            block = []
    if block:
        keys, totals = _merge_block(keys, totals, np.array(block, dtype=np.int64), size, window)
    return CooccurrenceCounts(size, window, np.stack([keys // size, keys % size, totals], axis=1))


def save_counts(counts: CooccurrenceCounts, path: str | Path) -> None:
    with atomic_text_writer(path) as handle:
        handle.write(f"#COOC v1 |V|={counts.vocab_size} window={counts.window}\n")
        for i, j, value in counts.pairs():
            handle.write(f"{i}\t{j}\t{value}\n")


def load_counts(path: str | Path) -> CooccurrenceCounts:
    lines = read_corpus(path)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError("empty counts file, missing header", 1) from None
    match = _HEADER_RE.match(header)
    if match is None:
        raise ParseError(f"bad header {header!r}", 1)
    vocab_size = int(match.group(1))
    window = int(match.group(2))
    if window < 1:
        raise ParseError(f"header window {window} is invalid", 1)
    flat = array("q")
    for lineno, line in enumerate(lines, 2):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 'id1<TAB>id2<TAB>count', got {line!r}", lineno)
        try:
            flat.extend(map(int, fields))
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        except OverflowError:
            raise ParseError(f"row {line!r} does not fit in int64", lineno) from None
    with rows_from_line(2):
        return CooccurrenceCounts(vocab_size, window, np.frombuffer(flat, dtype=np.int64).reshape(-1, 3))
