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
Saving formats a chunk of rows into one string per write.  Loading parses
a block of rows (about ``_PARSE_BLOCK_CHARS`` characters) at a time with
one ``np.loadtxt`` call.  A block that call cannot read exactly as
``int()`` would, malformed rows included, is parsed row by row, which
checks each row's field count and integers and reports the first bad row
at its line.  Every check on the rows themselves is
``CooccurrenceCounts``'s, and a row it rejects is reported as a
``ParseError`` at that row's line.
"""

from __future__ import annotations

import re
import warnings
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
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
# Characters of row text a loader hands to one np.loadtxt call.
_PARSE_BLOCK_CHARS = 1 << 16
# np.loadtxt ends a row at "\r" and strips "\x1c"-"\x1f" from a field as
# whitespace, where int() and float() reject them, and reads some non-ASCII
# characters as digits of an integer ("\u01fe" as 462); a block holding any of
# them, or anything outside ASCII, is parsed row by row.
_LOADTXT_UNSAFE = "\r\x1c\x1d\x1e\x1f"


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

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Canonical triples (id1, id2, count) sorted by (id1, id2)."""
        for start in range(0, len(self.counts), _PAIR_CHUNK):
            yield from map(tuple, self.counts[start:start + _PAIR_CHUNK].tolist())

    def matrix(self) -> sparse.csr_matrix:
        """Full symmetric matrix as float64 CSR.

        Built on the first call and kept on the table, with its arrays
        read-only: every pooling against this table shares the one copy.
        """
        csr = self.__dict__.get("_csr")
        if csr is None:
            # scipy is imported here, not at module level, so stages that
            # never pool or solve do not pay for loading it.
            from scipy import sparse

            i, j, value = self.counts.T
            off = i != j
            rows = np.concatenate([i, j[off]])
            cols = np.concatenate([j, i[off]])
            data = np.concatenate([value, value[off]])
            csr = sparse.csr_matrix(
                (data, (rows, cols)), shape=(self.vocab_size, self.vocab_size), dtype=np.float64
            )
            for array in (csr.data, csr.indices, csr.indptr):
                array.flags.writeable = False
            object.__setattr__(self, "_csr", csr)
        return csr


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
        block += vocab.ids(line.split())
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
        for start in range(0, len(counts.counts), _PAIR_CHUNK):
            flat = counts.counts[start:start + _PAIR_CHUNK].ravel().tolist()
            handle.write(("%d\t%d\t%d\n" * (len(flat) // 3)) % tuple(flat))


def _row_blocks(rows: Iterable[str], first_line: int) -> Iterator[tuple[int, list[str]]]:
    """Group row texts, one per line from ``first_line`` on, into blocks.

    Yields (line of the block's first row, row texts), a block closing once
    it holds ``_PARSE_BLOCK_CHARS`` characters.  When taking the next row
    raises, the rows before it are yielded first, so that a parser reports
    an error in an earlier row before it, as a per-line parser would.
    """
    block: list[str] = []
    size = 0
    try:
        for row in rows:
            block.append(row)
            size += len(row)
            if size >= _PARSE_BLOCK_CHARS:
                yield first_line, block
                first_line += len(block)
                block, size = [], 0
    except (ValidationError, OSError):
        if block:
            yield first_line, block
        raise
    if block:
        yield first_line, block


def _parse_block(
    rows: list[str],
    first_line: int,
    dtype: type,
    delimiter: str,
    columns: int,
    parse_row: Callable[[str, int], Sequence],
) -> np.ndarray:
    """The (len(rows), columns) array of ``rows``, the first at ``first_line``.

    One ``np.loadtxt`` call parses a block it reads as ``parse_row`` would;
    its result counts only with one row per text row, since it skips blank
    rows.  Otherwise ``parse_row(row, lineno)`` parses each row in turn and
    raises at the first it rejects.
    """
    text = "\n".join(rows)
    if text.isascii() and not any(ch in text for ch in _LOADTXT_UNSAFE):
        try:
            with warnings.catch_warnings():
                # A block with no data warns; the shape check rejects it.
                warnings.simplefilter("ignore")
                table = np.loadtxt(
                    rows, dtype=dtype, delimiter=delimiter,
                    comments=None, quotechar=None, ndmin=2,
                )
        except ValueError:
            pass
        else:
            if table.shape == (len(rows), columns):
                return table
    return np.array(
        [parse_row(row, lineno) for lineno, row in enumerate(rows, first_line)], dtype=dtype
    )


def _count_row(line: str, lineno: int) -> array:
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(f"expected 'id1<TAB>id2<TAB>count', got {line!r}", lineno)
    try:
        return array("q", map(int, fields))
    except ValueError:
        raise ParseError(f"non-integer field in {line!r}", lineno) from None
    except OverflowError:
        raise ParseError(f"row {line!r} does not fit in int64", lineno) from None


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
    # A block np.loadtxt reads into exactly three columns has no row with a
    # wrong field count; _count_row checks it when a block is parsed by row.
    blocks = [
        _parse_block(rows, first, np.int64, "\t", 3, _count_row)
        for first, rows in _row_blocks(lines, 2)
    ]
    table = np.concatenate(blocks) if blocks else np.empty((0, 3), dtype=np.int64)
    blocks.clear()  # before CooccurrenceCounts copies the table
    with rows_from_line(2):
        return CooccurrenceCounts(vocab_size, window, table)
