"""Symmetric word co-occurrence counting over fixed windows.

Counts follow the ordered-pair definition: every position pair (i, j) with
i != j and |i - j| <= window inside one line contributes one count to
(token_i, token_j).  The resulting matrix is symmetric, and a pair of equal
tokens at two positions contributes 2 to the diagonal entry.  Out-of-vocab
tokens keep their position (they widen gaps) but contribute no counts, and
windows never cross line boundaries.

On disk: a ``#COOC v1 |V|=<n> window=<w>`` header followed by upper-triangle
triples ``id1<TAB>id2<TAB>count`` with id1 <= id2, sorted by (id1, id2).
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from subseg.errors import ArgumentError, ParseError, ValidationError
from subseg.textio import Vocabulary, atomic_text_writer, read_corpus, sharded_counter

if TYPE_CHECKING:
    from scipy import sparse

_HEADER_RE = re.compile(r"^#COOC v1 \|V\|=(\d+) window=(\d+)$")


@dataclass(frozen=True)
class CooccurrenceCounts:
    """Sparse symmetric co-occurrence table over dense word ids.

    ``counts`` stores the canonical upper triangle: keys (i, j) with
    i <= j, values equal to the ordered-pair count C[i, j] (== C[j, i]).
    """

    vocab_size: int
    window: int
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.vocab_size < 0:
            raise ArgumentError(f"vocab_size must be nonnegative, got {self.vocab_size}")
        if self.window < 1:
            raise ArgumentError(f"window must be at least 1, got {self.window}")
        for (i, j), value in self.counts.items():
            if not 0 <= i <= j < self.vocab_size:
                raise ValidationError(f"pair ({i}, {j}) is not canonical for |V|={self.vocab_size}")
            if value <= 0:
                raise ValidationError(f"pair ({i}, {j}) has nonpositive count {value}")

    def count(self, first: int, second: int) -> int:
        key = (first, second) if first <= second else (second, first)
        return self.counts.get(key, 0)

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Canonical triples (id1, id2, count) sorted by (id1, id2)."""
        for (i, j) in sorted(self.counts):
            yield i, j, self.counts[(i, j)]

    def row_sum(self, word_id: int) -> int:
        return sum(
            value
            for (i, j), value in self.counts.items()
            if i == word_id or j == word_id
        )

    def matrix(self) -> sparse.csr_matrix:
        """Full symmetric matrix as float64 CSR."""
        # scipy is imported here, not at module level, so stages that never
        # pool or solve do not pay for loading it.
        from scipy import sparse

        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for (i, j), value in self.counts.items():
            rows.append(i)
            cols.append(j)
            data.append(float(value))
            if i != j:
                rows.append(j)
                cols.append(i)
                data.append(float(value))
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=(self.vocab_size, self.vocab_size), dtype=np.float64
        )


def _make_chunk_counter(vocab: Vocabulary, window: int):
    def count_chunk(chunk: list[str]) -> Counter:
        local: Counter = Counter()
        for line in chunk:
            ids = [vocab.get(token) for token in line.split()]
            n = len(ids)
            for i in range(n):
                x = ids[i]
                if x is None:
                    continue
                for j in range(i + 1, min(i + window, n - 1) + 1):
                    y = ids[j]
                    if y is None:
                        continue
                    if x == y:
                        local[(x, x)] += 2
                    elif x < y:
                        local[(x, y)] += 1
                    else:
                        local[(y, x)] += 1
        return local

    return count_chunk


def count_cooccurrences(
    lines: Iterable[str],
    vocab: Vocabulary,
    window: int = 5,
    threads: int = 1,
) -> CooccurrenceCounts:
    """Count in-window co-occurrences of vocabulary words.

    Sharded counting merges partial tables by exact integer sum, so the
    result is independent of the thread count and of line order.
    """
    if window < 1:
        raise ArgumentError(f"window must be at least 1, got {window}")
    totals = sharded_counter(lines, _make_chunk_counter(vocab, window), threads)
    return CooccurrenceCounts(len(vocab), window, dict(totals))


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
    table: dict[tuple[int, int], int] = {}
    previous: tuple[int, int] | None = None
    for lineno, line in enumerate(lines, 2):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 'id1<TAB>id2<TAB>count', got {line!r}", lineno)
        try:
            i, j, value = (int(f) for f in fields)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        if i > j:
            raise ParseError(f"pair ({i}, {j}) is not in canonical id1 <= id2 order", lineno)
        if j >= vocab_size or i < 0:
            raise ParseError(f"pair ({i}, {j}) is out of range for |V|={vocab_size}", lineno)
        if value <= 0:
            raise ParseError(f"pair ({i}, {j}) has nonpositive count {value}", lineno)
        if (i, j) in table:
            raise ParseError(f"duplicate pair ({i}, {j})", lineno)
        if previous is not None and (i, j) <= previous:
            raise ParseError(f"pair ({i}, {j}) breaks (id1, id2) sort order", lineno)
        previous = (i, j)
        table[(i, j)] = value
    if window < 1:
        raise ValidationError(f"{path}: header window {window} is invalid")
    return CooccurrenceCounts(vocab_size, window, table)
