"""Per-line loaders for counts, lexicon and embedding files.

``load_counts`` and ``load_lexicon`` once validated each row themselves,
before handing the table to its type; they now only parse, and the table
types do the checking.  ``load_embeddings`` parsed each row's values with
``float()`` as it read the row; it now parses a block of rows at a time.
These copies of the per-line versions are the oracle that the loaders
agree with them: on the same file they return an equal table or raise the
same error type at the same line.
"""

from __future__ import annotations

import os
import re
import stat
from array import array
from pathlib import Path

import numpy as np

from subseg import CooccurrenceCounts, EmbeddingTable, ParseError, SegmentedLexicon, read_corpus
from subseg.errors import rows_from_line

_HEADER_RE = re.compile(r"^#COOC v1 \|V\|=(\d+) window=(\d+)$")


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
        if (i, j) == previous:
            raise ParseError(f"duplicate pair ({i}, {j})", lineno)
        if previous is not None and (i, j) < previous:
            raise ParseError(f"pair ({i}, {j}) breaks (id1, id2) sort order", lineno)
        previous = (i, j)
        try:
            flat.extend((i, j, value))
        except OverflowError:
            raise ParseError(f"row {line!r} does not fit in int64", lineno) from None
    return CooccurrenceCounts(vocab_size, window, np.frombuffer(flat, dtype=np.int64).reshape(-1, 3))


def load_lexicon(path: str | Path) -> SegmentedLexicon:
    entries: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_corpus(path), 1):
        if not line:
            raise ParseError("blank lexicon row", lineno)
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1].strip():
            raise ParseError(f"expected 'word<TAB>sub1 sub2 ...', got {line!r}", lineno)
        word, seg_text = fields
        if word in seen:
            raise ParseError(f"duplicate entry for word {word!r}", lineno)
        seen.add(word)
        entries.append((word, seg_text.split()))
    return SegmentedLexicon(entries)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    lines = read_corpus(path)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError("empty embedding file, missing header", 1) from None
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"expected '<row_count> <dim>' header, got {header!r}", 1)
    try:
        row_count, dim = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"non-integer header field in {header!r}", 1) from None
    if dim < 1:
        raise ParseError(f"dimension must be positive, got {dim}", 1)
    if row_count < 0:
        raise ParseError(f"row count must be non-negative, got {row_count}", 1)
    info = os.stat(path)
    regular = stat.S_ISREG(info.st_mode)
    if regular and row_count * (2 * dim + 1) > info.st_size:
        raise ParseError(
            f"header declares {row_count} rows of dimension {dim}, "
            f"more than the file's {info.st_size} bytes can hold",
            1,
        )
    tokens: list[str] = []
    vectors = np.empty((0, dim), dtype=np.float64)
    filled = 0
    for lineno, line in enumerate(lines, 2):
        fields = line.split(" ")
        if len(fields) != dim + 1:
            raise ParseError(
                f"expected token plus {dim} values, got {len(fields) - 1}", lineno
            )
        if filled >= row_count:
            raise ParseError(f"more than the declared {row_count} rows", lineno)
        if filled == len(vectors):
            capacity = row_count if regular else min(row_count, max(1024, 2 * filled))
            grown = np.empty((capacity, dim), dtype=np.float64)
            grown[:filled] = vectors
            vectors = grown
        try:
            vectors[filled] = [float(v) for v in fields[1:]]
        except ValueError:
            raise ParseError("non-numeric vector component", lineno) from None
        tokens.append(fields[0])
        filled += 1
    if filled != row_count:
        raise ParseError(f"header declared {row_count} rows but found {filled}", 1)
    with rows_from_line(2):
        return EmbeddingTable(tokens, vectors)
