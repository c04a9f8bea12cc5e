"""Per-line loaders for counts and lexicon files that check every row as they read it.

``load_counts`` and ``load_lexicon`` once validated each row themselves,
before handing the table to its type; they now only parse, and the table
types do the checking.  These copies of the per-line versions are the
oracle that the two agree: on the same file they return an equal table or
raise the same error type at the same line.
"""

from __future__ import annotations

import re
from array import array
from pathlib import Path

import numpy as np

from subseg import CooccurrenceCounts, ParseError, SegmentedLexicon, read_corpus

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
