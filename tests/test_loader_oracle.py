"""The counts, lexicon and embedding loaders against their per-line predecessors.

Each generated counts or lexicon file holds valid rows plus at most one
defect: a blank row, a malformed row, an out-of-range, swapped or
nonpositive triple, a duplicate, two rows out of order, an int64 overflow,
or a field that ``int()`` reads and ``np.loadtxt`` does not, at a random
line.  Generated embedding files mix valid values with ones the two parsers
treat differently, spaces out of place, a ``\r`` inside a line and a wrong
row count, and are read from a regular file or a FIFO.  The loaders must
return an equal table or raise the same error type at the same line as
``reference_loaders`` (for embeddings, with the same message), and every
error must be a ParseError.  The parse block size is drawn small, so that a
file spans several blocks.
"""

import io
import os
import threading
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loaders import load_counts as reference_load_counts
from reference_loaders import load_embeddings as reference_load_embeddings
from reference_loaders import load_lexicon as reference_load_lexicon
from subseg import ParseError, ValidationError, cooccur, load_counts, load_embeddings, load_lexicon

_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)
_INT64_MAX = 2**63 - 1


def _outcome(load, text):
    try:
        return load(io.BytesIO(text.encode("utf-8")))
    except ValidationError as exc:
        return type(exc), getattr(exc, "line_number", None)


def _assert_same_outcome(load, reference_load, text):
    outcome = _outcome(load, text)
    assert outcome == _outcome(reference_load, text)
    if isinstance(outcome, tuple):
        assert outcome[0] is ParseError


@st.composite
def _counts_files(draw):
    vocab_size = draw(st.integers(1, 6))
    ids = st.integers(0, vocab_size - 1)
    cells = draw(st.sets(st.tuples(ids, ids).map(lambda pair: tuple(sorted(pair))), max_size=12))
    rows = [(i, j, draw(st.integers(1, _INT64_MAX))) for i, j in sorted(cells)]
    kind = draw(
        st.sampled_from(
            (None, "blank", "fields", "non-integer", "swapped", "out-of-range", "negative-id",
             "nonpositive", "duplicate", "out-of-order", "overflow", "int-only")
        )
    )
    lines = ["\t".join(map(str, row)) for row in rows]
    at = draw(st.integers(0, len(lines)))
    if kind == "int-only" and lines:
        # A field int() reads, or rejects, differently from np.loadtxt.
        at = min(at, len(lines) - 1)
        fields = lines[at].split("\t")
        column = draw(st.integers(0, 2))
        fields[column] = draw(
            st.sampled_from(("{}_0", "+{}", " {}", "{} ", "{}\r", "\r{}", "{}\r1", "\x1c{}",
                             "{}\x1f", "{}\u0665", "{}\u01fe"))
        ).format(fields[column])
        lines[at] = "\t".join(fields)
    elif kind == "duplicate" and lines:
        at = min(at, len(lines) - 1)
        lines.insert(at + 1, lines[at])
    elif kind == "out-of-order" and len(lines) > 1:
        at = min(at, len(lines) - 2)
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    elif kind == "overflow":
        row = [str(value) for value in draw(st.sampled_from(rows or [(0, 0, 1)]))]
        big = draw(st.integers(_INT64_MAX + 1, 2**70))
        row[draw(st.integers(0, 2))] = str(draw(st.sampled_from((big, -big))))
        lines.insert(at, "\t".join(row))
    elif kind in ("blank", "fields", "non-integer", "swapped", "out-of-range", "negative-id", "nonpositive"):
        first, second = draw(ids), draw(ids)
        bad = {
            "blank": "",
            "fields": draw(st.sampled_from((f"{first}\t{second}", f"{first}\t{second}\t1\t1"))),
            "non-integer": f"{first}\t{second}\t{draw(st.sampled_from(('x', '1.5', '', '1e3')))}",
            "swapped": f"{first + draw(st.integers(1, 3))}\t{first}\t1",
            "out-of-range": f"{first}\t{vocab_size + draw(st.integers(0, 3))}\t1",
            "negative-id": f"{-draw(st.integers(1, 3))}\t{second}\t1",
            "nonpositive": f"{min(first, second)}\t{max(first, second)}\t{draw(st.integers(-3, 0))}",
        }[kind]
        lines.insert(at, bad)
    return f"#COOC v1 |V|={vocab_size} window=5\n" + "".join(line + "\n" for line in lines)


@_SETTINGS
@given(_counts_files(), st.integers(1, 40))
def test_load_counts_matches_per_line_reference(text, block_chars):
    with mock.patch.object(cooccur, "_PARSE_BLOCK_CHARS", block_chars):
        _assert_same_outcome(load_counts, reference_load_counts, text)


@st.composite
def _lexicon_files(draw):
    words = draw(st.sets(st.text(alphabet="abc", min_size=1, max_size=5), max_size=8))
    lines = []
    for word in sorted(words):
        cuts = draw(st.sets(st.integers(1, len(word) - 1))) if len(word) > 1 else set()
        edges = [0, *sorted(cuts), len(word)]
        lines.append(f"{word}\t{' '.join(word[a:b] for a, b in zip(edges, edges[1:]))}")
    kind = draw(
        st.sampled_from((None, "blank", "fields", "empty-word", "empty-segmentation", "duplicate"))
    )
    at = draw(st.integers(0, len(lines)))
    if kind == "duplicate" and words:
        # A second row for a word already present, before or after its first.
        word = draw(st.sampled_from(sorted(words)))
        lines.insert(at, f"{word}\t{' '.join(word)}")
    elif kind in ("blank", "fields", "empty-word", "empty-segmentation"):
        bad = {
            "blank": "",
            "fields": draw(st.sampled_from(("abc", "ab\ta\tb", "a\tb\t"))),
            "empty-word": "\ta b",
            "empty-segmentation": draw(st.sampled_from(("ab\t", "ab\t ", "ab\t  "))),
        }[kind]
        lines.insert(at, bad)
    return "".join(line + "\n" for line in lines)


@_SETTINGS
@given(_lexicon_files())
def test_load_lexicon_matches_per_line_reference(text):
    _assert_same_outcome(load_lexicon, reference_load_lexicon, text)


# Values float() and np.loadtxt both read, values only float() reads, and
# values neither reads, besides repr-formatted floats.
_ODD_VALUES = (
    "1_0", "\uff11", "\u0661", "nan", "-inf", "1e400", "#1", "", "\x1c1", "1\x1f", "1\r2", "0x10",
    "+5", ".5", "5.", "-0.0", " 1", "\t1", "1\x0b",
)


@st.composite
def _embedding_files(draw):
    dim = draw(st.integers(1, 4))
    odd = draw(st.booleans())

    def value():
        if odd and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(_ODD_VALUES))
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))

    count = draw(st.integers(0, 8))
    lines = [" ".join([f"w{row}", *(value() for _ in range(dim))]) for row in range(count)]
    kind = draw(
        st.sampled_from((None, None, None, None, None, None, "blank-rest", "double-space",
                         "leading-space", "trailing-space", "carriage-return", "blank-line",
                         "token-only"))
    )
    if lines and kind is not None:
        at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        cut = draw(st.integers(0, len(line)))
        lines[at] = {
            "blank-rest": f"w{at} " + " " * (dim - 1),
            "double-space": line[:cut] + " " + line[cut:],
            "leading-space": " " + line,
            "trailing-space": line + " ",
            "carriage-return": line[:cut] + "\r" + line[cut:],
            "blank-line": "",
            "token-only": f"w{at}",
        }[kind]
    declared = count + draw(st.sampled_from((0, 0, 0, 0, 0, 0, -2, -1, 1, 2)))
    return f"{declared} {dim}\n" + "".join(line + "\n" for line in lines)


def _load_file(load, path, text, fifo):
    """``load(path)`` on ``text`` written to ``path`` or streamed through a FIFO there."""
    data = text.encode("utf-8")
    path.unlink(missing_ok=True)
    if not fifo:
        path.write_bytes(data)
        return load(path)
    os.mkfifo(path)

    def write():
        try:
            with open(path, "wb") as handle:
                handle.write(data)
        except BrokenPipeError:
            pass  # the loader stopped reading at an error

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return load(path)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()
        path.unlink()


def _embedding_outcome(load, path, text, fifo):
    # The per-line loader's messages are kept too, so they are compared.
    try:
        table = _load_file(load, path, text, fifo)
    except ValidationError as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)
    return table.tokens, table.vectors.view(np.int64).tobytes()


@_SETTINGS
@given(_embedding_files(), st.integers(1, 60), st.booleans())
def test_load_embeddings_matches_per_line_reference(tmp_path_factory, text, block_chars, fifo):
    path = tmp_path_factory.getbasetemp() / "oracle-embeddings.txt"
    expected = _embedding_outcome(reference_load_embeddings, path, text, fifo)
    with mock.patch.object(cooccur, "_PARSE_BLOCK_CHARS", block_chars):
        outcome = _embedding_outcome(load_embeddings, path, text, fifo)
    assert outcome == expected
    if isinstance(outcome[0], type):
        assert outcome[0] is ParseError
