"""The counts and lexicon loaders against their per-line predecessors.

Each generated file holds valid rows plus at most one defect: a blank row,
a malformed row, an out-of-range, swapped or nonpositive triple, a
duplicate, two rows out of order, or an int64 overflow, at a random line.
The loaders must return an equal table or raise the same error type at the
same line as ``reference_loaders``, and every error must be a ParseError.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loaders import load_counts as reference_load_counts
from reference_loaders import load_lexicon as reference_load_lexicon
from subseg import ParseError, ValidationError, load_counts, load_lexicon

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
             "nonpositive", "duplicate", "out-of-order", "overflow")
        )
    )
    lines = ["\t".join(map(str, row)) for row in rows]
    at = draw(st.integers(0, len(lines)))
    if kind == "duplicate" and lines:
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
@given(_counts_files())
def test_load_counts_matches_per_line_reference(text):
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
