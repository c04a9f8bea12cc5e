"""The corpus stages' per-type work against their per-token predecessors.

``init-bpe`` reuses the splits training ends with, ``distill`` splits each
distinct line once, ``segment-embed`` joins each lexicon word's pieces
once, and the bigram searches read their step scores from a table built
per model.  Each must give what ``reference_corpus`` gives: the same lexicon,
model and file bytes, the same first error, and the same segmentation and
score, bit for bit.
"""

import contextlib
import io
import math
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_corpus as reference
from subseg import bigram, textio
from subseg.bigram import START_SYMBOL, BigramModel
from subseg.cli import main
from subseg.errors import ArgumentError, ValidationError

_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# A two-letter alphabet makes overlapping pairs (``aaaa``) and repeats common.
_WORDS = st.text(alphabet="aab", min_size=1, max_size=6)
_GAPS = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def _lines(draw, tokens=_WORDS, max_lines=10):
    """Corpus lines with blank lines, runs of whitespace and repeated lines."""
    lines = []
    for _ in range(draw(st.integers(0, max_lines))):
        if lines and draw(st.booleans()):
            lines.append(draw(st.sampled_from(lines)))
            continue
        words = draw(st.lists(tokens, max_size=5))
        text = ""
        for word in words:
            text += draw(_GAPS) + word
        lines.append(text + draw(st.sampled_from(["", " "])))
    return lines


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _run(argv):
    """``main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _outcome(make):
    try:
        return make()
    except (ArgumentError, ValidationError) as exc:
        return type(exc), str(exc)


# --------------------------------------------------------------------------
# init-bpe: trained splits are the merge rules' splits


def _charset(lines):
    return {ch for line in lines for word in line.split() for ch in word}


def _check_trained_splits(lines, target):
    merges, splits = textio.bpe_train_splits(lines, target)
    assert merges == textio.bpe_train(lines, target)
    words = {word for line in lines for word in line.split()}
    assert set(splits) == {word for word in words if len(word) > 1}
    rules = textio.MergeRules(merges)
    for word, split in splits.items():
        assert list(split) == rules.segment(word) == textio.bpe_segment(word, merges)
    return merges


@given(lines=_lines(), extra=st.integers(0, 12))
@_SETTINGS
def test_trained_splits_equal_merge_rules(lines, extra):
    _check_trained_splits(lines, len(_charset(lines)) + extra)


@pytest.mark.parametrize(
    "lines, target, reached",
    [
        (["aaaa aaa aa a", "aaaaa aaaa"], 3, True),
        (["aaaa aaa aa a", "aaaaa aaaa"], 50, False),
        (["abab ab b a", "ba abba"], 4, True),
        (["abab ab b a", "ba abba"], 50, False),
    ],
)
def test_trained_splits_cover_overlaps_and_both_stopping_rules(lines, target, reached):
    merges = _check_trained_splits(lines, target)
    assert (len(_charset(lines)) + len(merges) == target) is reached


@given(
    lines=_lines(),
    absent=st.lists(st.text(alphabet="abc", min_size=1, max_size=6), max_size=4),
    extra=st.integers(0, 12),
)
@_SETTINGS
def test_init_bpe_lexicon_equals_segmenting_every_word(lines, absent, extra):
    """Vocabulary words include single characters and words absent from the corpus."""
    counts = Counter(word for line in lines for word in line.split())
    for word in absent:
        counts[word] += 1
    vocab = textio.Vocabulary(sorted(counts.items(), key=lambda item: (-item[1], item[0])))
    target = len(_charset(lines)) + extra
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        textio.save_vocabulary(vocab, tmp / "vocab.tsv")
        argv = ["init-bpe", _write(tmp / "corpus.txt", lines), "--vocab", str(tmp / "vocab.tsv"),
                "--target-size", str(target), "--lexicon-out", str(tmp / "bpe.lex")]
        assert _run(argv) == (0, "")
        textio.save_lexicon(reference.init_bpe_lexicon(lines, vocab.tokens, target), tmp / "want.lex")
        assert (tmp / "bpe.lex").read_bytes() == (tmp / "want.lex").read_bytes()


# --------------------------------------------------------------------------
# distill: counted lines give the per-line model

_SUBWORDS = st.sampled_from(["a", "ab", "b", "ba", "bab", "c", "|", START_SYMBOL])


def _save(model, path):
    bigram.save_model(model, path)
    return path.read_bytes()


@given(
    lines=_lines(tokens=_SUBWORDS, max_lines=14),
    separator=st.sampled_from([None, "|"]),
    memo=st.sampled_from([1, 2, 3, 1 << 16]),
)
@_SETTINGS
def test_counted_lines_distill_the_per_line_model(lines, separator, memo):
    """A small memo splits the held lines several times over one corpus."""
    with mock.patch.object(bigram, "_LINE_MEMO_SIZE", memo):
        counts = bigram.count_word_groups(lines, separator)
        got = _outcome(lambda: bigram.distill_counted(bigram.count_word_groups(lines, separator)))
    groups = Counter(map(tuple, bigram.iter_word_groups(lines, separator)))
    assert list(counts.items()) == list(groups.items())
    want = _outcome(lambda: reference.distill_lines(lines, separator))
    if isinstance(want, BigramModel):
        assert got == want
        with tempfile.TemporaryDirectory() as tmp:
            assert _save(got, Path(tmp) / "got.txt") == _save(want, Path(tmp) / "want.txt")
    else:
        assert got == want


def test_counting_holds_a_bounded_number_of_distinct_lines():
    """Distinct lines of one group: only the held lines grow with the input."""
    held = []
    add_groups = bigram._add_groups

    def spy(groups, distinct, separator):
        held.append(len(distinct))
        add_groups(groups, distinct, separator)

    lines = ["a" + " " * k for k in range(1000)]
    with mock.patch.object(bigram, "_LINE_MEMO_SIZE", 16), mock.patch.object(bigram, "_add_groups", spy):
        counts = bigram.count_word_groups(lines)
    assert counts == Counter({("a",): 1000})
    assert len(held) > 1 and max(held) < 2 * 16


def test_counting_rejects_a_bad_separator_before_reading():
    def unread():
        raise AssertionError("a line was read")
        yield

    with pytest.raises(ArgumentError, match="empty separator"):
        bigram.count_word_groups(unread(), separator="")


@pytest.mark.parametrize("separator", [None, "|"])
def test_distill_cli_writes_the_per_line_model(tmp_path, separator):
    lines = ["ab  c", "", "ab c", "  ", "d | ab\tc |", "ab c", "d | ab\tc |", "e"]
    corpus = _write(tmp_path / "train.seg", lines)
    flags = [] if separator is None else ["--separator", separator]
    assert _run(["distill", corpus, *flags, "-o", str(tmp_path / "model.txt")]) == (0, "")
    want = _save(reference.distill_lines(lines, separator), tmp_path / "want.txt")
    assert (tmp_path / "model.txt").read_bytes() == want


def test_distill_cli_reports_the_per_line_error(tmp_path):
    corpus = _write(tmp_path / "train.seg", ["a b", f"c {START_SYMBOL}", "d"])
    code, err = _run(["distill", corpus, "-o", str(tmp_path / "model.txt")])
    with pytest.raises(ValidationError) as excinfo:
        reference.distill_lines(["a b", f"c {START_SYMBOL}", "d"])
    assert (code, err) == (3, f"error: {corpus}: {excinfo.value}\n")


# --------------------------------------------------------------------------
# segment-embed: finished text per word gives the per-token bytes


@st.composite
def _lexicons(draw):
    words = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=6), unique=True, max_size=8))
    entries = {}
    for word in words:
        cuts = sorted(draw(st.sets(st.integers(1, len(word) - 1))) if len(word) > 1 else set())
        bounds = [0, *cuts, len(word)]
        entries[word] = tuple(word[i:j] for i, j in zip(bounds, bounds[1:]))
    return textio.SegmentedLexicon(entries)


@given(
    lexicon=_lexicons(),
    lines=_lines(tokens=st.text(alphabet="abcd", min_size=1, max_size=6)),
    policy=st.sampled_from(textio.OOV_POLICIES),
    word_per_line=st.booleans(),
)
@_SETTINGS
def test_segment_embed_writes_the_per_token_bytes(lexicon, lines, policy, word_per_line):
    want = _outcome(lambda: list(reference.segment_corpus(lines, lexicon, policy)))
    assert _outcome(lambda: list(textio.segment_corpus(lines, lexicon, policy))) == want
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        textio.save_lexicon(lexicon, tmp / "lex.tsv")
        corpus = _write(tmp / "corpus.txt", lines)
        flags = ["--word-per-line"] if word_per_line else []
        argv = ["segment-embed", corpus, "--lexicon", str(tmp / "lex.tsv"), "--oov-policy", policy,
                *flags, "-o", str(tmp / "out.txt")]
        code, err = _run(argv)
        if isinstance(want, tuple):
            assert (code, err) == (3, f"error: {corpus}: {want[1]}\n")
            assert not (tmp / "out.txt").exists()
        else:
            expected = io.StringIO()
            reference.write_segmented(want, expected, word_per_line)
            assert (code, err) == (0, "")
            assert (tmp / "out.txt").read_bytes() == expected.getvalue().encode("utf-8")


# --------------------------------------------------------------------------
# The bigram beam: table scores give the per-call search

_PIECES = st.text(alphabet="abcd", min_size=1, max_size=3)


@given(
    groups=st.lists(st.lists(_PIECES, min_size=1, max_size=4), min_size=1, max_size=12),
    words=st.lists(st.text(alphabet="abcdz", min_size=1, max_size=9), min_size=1, max_size=4),
)
@_SETTINGS
def test_beam_equals_the_per_call_beam_bit_for_bit(groups, words):
    """``z`` is outside every inventory, so a prev outside S is searched too."""
    model = bigram.distill(groups)
    for word in words:
        for beam in range(1, 9):
            got = bigram.beam_segment(word, model, beam_size=beam)
            want = reference.beam_segment(word, model, beam_size=beam)
            assert got == want
            assert got.score.hex() == want.score.hex()


@given(groups=st.lists(st.lists(_PIECES, min_size=1, max_size=4), min_size=1, max_size=12))
@_SETTINGS
def test_every_table_score_is_log_prob(groups):
    """``z`` and ``abcd`` are outside every inventory, as prev and as next."""
    model = bigram.distill(groups)
    steps = model._step_scores()
    rows, other = steps
    assert set(rows) == {START_SYMBOL, *model.subwords}
    assert set(other[0]) == set(model.subwords)
    tokens = [*model.subwords, "z", "abcd"]
    for prev in (START_SYMBOL, *tokens):
        scores, unseen = rows.get(prev, other)
        for nxt in tokens:
            want = reference.log_prob(model, nxt, prev).hex()
            assert scores.get(nxt, unseen).hex() == want
            assert model.log_prob(nxt, prev).hex() == want
    stored = 0
    for prev, (scores, _) in rows.items():
        assert set(scores) == {nxt for nxt in model.subwords if model.bigram_count(prev, nxt)}
        stored += len(scores)
    assert stored == sum(1 for _ in model.bigram_items())
    assert model._step_scores() is steps


def test_the_searches_make_no_log_prob_call():
    model = bigram.distill([["ab", "c"], ["ab"], ["a", "bc"], ["c"]])
    with mock.patch.object(BigramModel, "log_prob") as log_prob:
        for word in ("abcab", "zab", "abzz"):
            bigram.beam_segment(word, model)
            bigram.exact_segment(word, model)
    assert log_prob.call_count == 0


def test_an_empty_inventory_is_a_validation_error():
    model = BigramModel({}, {})
    for search in (bigram.beam_segment, bigram.exact_segment, reference.beam_segment):
        with pytest.raises(ValidationError, match="^model has an empty subword inventory$"):
            search("ab", model)
    with pytest.raises(ValidationError, match="^model has an empty subword inventory$"):
        model.log_prob("ab", START_SYMBOL)
    with pytest.raises(ValidationError, match="^model has an empty subword inventory$"):
        model._step_scores()


def test_segment_with_an_empty_inventory_exits_3(tmp_path):
    model = tmp_path / "model.txt"
    bigram.save_model(BigramModel({}, {}), model)
    corpus = _write(tmp_path / "words.txt", ["ab"])
    code, err = _run(["segment", corpus, "--model", str(model), "-o", str(tmp_path / "out.txt")])
    assert (code, err) == (3, f"error: {corpus}: model has an empty subword inventory\n")
    assert not (tmp_path / "out.txt").exists()


def test_scores_add_up_in_the_same_order():
    """The table changes no sum: the score is the per-call logs added from the left."""
    model = bigram.distill([["ab", "c"], ["ab"], ["a", "bc"], ["c"]])
    for result in (bigram.beam_segment("abcab", model), bigram.exact_segment("abcab", model)):
        total, prev = 0.0, START_SYMBOL
        for piece in result.subwords:
            total += reference.log_prob(model, piece, prev)
            prev = piece
        assert result.score.hex() == total.hex()
        assert math.isfinite(result.score)
