import io
import os
import random
import stat
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseg import (
    ArgumentError,
    CorpusIOError,
    ParseError,
    SegmentedLexicon,
    ValidationError,
    Vocabulary,
    bpe_segment,
    bpe_train,
    build_vocabulary,
    load_lexicon,
    load_merges,
    load_vocabulary,
    read_corpus,
    save_lexicon,
    save_merges,
    save_vocabulary,
)
from subseg import textio
from subseg.textio import atomic_text_writer

import reference_loaders

# Deterministic example sequences that leave no example database behind.
_ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# read_corpus / atomic writes


def test_read_corpus_accepts_paths_streams_and_iterables(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b\nc d\n", encoding="utf-8")
    assert list(read_corpus(path)) == ["a b", "c d"]
    assert list(read_corpus(str(path))) == ["a b", "c d"]
    assert list(read_corpus(io.StringIO("a b\nc d\n"))) == ["a b", "c d"]
    assert list(read_corpus(["a b", "c d"])) == ["a b", "c d"]


def test_read_corpus_reports_invalid_utf8_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok line\nbad \xff\xfe line\n")
    with pytest.raises(CorpusIOError, match=r"line 2: invalid UTF-8"):
        list(read_corpus(path))


def _lines_or_error(lines):
    """The lines an iterator yields, then the type and message of the error that ends it."""
    seen = []
    try:
        seen.extend(lines)
    except CorpusIOError as exc:
        seen.append((type(exc), str(exc)))
    return seen


# Bytes that make lines, line ends, valid UTF-8 and every way of breaking it.
_CORPUS_BYTES = st.lists(
    st.sampled_from(
        (b"a", b" ", b"\n", b"\r", b"\r\n", b"\xc3\xa9", b"\xc3", b"\xa9", b"\xff", b"\xe2\x82",
         b"\xed\xa0\x80", b"\xf0\x9f\x98\x80", b"\xef\xbb\xbf", b"\xef\xbb")
    ),
    max_size=40,
).map(b"".join)


@_ORACLE_SETTINGS
@given(data=_CORPUS_BYTES, block=st.integers(1, 16))
def test_read_corpus_decodes_blocks_as_the_per_line_reader(tmp_path_factory, data, block):
    path = tmp_path_factory.getbasetemp() / "blocks.txt"
    path.write_bytes(data)
    expected = _lines_or_error(reference_loaders.decode_lines(io.BytesIO(data)))
    with mock.patch.object(textio, "_READ_BLOCK", block):
        assert _lines_or_error(read_corpus(io.BytesIO(data))) == expected
        assert _lines_or_error(read_corpus(path)) == expected


@_ORACLE_SETTINGS
@given(data=_CORPUS_BYTES, parts=st.integers(1, 5), block=st.integers(1, 16))
def test_line_ranges_read_back_every_line_after_the_first(tmp_path_factory, data, parts, block):
    path = tmp_path_factory.getbasetemp() / "ranges.txt"
    data = b"header\n" + data
    path.write_bytes(data)
    expected = _lines_or_error(reference_loaders.decode_lines(io.BytesIO(data)))[1:]
    with mock.patch.object(textio, "_READ_BLOCK", block):
        ranges = textio._line_ranges(path, parts)
        seen = []
        for start, stop, first_line in ranges:
            seen += _lines_or_error(textio._read_range(path, start, stop, first_line))
            if seen and isinstance(seen[-1], tuple):
                break
    assert seen == expected
    assert 0 <= len(ranges) <= parts
    bounds = [len(b"header\n"), *(stop for _, stop, _ in ranges)]
    assert [start for start, _, _ in ranges] == bounds[:-1]
    assert bounds[-1] == len(data)


def test_read_corpus_yields_a_pipe_line_as_it_arrives():
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader, open(write_fd, "wb", buffering=0) as writer:
        lines = read_corpus(reader)
        writer.write(b"first\nsecond")
        assert next(lines) == "first"
        writer.write(b" half\n")
        assert next(lines) == "second half"


def test_read_corpus_drops_only_a_leading_byte_order_mark():
    data = "\ufeffa\ufeff b\n\ufeffc\n".encode("utf-8")
    for block in (1, 2, 1 << 16):
        # Below three bytes a block splits the mark across reads.
        with mock.patch.object(textio, "_READ_BLOCK", block):
            assert list(read_corpus(io.BytesIO(data))) == ["a\ufeff b", "\ufeffc"]


def test_missing_corpus_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        list(read_corpus(tmp_path / "nope.txt"))


def test_atomic_writer_leaves_no_file_behind_on_error(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_text_writer(path) as handle:
            handle.write("partial")
            raise RuntimeError("boom")
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_writer_replaces_existing_content(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old", encoding="utf-8")
    with atomic_text_writer(path) as handle:
        handle.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_writer_gives_the_file_the_umask_mode(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with atomic_text_writer(tmp_path / "atomic.txt") as handle:
            handle.write("x\n")
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as handle:
            handle.write("x\n")
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode)
    assert mode == 0o666 & ~umask
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)


def test_atomic_writer_errors_name_the_requested_path(tmp_path):
    # The temp file cannot be created, then cannot replace a directory.
    missing_dir = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as excinfo:
        with atomic_text_writer(missing_dir):
            pass
    assert excinfo.value.filename == str(missing_dir)
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError) as excinfo:
        with atomic_text_writer(tmp_path / "taken") as handle:
            handle.write("x")
    assert excinfo.value.filename == str(tmp_path / "taken")
    assert ".tmp" not in str(excinfo.value)
    assert [path.name for path in tmp_path.iterdir()] == ["taken"]


# ---------------------------------------------------------------------------
# token validity


def _check_token_by_character(token, what="token", error=ValidationError):
    """The per-character definition ``textio._check_token`` must keep."""
    if not token:
        raise error(f"empty {what}")
    if any(ch.isspace() for ch in token):
        raise error(f"{what} {token!r} contains whitespace")
    return token


def _outcome(check, token):
    try:
        return check(token, "subword", ArgumentError)
    except ArgumentError as exc:
        return type(exc), str(exc)


_WHITESPACE = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]


def test_check_token_matches_per_character_oracle_on_every_whitespace_code_point():
    cases = [""]
    for ws in _WHITESPACE:
        cases += [ws, f"a{ws}b", f"{ws}ab", f"ab{ws}", ws * 2]
    for token in cases:
        assert _outcome(textio._check_token, token) == _outcome(_check_token_by_character, token)
    rejected = []
    for cp in range(0x110000):
        try:
            textio._check_token(chr(cp))
        except ValidationError:
            rejected.append(chr(cp))
    assert rejected == _WHITESPACE


@_ORACLE_SETTINGS
@given(st.text(alphabet=st.one_of(st.sampled_from(_WHITESPACE), st.characters()), max_size=6))
def test_check_token_matches_per_character_oracle_on_random_text(token):
    assert _outcome(textio._check_token, token) == _outcome(_check_token_by_character, token)


# ---------------------------------------------------------------------------
# Vocabulary


def test_build_vocabulary_hand_counted_example():
    # four tokens in total: a twice, b twice; tie broken lexicographically
    vocab = build_vocabulary(["a b a", "b"], max_size=10)
    assert vocab.tokens == ("a", "b")
    assert vocab.freq("a") == 2 and vocab.freq("b") == 2
    assert vocab.token_id("a") == 0 and vocab.token_id("b") == 1


def test_vocabulary_ids_mark_unknown_tokens_minus_one():
    vocab = build_vocabulary(["a b a", "b c"], max_size=10)
    tokens = ["c", "zz", "a", "", "b", "a"]
    assert vocab.ids(tokens) == [-1 if vocab.get(t) is None else vocab.get(t) for t in tokens]
    assert vocab.ids(tokens) == [2, -1, 0, -1, 1, 0]
    assert vocab.ids([]) == []


def test_build_vocabulary_empty_corpus():
    vocab = build_vocabulary([], max_size=10)
    assert len(vocab) == 0
    assert list(vocab.entries()) == []


def test_build_vocabulary_orders_by_frequency_then_token():
    vocab = build_vocabulary(["c c c b b a a z"], max_size=10)
    assert vocab.tokens == ("c", "a", "b", "z")


def test_build_vocabulary_truncates_to_max_size():
    vocab = build_vocabulary(["c c c b b a a z"], max_size=2)
    assert vocab.tokens == ("c", "a")


def test_build_vocabulary_min_freq_filters_rare_tokens():
    vocab = build_vocabulary(["c c c b b a a z"], max_size=10, min_freq=2)
    assert vocab.tokens == ("c", "a", "b")


def test_build_vocabulary_argument_errors():
    with pytest.raises(ArgumentError, match="max_size"):
        build_vocabulary(["a"], max_size=0)
    with pytest.raises(ArgumentError, match="min_freq"):
        build_vocabulary(["a"], max_size=1, min_freq=0)


def test_build_vocabulary_is_line_order_invariant():
    rng = random.Random(7)
    lines = [f"w{i % 13} w{i % 7} w{i % 3}" for i in range(200)]
    base = build_vocabulary(lines, max_size=50)
    for _ in range(5):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert build_vocabulary(shuffled, max_size=50) == base


def test_vocabulary_rejects_out_of_order_entries():
    with pytest.raises(ValidationError):
        Vocabulary([("a", 1), ("b", 2)])  # frequency increases
    with pytest.raises(ValidationError):
        Vocabulary([("b", 2), ("a", 2)])  # tie not lexicographic
    with pytest.raises(ValidationError, match="duplicate"):
        Vocabulary([("a", 2), ("a", 1)])


def test_vocabulary_save_load_round_trip(tmp_path):
    vocab = build_vocabulary(["c c c b b a a z"], max_size=10)
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab


def test_load_vocabulary_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("a\t3\nb\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2") as excinfo:
        load_vocabulary(path)
    assert excinfo.value.line_number == 2


def test_load_vocabulary_rejects_non_integer_frequency(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("a\tmany\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_vocabulary(path)


@pytest.mark.parametrize(
    "body, line, problem",
    [
        ("a\t3\nb\t2\nc\t5\n", 3, "breaks canonical order"),
        ("a\t3\nb\t2\na\t1\n", 3, "duplicate token 'a'"),
        ("a\t3\nb\t0\n", 2, "invalid frequency 0"),
        ("a\t3\n\n", 2, "expected 'token<TAB>frequency'"),
    ],
)
def test_load_vocabulary_names_the_line_of_a_rejected_row(tmp_path, body, line, problem):
    path = tmp_path / "vocab.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ParseError, match=problem) as excinfo:
        load_vocabulary(path)
    assert excinfo.value.line_number == line


# ---------------------------------------------------------------------------
# SegmentedLexicon


def test_lexicon_round_trip(tmp_path):
    lexicon = SegmentedLexicon({"undoing": ["un", "do", "ing"], "cats": ["cat", "s"]})
    path = tmp_path / "lex.tsv"
    save_lexicon(lexicon, path)
    assert load_lexicon(path) == lexicon


def test_lexicon_row_parses_subword_list(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("undoing\tun do ing\n", encoding="utf-8")
    lexicon = load_lexicon(path)
    assert lexicon["undoing"] == ("un", "do", "ing")


def test_lexicon_concatenation_violation_names_word():
    with pytest.raises(ValidationError, match="undoing"):
        SegmentedLexicon({"undoing": ["un", "do", "in"]})


def test_load_lexicon_concatenation_violation(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("undoing\tun do in\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="undoing"):
        load_lexicon(path)


def test_load_lexicon_malformed_row_has_line_number(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("cats\tcat s\njust-a-word\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_lexicon(path)


def test_load_lexicon_rejects_duplicate_words(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("ab\ta b\nab\tab\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_lexicon(path)


@pytest.mark.parametrize(
    "body, line, problem",
    [
        ("ab\ta b\ncd\tc e\n", 2, "does not concatenate to word 'cd'"),
        ("ab\ta b\ncd\tc\u00a0d\n", 2, "subword 'c.*d' contains whitespace"),
        ("ab\ta b\ncd\tcd\nab\tab\n", 3, "duplicate lexicon entry for word 'ab'"),
        # Subwords are separated by single spaces, so a run of two leaves an empty one.
        ("ab\ta  b\n", 1, "empty subword"),
        ("ab\ta b\n\n", 2, "expected 'word<TAB>sub1 sub2 ...'"),
    ],
)
def test_load_lexicon_names_the_line_of_a_rejected_row(tmp_path, body, line, problem):
    path = tmp_path / "lex.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ParseError, match=problem) as excinfo:
        load_lexicon(path)
    assert excinfo.value.line_number == line


def test_lexicon_rejects_empty_segmentation():
    with pytest.raises(ValidationError, match="empty segmentation"):
        SegmentedLexicon([("ab", [])])


# ---------------------------------------------------------------------------
# BPE bootstrap


def test_bpe_train_no_budget_means_no_merges():
    lines = ["aaab", "aaab", "aaab"]
    assert bpe_train(lines, target_vocab_size=2) == []


def test_bpe_train_first_merge_is_most_frequent_pair():
    # pairs per "aaab": (a,a) twice, (a,b) once; corpus has three copies
    lines = ["aaab", "aaab", "aaab"]
    merges = bpe_train(lines, target_vocab_size=3)
    assert merges == [("a", "a")]


def test_bpe_train_target_below_charset_names_both_counts():
    with pytest.raises(ArgumentError) as excinfo:
        bpe_train(["abcd"], target_vocab_size=3)
    message = str(excinfo.value)
    assert "3" in message and "4" in message


def test_bpe_segment_single_character():
    assert bpe_segment("b", [("a", "a"), ("aa", "a")]) == ["b"]


def test_bpe_segment_applies_merges_leftmost_first():
    assert bpe_segment("aaab", [("a", "a")]) == ["aa", "a", "b"]
    assert bpe_segment("aaab", [("a", "a"), ("aa", "a")]) == ["aaa", "b"]


def test_bpe_segment_unknown_characters_stay_single():
    assert bpe_segment("axb", [("a", "b")]) == ["a", "x", "b"]


def test_bpe_train_deterministic():
    lines = ["banana band bandana", "ban dana nab"] * 3
    assert bpe_train(lines, target_vocab_size=12) == bpe_train(lines, target_vocab_size=12)


def _reference_bpe(lines, target):
    """Straightforward quadratic re-implementation used as an oracle."""
    from collections import Counter

    words = Counter()
    for line in lines:
        words.update(line.split())
    pieces = {w: list(w) for w in words}
    vocab = {ch for w in words for ch in w}
    merges = []
    while len(vocab) < target:
        pairs = Counter()
        for w, symbols in pieces.items():
            for i in range(len(symbols) - 1):
                pairs[(symbols[i], symbols[i + 1])] += words[w]
        if not pairs:
            break
        best_count = max(pairs.values())
        best = min(p for p, c in pairs.items() if c == best_count)
        merges.append(best)
        vocab.add(best[0] + best[1])
        for w, symbols in pieces.items():
            out = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == best:
                    out.append(symbols[i] + symbols[i + 1])
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            pieces[w] = out
    return merges


def test_bpe_train_matches_reference_implementation_on_random_corpora():
    rng = random.Random(4242)
    for _ in range(25):
        lines = [
            "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 12))
        ]
        lines = [" ".join(lines[i::3]) for i in range(3) if lines[i::3]]
        target = rng.randint(3, 10)
        assert bpe_train(lines, target) == _reference_bpe(lines, target)


@st.composite
def _run_heavy_corpora(draw):
    """Lines over 2-3 letters whose words are runs (``aaaa``, ``abab``), each
    type repeated 1-5 times, with a target from the character count to past
    the point where no pair is left."""
    alphabet = draw(st.sampled_from(["ab", "abc", "aab"]))
    unit = st.one_of(
        st.builds(lambda ch, n: ch * n, st.sampled_from(alphabet), st.integers(1, 6)),
        st.builds(lambda pair, n: pair * n, st.sampled_from(["ab", "ba", "ca", "bc"]), st.integers(1, 4)),
    )
    words = draw(st.lists(st.builds("".join, st.lists(unit, min_size=1, max_size=3)), min_size=1, max_size=10))
    repeats = draw(st.lists(st.integers(1, 5), min_size=len(words), max_size=len(words)))
    tokens = [word for word, repeat in zip(words, repeats) for _ in range(repeat)]
    tokens = draw(st.permutations(tokens))
    lines = [" ".join(tokens[i::3]) for i in range(3)]
    charset = {ch for word in words for ch in word}
    target = draw(st.integers(len(charset), len(charset) + 40))
    return lines, target


@_ORACLE_SETTINGS
@given(_run_heavy_corpora())
def test_bpe_train_matches_reference_on_run_heavy_corpora(corpus):
    lines, target = corpus
    assert bpe_train(lines, target) == _reference_bpe(lines, target)


def _reference_segment(word, merges):
    """Apply every rule of ``merges`` in list order, leftmost-first."""
    symbols = list(word)
    for left, right in merges:
        out = []
        i = 0
        while i < len(symbols):
            if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == (left, right):
                out.append(left + right)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    return symbols


_SYMBOLS = st.text(alphabet="abc", min_size=1, max_size=3)


@_ORACLE_SETTINGS
@given(
    trained=_run_heavy_corpora(),
    extra=st.lists(st.tuples(_SYMBOLS, _SYMBOLS), max_size=8),
    data=st.data(),
    words=st.lists(st.text(alphabet="abc", min_size=1, max_size=12), min_size=1, max_size=8),
)
def test_bpe_segment_matches_list_order_oracle(trained, extra, data, words):
    # Learned rules plus duplicates of them and rules whose pair may never occur.
    merges = bpe_train(*trained) + extra
    duplicates = data.draw(st.lists(st.sampled_from(merges), max_size=4)) if merges else []
    merges = data.draw(st.permutations(merges + duplicates))
    for word in words:
        assert bpe_segment(word, merges) == _reference_segment(word, merges)


def test_bpe_segment_keeps_list_order_over_rank_greedy():
    # Rule 0 is absent until rule 1 builds "bc"; list order never goes back to it.
    assert bpe_segment("abc", [("a", "bc"), ("b", "c")]) == ["a", "bc"]
    assert bpe_segment("abc", [("b", "c"), ("a", "bc")]) == ["abc"]
    # A rule applies again at the rank of its duplicate, and only rules after
    # that rank follow: (abc, d) comes before the second (a, bc).
    assert bpe_segment("abcd", [("a", "bc"), ("b", "c"), ("abc", "d"), ("a", "bc")]) == ["abc", "d"]
    assert bpe_segment("aaaa", [("a", "a"), ("b", "b"), ("a", "a")]) == ["aa", "aa"]
    assert bpe_segment("aaaa", [("a", "a"), ("aa", "aa"), ("a", "a")]) == ["aaaa"]
    # A list changed in place is re-read, not served from the last call's ranks.
    merges = [("a", "b")]
    assert bpe_segment("ab", merges) == ["ab"]
    merges[0] = ("b", "c")
    assert bpe_segment("ab", merges) == ["a", "b"]


def test_bpe_train_retokenizes_only_types_containing_the_merge(monkeypatch):
    lines = [
        "stem stems stemming barn barns barning quiz quizzes zoo zoos",
        "stem stems barn quiz lamp lamps lamping tree trees treeing",
    ] * 3
    calls = 0
    apply_merge = textio._apply_merge

    def counting_apply_merge(symbols, pair):
        nonlocal calls
        calls += 1
        return apply_merge(symbols, pair)

    monkeypatch.setattr(textio, "_apply_merge", counting_apply_merge)
    merges = bpe_train(lines, target_vocab_size=40)
    monkeypatch.undo()
    assert merges == _reference_bpe(lines, 40)

    # Replay the merges, counting the types that hold each merged pair.
    pieces = [tuple(word) for word in {w for line in lines for w in line.split()}]
    touched = 0
    for pair in merges:
        touched += sum(pair in zip(symbols, symbols[1:]) for symbols in pieces)
        pieces = [textio._apply_merge(symbols, pair) for symbols in pieces]
    assert calls <= touched
    # A full rescan re-tokenizes every type on every merge.
    assert touched < len(pieces) * len(merges) // 2

    # "abc" still sits in the index under (b, c) when that pair is merged,
    # though (a, b) took its "b"; the merge must skip it, not re-tokenize it.
    lines = ["ab"] * 10 + ["abc"] * 5 + ["bc"] * 3
    calls = 0
    monkeypatch.setattr(textio, "_apply_merge", counting_apply_merge)
    merges = bpe_train(lines, target_vocab_size=6)
    monkeypatch.undo()
    assert merges == [("a", "b"), ("ab", "c"), ("b", "c")] == _reference_bpe(lines, 6)
    # One call per type that holds each merged pair: ab and abc, abc, bc.
    assert calls == 4


def test_bpe_closure_over_training_corpus():
    # segmenting training words never emits a subword outside the induced vocab
    lines = ["banana band bandana", "ban dana nab"]
    merges = bpe_train(lines, target_vocab_size=10)
    induced = {ch for line in lines for ch in line.replace(" ", "")}
    induced.update(left + right for left, right in merges)
    for line in lines:
        for word in line.split():
            for piece in bpe_segment(word, merges):
                assert piece in induced


def test_merges_round_trip(tmp_path):
    merges = bpe_train(["banana band bandana"], target_vocab_size=8)
    path = tmp_path / "merges.txt"
    save_merges(merges, path)
    assert load_merges(path) == merges


def test_load_merges_rejects_malformed_row(tmp_path):
    path = tmp_path / "merges.txt"
    for bad_row in ("nospace", "a\tb c", "a b\u00a0c", "a ", " b", "a b c"):
        path.write_text(f"a b\n{bad_row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2") as excinfo:
            load_merges(path)
        assert excinfo.value.line_number == 2
