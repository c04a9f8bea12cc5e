import errno
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subseg import (
    ArgumentError,
    CooccurrenceCounts,
    EmbeddingTable,
    NumericalError,
    ParseError,
    SegmentedLexicon,
    ValidationError,
    align_embeddings,
    build_segmentation_matrix,
    compute_subword_embeddings,
    default_ridge,
    load_embeddings,
    refine,
    save_embeddings,
)
from subseg import cooccur, subspace
from subseg.subspace import _RidgeFactor

from reference_solve import (
    lexicon_incidence,
    matrix_rows,
    reference_segmentation_matrix,
    right_inverse_solve,
    segmentation_matrix,
    smoothed_log_target,
)


# Row-relative agreement required between the sparse solve and the dense
# oracle right_inverse_solve(smoothed_log_target(...)), which round
# differently.  Over 1000 random cases per smoothing value the worst seen was
# 5e-13, at dim 1 where the single output coordinate nearly cancels.
ORACLE_TOLERANCE = 1e-12


def _row_relative_error(solved, oracle):
    """Largest ||solved[s] - oracle[s]|| / ||oracle[s]|| over rows s."""
    differences = np.linalg.norm(solved - oracle, axis=1)
    scales = np.maximum(np.linalg.norm(oracle, axis=1), np.finfo(float).tiny)
    return float((differences / scales).max())


def _random_table(rng, tokens, dim):
    return EmbeddingTable(tokens, rng.normal(size=(len(tokens), dim)))


def _counts_from_dense(dense, window=5):
    dense = np.asarray(dense)
    entries = []
    for i in range(dense.shape[0]):
        for j in range(i, dense.shape[1]):
            if dense[i, j]:
                entries.append((i, j, int(dense[i, j])))
    return CooccurrenceCounts(vocab_size=dense.shape[0], window=window, counts=entries)


# ---------------------------------------------------------------------------
# EmbeddingTable and its file format


def test_embedding_table_basics():
    table = EmbeddingTable(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert table.dim == 2
    assert table.tokens == ("a", "b")
    assert np.array_equal(table.vector("b"), [3.0, 4.0])
    assert table.vectors.flags.writeable is False


def test_embedding_table_validation():
    with pytest.raises(ValidationError, match="2-dimensional"):
        EmbeddingTable(["a"], np.zeros(3))
    with pytest.raises(ValidationError):
        EmbeddingTable(["a", "b"], np.zeros((1, 3)))
    with pytest.raises(ValidationError, match="non-finite"):
        EmbeddingTable(["a"], np.array([[np.inf, 0.0]]))
    with pytest.raises(ValidationError, match="duplicate"):
        EmbeddingTable(["a", "a"], np.zeros((2, 2)))


def test_program_built_tables_take_their_arrays_over_uncopied(tmp_path, monkeypatch):
    given = np.array([[1.0, 2.0], [3.0, 4.0]])
    table = EmbeddingTable(["a", "b"], given)
    given[0, 0] = 9.0
    assert table.vector("a")[0] == 1.0  # the public constructor copies
    owned = np.array([[1.0, 2.0], [3.0, 4.0]])
    adopted = EmbeddingTable._owning(["a", "b"], owned)
    assert adopted.vectors is owned and not owned.flags.writeable
    with pytest.raises(ValidationError, match="duplicate"):
        EmbeddingTable._owning(["a", "a"], np.zeros((2, 2)))

    # The loader, the alignment and the solve never take the copying path.
    save_embeddings(adopted, tmp_path / "e.txt")
    counts = _counts_from_dense([[2, 1], [1, 3]])
    matrix = segmentation_matrix(2, [(0,), (0, 1)])

    def copying_constructor(*args):
        raise AssertionError("EmbeddingTable copied an array the program built")

    monkeypatch.setattr(EmbeddingTable, "__init__", copying_constructor)
    loaded = load_embeddings(tmp_path / "e.txt")
    aligned = align_embeddings(loaded, ["b", "a"])
    solved = compute_subword_embeddings(("s", "t"), matrix, counts, aligned)
    assert aligned.vector("a").tolist() == [1.0, 2.0] and solved.dim == 2


def test_embeddings_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    table = _random_table(rng, ["alpha", "beta", "gamma"], 5)
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert loaded.tokens == table.tokens
    assert np.array_equal(loaded.vectors, table.vectors)  # repr() round-trip


def test_save_embeddings_writes_repr_of_each_float(tmp_path):
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(4, 6)) * 10.0 ** rng.integers(-300, 300, size=(4, 6))
    vectors[0, :4] = [-0.0, 5e-324, 1e16, 0.1]
    table = EmbeddingTable(["a", "b", "c", "d"], vectors)
    save_embeddings(table, tmp_path / "emb.txt")
    expected = "4 6\n" + "".join(
        f"{token} {' '.join(repr(float(v)) for v in row)}\n"
        for token, row in zip(table.tokens, table.vectors)
    )
    assert (tmp_path / "emb.txt").read_text(encoding="utf-8") == expected


def test_load_embeddings_parse_errors(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\na 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="declared 2"):
        load_embeddings(path)
    path.write_text("not-a-header\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_embeddings(path)
    path.write_text("1 2\na 1.0 oops\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_embeddings(path)
    path.write_text("1 2\na 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "text, line, problem",
    [
        ("3 2\na 1.0 2.0\nb 3.0 4.0\na 5.0 6.0\n", 4, "duplicate embedding token 'a'"),
        ("2 2\na 1.0 2.0\nb nan 4.0\n", 3, "non-finite vector for token 'b'"),
        ("2 2\na 1.0 2.0\n 3.0 4.0\n", 3, "empty embedding token"),
    ],
)
def test_load_embeddings_names_the_line_of_a_rejected_row(tmp_path, text, line, problem):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=problem) as excinfo:
        load_embeddings(path)
    assert excinfo.value.line_number == line


@pytest.mark.parametrize(
    "value, parsed",
    [("1_0", 10.0), ("\uff11", 1.0), ("\u0661", 1.0), ("+5", 5.0), (".5", 0.5), ("\t2", 2.0), ("-0.0", -0.0)],
)
def test_load_embeddings_reads_values_as_float_does(tmp_path, value, parsed):
    # np.loadtxt rejects the first three; float() decides, row by row.
    path = tmp_path / "emb.txt"
    path.write_text(f"2 2\na 1.0 2.0\nb 3.0 {value}\n", encoding="utf-8")
    vectors = load_embeddings(path).vectors
    assert vectors.tolist() == [[1.0, 2.0], [3.0, parsed]]
    assert np.signbit(vectors[1, 1]) == np.signbit(parsed)


@pytest.mark.parametrize("value", ["\x1c1", "1\x1f", "1\r2", "0x10", "#1", ""])
def test_load_embeddings_names_the_line_of_a_value_float_rejects(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"3 2\na 1.0 2.0\nb 3.0 {value}\nc 5.0 6.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-numeric vector component") as excinfo:
        load_embeddings(path)
    assert excinfo.value.line_number == 3


def test_load_embeddings_reports_the_first_bad_line_across_blocks(tmp_path, monkeypatch):
    # A value error on line 3 comes before the value-count error of the
    # token-only line 5, though line 5 is rejected while the rows before it
    # are still waiting to be parsed.
    monkeypatch.setattr(cooccur, "_PARSE_BLOCK_CHARS", 1 << 20)
    path = tmp_path / "emb.txt"
    path.write_text("4 1\na 1.0\nb x\nc 3.0\nd\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-numeric") as excinfo:
        load_embeddings(path)
    assert excinfo.value.line_number == 3
    # With one row per block, a later block still names its own line.
    monkeypatch.setattr(cooccur, "_PARSE_BLOCK_CHARS", 1)
    path.write_text("3 1\na 1.0\nb 2.0\nc x\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-numeric") as excinfo:
        load_embeddings(path)
    assert excinfo.value.line_number == 4


def test_load_embeddings_rejects_impossible_row_counts(tmp_path):
    path = tmp_path / "emb.txt"
    # A negative count, and counts or dimensions no file this small can hold:
    # each is refused at the header, before a row buffer is allocated.
    for header in ("-1 2", "100000000000 300", "2 100000000000", "3 2"):
        path.write_text(f"{header}\na 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1") as excinfo:
            load_embeddings(path)
        assert excinfo.value.line_number == 1


def test_load_embeddings_from_a_pipe_grows_its_buffer(tmp_path):
    rng = np.random.default_rng(8)
    table = _random_table(rng, [f"w{i}" for i in range(2500)], 3)
    source = tmp_path / "emb.txt"
    save_embeddings(table, source)
    fifo = tmp_path / "emb.fifo"

    def load_through_fifo(text):
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"})
        writer.start()
        try:
            return load_embeddings(fifo)
        finally:
            writer.join(timeout=30)
            assert not writer.is_alive()
            fifo.unlink()

    loaded = load_through_fifo(source.read_text(encoding="utf-8"))
    assert loaded.tokens == table.tokens
    assert np.array_equal(loaded.vectors, table.vectors)
    # A pipe's size is unknown up front; an overstated count fails at the end.
    with pytest.raises(ValidationError, match="declared 100000000000 rows but found 1"):
        load_through_fifo("100000000000 3\na 1.0 2.0 3.0\n")


@pytest.fixture
def split_over(monkeypatch):
    """``split_over(cpus)`` splits embedding I/O over up to ``cpus`` processes, whatever
    the table size; it returns the pids of the workers forked from then on."""
    forked = []
    fork = subspace._fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def split(cpus):
        monkeypatch.setattr(subspace, "_MIN_VALUES_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(subspace, "_fork", recording_fork)
        return forked

    return split


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("rows", [0, 1, 2, 57])
def test_saving_over_several_processes_writes_the_same_bytes(tmp_path, split_over, rows):
    rng = np.random.default_rng(rows)
    table = _random_table(rng, [f"w{i}" for i in range(rows)], 3)
    save_embeddings(table, tmp_path / "one.txt")
    expected = (tmp_path / "one.txt").read_bytes()
    forked = split_over(4)
    for cpus in (1, 2, 3, 4):
        split_over(cpus)
        save_embeddings(table, tmp_path / f"split{cpus}.txt")
        assert (tmp_path / f"split{cpus}.txt").read_bytes() == expected
    assert len(forked) == (0 if rows < 2 else 1 + min(rows, 3) - 1 + min(rows, 4) - 1)
    assert load_embeddings(tmp_path / "split4.txt") == table
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.txt", *(f"split{c}.txt" for c in (1, 2, 3, 4))]
    _assert_reaped(forked)


def test_loading_over_several_processes_names_a_bad_row_in_any_range(tmp_path, split_over):
    rng = np.random.default_rng(5)
    table = _random_table(rng, [f"w{i}" for i in range(30)], 2)
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    forked = split_over(3)
    assert load_embeddings(path) == table
    for line in (2, 12, 22, 31):  # one bad row in the first, middle and last range
        path.write_text("".join(lines[: line - 1] + ["bad 1.0 x\n"] + lines[line:]), encoding="utf-8")
        with pytest.raises(ParseError, match=f"line {line}: non-numeric vector component"):
            load_embeddings(path)
    path.write_text("".join(lines + ["extra 1.0 2.0\n"]), encoding="utf-8")
    with pytest.raises(ParseError, match="line 32: more than the declared 30 rows"):
        load_embeddings(path)
    assert len(forked) == 6 * 3  # a worker per range, the first included
    _assert_reaped(forked)


def test_a_started_load_is_parsed_by_workers_until_joined(tmp_path, split_over):
    rng = np.random.default_rng(9)
    table = _random_table(rng, [f"w{i}" for i in range(30)], 2)
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    forked = split_over(3)
    with subspace.start_loading_embeddings(path) as pending:
        assert len(forked) == 3  # every range, the first included
        assert subspace.join_embeddings(pending) == table
    _assert_reaped(forked)
    # A load that is never joined has its workers killed and reaped.
    forked.clear()
    with subspace.start_loading_embeddings(path):
        assert len(forked) == 3
    _assert_reaped(forked)


def test_a_started_load_raises_its_errors_at_the_join(tmp_path, split_over):
    forked = split_over(2)
    missing = subspace.start_loading_embeddings(tmp_path / "missing.txt")
    bad_header = tmp_path / "bad.txt"
    bad_header.write_text("2 x\n", encoding="utf-8")
    with subspace.start_loading_embeddings(bad_header) as pending:
        with pytest.raises(FileNotFoundError):
            subspace.join_embeddings(missing)
        with pytest.raises(ParseError, match="line 1: non-integer header field"):
            subspace.join_embeddings(pending)
    assert forked == []


def test_a_failing_worker_leaves_no_file_part_or_child(tmp_path, split_over, monkeypatch):
    rng = np.random.default_rng(6)
    table = _random_table(rng, [f"w{i}" for i in range(20)], 4)
    parent = os.getpid()
    write_rows = subspace._write_rows

    def full_disk_in_workers(handle, tokens, vectors):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_rows(handle, tokens, vectors)

    def dying_worker(handle, tokens, vectors):
        if os.getpid() != parent:
            os._exit(3)
        write_rows(handle, tokens, vectors)

    forked = split_over(3)
    monkeypatch.setattr(subspace, "_write_rows", full_disk_in_workers)
    with pytest.raises(OSError, match="No space left on device"):
        save_embeddings(table, tmp_path / "emb.txt")
    monkeypatch.setattr(subspace, "_write_rows", dying_worker)
    with pytest.raises(ChildProcessError, match="before sending its result"):
        save_embeddings(table, tmp_path / "emb.txt")
    assert list(tmp_path.iterdir()) == []
    assert len(forked) == 4
    _assert_reaped(forked)


def test_a_callers_finally_runs_once_when_a_worker_raises(tmp_path, split_over, monkeypatch):
    rng = np.random.default_rng(7)
    table = _random_table(rng, [f"w{i}" for i in range(20)], 4)
    parent = os.getpid()
    write_rows = subspace._write_rows

    def failing_in_workers(handle, tokens, vectors):
        if os.getpid() != parent:
            raise RuntimeError("worker failed")
        write_rows(handle, tokens, vectors)

    split_over(2)
    monkeypatch.setattr(subspace, "_write_rows", failing_in_workers)
    log = tmp_path / "finally.log"
    with pytest.raises(RuntimeError, match="worker failed"):
        try:
            save_embeddings(table, tmp_path / "emb.txt")
        finally:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
    assert log.read_text(encoding="utf-8").split() == [str(parent)]


def test_small_tables_and_threaded_callers_use_one_process(tmp_path, monkeypatch, split_over):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    minimum = subspace._MIN_VALUES_PER_WORKER
    assert subspace._worker_count(minimum - 1) == 1
    assert subspace._worker_count(2 * minimum - 1) == 1
    assert subspace._worker_count(2 * minimum) == 2
    assert subspace._worker_count(100 * minimum) == 8
    assert subspace._may_fork()
    table = _random_table(np.random.default_rng(8), [f"w{i}" for i in range(20)], 4)
    started, release = threading.Event(), threading.Event()
    other = threading.Thread(target=lambda: (started.set(), release.wait(30)))
    other.start()
    try:
        started.wait(30)
        assert not subspace._may_fork()
        # Even tables worth a worker per CPU are saved and loaded in this process.
        forked = split_over(8)
        save_embeddings(table, tmp_path / "emb.txt")
        assert load_embeddings(tmp_path / "emb.txt") == table
        assert forked == []
    finally:
        release.set()
        other.join(30)


def test_align_embeddings_reorders_and_reports_missing():
    table = EmbeddingTable(["b", "a"], np.array([[1.0], [2.0]]))
    assert align_embeddings(table, ["b", "a"]) is table
    aligned = align_embeddings(table, ["a", "b"])
    assert aligned.tokens == ("a", "b")
    assert aligned.vector("a")[0] == 2.0
    with pytest.raises(ValidationError, match="missing"):
        align_embeddings(table, ["a", "zz"])


# ---------------------------------------------------------------------------
# Segmentation matrix construction


def test_lexicon_mode_with_char_augmentation():
    vocab_words = ["ab"]
    lexicon = SegmentedLexicon({"ab": ["a", "b"]})
    subwords, matrix = build_segmentation_matrix(vocab_words, lexicon=lexicon)
    assert set(subwords) >= {"a", "b"}
    rows = matrix_rows(matrix)
    assert rows[subwords.index("a")] == (0,) and rows[subwords.index("b")] == (0,)


def test_enumeration_mode_lists_all_substrings():
    subwords, matrix = build_segmentation_matrix(["ab"], max_substring_len=2)
    assert subwords == ("a", "ab", "b")
    assert sum(len(row) for row in matrix_rows(matrix)) == 3


def test_incidence_is_binary_not_a_count():
    # "a" occurs twice inside "aba" but the row marks the word once
    lexicon = SegmentedLexicon({"aba": ["ab", "a"]})
    subwords, matrix = build_segmentation_matrix(["aba"], lexicon=lexicon)
    assert matrix_rows(matrix)[subwords.index("a")] == (0,)
    dense = matrix.to_csr().toarray()
    assert set(np.unique(dense)) <= {0.0, 1.0}


def test_lexicon_word_missing_from_vocab_is_named():
    lexicon = SegmentedLexicon({"cd": ["c", "d"]})
    with pytest.raises(ValidationError, match="'cd'"):
        build_segmentation_matrix(["ab"], lexicon=lexicon)


def test_exactly_one_mode_must_be_selected():
    with pytest.raises(ArgumentError):
        build_segmentation_matrix(["ab"])
    with pytest.raises(ArgumentError):
        build_segmentation_matrix(
            ["ab"], lexicon=SegmentedLexicon({"ab": ["ab"]}), max_substring_len=2
        )


def test_char_augmentation_guarantees_full_cover():
    lexicon = SegmentedLexicon({"abc": ["abc"]})
    subwords, _ = build_segmentation_matrix(["abc", "xyz"], lexicon=lexicon)
    # every character of every vocab word is a subword, even for words
    # absent from the lexicon
    assert {"a", "b", "c", "x", "y", "z"} <= set(subwords)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    words=st.lists(st.text("abc\U0001d518", min_size=1, max_size=6), max_size=8, unique=True),
    cuts=st.lists(st.sets(st.integers(1, 5)), max_size=8),
    kept=st.lists(st.booleans(), max_size=8),
    max_substring_len=st.integers(1, 4),
)
# "abab" splits into a piece it repeats, "\U0001d518a" (outside the BMP) is
# missing from the lexicon, and substrings are single characters.
@example(words=["abab", "\U0001d518a", "c"], cuts=[{2}, set(), set()], kept=[True, False, True], max_substring_len=1)
@example(words=["ab", "ba"], cuts=[], kept=[], max_substring_len=2)  # an empty lexicon
def test_segmentation_matrix_equals_the_dict_of_sets_reference(words, cuts, kept, max_substring_len):
    """Lexicon words are those marked in ``kept``, each cut at its ``cuts`` inside the word."""
    entries = {}
    for word, keep, cut in zip(words, kept, cuts):
        ends = sorted(end for end in cut if end < len(word))
        if keep:
            entries[word] = [word[start:end] for start, end in zip([0, *ends], [*ends, len(word)])]
    lexicon = SegmentedLexicon(entries)
    for mode in ({"lexicon": lexicon}, {"max_substring_len": max_substring_len}):
        subwords, matrix = build_segmentation_matrix(words, **mode)
        expected_subwords, expected = reference_segmentation_matrix(words, **mode)
        assert subwords == expected_subwords
        assert np.array_equal(matrix.to_csr().toarray(), expected.to_csr().toarray())


def test_segmentation_matrix_validation():
    # keys row * 2 + word_id: a row without keys, keys out of order, a key past the last row
    with pytest.raises(ValidationError, match="row 1 is empty"):
        segmentation_matrix(2, [(0,), (), (1,)])
    with pytest.raises(ValidationError, match="row 0 is not sorted"):
        segmentation_matrix(2, [(1, 0)])
    with pytest.raises(ValidationError, match="row 2 is out of range"):
        segmentation_matrix(2, [(0, 5)])


# ---------------------------------------------------------------------------
# Smoothed log targets


def test_log_target_single_word_identity():
    counts = _counts_from_dense([[4]])
    matrix = segmentation_matrix(1, [(0,)])
    target = smoothed_log_target(matrix, counts, smoothing=0.0)
    assert target.shape == (1, 1)
    assert target[0, 0] == 0.0  # log(4/4)


def test_log_target_hand_evaluated_rows():
    counts = _counts_from_dense([[3, 1], [1, 2]])
    row_for_word0 = segmentation_matrix(2, [(0,)])
    target = smoothed_log_target(row_for_word0, counts, smoothing=0.0)
    assert target[0, 0] == pytest.approx(math.log(0.75), abs=1e-15)
    assert target[0, 1] == pytest.approx(math.log(0.25), abs=1e-15)


def test_log_target_smoothing_fills_zeros():
    counts = _counts_from_dense([[3, 0], [0, 1]])
    row_for_word0 = segmentation_matrix(2, [(0,)])
    target = smoothed_log_target(row_for_word0, counts, smoothing=1.0)
    assert target[0, 0] == pytest.approx(math.log(4 / 5), abs=1e-15)
    assert target[0, 1] == pytest.approx(math.log(1 / 5), abs=1e-15)


def test_log_target_zero_entry_without_smoothing_names_cell():
    counts = _counts_from_dense([[3, 0], [0, 1]])
    row_for_word0 = segmentation_matrix(2, [(0,)])
    table = EmbeddingTable(["a", "b"], np.eye(2))
    with pytest.raises(NumericalError, match=r"subword 'a' and word 'b' is zero"):
        compute_subword_embeddings(
            ("a",), row_for_word0, counts, table, smoothing=0.0
        )


def test_log_target_rows_exponentiate_to_unit_sums():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        dense = rng.integers(0, 6, size=(n, n))
        dense = dense + dense.T  # symmetric, possibly with zeros
        counts = _counts_from_dense(dense)
        subwords, matrix = build_segmentation_matrix(
            [f"w{i}" for i in range(n)], max_substring_len=2
        )
        target = smoothed_log_target(matrix, counts, smoothing=0.1)
        sums = np.exp(target).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)


def test_log_target_rejects_negative_smoothing():
    counts = _counts_from_dense([[1]])
    table = EmbeddingTable(["a"], np.eye(1))
    with pytest.raises(ArgumentError, match="smoothing"):
        compute_subword_embeddings(
            ("a",), segmentation_matrix(1, [(0,)]), counts, table, smoothing=-0.5
        )


def test_log_target_checks_dimension_agreement():
    counts = _counts_from_dense([[1]])
    table = EmbeddingTable(["a", "b"], np.eye(2))
    with pytest.raises(ValidationError, match="word coverage mismatch"):
        compute_subword_embeddings(
            ("a",), segmentation_matrix(2, [(0, 1)]), counts, table
        )


# ---------------------------------------------------------------------------
# Right-inverse solving


def test_square_invertible_solve_reproduces_targets():
    rng = np.random.default_rng(21)
    n = 6
    rows = rng.normal(size=(n, n)) + np.eye(n) * n  # well conditioned
    table = EmbeddingTable([f"w{i}" for i in range(n)], rows)
    targets = rng.normal(size=(4, n))
    solved = right_inverse_solve(targets, table, ridge=0.0)
    residual = np.abs(solved @ rows.T - targets).max()
    assert residual <= 1e-8 * max(1.0, np.abs(targets).max())


def test_solver_matches_dense_normal_equations_oracle():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n_words = int(rng.integers(5, 51))
        dim = int(rng.integers(2, min(n_words, 20) + 1))
        rows = rng.normal(size=(n_words, dim))
        table = EmbeddingTable([f"w{i}" for i in range(n_words)], rows)
        targets = rng.normal(size=(int(rng.integers(1, 8)), n_words))
        ridge = float(rng.choice([0.0, 1e-6, 1e-2, 1.0]))
        solved = right_inverse_solve(targets, table, ridge=ridge)
        gram = rows.T @ rows + ridge * np.eye(dim)
        oracle = np.linalg.solve(gram, (targets @ rows).T).T
        denominator = max(np.linalg.norm(oracle), 1.0)
        assert np.linalg.norm(solved - oracle) <= 1e-6 * denominator


def test_ridge_shrinks_solution_norm():
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(12, 6))
    table = EmbeddingTable([f"w{i}" for i in range(12)], rows)
    targets = rng.normal(size=(5, 12))
    loose = right_inverse_solve(targets, table, ridge=0.0)
    tight = right_inverse_solve(targets, table, ridge=1.0)
    assert np.linalg.norm(tight) <= np.linalg.norm(loose)


def test_solver_rejects_subwords_no_table_can_hold():
    # The returned table is the one check of the subword tokens.
    table = EmbeddingTable(["a", "b"], np.eye(2))
    counts = _counts_from_dense([[1, 1], [1, 1]])
    matrix = segmentation_matrix(2, [(0,), (1,)])
    for subwords, problem in (
        (("s", ""), "empty embedding token"),
        (("s", "t u"), "embedding token 't u' contains whitespace"),
        (("s", "s"), "duplicate embedding token 's'"),
    ):
        with pytest.raises(ValidationError, match=re.escape(problem)):
            compute_subword_embeddings(subwords, matrix, counts, table)


def test_rank_deficient_without_ridge_advises_ridge():
    rows = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
    table = EmbeddingTable(["a", "b", "c"], rows)
    counts = _counts_from_dense([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    subwords, matrix = ("a",), segmentation_matrix(3, [(0,)])
    with pytest.raises(NumericalError, match="ridge"):
        compute_subword_embeddings(subwords, matrix, counts, table, ridge=0.0)
    # a positive ridge makes the same system solvable
    solved = compute_subword_embeddings(subwords, matrix, counts, table, ridge=1e-3)
    assert np.isfinite(solved.vectors).all()


def test_solver_rejects_an_output_matrix_wider_than_its_words():
    # Two words cannot determine three coordinates, whatever the ridge.
    table = EmbeddingTable(["a", "b"], np.random.default_rng(0).normal(size=(2, 3)))
    counts = _counts_from_dense([[1, 1], [1, 1]])
    subwords, matrix = ("a",), segmentation_matrix(2, [(0,)])
    for ridge in (None, 0.0, 1.0):
        with pytest.raises(ArgumentError, match="embedding dimension 3 exceeds vocabulary size 2"):
            compute_subword_embeddings(subwords, matrix, counts, table, ridge=ridge)
        # refine refuses it before its first pass, even with nothing to solve.
        with pytest.raises(ArgumentError, match="embedding dimension 3 exceeds vocabulary size 2"):
            refine(SegmentedLexicon({}), table, counts, table, ridge=ridge)


def test_solver_rejects_negative_ridge():
    table = EmbeddingTable(["a", "b"], np.eye(2))
    counts = _counts_from_dense([[1, 1], [1, 1]])
    subwords, matrix = ("a",), segmentation_matrix(2, [(0,)])
    with pytest.raises(ArgumentError, match="ridge"):
        compute_subword_embeddings(subwords, matrix, counts, table, ridge=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_ridge_and_smoothing_are_argument_errors(value):
    table = EmbeddingTable(["a", "b"], np.eye(2))
    counts = _counts_from_dense([[1, 1], [1, 1]])
    subwords, matrix = ("a",), segmentation_matrix(2, [(0,)])
    with pytest.raises(ArgumentError, match="ridge must be finite"):
        compute_subword_embeddings(subwords, matrix, counts, table, ridge=value)
    with pytest.raises(ArgumentError, match="smoothing must be finite"):
        compute_subword_embeddings(subwords, matrix, counts, table, smoothing=value)


# The Gram-matrix projector has a normwise relative error of about
# dim * cond(G) * eps (eps = 2^-52), G = W Wᵀ + ridge I; the tests allow
# this factor times that.  Over 1,200 random, near-square and ill-conditioned
# cases (dim 1-39, ridge 0 to 1) the worst error seen was 5.9 * cond(G) * eps,
# at dim 1.
PROJECTOR_TOLERANCE_FACTOR = 16


def _qr_projector(rows, ridge):
    """Oracle P = Q R^{-T} from the QR factorization of Wᵀ stacked over sqrt(ridge) I.

    Its error grows with sqrt(cond(G)), not cond(G), so it bounds the
    Gram-matrix projector's error from an independent algorithm.
    """
    from scipy.linalg import solve_triangular

    n_rows, dim = rows.shape
    stacked = np.vstack([rows, math.sqrt(ridge) * np.eye(dim)]) if ridge else rows
    q, r = np.linalg.qr(stacked)
    return solve_triangular(r, q[:n_rows].T, lower=False).T


def _output_rows(kind, rng):
    if kind == "random":
        return rng.standard_normal((40, 6))
    if kind == "square":
        return rng.standard_normal((6, 6))
    if kind == "one-more-row":
        return rng.standard_normal((7, 6))
    if kind == "ill-conditioned":  # singular values 1 down to 1e-6: cond(G) = 1e12 at ridge 0
        u, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        return (u * np.logspace(0, -6, 6)) @ v.T
    assert kind == "dim-300"
    return rng.standard_normal((320, 300))


@pytest.mark.parametrize("ridge", [0.0, 1e-6, 1e-2, 1.0])
@pytest.mark.parametrize("kind", ["random", "square", "one-more-row", "ill-conditioned", "dim-300"])
def test_ridge_projector_matches_the_qr_oracle_within_its_conditioning(kind, ridge):
    rows = _output_rows(kind, np.random.default_rng(12))
    dim = rows.shape[1]
    condition = np.linalg.cond(rows.T @ rows + ridge * np.eye(dim))
    projector = _RidgeFactor(rows, ridge).projector
    oracle = _qr_projector(rows, ridge)
    assert projector.flags.c_contiguous
    error = np.linalg.norm(projector - oracle) / np.linalg.norm(oracle)
    assert error <= PROJECTOR_TOLERANCE_FACTOR * dim * condition * np.finfo(float).eps


def test_ridge_projector_refuses_a_gram_matrix_singular_at_working_precision():
    # G = rowsᵀ rows = diag(1, 1, 1, last²) exactly; the refusal threshold
    # is lambda_min <= dim * eps * lambda_max = 4 * 2^-52 = 2^-50.
    def rows(last):
        return np.vstack([np.diag([1.0, 1.0, 1.0, last]), np.zeros((2, 4))])

    with pytest.raises(NumericalError, match="pass a positive ridge"):
        _RidgeFactor(rows(2.0**-25), 0.0)  # lambda_min is exactly 2^-50
    last = np.nextafter(2.0**-25, 1.0)  # lambda_min is 2^-50 + 2 ulp
    projector = _RidgeFactor(rows(last), 0.0).projector
    assert np.allclose(projector, rows(1 / last), rtol=1e-15, atol=0)  # P = rows G^{-1}
    # the same rule holds with a ridge too small to lift lambda_min past it
    rank_one = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(NumericalError, match="ridge 1e-30 is too small"):
        _RidgeFactor(rank_one, 1e-30)
    assert np.isfinite(_RidgeFactor(rank_one, 1e-6).projector).all()
    with pytest.raises(NumericalError, match="overflows"):
        _RidgeFactor(np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]]), 0.0)


def test_default_ridge_formula():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    table = EmbeddingTable(["a", "b"], rows)
    # 1e-6 * trace(W Wᵀ) / d, with trace(W Wᵀ) = sum of squared entries
    assert default_ridge(table) == pytest.approx(1e-6 * 30.0 / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# compute_subword_embeddings


def _word_identity_setup(rng, n):
    words = [f"w{i}" for i in range(n)]
    dense = rng.integers(1, 9, size=(n, n))
    dense = dense + dense.T
    counts = _counts_from_dense(dense)
    rows = rng.normal(size=(n, n)) + np.eye(n) * n
    table = EmbeddingTable(words, rows)
    subwords = tuple(words)
    matrix = segmentation_matrix(n, [(i,) for i in range(n)])
    return words, counts, table, subwords, matrix


def test_word_identity_reduces_to_word_solve():
    rng = np.random.default_rng(31)
    _, counts, table, subwords, matrix = _word_identity_setup(rng, 5)
    ridge = default_ridge(table)
    combined = compute_subword_embeddings(subwords, matrix, counts, table, smoothing=0.1)
    direct = right_inverse_solve(
        smoothed_log_target(matrix, counts, smoothing=0.1), table, ridge=ridge
    )
    assert np.abs(combined.vectors - direct).max() <= 1e-10


def test_single_word_subword_solves_that_words_row():
    rng = np.random.default_rng(32)
    words = ["ab", "cd"]
    dense = rng.integers(1, 9, size=(2, 2))
    dense = dense + dense.T
    counts = _counts_from_dense(dense)
    rows = rng.normal(size=(2, 2)) + np.eye(2) * 2
    table = EmbeddingTable(words, rows)
    lexicon = SegmentedLexicon({"ab": ["ab"], "cd": ["cd"]})
    subwords, matrix = lexicon_incidence(words, lexicon)
    ridge = default_ridge(table)
    result = compute_subword_embeddings(subwords, matrix, counts, table)
    # "ab" pools only word "ab", so its row solves exactly that word's target
    word_target = smoothed_log_target(segmentation_matrix(2, [(0,)]), counts)
    oracle = right_inverse_solve(word_target, table, ridge=ridge)
    assert _row_relative_error(result.vectors[:1], oracle) <= ORACLE_TOLERANCE


def _wide_setup(rng, n_words, dim):
    """Random counts and output rows, and 24 subword rows of n_words / 28 to n_words / 5 words."""
    dense = rng.integers(1, 9, size=(n_words, n_words))
    counts = _counts_from_dense(dense + dense.T)
    table = EmbeddingTable([f"w{i}" for i in range(n_words)], rng.normal(size=(n_words, dim)))
    rows = [tuple(range(i, n_words, 5 + i)) for i in range(24)]
    subwords = tuple(f"s{i}" for i in range(len(rows)))
    return counts, table, subwords, segmentation_matrix(n_words, rows)


def test_result_is_independent_of_batch_partitioning():
    # solving each incidence row on its own reproduces that row of the full solve
    rng = np.random.default_rng(33)
    _, *square = _word_identity_setup(rng, 7)
    for counts, table, subwords, matrix in (square, _wide_setup(rng, 320, 300)):
        all_at_once = compute_subword_embeddings(subwords, matrix, counts, table)
        for position, token in enumerate(subwords):
            alone = compute_subword_embeddings(
                (token,),
                segmentation_matrix(matrix.word_count, [matrix_rows(matrix)[position]]),
                counts,
                table,
            )
            assert np.array_equal(alone.vectors[0], all_at_once.vectors[position])


def test_extra_rows_do_not_change_existing_solutions():
    rng = np.random.default_rng(34)
    words = ["ab", "cd"]
    dense = rng.integers(1, 9, size=(2, 2))
    dense = dense + dense.T
    counts = _counts_from_dense(dense)
    table = EmbeddingTable(words, rng.normal(size=(2, 2)) + np.eye(2) * 2)
    small = SegmentedLexicon({"ab": ["ab"]})
    big = SegmentedLexicon({"ab": ["ab"], "cd": ["c", "d"]})
    sub_small, m_small = lexicon_incidence(words, small)
    sub_big, m_big = lexicon_incidence(words, big)
    small_result = compute_subword_embeddings(sub_small, m_small, counts, table)
    big_result = compute_subword_embeddings(sub_big, m_big, counts, table)
    assert np.array_equal(small_result.vector("ab"), big_result.vector("ab"))


def test_subword_count_and_dim_of_result():
    rng = np.random.default_rng(35)
    _, counts, table, subwords, matrix = _word_identity_setup(rng, 4)
    result = compute_subword_embeddings(subwords, matrix, counts, table)
    assert len(result) == len(subwords)
    assert result.dim == table.dim
    assert result.tokens == subwords


def _random_solve_case(rng, positive):
    """Random counts, full-rank output rows and a random incidence."""
    n = int(rng.integers(3, 13))
    dim = int(rng.integers(1, n + 1))
    low = 1 if positive else 0
    dense = rng.integers(low, 9, size=(n, n))
    dense = dense + dense.T
    if not positive:
        dense[rng.random(size=(n, n)) < 0.5] = 0
        dense = np.minimum(dense, dense.T)  # symmetric with many zeros
    counts = _counts_from_dense(dense)
    table = EmbeddingTable([f"w{i}" for i in range(n)], rng.normal(size=(n, dim)))
    rows = []
    for _ in range(int(rng.integers(1, 9))):
        size = int(rng.integers(1, n + 1))
        rows.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    subwords = tuple(f"s{i}" for i in range(len(rows)))
    return counts, table, subwords, segmentation_matrix(n, rows)


@pytest.mark.parametrize("smoothing", [0.0, 0.05, 0.1, 1.0])
def test_sparse_solve_matches_dense_oracle(smoothing):
    rng = np.random.default_rng(36 + int(smoothing * 100))
    worst = 0.0
    for case in range(50):
        counts, table, subwords, matrix = _random_solve_case(rng, positive=smoothing == 0.0)
        ridge = None if case % 2 else 0.0  # ridge 0 is fine: W has full column rank
        solved = compute_subword_embeddings(
            subwords, matrix, counts, table, smoothing=smoothing, ridge=ridge
        )
        oracle = right_inverse_solve(
            smoothed_log_target(matrix, counts, smoothing=smoothing),
            table,
            ridge=default_ridge(table) if ridge is None else ridge,
        )
        worst = max(worst, _row_relative_error(solved.vectors, oracle))
    assert worst <= ORACLE_TOLERANCE


def test_zero_pooled_cell_without_smoothing_names_cell_in_solve():
    # row 0 pools word 2 (all positive); row 1 pools word 0, which never
    # co-occurs with word 1
    counts = _counts_from_dense([[3, 0, 1], [0, 2, 1], [1, 1, 4]])
    table = EmbeddingTable(["a", "b", "c"], np.eye(3))
    matrix = segmentation_matrix(3, [(2,), (0,)])
    subwords = ("s0", "s1")
    with pytest.raises(NumericalError, match=r"subword 's1' and word 'b' is zero"):
        compute_subword_embeddings(subwords, matrix, counts, table, smoothing=0.0)
    # pooling words 0 and 1 fills every column, so the same counts solve
    pooled_rows = segmentation_matrix(3, [(2,), (0, 1)])
    solved = compute_subword_embeddings(subwords, pooled_rows, counts, table, smoothing=0.0)
    assert np.isfinite(solved.vectors).all()
