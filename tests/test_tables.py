import errno
import os
import threading

import numpy as np
import pytest

from subseg import (
    EmbeddingTable,
    ParseError,
    ValidationError,
    align_embeddings,
    compute_subword_embeddings,
    load_embeddings,
    save_embeddings,
)
from subseg import cooccur, tables

from reference_solve import _counts_from_dense, segmentation_matrix


def _random_table(rng, tokens, dim):
    return EmbeddingTable(tokens, rng.normal(size=(len(tokens), dim)))


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
    fork = tables._fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def split(cpus):
        monkeypatch.setattr(tables, "_MIN_VALUES_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(tables, "_fork", recording_fork)
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
    with tables.start_loading_embeddings(path) as pending:
        assert len(forked) == 3  # every range, the first included
        assert tables.join_embeddings(pending) == table
    _assert_reaped(forked)
    # A load that is never joined has its workers killed and reaped.
    forked.clear()
    with tables.start_loading_embeddings(path):
        assert len(forked) == 3
    _assert_reaped(forked)


def test_a_started_load_raises_its_errors_at_the_join(tmp_path, split_over):
    forked = split_over(2)
    missing = tables.start_loading_embeddings(tmp_path / "missing.txt")
    bad_header = tmp_path / "bad.txt"
    bad_header.write_text("2 x\n", encoding="utf-8")
    with tables.start_loading_embeddings(bad_header) as pending:
        with pytest.raises(FileNotFoundError):
            tables.join_embeddings(missing)
        with pytest.raises(ParseError, match="line 1: non-integer header field"):
            tables.join_embeddings(pending)
    assert forked == []


def test_a_failing_worker_leaves_no_file_part_or_child(tmp_path, split_over, monkeypatch):
    rng = np.random.default_rng(6)
    table = _random_table(rng, [f"w{i}" for i in range(20)], 4)
    parent = os.getpid()
    write_rows = tables._write_rows

    def full_disk_in_workers(handle, tokens, vectors):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_rows(handle, tokens, vectors)

    def dying_worker(handle, tokens, vectors):
        if os.getpid() != parent:
            os._exit(3)
        write_rows(handle, tokens, vectors)

    forked = split_over(3)
    monkeypatch.setattr(tables, "_write_rows", full_disk_in_workers)
    with pytest.raises(OSError, match="No space left on device"):
        save_embeddings(table, tmp_path / "emb.txt")
    monkeypatch.setattr(tables, "_write_rows", dying_worker)
    with pytest.raises(ChildProcessError, match="before sending its result"):
        save_embeddings(table, tmp_path / "emb.txt")
    assert list(tmp_path.iterdir()) == []
    assert len(forked) == 4
    _assert_reaped(forked)


def test_a_callers_finally_runs_once_when_a_worker_raises(tmp_path, split_over, monkeypatch):
    rng = np.random.default_rng(7)
    table = _random_table(rng, [f"w{i}" for i in range(20)], 4)
    parent = os.getpid()
    write_rows = tables._write_rows

    def failing_in_workers(handle, tokens, vectors):
        if os.getpid() != parent:
            raise RuntimeError("worker failed")
        write_rows(handle, tokens, vectors)

    split_over(2)
    monkeypatch.setattr(tables, "_write_rows", failing_in_workers)
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
    minimum = tables._MIN_VALUES_PER_WORKER
    assert tables._worker_count(minimum - 1) == 1
    assert tables._worker_count(2 * minimum - 1) == 1
    assert tables._worker_count(2 * minimum) == 2
    assert tables._worker_count(100 * minimum) == 8
    assert tables._may_fork()
    table = _random_table(np.random.default_rng(8), [f"w{i}" for i in range(20)], 4)
    started, release = threading.Event(), threading.Event()
    other = threading.Thread(target=lambda: (started.set(), release.wait(30)))
    other.start()
    try:
        started.wait(30)
        assert not tables._may_fork()
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
