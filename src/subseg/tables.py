"""Embedding tables: the table type, its text format and the forked workers that read and write it.

Embedding files are plain text: a ``<row_count> <dim>`` header, then one
``token v1 ... v<dim>`` row per vector.  Values use repr-style decimal
formatting and survive a save/load round trip bit for bit.  Loading parses
the values a block of rows at a time with one ``np.loadtxt`` call, and a
block that call cannot read exactly as ``float()`` would, malformed rows
included, row by row, so a bad row is reported at its line (see
``cooccur._parse_block``).

Both directions hold the GIL, so a table is split into contiguous row
ranges, one per CPU this process may run on, each of at least
``_MIN_VALUES_PER_WORKER`` values (``_worker_count``), and forked workers
(``_Workers``) run the same code on them.  Loading a regular file of at least that many
values, in a process on more than one CPU, splits it into byte ranges of
whole lines, and a worker per range parses its lines into one shared
matrix from the moment loading starts; the caller goes on with other work
until it joins the table (``start_loading_embeddings``), and an error
travels back to be raised in file order.  A table below two minima gets
one worker, which still overlaps the caller's work.  Saving has nothing to
overlap: the caller formats the first range into the output and each
worker its own range into an unnamed temporary file, appended in order,
so a one-range table is saved by the caller alone.  The table, the file's
bytes and the errors are those of one process.  FIFOs, tables below one
minimum, a process on one CPU, platforms without ``fork`` or
``sched_getaffinity`` and processes with other Python threads use one
process, which reads a table when it is joined.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import stat
import tempfile
import threading
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import closing
from pathlib import Path
from typing import IO, NoReturn, TypeVar

import numpy as np

from subseg.errors import ParseError, ValidationError, rows_from_line
from subseg.cooccur import _parse_block, _row_blocks
from subseg.textio import _check_token, _line_ranges, _preview, _read_range, atomic_text_writer, read_corpus

_T = TypeVar("_T")


class EmbeddingTable:
    """Immutable dense token-to-vector table with float64 rows."""

    __slots__ = ("_tokens", "_vectors", "_index")

    def __init__(self, tokens: Sequence[str], vectors: np.ndarray):
        self._adopt(tuple(tokens), np.array(vectors, dtype=np.float64, copy=True))

    @classmethod
    def _owning(cls, tokens: Sequence[str], vectors: np.ndarray) -> EmbeddingTable:
        """A table that takes over ``vectors``, a float64 array no one else holds, uncopied."""
        table = cls.__new__(cls)
        table._adopt(tuple(tokens), vectors)
        return table

    def _adopt(self, tokens: tuple[str, ...], vectors: np.ndarray) -> None:
        if vectors.ndim != 2:
            raise ValidationError(f"vectors must be 2-dimensional, got shape {vectors.shape}")
        if vectors.shape[0] != len(tokens):
            raise ValidationError(
                f"{len(tokens)} tokens but {vectors.shape[0]} vector rows"
            )
        if vectors.shape[1] < 1:
            raise ValidationError("embedding dimension must be positive")
        if not np.all(np.isfinite(vectors)):
            bad = int(np.argwhere(~np.isfinite(vectors).all(axis=1))[0][0])
            raise ValidationError(f"non-finite vector for token {tokens[bad]!r}", bad)
        index: dict[str, int] = {}
        for position, token in enumerate(tokens):
            _check_token(token, "embedding token", row=position)
            if token in index:
                raise ValidationError(f"duplicate embedding token {token!r}", position)
            index[token] = position
        vectors.setflags(write=False)
        self._tokens = tokens
        self._vectors = vectors
        self._index = index

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def dim(self) -> int:
        return int(self._vectors.shape[1])

    def token_id(self, token: str) -> int:
        return self._index[token]

    def vector(self, token: str) -> np.ndarray:
        return self._vectors[self._index[token]]

    def __contains__(self, token: object) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingTable):
            return NotImplemented
        return self._tokens == other._tokens and np.array_equal(self._vectors, other._vectors)

    def __repr__(self) -> str:
        return f"EmbeddingTable({len(self)} tokens, dim={self.dim})"


# Fewest values (rows x dim) a worker process parses or formats.  Forking a
# worker from an 80 MB process, sending back its result and reaping it took
# 5 ms on a 2-core x86 VM, against 0.5 us per value parsed and 1.2 us per
# value formatted, so a worker's range costs at least 6 times its start.
_MIN_VALUES_PER_WORKER = 1 << 16


def _may_fork() -> bool:
    """Whether this process may fork workers.

    Not without ``fork`` and ``sched_getaffinity`` (macOS, whose system
    libraries are not safe to fork, lacks the latter), nor in a process
    running other Python threads, one of which could hold a lock a forked
    worker would wait on forever.
    """
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1


def _worker_count(values: int) -> int:
    """Processes to split a table of ``values`` numbers over, in a process that may fork."""
    return max(1, min(len(os.sched_getaffinity(0)), values // _MIN_VALUES_PER_WORKER))


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork while the process has other threads.  With
        # one Python thread (see _may_fork) those are native threads, such
        # as a BLAS pool, that no worker calls into.
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


class _Workers:
    """Forked workers, one per index, each running ``task(index)``.

    A worker sends back its result, or the exception it raised, pickled
    through a pipe and ends in ``os._exit``, so it never unwinds into its
    caller's frames.  Every worker is reaped by its own pid on every path:
    by ``join``, or killed first by ``kill``.
    """

    def __init__(self, task: Callable[[int], object], indices: Iterable[int]):
        self._running: list[tuple[int, IO[bytes]]] = []  # (pid, read end of its pipe)
        try:
            for index in indices:
                read_fd, write_fd = os.pipe()
                try:
                    pid = _fork()
                except BaseException:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:
                    _run_worker(task, index, write_fd)
                os.close(write_fd)
                self._running.append((pid, open(read_fd, "rb")))
        except BaseException:
            self.kill()
            raise

    def join(self) -> list:
        """The results in index order; the first exception in that order is raised."""
        results = []
        try:
            while self._running:
                pid, pipe = self._running[0]
                with pipe:
                    payload = pipe.read()
                _, status = os.waitpid(pid, 0)
                self._running.pop(0)
                if not payload:
                    raise ChildProcessError(
                        f"worker process {pid} exited with code {os.waitstatus_to_exitcode(status)} "
                        "before sending its result"
                    )
                ok, value = pickle.loads(payload)
                if not ok:
                    raise value
                results.append(value)
            return results
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill and reap every worker not yet joined."""
        while self._running:
            pid, pipe = self._running.pop()
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_join(task: Callable[[int], _T], count: int) -> list[_T]:
    """``[task(0), ..., task(count - 1)]``, every task but the first in a forked worker.

    The first exception in task order is raised; on an error the workers
    not yet reaped are killed.
    """
    workers = _Workers(task, range(1, count))
    try:
        return [task(0), *workers.join()]
    finally:
        workers.kill()


def _run_worker(task: Callable[[int], object], index: int, write_fd: int) -> NoReturn:
    status = 1
    try:
        try:
            message = (True, task(index))
        except BaseException as exc:
            # Interrupts included: the caller re-raises what the worker sends.
            message = (False, exc)
        try:
            payload = pickle.dumps(message)
        except Exception as exc:
            payload = pickle.dumps((False, ChildProcessError(f"worker result cannot be sent: {exc!r}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _write_rows(handle: IO[str], tokens: Sequence[str], vectors: np.ndarray) -> None:
    for token, row in zip(tokens, vectors):
        handle.write(f"{token} {' '.join(map(repr, row.tolist()))}\n")


def _append_file(target: int, source: int) -> None:
    """Append all of file descriptor ``source`` at the offset of ``target``."""
    size = os.fstat(source).st_size
    offset = 0
    try:
        while offset < size:
            offset += os.sendfile(target, source, offset, size - offset)
    except OSError:
        if offset:
            raise
        # No sendfile between regular files here; copy through memory.
        while offset < size:
            chunk = os.pread(source, min(size - offset, 1 << 20), offset)
            offset += os.write(target, chunk)


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write ``table`` as text, atomically.

    Unlike loading, saving forks no lone worker: a table of one range is
    formatted by the caller alone.
    """
    ranges = _split(len(table), _worker_count(table.vectors.size) if _may_fork() else 1)
    tokens, vectors = table.tokens, table.vectors
    with atomic_text_writer(path) as handle:
        handle.write(f"{len(table)} {table.dim}\n")
        # Nothing buffered may be inherited by a worker.
        handle.flush()
        parts = []
        try:
            for _ in ranges[1:]:
                parts.append(tempfile.TemporaryFile(dir=Path(path).parent))

            def write_range(index: int) -> None:
                start, stop = ranges[index]
                if index == 0:
                    _write_rows(handle, tokens[start:stop], vectors[start:stop])
                    return
                part = parts[index - 1].fileno()
                with open(part, "w", encoding="utf-8", newline="\n", closefd=False) as out:
                    _write_rows(out, tokens[start:stop], vectors[start:stop])

            _fork_join(write_range, len(ranges))
            handle.flush()
            for part in parts:
                _append_file(handle.fileno(), part.fileno())
        finally:
            for part in parts:
                part.close()


def _split(count: int, parts: int) -> list[tuple[int, int]]:
    """Up to ``parts`` contiguous (start, stop) ranges of ``count`` rows, sizes within 1, at least one."""
    parts = max(1, min(parts, count))
    bounds = [count * k // parts for k in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _check_value_count(count: int, dim: int, lineno: int) -> None:
    if count != dim:
        raise ParseError(f"expected token plus {dim} values, got {count}", lineno)


def _parse_rows(
    lines: Iterable[str], first_line: int, dim: int, row_count: int, tokens: list[str]
) -> Iterator[np.ndarray]:
    """Blocks of the vectors of embedding rows ``lines``, the first at ``first_line``.

    Each row's token is appended to ``tokens`` as the row is read.  Line 2
    holds row 0, so a line past ``row_count + 1`` is one row too many.
    """

    # A block np.loadtxt reads into exactly dim columns has no row with a
    # wrong value count, so the count is checked only where a row is parsed
    # on its own, and on a line rejected here, whose count error comes first.
    def row_values() -> Iterator[str]:
        for lineno, line in enumerate(lines, first_line):
            token, space, values = line.partition(" ")
            if not space or lineno - 2 >= row_count:
                _check_value_count(line.count(" "), dim, lineno)
                raise ParseError(f"more than the declared {row_count} rows", lineno)
            tokens.append(token)
            yield values

    def vector(values: str, lineno: int) -> list[float]:
        fields = values.split(" ")
        _check_value_count(len(fields), dim, lineno)
        try:
            return [float(v) for v in fields]
        except ValueError:
            raise ParseError("non-numeric vector component", lineno) from None

    for first, rows in _row_blocks(row_values(), first_line):
        yield _parse_block(rows, first, np.float64, " ", dim, vector)


def _load_range(
    path: str | Path, start: int, stop: int, first_line: int, row_count: int, vectors: np.ndarray
) -> list[str]:
    """Parse the rows in bytes ``start`` to ``stop`` into their rows of ``vectors``; their tokens."""
    tokens: list[str] = []
    row = first_line - 2
    lines = _read_range(path, start, stop, first_line)
    for block in _parse_rows(lines, first_line, vectors.shape[1], row_count, tokens):
        vectors[row : row + len(block)] = block
        row += len(block)
    return tokens


def _read_header(path: str | Path, lines: Iterator[str]) -> tuple[int, int, bool]:
    """(row count, dim, whether ``path`` is a regular file) from the header ``lines`` begins with.

    Every row takes at least 2 * dim + 1 bytes, so a regular file too small
    for the declared rows is rejected here, before anything is allocated.
    """
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
    return row_count, dim, regular


def _owned_table(tokens: list[str], vectors: np.ndarray, row_count: int) -> EmbeddingTable:
    if len(tokens) != row_count:
        raise ParseError(f"header declared {row_count} rows but found {len(tokens)}", 1)
    with rows_from_line(2):
        return EmbeddingTable._owning(tokens, vectors)


def _load_serially(path: str | Path) -> EmbeddingTable:
    """Read a table in this process, as its rows arrive.

    Rows go into one buffer sized at the first block: all declared rows for
    a regular file; from a pipe, a buffer that doubles as rows arrive.
    """
    lines = read_corpus(path)
    row_count, dim, regular = _read_header(path, lines)
    tokens: list[str] = []
    vectors = np.empty((0, dim), dtype=np.float64)
    filled = 0
    for block in _parse_rows(lines, 2, dim, row_count, tokens):
        end = filled + len(block)
        if end > len(vectors):
            capacity = row_count if regular else min(row_count, max(1024, 2 * filled, end))
            grown = np.empty((capacity, dim), dtype=np.float64)
            grown[:filled] = vectors[:filled]
            vectors = grown
        vectors[filled:end] = block
        filled = end
    return _owned_table(tokens, vectors, row_count)


class PendingEmbeddings:
    """An embedding table being loaded; see :func:`start_loading_embeddings`.

    Used as a context manager, it kills and reaps on exit every worker not
    yet joined, so a caller that fails before the join leaves no process.
    """

    __slots__ = ("_path", "_error", "_parsing")

    def __init__(self, path: str | Path):
        self._path = path
        # Raised by the join, where a loader reading the file then would raise it.
        self._error: Exception | None = None
        # The workers parsing every range and the matrix they fill, or None
        # when the table is read at the join.
        self._parsing: tuple[_Workers, np.ndarray] | None = None

    def __enter__(self) -> PendingEmbeddings:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._parsing is not None:
            self._parsing[0].kill()
            self._parsing = None


def start_loading_embeddings(path: str | Path) -> PendingEmbeddings:
    """Start reading a text embedding table; :func:`join_embeddings` gives it.

    A FIFO is read at the join, as is any table no worker takes.  Every
    error, the header's included, is raised at the join.
    """
    pending = PendingEmbeddings(path)
    try:
        # Only a regular file is opened here: opening a FIFO waits for its writer.
        if stat.S_ISREG(os.stat(path).st_mode):
            with closing(read_corpus(path)) as lines:
                row_count, dim, _ = _read_header(path, lines)
            values = row_count * dim
            # On one CPU a worker could only take turns with the caller.
            if values >= _MIN_VALUES_PER_WORKER and _may_fork() and len(os.sched_getaffinity(0)) > 1:
                ranges = _line_ranges(path, _worker_count(values))
                # Shared with the workers, which write their rows into it in place.
                vectors = np.frombuffer(mmap.mmap(-1, row_count * dim * 8), dtype=np.float64)
                vectors = vectors.reshape(row_count, dim)
                workers = _Workers(
                    lambda index: _load_range(path, *ranges[index], row_count, vectors), range(len(ranges))
                )
                pending._parsing = (workers, vectors)
    except Exception as exc:
        pending._error = exc
    return pending


def join_embeddings(pending: PendingEmbeddings) -> EmbeddingTable:
    """The table ``pending`` holds, once its workers are done.

    The table, and the first bad row in file order, are those one process
    reading the file now would give.
    """
    if pending._error is not None:
        raise pending._error
    if pending._parsing is None:
        return _load_serially(pending._path)
    workers, vectors = pending._parsing
    pending._parsing = None
    tokens = [token for part in workers.join() for token in part]
    return _owned_table(tokens, vectors, len(vectors))


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a text embedding table: :func:`start_loading_embeddings`, then the join."""
    with start_loading_embeddings(path) as pending:
        return join_embeddings(pending)


def align_embeddings(table: EmbeddingTable, tokens: Sequence[str]) -> EmbeddingTable:
    """Reorder rows to follow ``tokens``; every requested token must exist.

    A table already in that order is returned as it is.
    """
    if table.tokens == tuple(tokens):
        return table
    missing = [token for token in tokens if token not in table]
    if missing:
        raise ValidationError(f"embedding table is missing tokens: {_preview(missing)}")
    order = [table.token_id(token) for token in tokens]
    return EmbeddingTable._owning(tokens, table.vectors[order])
