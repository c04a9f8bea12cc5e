"""Solving subword vectors inside an existing skip-gram embedding space.

A trained skip-gram model ties its input vectors E and output matrix W
together through softmax(E W) ~ the row-normalized co-occurrence table.
That relation extends to any group of words: given a binary incidence
matrix A mapping subwords to the words that contain them, the pooled
co-occurrence rows A C yield targets T = log of the smoothed, normalized
pooled rows, and subword input vectors are recovered by a ridge-regularized
right inverse

    E_sub = T W^T (W W^T + ridge I)^{-1} = T P,   P = Q R^{-T},

where Q R is the QR factorization of W^T, stacked over sqrt(ridge) I when
the ridge is positive.  P (|V| x dim) is computed once per output matrix
and kept on its table, so repeated solves against the same W reuse it.

The targets are never formed densely.  With smoothing lambda > 0, row s is
a constant plus a sparse row,

    T[s, :] = c_s + S[s, :],   S = log1p(A C / lambda),
    c_s = log lambda - log(sum_y (A C)[s, y] + lambda |V|),

where S is nonzero only on the pooled nonzeros; with lambda = 0 every
pooled cell must be positive and S = log(A C), c_s = -log sum_y (A C)[s, y].
Hence E_sub = c (1^T P) + S P: one sparse-by-dense product plus a rank-one
update, with memory O(nnz(A C) + |S| dim) instead of O(|S| |V|).

Embedding files are plain text: a ``<row_count> <dim>`` header, then one
``token v1 ... v<dim>`` row per vector.  Values use repr-style decimal
formatting and survive a save/load round trip bit for bit.
"""

from __future__ import annotations

import math
import os
import stat
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from subseg.errors import ArgumentError, NumericalError, ParseError, ValidationError
from subseg.cooccur import CooccurrenceCounts
# SubwordVocabulary is re-exported: it lives in textio, which imports no numpy.
from subseg.textio import (
    SegmentedLexicon,
    SubwordVocabulary,
    _check_token,
    _preview,
    atomic_text_writer,
    read_corpus,
)

if TYPE_CHECKING:
    from scipy import sparse


class EmbeddingTable:
    """Immutable dense token-to-vector table with float64 rows."""

    __slots__ = ("_tokens", "_vectors", "_index", "_factor")

    def __init__(self, tokens: Sequence[str], vectors: np.ndarray):
        tokens = tuple(tokens)
        vectors = np.array(vectors, dtype=np.float64, copy=True)
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
            raise ValidationError(f"non-finite vector for token {tokens[bad]!r}")
        index: dict[str, int] = {}
        for position, token in enumerate(tokens):
            _check_token(token, "embedding token")
            if token in index:
                raise ValidationError(f"duplicate embedding token {token!r}")
            index[token] = position
        vectors.setflags(write=False)
        self._tokens = tokens
        self._vectors = vectors
        self._index = index
        # Ridge factor of these rows used as an output matrix; see _ridge_factor.
        self._factor: _RidgeFactor | None = None

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

    def row(self, position: int) -> np.ndarray:
        return self._vectors[position]

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


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    with atomic_text_writer(path) as handle:
        handle.write(f"{len(table)} {table.dim}\n")
        for token, row in zip(table.tokens, table.vectors):
            handle.write(f"{token} {' '.join(map(repr, row.tolist()))}\n")


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
    # Every row takes at least 2 * dim + 1 bytes, so a regular file too small
    # for the declared rows is rejected before anything is allocated.  Rows
    # then go into one block sized at the first row: all declared rows for a
    # regular file; from a pipe, a block that doubles as rows arrive.
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
        raise ValidationError(f"{path}: declared {row_count} rows but found {filled}")
    return EmbeddingTable(tokens, vectors)


def align_embeddings(table: EmbeddingTable, tokens: Sequence[str]) -> EmbeddingTable:
    """Reorder rows to follow ``tokens``; every requested token must exist."""
    missing = [token for token in tokens if token not in table]
    if missing:
        raise ValidationError(f"embedding table is missing tokens: {_preview(missing)}")
    order = [table.token_id(token) for token in tokens]
    return EmbeddingTable(tokens, table.vectors[order])


class SegmentationMatrix:
    """Binary subword-by-word incidence, stored as sorted word ids per row.

    Rows are never empty: a subword with no incident word carries no
    information and is pruned before construction.
    """

    __slots__ = ("_word_count", "_rows")

    def __init__(self, word_count: int, rows: Sequence[Sequence[int]]):
        if word_count < 0:
            raise ArgumentError(f"word_count must be nonnegative, got {word_count}")
        cleaned: list[tuple[int, ...]] = []
        for row_id, row in enumerate(rows):
            ids = tuple(row)
            if not ids:
                raise ValidationError(f"subword row {row_id} is empty")
            if list(ids) != sorted(set(ids)):
                raise ValidationError(f"subword row {row_id} is not sorted and unique")
            if ids[0] < 0 or ids[-1] >= word_count:
                raise ValidationError(f"subword row {row_id} references an out-of-range word id")
            cleaned.append(ids)
        self._word_count = word_count
        self._rows = tuple(cleaned)

    @property
    def word_count(self) -> int:
        return self._word_count

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def row(self, subword_id: int) -> tuple[int, ...]:
        return self._rows[subword_id]

    def to_csr(self) -> sparse.csr_matrix:
        from scipy import sparse  # deferred like CooccurrenceCounts.matrix

        indptr = [0]
        indices: list[int] = []
        for row in self._rows:
            indices.extend(row)
            indptr.append(len(indices))
        data = np.ones(len(indices), dtype=np.float64)
        return sparse.csr_matrix(
            (data, indices, indptr), shape=(len(self._rows), self._word_count)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentationMatrix):
            return NotImplemented
        return self._word_count == other._word_count and self._rows == other._rows

    def __repr__(self) -> str:
        return f"SegmentationMatrix({self.row_count} subwords x {self._word_count} words)"


def build_segmentation_matrix(
    word_tokens: Sequence[str],
    lexicon: SegmentedLexicon | None = None,
    max_substring_len: int | None = None,
    augment_chars: bool = True,
) -> tuple[SubwordVocabulary, SegmentationMatrix]:
    """Build the subword-to-word incidence in one of two modes.

    Lexicon mode (``lexicon`` given): a subword is incident to the words
    whose stored segmentation uses it.  With ``augment_chars`` every single
    character of every word is added as a subword incident to all words
    containing it, which guarantees that each word admits at least one
    complete segmentation path.

    Enumeration mode (``max_substring_len`` given): every substring of
    every word up to the given length is a subword.

    Subword ids are assigned lexicographically in both modes.
    """
    if (lexicon is None) == (max_substring_len is None):
        raise ArgumentError("exactly one of lexicon and max_substring_len must be given")
    index = {word: position for position, word in enumerate(word_tokens)}
    if len(index) != len(word_tokens):
        raise ValidationError("word tokens contain duplicates")
    incidence: dict[str, set[int]] = {}
    if lexicon is not None:
        for word, parts in lexicon.items():
            word_id = index.get(word)
            if word_id is None:
                raise ValidationError(f"lexicon word {word!r} is not in the vocabulary")
            for part in parts:
                incidence.setdefault(part, set()).add(word_id)
        if augment_chars:
            for word, word_id in index.items():
                for ch in set(word):
                    incidence.setdefault(ch, set()).add(word_id)
    else:
        if max_substring_len < 1:
            raise ArgumentError(f"max_substring_len must be at least 1, got {max_substring_len}")
        for word, word_id in index.items():
            n = len(word)
            for start in range(n):
                for stop in range(start + 1, min(start + max_substring_len, n) + 1):
                    incidence.setdefault(word[start:stop], set()).add(word_id)
    subwords = SubwordVocabulary(sorted(incidence))
    rows = [sorted(incidence[token]) for token in subwords.tokens]
    return subwords, SegmentationMatrix(len(word_tokens), rows)


def _zero_cell_error(row: int, column: int) -> NumericalError:
    return NumericalError(
        f"pooled count for subword row {row} and word column {column} is zero; "
        "log target is undefined with smoothing 0"
    )


def smoothed_log_target(
    matrix: SegmentationMatrix,
    counts: CooccurrenceCounts,
    smoothing: float = 0.1,
) -> np.ndarray:
    """Dense log targets: pooled co-occurrence rows, smoothed and normalized.

    Row s is log((AC[s, .] + smoothing) / (sum_y AC[s, y] + smoothing |V|)),
    so exp of every row sums to one.  The solver never builds this array;
    it is the reference the sparse form in :func:`_sparse_log_target` is
    tested against.
    """
    if smoothing < 0:
        raise ArgumentError(f"smoothing must be nonnegative, got {smoothing}")
    if matrix.word_count != counts.vocab_size:
        raise ValidationError(
            f"matrix covers {matrix.word_count} words but counts cover {counts.vocab_size}"
        )
    pooled = (matrix.to_csr() @ counts.matrix()).toarray()
    if smoothing == 0.0:
        zero_rows, zero_cols = np.nonzero(pooled <= 0.0)
        if zero_rows.size:
            raise _zero_cell_error(int(zero_rows[0]), int(zero_cols[0]))
    denominators = pooled.sum(axis=1) + smoothing * counts.vocab_size
    return np.log((pooled + smoothing) / denominators[:, None])


def _sparse_log_target(
    matrix: SegmentationMatrix, counts: CooccurrenceCounts, smoothing: float
) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The log targets as (c, S) with T[s, :] = c[s] + S[s, :]; see the module docstring."""
    pooled = matrix.to_csr() @ counts.matrix()
    totals = np.asarray(pooled.sum(axis=1)).ravel()
    vocab_size = counts.vocab_size
    if smoothing == 0.0:
        short_rows = np.flatnonzero(np.diff(pooled.indptr) < vocab_size)
        if short_rows.size:
            row = int(short_rows[0])
            present = np.zeros(vocab_size, dtype=bool)
            present[pooled.indices[pooled.indptr[row] : pooled.indptr[row + 1]]] = True
            raise _zero_cell_error(row, int(np.argmin(present)))
        pooled.data = np.log(pooled.data)
        return -np.log(totals), pooled
    pooled.data = np.log1p(pooled.data / smoothing)
    return math.log(smoothing) - np.log(totals + smoothing * vocab_size), pooled


def default_ridge(output_rows: EmbeddingTable) -> float:
    """Scale-aware ridge: 1e-6 * trace(W W^T) / dim."""
    rows = output_rows.vectors
    return 1e-6 * float(np.sum(rows * rows)) / output_rows.dim


class _RidgeFactor:
    """Right-inverse projector of one output matrix for one ridge strength.

    ``projector`` is P = Q R^{-T} (|V| x dim) from the QR factorization of
    W^T, stacked over sqrt(ridge) I when ridge > 0, so the ridge solution
    for any target rows T is T P.  ``column_sums`` is 1^T P, the image of a
    constant target row.
    """

    def __init__(self, output_vectors: np.ndarray, ridge: float):
        from scipy.linalg import solve_triangular  # deferred like CooccurrenceCounts.matrix

        n_rows, dim = output_vectors.shape
        if ridge < 0:
            raise ArgumentError(f"ridge must be nonnegative, got {ridge}")
        if ridge == 0.0:
            if np.linalg.matrix_rank(output_vectors) < dim:
                raise NumericalError(
                    "output matrix is rank-deficient with ridge 0; "
                    "pass a positive ridge to regularize the solve"
                )
            q, r = np.linalg.qr(output_vectors)
        else:
            augmented = np.vstack(
                [output_vectors, math.sqrt(ridge) * np.eye(dim, dtype=np.float64)]
            )
            q, r = np.linalg.qr(augmented)
            q = q[:n_rows]
        self.ridge = ridge
        self.projector = np.ascontiguousarray(solve_triangular(r, q.T, lower=False).T)
        self.column_sums = self.projector.sum(axis=0)


def _ridge_factor(output_rows: EmbeddingTable, ridge: float) -> _RidgeFactor:
    """The factor of ``output_rows`` for ``ridge``, kept on the immutable table.

    Only the most recent ridge is kept, so solving repeatedly against one
    table with one ridge (as :func:`subseg.lexseg.refine` does) factorizes once.
    """
    factor = output_rows._factor
    if factor is None or factor.ridge != ridge:
        factor = _RidgeFactor(output_rows.vectors, ridge)
        output_rows._factor = factor
    return factor


def right_inverse_solve(
    targets: np.ndarray,
    output_rows: EmbeddingTable,
    ridge: float = 0.0,
) -> np.ndarray:
    """Solve rows X minimizing ||X W - T||_F^2 + ridge ||X||_F^2.

    ``output_rows`` stores W transposed, one per-word output vector per row;
    ``targets`` has one row per solved vector and |V| columns.  The result
    equals T W^T (W W^T + ridge I)^{-1}, computed through a QR-based
    least-squares solve rather than explicit normal equations.  A
    rank-deficient W with ridge 0 raises, suggesting a positive ridge.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2:
        raise ArgumentError(f"targets must be 2-dimensional, got shape {targets.shape}")
    if targets.shape[1] != len(output_rows):
        raise ArgumentError(
            f"targets have {targets.shape[1]} columns but the output matrix covers "
            f"{len(output_rows)} words"
        )
    if output_rows.dim > len(output_rows):
        raise ArgumentError(
            f"embedding dimension {output_rows.dim} exceeds vocabulary size {len(output_rows)}"
        )
    if not np.all(np.isfinite(targets)):
        raise ValidationError("targets contain non-finite values")
    return targets @ _ridge_factor(output_rows, ridge).projector


def compute_subword_embeddings(
    subwords: SubwordVocabulary,
    matrix: SegmentationMatrix,
    counts: CooccurrenceCounts,
    output_rows: EmbeddingTable,
    smoothing: float = 0.1,
    ridge: float | None = None,
) -> EmbeddingTable:
    """Pool, smooth, and solve: subword vectors in the word embedding space.

    Equal, up to rounding, to ``right_inverse_solve(smoothed_log_target(...))``
    but computed from the sparse-plus-constant form of the targets against
    the output matrix's cached factor.  Each row depends only on its own
    incidence row.  ``ridge=None`` selects the scale-aware default.
    """
    if len(subwords) != matrix.row_count:
        raise ValidationError(
            f"{len(subwords)} subwords but the incidence matrix has {matrix.row_count} rows"
        )
    if matrix.word_count != counts.vocab_size or counts.vocab_size != len(output_rows):
        raise ValidationError(
            "word coverage mismatch: matrix "
            f"{matrix.word_count}, counts {counts.vocab_size}, output rows {len(output_rows)}"
        )
    if smoothing < 0:
        raise ArgumentError(f"smoothing must be nonnegative, got {smoothing}")
    if ridge is None:
        ridge = default_ridge(output_rows)
    factor = _ridge_factor(output_rows, ridge)
    constants, logs = _sparse_log_target(matrix, counts, smoothing)
    vectors = logs @ factor.projector
    vectors += np.outer(constants, factor.column_sums)
    if not np.all(np.isfinite(vectors)):
        raise NumericalError("subword solve produced non-finite vectors")
    return EmbeddingTable(subwords.tokens, vectors)
