"""Solving subword vectors inside an existing skip-gram embedding space.

A trained skip-gram model ties its input vectors E and output matrix W
together through softmax(E W) ~ the row-normalized co-occurrence table.
That relation extends to any group of words: given a binary incidence
matrix A mapping subwords to the words that contain them, held as one
sorted int64 array of keys ``row * |V| + word_id`` whose order every
consumer reads off neighbouring keys, the pooled co-occurrence rows A C
yield targets T = log of the smoothed, normalized pooled rows, and
subword input vectors are recovered by a ridge-regularized right inverse

    E_sub = T W^T (W W^T + ridge I)^{-1} = T P,

where the output matrix W (dim x |V|) is stored as one row per word.  P
(|V| x dim) is built from the dim x dim Gram matrix W W^T + ridge I with
numpy alone (``_RidgeFactor`` states its conditioning check and error
bound), once per solving call; :func:`subseg.lexseg.refine` builds one per
run and solves every pass against it.

The targets are never formed densely.  With smoothing lambda > 0, row s is
a constant plus a sparse row,

    T[s, :] = c_s + S[s, :],   S = log1p(A C / lambda),
    c_s = log lambda - log(sum_y (A C)[s, y] + lambda |V|),

where S is nonzero only on the pooled nonzeros; with lambda = 0 every
pooled cell must be positive and S = log(A C), c_s = -log sum_y (A C)[s, y].
Hence E_sub = c (1^T P) + S P: one sparse-by-dense product plus a rank-one
update, with memory O(nnz(A C) + |S| dim) instead of O(|S| |V|).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from subseg.errors import ArgumentError, NumericalError, ValidationError
from subseg.cooccur import CooccurrenceCounts
from subseg.tables import EmbeddingTable
from subseg.textio import SegmentedLexicon

# Kept importable from here for its one reader, EmbedWide._check_subwords in perfbench/run.py.
from subseg.tables import load_embeddings  # noqa: F401

if TYPE_CHECKING:
    from scipy import sparse


class SegmentationMatrix:
    """Binary subword-by-word incidence, one int64 key ``row * word_count + word_id`` per cell.

    The keys strictly increase, so each row's word ids are sorted and
    distinct, and every row has at least one: a subword with no incident
    word carries no information and is pruned before construction.
    """

    __slots__ = ("_word_count", "_row_count", "_keys")

    def __init__(self, word_count: int, row_count: int, keys: np.ndarray):
        if word_count < 0 or row_count < 0:
            raise ArgumentError(f"word and row counts must be nonnegative, got {word_count}, {row_count}")
        keys = np.array(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValidationError(f"incidence keys must be 1-dimensional, got shape {keys.shape}")
        rows = keys // max(word_count, 1)
        unordered = rows[1:][keys[1:] <= keys[:-1]]
        if unordered.size:
            raise ValidationError(f"subword row {unordered[0]} is not sorted and unique")
        outside = rows[(keys < 0) | (keys >= row_count * word_count)]
        if outside.size:
            raise ValidationError(f"subword row {outside[0]} is out of range for {row_count} rows")
        empty = np.flatnonzero(np.bincount(rows, minlength=row_count) == 0)
        if empty.size:
            raise ValidationError(f"subword row {empty[0]} is empty")
        keys.setflags(write=False)
        self._word_count, self._row_count, self._keys = word_count, row_count, keys

    @property
    def word_count(self) -> int:
        return self._word_count

    @property
    def row_count(self) -> int:
        return self._row_count

    def to_csr(self) -> sparse.csr_matrix:
        return _incidence_csr(self._keys, self._word_count)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentationMatrix):
            return NotImplemented
        shape = (self._word_count, self._row_count)
        return shape == (other._word_count, other._row_count) and np.array_equal(self._keys, other._keys)

    def __repr__(self) -> str:
        return f"SegmentationMatrix({self.row_count} subwords x {self._word_count} words)"


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of nonnegative integers by one sort: numpy 2.4's hash path took 13-60 times as long."""
    ordered = np.sort(values)
    return ordered[np.diff(ordered, prepend=-1) != 0]


def _incidence_csr(keys: np.ndarray, word_count: int) -> sparse.csr_matrix:
    """The binary incidence of sorted, distinct ``row * word_count + word_id`` keys.

    It has one row per distinct row of the keys, in ascending order, and
    each row holds its word ids in ascending order: the pooled rows, and so
    the order in which a solved row sums its terms, follow that order.
    """
    from scipy import sparse  # deferred like CooccurrenceCounts.matrix

    rows, indices = np.divmod(keys, word_count)
    indptr = np.append(np.flatnonzero(np.diff(rows, prepend=-1)), keys.size)
    return sparse.csr_matrix((np.ones(keys.size), indices, indptr), shape=(indptr.size - 1, word_count))


def _character_keys(tokens: Sequence[str], piece_ids: dict[str, int]) -> np.ndarray:
    """The key piece_id * len(tokens) + token_id of each single-character piece in each token.

    The only home of the rule that every character of a word is a subword of it.
    """
    chars = sorted((ord(piece), piece_id) for piece, piece_id in piece_ids.items() if len(piece) == 1)
    codes, ids = np.array(chars, dtype=np.int64).reshape(-1, 2).T
    text = np.frombuffer("".join(tokens).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    owner = np.repeat(np.arange(len(tokens)), np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens)))
    held = np.isin(text, codes)
    return ids[np.searchsorted(codes, text[held])] * len(tokens) + owner[held]


def build_segmentation_matrix(
    word_tokens: Sequence[str],
    lexicon: SegmentedLexicon | None = None,
    max_substring_len: int | None = None,
) -> tuple[tuple[str, ...], SegmentationMatrix]:
    """Build the subword-to-word incidence in one of two modes.

    Lexicon mode (``lexicon`` given): a subword is incident to the words
    whose stored segmentation uses it.  Every single character of every word
    is also a subword, incident to all words containing it, which
    guarantees that each word admits at least one complete segmentation
    path.

    Enumeration mode (``max_substring_len`` given): every substring of
    every word up to the given length is a subword.

    A dict numbers the pieces as they come, each (piece, word) pair is a
    key ``piece * |V| + word_id``, and a rank array renumbers the pieces so
    that subword ids are lexicographic in both modes.  Returns the subword
    tokens in that order and the matrix whose row ``r`` is ``tokens[r]``.
    """
    if (lexicon is None) == (max_substring_len is None):
        raise ArgumentError("exactly one of lexicon and max_substring_len must be given")
    index = {word: position for position, word in enumerate(word_tokens)}
    word_count = len(word_tokens)
    if len(index) != word_count:
        raise ValidationError("word tokens contain duplicates")
    if lexicon is not None:
        for word in lexicon.words():
            if word not in index:
                raise ValidationError(f"lexicon word {word!r} is not in the vocabulary")
        spans = ((index[word], parts) for word, parts in lexicon.items())
    elif max_substring_len < 1:
        raise ArgumentError(f"max_substring_len must be at least 1, got {max_substring_len}")
    else:
        # One word's substrings at a time: holding 3,000 words' at once left 3 MB more resident.
        spans = enumerate(
            [word[i : i + k] for k in range(1, max_substring_len + 1) for i in range(len(word) - k + 1)]
            for word in word_tokens
        )
    piece_ids: dict[str, int] = {}
    keys = np.fromiter(
        (piece_ids.setdefault(p, len(piece_ids)) * word_count + w for w, parts in spans for p in parts),
        dtype=np.int64,
    )
    if lexicon is not None:
        for ch in set("".join(word_tokens)):
            piece_ids.setdefault(ch, len(piece_ids))
        keys = np.concatenate([keys, _character_keys(word_tokens, piece_ids)])
    tokens = tuple(sorted(piece_ids))
    rank = np.argsort([piece_ids[token] for token in tokens])  # each piece id's place in tokens
    piece, word_id = np.divmod(keys, max(word_count, 1))
    keys = _sorted_unique(rank[piece] * word_count + word_id)
    return tokens, SegmentationMatrix(word_count, len(tokens), keys)


def _check_smoothing(smoothing: float) -> None:
    if not 0 <= smoothing < math.inf:
        raise ArgumentError(f"smoothing must be finite and nonnegative, got {smoothing}")


def default_ridge(output_rows: EmbeddingTable) -> float:
    """Scale-aware ridge: 1e-6 * trace(W W^T) / dim."""
    rows = output_rows.vectors
    return 1e-6 * float(np.sum(rows * rows)) / output_rows.dim


# Rows of W^T multiplied by G^{-1} at a time: BLAS workspace grows with the
# operand, and in blocks of this size it stays a few MB, so the factor's peak
# is the projector itself.
_PROJECTION_ROWS = 1024


class _RidgeFactor:
    """Right-inverse projector of one output matrix for one ridge strength.

    ``output_vectors`` holds W^T, one row per word.  ``projector`` is
    P = W^T G^{-1} (|V| x dim), built from the dim x dim Gram matrix
    G = W W^T + ridge I, so the ridge solution for any target rows T is
    T P.  ``column_sums`` is 1^T P, the image of a constant target row.

    G must be invertible at working precision: a G whose eigenvalues have
    lambda_min <= dim * eps * lambda_max (eps = 2^-52) raises NumericalError,
    with any ridge.  Past that check P has a normwise relative error of
    about cond(G) * eps, cond(G) = lambda_max / lambda_min; the default
    ridge bounds cond(G) by 1 + 1e6 * dim.
    """

    def __init__(self, output_vectors: np.ndarray, ridge: float):
        if not 0 <= ridge < math.inf:
            raise ArgumentError(f"ridge must be finite and nonnegative, got {ridge}")
        dim = output_vectors.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            gram = output_vectors.T @ output_vectors
            gram.flat[:: dim + 1] += ridge
        if not np.all(np.isfinite(gram)):
            raise NumericalError("output matrix is too large to factorize: W W^T overflows")
        eigenvalues = np.linalg.eigvalsh(gram)
        if eigenvalues[0] <= dim * np.finfo(np.float64).eps * eigenvalues[-1]:
            if ridge == 0.0:
                raise NumericalError(
                    "output matrix is rank-deficient at working precision with ridge 0; "
                    "pass a positive ridge to regularize the solve"
                )
            raise NumericalError(
                f"ridge {ridge!r} is too small to regularize the output matrix; "
                "pass a larger ridge"
            )
        inverse = np.linalg.inv(gram)
        projector = np.empty(output_vectors.shape, dtype=np.float64)
        for start in range(0, len(projector), _PROJECTION_ROWS):
            stop = start + _PROJECTION_ROWS
            np.matmul(output_vectors[start:stop], inverse, out=projector[start:stop])
        self.projector = projector
        self.column_sums = self.projector.sum(axis=0)


def _ridge_factor(output_rows: EmbeddingTable, ridge: float | None) -> _RidgeFactor:
    """A new factor of ``output_rows``, held by its caller; ``ridge=None`` selects :func:`default_ridge`.

    A table with more dimensions than words is refused: the solve would be
    underdetermined, however the ridge regularizes it.
    """
    if output_rows.dim > len(output_rows):
        raise ArgumentError(
            f"embedding dimension {output_rows.dim} exceeds vocabulary size {len(output_rows)}"
        )
    return _RidgeFactor(output_rows.vectors, default_ridge(output_rows) if ridge is None else ridge)


def compute_subword_embeddings(
    subwords: Sequence[str],
    matrix: SegmentationMatrix,
    counts: CooccurrenceCounts,
    output_rows: EmbeddingTable,
    smoothing: float = 0.1,
    ridge: float | None = None,
) -> EmbeddingTable:
    """Pool, smooth, and solve: subword vectors in the word embedding space.

    The dense targets T are never built: the solve T P is computed from
    their sparse-plus-constant form (see the module docstring) against a
    factor of the output matrix built for this call.  Each row depends only
    on its own incidence row.  ``subwords`` names the matrix rows in order;
    the returned table checks them, so an empty, whitespace or duplicate
    token is a validation error.  ``ridge=None`` selects the scale-aware
    default.  An output matrix with more dimensions than words is refused
    with an argument error.
    """
    if len(subwords) != matrix.row_count:
        raise ValidationError(f"{len(subwords)} subwords but {matrix.row_count} incidence matrix rows")
    if matrix.word_count != counts.vocab_size or counts.vocab_size != len(output_rows):
        raise ValidationError(
            "word coverage mismatch: matrix "
            f"{matrix.word_count}, counts {counts.vocab_size}, output rows {len(output_rows)}"
        )
    _check_smoothing(smoothing)
    factor = _ridge_factor(output_rows, ridge)
    vectors = _solve_incidence(matrix.to_csr(), subwords, counts, output_rows, factor, smoothing)
    return EmbeddingTable._owning(subwords, vectors)


def _solve_incidence(
    incidence: sparse.csr_matrix,
    row_tokens: Sequence[str],
    counts: CooccurrenceCounts,
    output_rows: EmbeddingTable,
    factor: _RidgeFactor,
    smoothing: float,
) -> np.ndarray:
    """The solved vector of each row of an :func:`_incidence_csr`, bitwise the same in any subset of rows.

    The log targets are T[s, :] = c[s] + S[s, :] (see the module docstring);
    a zero pooled cell with smoothing 0 is named by its row's ``row_tokens``
    and its word's ``output_rows`` token.  ``factor`` is the caller's
    :func:`_ridge_factor` of ``output_rows``.  The inputs are not checked:
    :func:`compute_subword_embeddings` checks shapes and arguments before
    calling this and its table checks the tokens after, and
    :func:`subseg.lexseg.refine` checks its own once and calls this on the
    rows each pass re-solves.
    """
    pooled = incidence @ counts.matrix()
    totals = np.asarray(pooled.sum(axis=1)).ravel()
    vocab_size = counts.vocab_size
    if smoothing == 0.0:
        short_rows = np.flatnonzero(np.diff(pooled.indptr) < vocab_size)
        if short_rows.size:
            row = int(short_rows[0])
            present = np.zeros(vocab_size, dtype=bool)
            present[pooled.indices[pooled.indptr[row] : pooled.indptr[row + 1]]] = True
            word = output_rows.tokens[int(np.argmin(present))]
            raise NumericalError(
                f"pooled count for subword {row_tokens[row]!r} and word {word!r} is zero; "
                "log target is undefined with smoothing 0"
            )
        pooled.data = np.log(pooled.data)
        constants = -np.log(totals)
    else:
        pooled.data = np.log1p(pooled.data / smoothing)
        constants = math.log(smoothing) - np.log(totals + smoothing * vocab_size)
    vectors = pooled @ factor.projector
    vectors += np.outer(constants, factor.column_sums)
    if not np.all(np.isfinite(vectors)):
        raise NumericalError("subword solve produced non-finite vectors")
    return vectors
