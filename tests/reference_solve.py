"""Dense and per-row forms of the subword solve, kept as oracles.

``compute_subword_embeddings`` never builds the dense log targets, and
``build_segmentation_matrix`` builds its incidence as one sorted key array
and always adds every character of every word in lexicon mode.  These are
the dense targets, the solve of dense targets against an output matrix, the
incidence built as a dict of word-id sets per subword, with and without
the added characters, and the conversion between word-id rows and a
``SegmentationMatrix``, which the tests check the package against and
build synthetic embeddings with.
"""

from __future__ import annotations

import numpy as np

from subseg.subspace import EmbeddingTable, SegmentationMatrix, _ridge_factor


def smoothed_log_target(matrix, counts, smoothing=0.1):
    """Dense log targets: pooled co-occurrence rows, smoothed and normalized.

    Row s is log((AC[s, .] + smoothing) / (sum_y AC[s, y] + smoothing |V|)),
    so exp of every row sums to one.
    """
    pooled = (matrix.to_csr() @ counts.matrix()).toarray()
    denominators = pooled.sum(axis=1) + smoothing * counts.vocab_size
    return np.log((pooled + smoothing) / denominators[:, None])


def right_inverse_solve(targets, output_rows: EmbeddingTable, ridge=0.0):
    """Rows X minimizing ||X W - T||_F^2 + ridge ||X||_F^2, W stored as ``output_rows``.

    The result is T W^T (W W^T + ridge I)^{-1}, through the table's cached
    projector, so a rank-deficient W raises as it does in the solve.
    """
    return np.asarray(targets, dtype=np.float64) @ _ridge_factor(output_rows, ridge).projector


def segmentation_matrix(word_count, rows):
    """The ``SegmentationMatrix`` of word-id rows, through their keys ``row * word_count + word_id``.

    The rows are taken as given, unsorted or empty ones included, so the
    constructor's checks see them.
    """
    keys = [row * word_count + word_id for row, word_ids in enumerate(rows) for word_id in word_ids]
    return SegmentationMatrix(word_count, len(rows), np.array(keys, dtype=np.int64))


def matrix_rows(matrix):
    """The word ids of each row of a ``SegmentationMatrix``, as tuples."""
    csr = matrix.to_csr()
    return [tuple(csr.indices[start:stop].tolist()) for start, stop in zip(csr.indptr, csr.indptr[1:])]


def reference_segmentation_matrix(word_tokens, lexicon=None, max_substring_len=None, characters=True):
    """``build_segmentation_matrix`` for valid arguments, as a dict of word-id sets per subword.

    ``characters=False`` leaves out lexicon mode's added characters.
    """
    index = {word: position for position, word in enumerate(word_tokens)}
    incidence: dict[str, set[int]] = {}
    if lexicon is not None:
        for word, parts in lexicon.items():
            for part in parts:
                incidence.setdefault(part, set()).add(index[word])
        for word, word_id in index.items():
            for ch in set(word) if characters else ():
                incidence.setdefault(ch, set()).add(word_id)
    else:
        for word, word_id in index.items():
            n = len(word)
            for start in range(n):
                for stop in range(start + 1, min(start + max_substring_len, n) + 1):
                    incidence.setdefault(word[start:stop], set()).add(word_id)
    subwords = tuple(sorted(incidence))
    rows = [sorted(incidence[token]) for token in subwords]
    return subwords, segmentation_matrix(len(word_tokens), rows)


def lexicon_incidence(word_tokens, lexicon):
    """The subword-to-word incidence of the lexicon's pieces, without added characters."""
    return reference_segmentation_matrix(word_tokens, lexicon, characters=False)
