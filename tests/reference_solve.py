"""Dense forms of the subword solve, kept as oracles.

``compute_subword_embeddings`` never builds the dense log targets, and
``build_segmentation_matrix`` always adds every character of every word.
These are the dense targets, the solve of dense targets against an output
matrix, and the incidence of a lexicon's own pieces, which the tests check
the package against and build synthetic embeddings with.
"""

from __future__ import annotations

import numpy as np

from subseg.subspace import EmbeddingTable, SegmentationMatrix, _ridge_factor
from subseg.textio import SubwordVocabulary


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


def lexicon_incidence(word_tokens, lexicon):
    """The subword-to-word incidence of the lexicon's pieces, without added characters."""
    index = {word: position for position, word in enumerate(word_tokens)}
    incidence: dict[str, set[int]] = {}
    for word, parts in lexicon.items():
        for part in parts:
            incidence.setdefault(part, set()).add(index[word])
    subwords = SubwordVocabulary(sorted(incidence))
    rows = [sorted(incidence[token]) for token in subwords.tokens]
    return subwords, SegmentationMatrix(len(word_tokens), rows)
