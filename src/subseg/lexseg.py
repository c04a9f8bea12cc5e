"""Similarity-driven segmentation and alternating lexicon refinement.

A word is split by dynamic programming over its prefix positions: each
candidate subword contributes the cosine between the word's vector and the
subword's vector, minus a constant penalty ``alpha`` per subword.  Ties are
broken toward fewer subwords, then toward the lexicographically smallest
subword sequence, so segmentation is fully deterministic.

Refinement alternates two steps over a whole lexicon: solve subword
vectors for the current segmentations, then re-segment every word with
those vectors, pruning subwords that fall out of use.  The subword
inventory can only shrink, and the loop stops at the first pass that
changes no word.  Each pass scores every (word, in-table substring) pair in
one gathered numpy pass whose values equal :func:`cosine` bit for bit, so
refinement segments exactly as per-word :func:`embedding_segment` calls would.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from subseg.errors import ArgumentError, CoverageError, ValidationError
from subseg.cooccur import CooccurrenceCounts
from subseg import textio
from subseg.subspace import (
    EmbeddingTable,
    SegmentationMatrix,
    build_segmentation_matrix,
    compute_subword_embeddings,
    default_ridge,
)
# Defined in textio, which imports no numpy; OOV_POLICIES is re-exported for
# callers of segment_corpus.
from subseg.textio import (
    OOV_POLICIES,
    ScoredSegmentation,
    SegmentedLexicon,
    SubwordVocabulary,
    _candidate_order,
    _check_token,
)


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    changed_words: int
    subword_count: int


@dataclass(frozen=True)
class RefinementState:
    """Converged (or iteration-capped) output of :func:`refine`.

    ``embeddings`` holds the subword vectors used for the final
    re-segmentation pass, restricted to the surviving subwords; at
    convergence they are exactly the vectors of the final incidence.
    """

    iterations: int
    subwords: SubwordVocabulary
    matrix: SegmentationMatrix
    embeddings: EmbeddingTable
    lexicon: SegmentedLexicon
    history: tuple[IterationStats, ...]

    @property
    def converged(self) -> bool:
        return bool(self.history) and self.history[-1].changed_words == 0


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, defined as 0.0 whenever either vector is zero."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


# Pairs scored per block; bounds the two gathered (block, dim) arrays.
_PAIR_BLOCK = 4096


def _pair_cosines(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Cosine of each row pair of two (n, dim) stacks, equal to :func:`cosine` bit for bit."""
    # np.linalg.norm of a vector is sqrt(v . v), and vecdot computes each
    # row's dot product the way np.dot does, so the norms and dots match.
    left_norms = np.sqrt(np.vecdot(left, left))
    right_norms = np.sqrt(np.vecdot(right, right))
    out = np.zeros(left.shape[0], dtype=np.float64)
    np.divide(
        np.vecdot(left, right),
        left_norms * right_norms,
        out=out,
        where=(left_norms != 0.0) & (right_norms != 0.0),
    )
    return out


class _WordSubstrings:
    """Every (word, distinct substring of that word) pair of a word list.

    Built once; :meth:`similarities` then scores all pairs whose substring
    is in a subword table with one gathered pass.
    """

    def __init__(self, words: Sequence[str]):
        self.pieces = [
            sorted({w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}) for w in words
        ]
        piece_ids: dict[str, int] = {}
        pair_piece = [
            piece_ids.setdefault(piece, len(piece_ids))
            for pieces in self.pieces
            for piece in pieces
        ]
        self.distinct = list(piece_ids)
        self.pair_piece = np.array(pair_piece, dtype=np.intp)
        self.pair_word = np.repeat(
            np.arange(len(self.pieces), dtype=np.intp), [len(p) for p in self.pieces]
        )

    def similarities(
        self, word_vectors: np.ndarray, table: EmbeddingTable
    ) -> Iterator[dict[str, float]]:
        """Per word, the cosine of ``word_vectors[word]`` to each substring in ``table``.

        Every value equals :func:`cosine` of the same two vectors bit for bit.
        """
        row_of_piece = [table.token_id(p) if p in table else -1 for p in self.distinct]
        rows = np.array(row_of_piece, dtype=np.intp)[self.pair_piece]
        present = rows >= 0
        pair_word, pair_row = self.pair_word[present], rows[present]
        values = np.zeros(rows.size, dtype=np.float64)
        scored = np.empty(pair_row.size, dtype=np.float64)
        for lo in range(0, scored.size, _PAIR_BLOCK):
            hi = lo + _PAIR_BLOCK
            scored[lo:hi] = _pair_cosines(
                word_vectors[pair_word[lo:hi]], table.vectors[pair_row[lo:hi]]
            )
        values[present] = scored
        values_list, present_list = values.tolist(), present.tolist()
        stop = 0
        for pieces in self.pieces:
            start, stop = stop, stop + len(pieces)
            yield {
                piece: value
                for piece, value, keep in zip(
                    pieces, values_list[start:stop], present_list[start:stop]
                )
                if keep
            }


def embedding_segment(
    word: str,
    word_vector: np.ndarray,
    subword_embeddings: EmbeddingTable,
    alpha: float = 1.0,
) -> ScoredSegmentation:
    """Best-scoring segmentation of ``word`` under the cosine objective.

    The score of a split into k subwords is the sum of their cosine
    similarities to ``word_vector`` minus ``alpha`` * k.  The dynamic
    program walks prefix end positions left to right; among equal scores
    it prefers fewer subwords, then the lexicographically smallest
    sequence.  A position that no in-table subword can reach raises a
    coverage error naming the missing character.
    """
    _check_token(word, "word", ArgumentError)
    word_vector = np.asarray(word_vector, dtype=np.float64)
    if word_vector.shape != (subword_embeddings.dim,):
        raise ArgumentError(
            f"word vector has shape {word_vector.shape}, expected ({subword_embeddings.dim},)"
        )
    if not np.all(np.isfinite(word_vector)):
        raise ValidationError(f"word vector for {word!r} has non-finite components")
    sims = next(_WordSubstrings([word]).similarities(word_vector[None, :], subword_embeddings))
    return _best_segmentation(word, sims, alpha)


def _best_segmentation(word: str, sims: Mapping[str, float], alpha: float) -> ScoredSegmentation:
    """The dynamic program of :func:`embedding_segment` over precomputed similarities.

    ``sims`` maps every substring of ``word`` that has a vector to its cosine.
    """
    n = len(word)
    # One hypothesis per prefix length: (score, subword count, sequence).
    best: list[tuple[float, int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for end in range(1, n + 1):
        chosen: tuple[float, int, tuple[str, ...]] | None = None
        for start in range(end):
            prefix = best[start]
            if prefix is None:
                continue
            piece = word[start:end]
            similarity = sims.get(piece)
            if similarity is None:
                continue
            candidate = (
                prefix[0] + (similarity - alpha),
                prefix[1] + 1,
                prefix[2] + (piece,),
            )
            if chosen is None or _candidate_order(candidate) < _candidate_order(chosen):
                chosen = candidate
        best[end] = chosen
    final = best[n]
    if final is None:
        # Unreachable intermediate positions are fine (a longer subword can
        # span them), but an unreachable end means no path exists, and that
        # can only happen when some character lacks a vector.
        missing = next(ch for ch in word if ch not in sims)
        raise CoverageError(
            f"cannot segment {word!r}: character {missing!r} is missing "
            "from the subword vocabulary"
        )
    return ScoredSegmentation(final[2], final[0])


def refine(
    lexicon0: SegmentedLexicon,
    word_embeddings: EmbeddingTable,
    counts: CooccurrenceCounts,
    output_rows: EmbeddingTable,
    alpha: float = 1.0,
    smoothing: float = 0.1,
    ridge: float | None = None,
    max_iters: int = 10,
    progress: Callable[[IterationStats], None] | None = None,
) -> RefinementState:
    """Alternate subword solving and re-segmentation until a fixed point.

    Word ids follow ``word_embeddings`` row order; the co-occurrence table
    and the output matrix must cover the same words in the same order.
    Each iteration solves subword vectors for the current incidence,
    re-segments every lexicon word in sorted order, then rebuilds the
    incidence from the new segmentations alone so unused subwords drop
    out.  The subword inventory never grows.  Iteration stops after
    ``max_iters`` passes or the first pass with zero changed words.
    ``ridge=None`` resolves the scale-aware default once for the whole run.
    """
    if max_iters < 1:
        raise ArgumentError(f"max_iters must be at least 1, got {max_iters}")
    if len(word_embeddings) != counts.vocab_size or len(output_rows) != counts.vocab_size:
        raise ValidationError(
            "word coverage mismatch: embeddings "
            f"{len(word_embeddings)}, counts {counts.vocab_size}, output rows {len(output_rows)}"
        )
    if word_embeddings.dim != output_rows.dim:
        raise ArgumentError(
            f"embedding dim {word_embeddings.dim} differs from output matrix dim {output_rows.dim}"
        )
    for word in lexicon0.words():
        if word not in word_embeddings:
            raise ValidationError(f"lexicon word {word!r} has no word embedding")

    if ridge is None:
        ridge = default_ridge(output_rows)
    words = sorted(lexicon0.words())
    substrings = _WordSubstrings(words)
    word_vectors = word_embeddings.vectors[[word_embeddings.token_id(word) for word in words]]
    current = {word: lexicon0[word] for word in words}
    subwords, matrix = build_segmentation_matrix(
        word_embeddings.tokens, lexicon=lexicon0, augment_chars=True
    )
    history: list[IterationStats] = []
    solved: EmbeddingTable | None = None
    for iteration in range(1, max_iters + 1):
        solved = compute_subword_embeddings(
            subwords, matrix, counts, output_rows, smoothing=smoothing, ridge=ridge
        )
        changed = 0
        resegmented: dict[str, tuple[str, ...]] = {}
        for word, sims in zip(words, substrings.similarities(word_vectors, solved)):
            segmentation = _best_segmentation(word, sims, alpha).subwords
            if segmentation != current[word]:
                changed += 1
            resegmented[word] = segmentation
        current = resegmented
        subwords, matrix = build_segmentation_matrix(
            word_embeddings.tokens,
            lexicon=SegmentedLexicon(current),
            augment_chars=False,
        )
        stats = IterationStats(iteration, changed, len(subwords))
        history.append(stats)
        if progress is not None:
            progress(stats)
        if changed == 0:
            break
    surviving = [solved.token_id(token) for token in subwords.tokens]
    final_embeddings = EmbeddingTable(subwords.tokens, solved.vectors[surviving])
    return RefinementState(
        iterations=history[-1].iteration,
        subwords=subwords,
        matrix=matrix,
        embeddings=final_embeddings,
        lexicon=SegmentedLexicon(current),
        history=tuple(history),
    )


def segment_corpus(
    lines: Iterable[str],
    segmentations: RefinementState | SegmentedLexicon | Mapping[str, Sequence[str]],
    oov_policy: str = "error",
) -> Iterator[list[tuple[str, ...]]]:
    """:func:`subseg.textio.segment_corpus` that also accepts a refinement result."""
    if isinstance(segmentations, RefinementState):
        segmentations = segmentations.lexicon
    return textio.segment_corpus(lines, segmentations, oov_policy)
