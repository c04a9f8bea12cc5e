"""Similarity-driven segmentation and alternating lexicon refinement.

A word is split by dynamic programming over its prefix positions: each
candidate subword contributes the cosine between the word's vector and the
subword's vector, minus a constant penalty ``alpha`` per subword.  Ties are
broken toward fewer subwords, then toward the lexicographically smallest
subword sequence, so segmentation is fully deterministic.  The DP runs on
all words of one length at once, sweeping end positions with numpy; a lone
word (:func:`embedding_segment`) is a batch of one.

Refinement alternates two steps over a whole lexicon: solve subword
vectors for the current segmentations, then re-segment every word with
those vectors, pruning subwords that fall out of use.  The subword
inventory can only shrink, and the loop stops at the first pass that
changes no word.  Every pass solves against one ridge factor of the
output matrix, built before the first.  The incidence is one sorted int64
array of ``piece_id * |V| + word_id`` keys read off the DP's cut masks.
Refinement is incremental and exact: each solved row depends only on its
own incidence row, so a pass solves, from a CSR of their keys, only the
surviving rows keyed in the symmetric difference of its old and new keys,
and re-scores only the (word, substring) pairs of those rows.  The pairs
are numbered once, by ``np.unique`` over every span of every word, and
re-scored in blocks of ``_GATHER_BYTES`` per gathered operand.  The
scores equal :func:`cosine` bit for bit, so refinement segments exactly as
a full re-solve followed by per-word :func:`embedding_segment` calls would.
A corpus is segmented with the result by passing its ``lexicon`` to
:func:`subseg.textio.segment_corpus`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from subseg.errors import ArgumentError, CoverageError, ValidationError
from subseg.cooccur import CooccurrenceCounts
from subseg.subspace import (
    _character_keys,
    _check_smoothing,
    _incidence_csr,
    _ridge_factor,
    _solve_incidence,
    _sorted_unique,
)
from subseg.tables import EmbeddingTable
from subseg.textio import ScoredSegmentation, SegmentedLexicon, _check_token


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
    ``subwords`` is its token tuple, in lexicographic order.
    :func:`refine` refuses an output matrix it cannot solve against before its first pass.
    """

    iterations: int
    embeddings: EmbeddingTable
    lexicon: SegmentedLexicon
    history: tuple[IterationStats, ...]

    @property
    def subwords(self) -> tuple[str, ...]:
        return self.embeddings.tokens

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


# Bytes of each operand :meth:`_WordSubstrings.score` gathers at a time:
# 1,024 rows at d = 64, 218 at d = 300.  Blocks this size stay in a core's
# cache between the gather and the dot; blocks of 4,096 rows took 2-3 times
# as long at either dim.
_GATHER_BYTES = 1 << 19


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """The norm of each row of a (n, dim) stack, equal to ``np.linalg.norm`` of the row bit for bit."""
    # np.linalg.norm of a vector is sqrt(v . v), and vecdot computes each
    # row's dot product the way np.dot does.
    return np.sqrt(np.vecdot(vectors, vectors))


def _pair_cosines(
    left: np.ndarray, right: np.ndarray, left_norms: np.ndarray, right_norms: np.ndarray
) -> np.ndarray:
    """Cosine of each row pair of two (n, dim) stacks with their :func:`_row_norms`.

    Equal to :func:`cosine` bit for bit: the dots match np.dot as the norms do.
    """
    out = np.zeros(left.shape[0], dtype=np.float64)
    np.divide(
        np.vecdot(left, right),
        left_norms * right_norms,
        out=out,
        where=(left_norms != 0.0) & (right_norms != 0.0),
    )
    return out


def _check_alpha(alpha: float) -> None:
    # A NaN penalty makes every score comparison false, and an infinite one
    # makes every score equal, so neither ranks anything.
    if not math.isfinite(alpha):
        raise ArgumentError(f"alpha must be finite, got {alpha!r}")


class _WordSubstrings:
    """The substrings of a fixed word list, scored against changing subword vectors.

    A pair is one word and one distinct substring (a piece) of it.  Words
    are grouped by length n, and each group keeps a (k, n, n + 1) int32
    table from span (start, end) of each of its k words to that span's pair;
    cells with end <= start hold -1, which indexes the padding entry kept
    at the end of the pair arrays and is never present.  Pieces are numbered
    by first occurrence over the spans of all words, group by group, and
    pairs in order of (word position, piece id): ``np.unique`` of one such
    key per span numbers them and maps every span to its pair.  Pair
    cosines persist between :meth:`score` calls, so a call only recomputes
    the pairs of the pieces it is given, ``_GATHER_BYTES`` of each gathered
    operand at a time.  Word norms are computed once, here, and a call
    computes each of its pieces' norms once, however many words share the
    piece.
    """

    def __init__(self, words: Sequence[str], word_vectors: np.ndarray):
        self.words = words
        self.word_vectors = word_vectors
        self.word_norms = _row_norms(word_vectors)
        by_length: dict[int, list[int]] = {}
        for position, word in enumerate(words):
            by_length.setdefault(len(word), []).append(position)
        groups = sorted(by_length.items())
        spans = {
            n: [(start, end) for start in range(n) for end in range(start + 1, n + 1)] for n in by_length
        }
        self.piece_ids: dict[str, int] = {}
        span_pieces = [
            self.piece_ids.setdefault(words[position][start:end], len(self.piece_ids))
            for n, positions in groups
            for position in positions
            for start, end in spans[n]
        ]
        ordered = np.array([position for _, positions in groups for position in positions], dtype=np.int64)
        lengths = np.array([len(words[position]) for position in ordered.tolist()], dtype=np.int64)
        span_words = np.repeat(ordered, lengths * (lengths + 1) // 2)
        keys, span_pairs = np.unique(
            span_words * len(self.piece_ids) + np.array(span_pieces, dtype=np.int64), return_inverse=True
        )
        self.pair_word, self.pair_piece = (
            part.astype(np.int32) for part in np.divmod(keys, len(self.piece_ids))
        )
        self.groups: list[tuple[np.ndarray, np.ndarray]] = []
        offset = 0
        for n, positions in groups:
            table = np.full((len(positions), n, n + 1), -1, dtype=np.int32)
            starts, ends = np.array(spans[n]).T
            size = len(positions) * len(starts)
            table[:, starts, ends] = span_pairs[offset : offset + size].reshape(len(positions), -1)
            offset += size
            self.groups.append((np.array(positions, dtype=np.intp), table))
        self.cosines = np.zeros(keys.size + 1, dtype=np.float64)
        self.present = np.zeros(keys.size + 1, dtype=bool)

    def score(self, vectors: np.ndarray, piece_row: np.ndarray, chosen: np.ndarray | None = None) -> None:
        """Re-score the pairs of the pieces ``chosen`` marks (a boolean mask over piece ids; all when None).

        ``piece_row`` maps every piece id to its row of ``vectors``, or to -1
        for a piece without a vector; a pair is present when its piece has a
        row.  Every score equals :func:`cosine` of the two vectors bit for bit.
        """
        rows = piece_row[self.pair_piece]
        np.greater_equal(rows, 0, out=self.present[:-1])
        wanted = (piece_row >= 0) if chosen is None else (piece_row >= 0) & chosen
        todo = np.flatnonzero(wanted[self.pair_piece])
        block_rows = max(1, _GATHER_BYTES // (vectors.shape[1] * vectors.itemsize))
        # Only the rows of wanted pieces are read, each norm computed once.
        norms = np.empty(len(vectors), dtype=np.float64)
        needed = piece_row[wanted]
        for lo in range(0, needed.size, block_rows):
            chunk = needed[lo : lo + block_rows]
            norms[chunk] = _row_norms(vectors[chunk])
        for lo in range(0, todo.size, block_rows):
            block = todo[lo : lo + block_rows]
            word_ids, piece_rows = self.pair_word[block], rows[block]
            self.cosines[block] = _pair_cosines(
                self.word_vectors[word_ids],
                vectors[piece_rows],
                self.word_norms[word_ids],
                norms[piece_rows],
            )

    def cut_masks(self, segmentations: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """Per group, a (k, n + 1) mask with True at the end of each piece of each word."""
        masks = []
        for positions, spans in self.groups:
            mask = np.zeros((len(positions), spans.shape[2]), dtype=bool)
            for row, position in enumerate(positions.tolist()):
                mask[row, list(accumulate(map(len, segmentations[position])))] = True
            masks.append(mask)
        return masks

    def pieces(self, masks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The word position, start, end and piece id of every piece the cut masks make.

        Masks are as in :meth:`cut_masks`, one per group.  Pieces come group
        by group, word by word, and in order within each word.
        """
        # An empty int64 first part keeps piece keys from wrapping and an empty lexicon valid.
        parts = [(np.zeros(0, dtype=np.int64),) * 4]
        for (positions, spans), mask in zip(self.groups, masks):
            rows, ends = np.nonzero(mask)
            # Each piece runs from the cut before its end, or from 0 after
            # the previous word's last cut, which is at the end n.
            starts = np.roll(ends, 1)
            starts[starts == mask.shape[1] - 1] = 0
            parts.append((positions[rows], starts, ends, self.pair_piece[spans[rows, starts, ends]]))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def segment(self, alpha: float) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The best split of every word, as (word positions, scores, cut masks) per group.

        Cut masks are as in :meth:`cut_masks`.  A word that no split covers
        raises a coverage error; of several, the first in list order.
        """
        results = []
        uncovered: list[tuple[int, np.ndarray]] = []  # (position, spans) per group
        for positions, spans in self.groups:
            scores, back, covered = _best_splits(self.cosines[spans], self.present[spans], alpha)
            if covered.all():
                results.append((positions, scores, _cut_masks(back)))
            else:
                row = int(np.argmin(covered))
                uncovered.append((int(positions[row]), spans[row]))
        if uncovered:
            position, spans = min(uncovered, key=lambda item: item[0])
            word = self.words[position]
            # Unreachable intermediate positions are fine (a longer piece can
            # span them), but an unreachable end means no path exists, and
            # that can only happen when some character lacks a vector.
            missing = next(ch for i, ch in enumerate(word) if not self.present[spans[i, i + 1]])
            raise CoverageError(
                f"cannot segment {word!r}: character {missing!r} is missing "
                "from the subword vocabulary"
            )
        return results


def _best_splits(
    sims: np.ndarray, present: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segmentation DP for k words of one length n, swept over end positions.

    ``sims[:, start, end]`` is the cosine of span (start, end) and
    ``present`` says which spans have a vector.  A prefix's score is the best
    prefix score plus (cosine - alpha), the same two operations in the same
    order as a scalar DP, so scores are bitwise equal to it.  Among equal
    scores the fewest pieces win, then the smallest piece sequence: for two
    splits of one prefix, the shorter of the first two pieces that differ is
    a prefix of the longer, so the smaller sequence is the one whose cut
    positions are lexicographically smaller.  Returns each word's score, the
    back pointers (start of the last piece of each prefix's best split) and
    whether each word is covered.
    """
    k, n = sims.shape[:2]
    scores = np.zeros((k, n + 1), dtype=np.float64)
    pieces = np.zeros((k, n + 1), dtype=np.int64)
    reached = np.zeros((k, n + 1), dtype=bool)
    reached[:, 0] = True
    back = np.zeros((k, n + 1), dtype=np.intp)
    rows = np.arange(k)
    for end in range(1, n + 1):
        # A huge alpha overflows a sum to -inf silently, as Python floats do.
        with np.errstate(over="ignore"):
            candidates = scores[:, :end] + (sims[:, :end, end] - alpha)
        valid = reached[:, :end] & present[:, :end, end]
        best = np.where(valid, candidates, -np.inf).max(axis=1)
        tied = valid & (candidates == best[:, None])
        fewest = np.where(tied, pieces[:, :end], n + 1).min(axis=1)
        tied &= pieces[:, :end] == fewest[:, None]
        start = tied.argmax(axis=1)
        # Tied splits have equally many pieces, so comparing the cut
        # positions of their prefixes orders them as the full splits.
        for row in np.flatnonzero(tied.sum(axis=1) > 1).tolist():
            start[row] = min(
                np.flatnonzero(tied[row]).tolist(),
                key=lambda stop: _prefix_cuts(back[row], stop),
            )
        back[:, end] = start
        scores[:, end] = candidates[rows, start]
        pieces[:, end] = pieces[rows, start] + 1
        reached[:, end] = valid.any(axis=1)
    return scores[:, n], back, reached[:, n]


def _prefix_cuts(back: np.ndarray, stop: int) -> list[int]:
    """Cut positions, in order, of the best split of the prefix ending at ``stop``."""
    cuts = []
    while stop > 0:
        cuts.append(stop)
        stop = int(back[stop])
    return cuts[::-1]


def _cut_masks(back: np.ndarray) -> np.ndarray:
    """Follow back pointers from each word's end into a mask of its cut positions."""
    k, width = back.shape
    masks = np.zeros((k, width), dtype=bool)
    rows = np.arange(k)
    stop = np.full(k, width - 1)
    while stop.any():
        masks[rows, stop] = True
        stop = back[rows, stop]
    masks[:, 0] = False
    return masks


def _split_at(word: str, mask: np.ndarray) -> tuple[str, ...]:
    ends = np.flatnonzero(mask).tolist()
    return tuple(word[start:end] for start, end in zip([0, *ends], ends))


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
    coverage error naming the missing character.  ``alpha`` must be finite.
    """
    _check_token(word, "word", ArgumentError)
    _check_alpha(alpha)
    word_vector = np.asarray(word_vector, dtype=np.float64)
    if word_vector.shape != (subword_embeddings.dim,):
        raise ArgumentError(
            f"word vector has shape {word_vector.shape}, expected ({subword_embeddings.dim},)"
        )
    if not np.all(np.isfinite(word_vector)):
        raise ValidationError(f"word vector for {word!r} has non-finite components")
    substrings = _WordSubstrings([word], word_vector[None, :])
    piece_row = np.array(
        [subword_embeddings.token_id(p) if p in subword_embeddings else -1 for p in substrings.piece_ids],
        dtype=np.intp,
    )
    substrings.score(subword_embeddings.vectors, piece_row)
    ((_, scores, masks),) = substrings.segment(alpha)
    return ScoredSegmentation(_split_at(word, masks[0]), float(scores[0]))


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
    The first pass solves the incidence of ``lexicon0`` with every single
    character added; each pass then re-segments every lexicon word in
    sorted order, and the incidence becomes that of the new segmentations
    alone, so unused subwords drop out.  The subword inventory never grows.
    Iteration stops after ``max_iters`` passes or the first pass with zero
    changed words.  ``ridge=None`` selects the scale-aware default;
    ``alpha`` must be finite.

    The result equals solving the whole incidence and re-segmenting each
    word with :func:`embedding_segment` on every pass, bit for bit, but a
    pass does less: a solved row depends only on its own incidence row,
    so only rows whose word set changed are solved again, and only rows
    that are substrings of some lexicon word are solved at all; and only
    the (word, piece) cosines of re-solved pieces are recomputed.  The
    incidence is one sorted array of ``piece_id * |V| + word_id`` keys,
    taken from each pass's cut masks.  The solve and the output matrix are
    checked as :func:`compute_subword_embeddings` checks them: a bad
    ``smoothing`` before any work, and a matrix with more dimensions than
    words or a ridge that does not regularize it before the first pass, as
    the one ridge factor of every pass is built, even on an empty lexicon.
    """
    _check_alpha(alpha)
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
    _check_smoothing(smoothing)

    vocab_size = counts.vocab_size
    words = sorted(lexicon0.words())
    word_ids = np.array([word_embeddings.token_id(word) for word in words], dtype=np.int64)
    substrings = _WordSubstrings(words, word_embeddings.vectors[word_ids])
    masks = substrings.cut_masks([lexicon0[word] for word in words])

    def incidence(masks: Sequence[np.ndarray], *extra: np.ndarray) -> np.ndarray:
        positions, _, _, pieces = substrings.pieces(masks)
        return _sorted_unique(np.concatenate([pieces * vocab_size + word_ids[positions], *extra]))

    # The first pass solves the keys of lexicon0 and of every single
    # character over the vocabulary words that hold it, restricted to the
    # rows the DP can use (substrings of lexicon words); each later pass,
    # those of the segmentations alone.  A piece keeps one row of ``vectors``,
    # and ``dirty`` marks the pieces a pass solves.
    keys = incidence(masks, _character_keys(word_embeddings.tokens, substrings.piece_ids))
    names = list(substrings.piece_ids)
    dirty = np.zeros(len(names), dtype=bool)
    dirty[keys // vocab_size] = True
    piece_row = np.full(len(names), -1, dtype=np.intp)
    piece_row[dirty] = np.arange(np.count_nonzero(dirty))
    vectors = np.empty((np.count_nonzero(dirty), output_rows.dim), dtype=np.float64)
    factor = _ridge_factor(output_rows, ridge)
    history: list[IterationStats] = []
    for iteration in range(1, max_iters + 1):
        solving = np.flatnonzero(dirty)
        if solving.size:
            rows = _incidence_csr(keys[dirty[keys // vocab_size]], vocab_size)
            vectors[piece_row[solving]] = _solve_incidence(
                rows, [names[piece] for piece in solving.tolist()], counts, output_rows, factor, smoothing
            )
        substrings.score(vectors, piece_row, dirty)
        old_masks, masks = masks, [cuts for _, _, cuts in substrings.segment(alpha)]
        changed = sum(int((new != old).any(axis=1).sum()) for old, new in zip(old_masks, masks))
        new_keys = incidence(masks)
        alive = np.zeros(piece_row.size, dtype=bool)
        alive[new_keys // vocab_size] = True
        piece_row[~alive] = -1
        # Only the rows whose word set changed and that still exist are solved again.
        dirty = np.zeros(piece_row.size, dtype=bool)
        dirty[np.setxor1d(keys, new_keys, assume_unique=True) // vocab_size] = True
        dirty &= alive
        keys = new_keys
        stats = IterationStats(iteration, changed, int(alive.sum()))
        history.append(stats)
        if progress is not None:
            progress(stats)
        if changed == 0:
            break
    lexicon: dict[str, list[str]] = {word: [] for word in words}
    for position, start, end in zip(*(column.tolist() for column in substrings.pieces(masks)[:3])):
        lexicon[words[position]].append(words[position][start:end])
    pieces = sorted(np.flatnonzero(piece_row >= 0).tolist(), key=names.__getitem__)
    tokens = tuple(names[piece] for piece in pieces)
    return RefinementState(
        iterations=history[-1].iteration,
        embeddings=EmbeddingTable._owning(tokens, vectors[piece_row[pieces]]),
        lexicon=SegmentedLexicon(lexicon),
        history=tuple(history),
    )

