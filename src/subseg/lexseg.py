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
changes no word.  It is incremental and exact: each solved row depends
only on its own incidence row, so a pass solves only the rows whose word
set changed, re-scores only the (word, substring) pairs of those rows, and
moves the ids of changed words between the incidence rows in place.  The
scores equal :func:`cosine` bit for bit, so refinement segments exactly as
a full re-solve followed by per-word :func:`embedding_segment` calls would.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
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
# callers of segment_corpus, _candidate_order for the DP's tie order.
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
# Piece norms computed per gather.  One gather as large as a pair block,
# freed just before the pair blocks, raised refine's peak RSS by 0.2 MB:
# glibc's malloc then serves the pair blocks from a heap it grows and keeps.
_NORM_ROWS = 256


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
    at the end of the pair arrays and is never present.  Pair cosines
    persist between :meth:`score` calls, so a call only recomputes the pairs
    of the pieces it is given.  Word norms are computed once, here, and a
    call computes each of its pieces' norms once, however many words share
    the piece.
    """

    def __init__(self, words: Sequence[str], word_vectors: np.ndarray):
        self.words = words
        self.word_vectors = word_vectors
        self.word_norms = _row_norms(word_vectors)
        by_length: dict[int, list[int]] = {}
        for position, word in enumerate(words):
            by_length.setdefault(len(word), []).append(position)
        # Pairs are numbered word by word in group order; each word's pairs
        # follow the first occurrence of their piece in the span order.
        pair_pieces: list[str] = []
        pair_counts: list[int] = []
        ordered: list[int] = []
        self.groups: list[tuple[np.ndarray, np.ndarray]] = []
        for n, positions in sorted(by_length.items()):
            spans = [(start, end) for start in range(n) for end in range(start + 1, n + 1)]
            pairs = array("i")
            for position in positions:
                word = words[position]
                pieces = [word[start:end] for start, end in spans]
                distinct = dict.fromkeys(pieces)
                pair_ids = dict(zip(distinct, range(len(pair_pieces), len(pair_pieces) + len(distinct))))
                pairs.extend(map(pair_ids.__getitem__, pieces))
                pair_pieces.extend(distinct)
                pair_counts.append(len(distinct))
            table = np.full((len(positions), n, n + 1), -1, dtype=np.int32)
            starts, ends = np.array(spans).T
            table[:, starts, ends] = np.frombuffer(pairs, dtype=np.intc).reshape(len(positions), -1)
            self.groups.append((np.array(positions, dtype=np.intp), table))
            ordered.extend(positions)
        self.piece_ids = {piece: i for i, piece in enumerate(dict.fromkeys(pair_pieces))}
        self.pair_piece = np.fromiter(
            map(self.piece_ids.__getitem__, pair_pieces), dtype=np.int32, count=len(pair_pieces)
        )
        self.pair_word = np.repeat(np.array(ordered, dtype=np.int32), pair_counts)
        self.cosines = np.zeros(len(pair_pieces) + 1, dtype=np.float64)
        self.present = np.zeros(len(pair_pieces) + 1, dtype=bool)

    def score(
        self, vectors: np.ndarray, piece_row: np.ndarray, pieces: Sequence[int] | None = None
    ) -> None:
        """Re-score the pairs of ``pieces`` (piece ids; all pieces when None).

        ``piece_row`` maps every piece id to its row of ``vectors``, or to -1
        for a piece without a vector; a pair is present when its piece has a
        row.  Every score equals :func:`cosine` of the two vectors bit for bit.
        """
        rows = piece_row[self.pair_piece]
        np.greater_equal(rows, 0, out=self.present[:-1])
        wanted = piece_row >= 0
        if pieces is not None:
            chosen = np.zeros(piece_row.size, dtype=bool)
            chosen[list(pieces)] = True
            wanted &= chosen
        todo = np.flatnonzero(wanted[self.pair_piece])
        # Only the rows of wanted pieces are read, each norm computed once.
        norms = np.empty(len(vectors), dtype=np.float64)
        needed = piece_row[wanted]
        for lo in range(0, needed.size, _NORM_ROWS):
            chunk = needed[lo : lo + _NORM_ROWS]
            norms[chunk] = _row_norms(vectors[chunk])
        for lo in range(0, todo.size, _PAIR_BLOCK):
            block = todo[lo : lo + _PAIR_BLOCK]
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
                end = 0
                for piece in segmentations[position]:
                    end += len(piece)
                    mask[row, end] = True
            masks.append(mask)
        return masks

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
    changed words.  ``ridge=None`` resolves the scale-aware default once
    for the whole run; ``alpha`` must be finite.

    The result equals solving the whole incidence and re-segmenting each
    word with :func:`embedding_segment` on every pass, bit for bit, but a
    pass does less: a solved row depends only on its own incidence row,
    so only rows whose word set changed are solved again, and only rows
    that are substrings of some lexicon word are solved at all; only the
    (word, piece) cosines of re-solved pieces are recomputed; and the
    incidence is updated in place from the words that changed.
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

    if ridge is None:
        ridge = default_ridge(output_rows)
    words = sorted(lexicon0.words())
    word_ids = [word_embeddings.token_id(word) for word in words]
    substrings = _WordSubstrings(words, word_embeddings.vectors[word_ids])
    current = {word: lexicon0[word] for word in words}
    masks = substrings.cut_masks(list(current.values()))
    # Word ids per piece.  The first pass solves the augmented incidence of
    # lexicon0, restricted to the rows the DP can use (substrings of lexicon
    # words), as sorted tuples; from the rebuild after it on, the rows are
    # sets updated in place.  Each piece keeps one row of ``vectors``.
    augmented, matrix0 = build_segmentation_matrix(
        word_embeddings.tokens, lexicon=lexicon0, augment_chars=True
    )
    members: dict[str, Collection[int]] = {
        piece: row
        for piece, row in zip(augmented.tokens, matrix0.rows)
        if piece in substrings.piece_ids
    }
    piece_row = np.full(len(substrings.piece_ids), -1, dtype=np.intp)
    for row, piece in enumerate(members):
        piece_row[substrings.piece_ids[piece]] = row
    vectors = np.empty((len(members), output_rows.dim), dtype=np.float64)
    dirty = sorted(members)
    history: list[IterationStats] = []
    for iteration in range(1, max_iters + 1):
        ids = [substrings.piece_ids[piece] for piece in dirty]
        if dirty:
            solved = compute_subword_embeddings(
                SubwordVocabulary(dirty),
                SegmentationMatrix(counts.vocab_size, [sorted(members[p]) for p in dirty]),
                counts,
                output_rows,
                smoothing=smoothing,
                ridge=ridge,
            )
            vectors[piece_row[ids]] = solved.vectors
        substrings.score(vectors, piece_row, ids)
        changed = 0
        touched: set[str] = set()
        for group, (positions, _, cuts) in enumerate(substrings.segment(alpha)):
            for row in np.flatnonzero((cuts != masks[group]).any(axis=1)).tolist():
                position = int(positions[row])
                word, word_id = words[position], word_ids[position]
                old, new = set(current[word]), _split_at(word, cuts[row])
                current[word] = new
                changed += 1
                if iteration > 1:
                    for piece in old.difference(new):
                        members[piece].discard(word_id)
                        touched.add(piece)
                    for piece in set(new).difference(old):
                        members[piece].add(word_id)
                        touched.add(piece)
            masks[group] = cuts
        if iteration == 1:
            # From here on the incidence is that of the segmentations alone.
            fresh: dict[str, set[int]] = {}
            for word, word_id in zip(words, word_ids):
                for piece in current[word]:
                    fresh.setdefault(piece, set()).add(word_id)
            touched = {p for p, word_set in fresh.items() if word_set != set(members[p])}
            touched.update(members.keys() - fresh.keys())
            members = fresh
        gone = [piece for piece in touched if not members.get(piece)]
        for piece in gone:
            members.pop(piece, None)
            piece_row[substrings.piece_ids[piece]] = -1
        dirty = sorted(touched.difference(gone))
        stats = IterationStats(iteration, changed, len(members))
        history.append(stats)
        if progress is not None:
            progress(stats)
        if changed == 0:
            break
    tokens = sorted(members)
    return RefinementState(
        iterations=history[-1].iteration,
        subwords=SubwordVocabulary(tokens),
        matrix=SegmentationMatrix(counts.vocab_size, [sorted(members[p]) for p in tokens]),
        embeddings=EmbeddingTable._owning(
            tokens, vectors[piece_row[[substrings.piece_ids[p] for p in tokens]]]
        ),
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
