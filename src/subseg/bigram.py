"""Distilling a segmenter into a smoothed subword bigram model.

The model counts subword unigrams and within-word bigrams over a segmented
corpus.  Every word additionally contributes one transition from the start
sentinel ``###`` to its first subword; bigrams never cross word boundaries
and the sentinel never appears on the right side of a transition.

Scoring uses add-one smoothing over the subword inventory S.  For a prev
token that is the sentinel or a member of S the conditional is

    (count(prev, next) + 1) / (context_count(prev) + |S|)

where context_count(prev) sums the bigram counts out of prev.  An unknown
prev falls back to the smoothed unigram probability of next when next is
in S, and to the uniform 1/|S| otherwise.  Single-character subwords are
always admissible during segmentation even when they are outside S, so
every word has at least one complete analysis.

Model files: a ``LEGROS-BIGRAM v1`` header, one ``|S|=<n> total=<t>
maxlen=<m>`` summary line, a ``#UNIGRAMS`` section of ``subword<TAB>count``
rows, and a ``#BIGRAMS`` section of ``prev<TAB>next<TAB>count`` rows.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path

from subseg.errors import ArgumentError, ParseError, ValidationError
from subseg.lexseg import ScoredSegmentation, _candidate_order
from subseg.subspace import SubwordVocabulary
from subseg.textio import atomic_text_writer, read_corpus

START_SYMBOL = "###"

_MODEL_HEADER = "LEGROS-BIGRAM v1"

_Hypothesis = tuple[float, int, tuple[str, ...]]


class BigramModel:
    """Add-one-smoothed subword bigram model.

    ``unigram_counts`` defines the inventory S (counts may be zero for
    characters that never occur as whole tokens); ``bigram_counts`` maps
    (prev, next) pairs to positive counts.  Context totals are derived from
    the bigram table, and each one must stay within its unigram count, which
    is what catches hand-edited count tables at load time.
    """

    __slots__ = (
        "_unigrams",
        "_bigrams",
        "_contexts",
        "_total",
        "_max_len",
        "_subwords",
    )

    def __init__(
        self,
        unigram_counts: Mapping[str, int],
        bigram_counts: Mapping[tuple[str, str], int],
    ):
        unigrams: dict[str, int] = {}
        for token, count in unigram_counts.items():
            if not token or any(ch.isspace() for ch in token):
                raise ValidationError(f"invalid subword {token!r}")
            if token == START_SYMBOL:
                raise ValidationError(f"start symbol {START_SYMBOL!r} cannot be a subword")
            if not isinstance(count, int) or count < 0:
                raise ValidationError(f"subword {token!r} has invalid count {count!r}")
            unigrams[token] = count
        bigrams: dict[tuple[str, str], int] = {}
        contexts: Counter = Counter()
        for (prev, nxt), count in bigram_counts.items():
            if nxt == START_SYMBOL:
                raise ValidationError(
                    f"start symbol {START_SYMBOL!r} may only appear as a context"
                )
            if nxt not in unigrams:
                raise ValidationError(f"bigram target {nxt!r} is not in the subword inventory")
            if prev != START_SYMBOL and prev not in unigrams:
                raise ValidationError(f"bigram context {prev!r} is not in the subword inventory")
            if not isinstance(count, int) or count < 1:
                raise ValidationError(f"bigram ({prev!r}, {nxt!r}) has invalid count {count!r}")
            bigrams[(prev, nxt)] = count
            contexts[prev] += count
        for prev, context_total in contexts.items():
            if prev != START_SYMBOL and context_total > unigrams[prev]:
                raise ValidationError(
                    f"context count {context_total} for {prev!r} exceeds its "
                    f"unigram count {unigrams[prev]}; the count table is inconsistent"
                )
        self._unigrams = unigrams
        self._bigrams = bigrams
        self._contexts = dict(contexts)
        self._total = sum(unigrams.values())
        self._max_len = max((len(token) for token in unigrams), default=0)
        self._subwords = SubwordVocabulary(sorted(unigrams))

    @property
    def subwords(self) -> SubwordVocabulary:
        return self._subwords

    @property
    def size(self) -> int:
        return len(self._unigrams)

    @property
    def total_tokens(self) -> int:
        return self._total

    @property
    def max_subword_length(self) -> int:
        return self._max_len

    def unigram_count(self, token: str) -> int:
        return self._unigrams.get(token, 0)

    def bigram_count(self, prev: str, nxt: str) -> int:
        return self._bigrams.get((prev, nxt), 0)

    def context_count(self, prev: str) -> int:
        return self._contexts.get(prev, 0)

    def unigram_items(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._unigrams.items()))

    def bigram_items(self) -> Iterator[tuple[str, str, int]]:
        for (prev, nxt) in sorted(self._bigrams):
            yield prev, nxt, self._bigrams[(prev, nxt)]

    def __contains__(self, token: object) -> bool:
        return token in self._unigrams

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigramModel):
            return NotImplemented
        return self._unigrams == other._unigrams and self._bigrams == other._bigrams

    def __repr__(self) -> str:
        return f"BigramModel(|S|={self.size}, bigrams={len(self._bigrams)})"

    def log_prob(self, next_token: str, prev_token: str) -> float:
        """Smoothed log P(next | prev) with unigram and uniform fallbacks."""
        if not next_token:
            raise ArgumentError("next token must be nonempty")
        size = self.size
        if size == 0:
            raise ValidationError("model has an empty subword inventory")
        if prev_token == START_SYMBOL or prev_token in self._unigrams:
            numerator = self._bigrams.get((prev_token, next_token), 0) + 1
            return math.log(numerator / (self._contexts.get(prev_token, 0) + size))
        if next_token in self._unigrams:
            return math.log((self._unigrams[next_token] + 1) / (self._total + size))
        return math.log(1.0 / size)


def iter_word_groups(
    lines: Iterable[str], separator: str | None = None
) -> Iterator[list[str]]:
    """Parse a segmented corpus into per-word subword groups.

    Without a separator each nonblank line is one word (its subwords
    space-separated).  With one, each line holds several words delimited
    by the separator token.
    """
    for line in lines:
        tokens = line.split()
        if separator is None:
            if tokens:
                yield tokens
            continue
        group: list[str] = []
        for token in tokens:
            if token == separator:
                if group:
                    yield group
                    group = []
            else:
                group.append(token)
        if group:
            yield group


def distill(groups: Iterable[Sequence[str]]) -> BigramModel:
    """Count a segmented corpus into a bigram model.

    Each group is one word occurrence as a subword sequence.  The inventory
    S is the set of observed subwords plus every character observed inside
    them; characters that never occur as whole tokens enter with count 0.
    """
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    seen_any = False
    for group in groups:
        if not group:
            raise ValidationError("empty word group in segmented corpus")
        seen_any = True
        prev = START_SYMBOL
        for token in group:
            if not token or any(ch.isspace() for ch in token):
                raise ValidationError(f"invalid subword {token!r} in segmented corpus")
            if token == START_SYMBOL:
                raise ValidationError(
                    f"start symbol {START_SYMBOL!r} may not occur in a segmented corpus"
                )
            bigrams[(prev, token)] += 1
            unigrams[token] += 1
            prev = token
    if not seen_any:
        raise ArgumentError("cannot distill from an empty corpus")
    for token in list(unigrams):
        for ch in token:
            if ch not in unigrams:
                unigrams[ch] = 0
    return BigramModel(dict(unigrams), dict(bigrams))


def beam_segment(word: str, model: BigramModel, beam_size: int = 5) -> ScoredSegmentation:
    """Approximate best segmentation of ``word`` under the bigram model.

    Hypotheses are grouped by end position; whenever a group is consumed it
    is pruned to the ``beam_size`` best by score, with ties broken toward
    fewer subwords and then lexicographically.  Multi-character candidates
    must be inventory members; single characters are always admissible.
    """
    if not word or any(ch.isspace() for ch in word):
        raise ArgumentError(f"invalid word {word!r}")
    if beam_size < 1:
        raise ArgumentError(f"beam_size must be at least 1, got {beam_size}")
    n = len(word)
    max_len = max(model.max_subword_length, 1)
    groups: list[list[_Hypothesis]] = [[] for _ in range(n + 1)]
    groups[0] = [(0.0, 0, ())]
    for start in range(n):
        survivors = _pruned(groups[start], beam_size)
        groups[start] = survivors
        for length in range(1, max_len + 1):
            end = start + length
            if end > n:
                break
            piece = word[start:end]
            if length > 1 and piece not in model:
                continue
            for score, count, sequence in survivors:
                prev = sequence[-1] if sequence else START_SYMBOL
                groups[end].append(
                    (score + model.log_prob(piece, prev), count + 1, sequence + (piece,))
                )
    complete = _pruned(groups[n], beam_size)
    if not complete:
        raise RuntimeError(f"no complete hypothesis for {word!r}; invariant violated")
    best = min(complete, key=_candidate_order)
    return ScoredSegmentation(best[2], best[0])


def _pruned(hypotheses: list[_Hypothesis], beam_size: int) -> list[_Hypothesis]:
    if len(hypotheses) <= beam_size:
        return hypotheses
    return sorted(hypotheses, key=_candidate_order)[:beam_size]


def exact_segment(word: str, model: BigramModel) -> ScoredSegmentation:
    """Exact best segmentation by dynamic programming.

    The state is (end position, last subword): bigram scores depend only on
    the previous subword, so one best hypothesis per state suffices.  The
    admissibility rule matches :func:`beam_segment`, and so does the tie
    order, which makes this the reference the beam is checked against.
    """
    if not word or any(ch.isspace() for ch in word):
        raise ArgumentError(f"invalid word {word!r}")
    n = len(word)
    max_len = max(model.max_subword_length, 1)
    states: list[dict[str, _Hypothesis]] = [{} for _ in range(n + 1)]
    states[0] = {START_SYMBOL: (0.0, 0, ())}
    for end in range(1, n + 1):
        cell = states[end]
        for start in range(max(0, end - max_len), end):
            piece = word[start:end]
            if end - start > 1 and piece not in model:
                continue
            for prev, (score, count, sequence) in states[start].items():
                candidate = (
                    score + model.log_prob(piece, prev),
                    count + 1,
                    sequence + (piece,),
                )
                incumbent = cell.get(piece)
                if incumbent is None or _candidate_order(candidate) < _candidate_order(
                    incumbent
                ):
                    cell[piece] = candidate
    final = states[n]
    if not final:
        raise RuntimeError(f"no complete analysis for {word!r}; invariant violated")
    best = min(final.values(), key=_candidate_order)
    return ScoredSegmentation(best[2], best[0])


def save_model(model: BigramModel, path: str | Path) -> None:
    with atomic_text_writer(path) as handle:
        handle.write(f"{_MODEL_HEADER}\n")
        handle.write(
            f"|S|={model.size} total={model.total_tokens} maxlen={model.max_subword_length}\n"
        )
        handle.write("#UNIGRAMS\n")
        for token, count in model.unigram_items():
            handle.write(f"{token}\t{count}\n")
        handle.write("#BIGRAMS\n")
        for prev, nxt, count in model.bigram_items():
            handle.write(f"{prev}\t{nxt}\t{count}\n")


def load_model(path: str | Path) -> BigramModel:
    lines = list(read_corpus(path))
    if not lines:
        raise ParseError("empty model file, missing header", 1)
    if lines[0] != _MODEL_HEADER:
        raise ValidationError(
            f"{path}: unsupported model header {lines[0]!r}, expected {_MODEL_HEADER!r}"
        )
    if len(lines) < 2:
        raise ParseError("missing summary line", 2)
    summary = lines[1].split(" ")
    declared: dict[str, int] = {}
    if len(summary) == 3:
        for field in summary:
            name, _, value = field.partition("=")
            try:
                declared[name] = int(value)
            except ValueError:
                break
    if set(declared) != {"|S|", "total", "maxlen"}:
        raise ParseError(f"bad summary line {lines[1]!r}", 2)
    if len(lines) < 3 or lines[2] != "#UNIGRAMS":
        raise ParseError("expected '#UNIGRAMS' section", 3)
    unigrams: dict[str, int] = {}
    bigrams: dict[tuple[str, str], int] = {}
    section = "unigrams"
    for lineno, line in enumerate(lines[3:], 4):
        if line == "#BIGRAMS":
            if section == "bigrams":
                raise ParseError("duplicate '#BIGRAMS' section", lineno)
            section = "bigrams"
            continue
        fields = line.split("\t")
        if section == "unigrams":
            if len(fields) != 2:
                raise ParseError(f"expected 'subword<TAB>count', got {line!r}", lineno)
            token, count_text = fields
            if token in unigrams:
                raise ParseError(f"duplicate unigram {token!r}", lineno)
            try:
                unigrams[token] = int(count_text)
            except ValueError:
                raise ParseError(f"non-integer count {count_text!r}", lineno) from None
        else:
            if len(fields) != 3:
                raise ParseError(f"expected 'prev<TAB>next<TAB>count', got {line!r}", lineno)
            prev, nxt, count_text = fields
            if (prev, nxt) in bigrams:
                raise ParseError(f"duplicate bigram ({prev!r}, {nxt!r})", lineno)
            try:
                bigrams[(prev, nxt)] = int(count_text)
            except ValueError:
                raise ParseError(f"non-integer count {count_text!r}", lineno) from None
    if section != "bigrams":
        raise ValidationError(f"{path}: missing '#BIGRAMS' section")
    model = BigramModel(unigrams, bigrams)
    if model.size != declared["|S|"]:
        raise ValidationError(
            f"{path}: declared |S|={declared['|S|']} but found {model.size} subwords"
        )
    if model.total_tokens != declared["total"]:
        raise ValidationError(
            f"{path}: declared total={declared['total']} but counts sum to {model.total_tokens}"
        )
    if model.max_subword_length != declared["maxlen"]:
        raise ValidationError(
            f"{path}: declared maxlen={declared['maxlen']} but longest subword has "
            f"length {model.max_subword_length}"
        )
    return model
