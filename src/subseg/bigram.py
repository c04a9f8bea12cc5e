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

These logs are computed in one place, a score table the model builds on
first use (:meth:`BigramModel._step_scores`): one row per context in
{``###``} ∪ S and one for any other context, so its size is bounded by the
model, whatever is segmented with it.  :meth:`BigramModel.log_prob` and the
search both read it.

The search (:func:`_search`) walks one lattice (:func:`_lattice`), the one
place the admissibility rule is written, and keeps the best hypothesis per
(end position, last subword) state.  Each hypothesis leads with ``(-score,
subword count, sequence)``, so plain tuple comparison is the candidate
order: highest score, then fewer subwords, then the lexicographically
smallest sequence.  :func:`exact_segment` extends every state;
:func:`beam_segment` first cuts each position to its ``beam_size`` first
states.  Negation is exact, so returned scores keep their bits.

Model files: a ``LEGROS-BIGRAM v2`` header, one ``|S|=<n> total=<t>
maxlen=<m> bigrams=<k>`` summary line, a ``#UNIGRAMS`` section of
``subword<TAB>count`` rows, and a ``#BIGRAMS`` section of k
``prev<TAB>next<TAB>count`` rows.  The row count makes a file that lost
bigram rows fail to load; v1 files, which lack it, are refused.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import islice
from pathlib import Path

from subseg.errors import ArgumentError, ParseError, ValidationError
from subseg.textio import (
    ScoredSegmentation,
    _check_token,
    atomic_text_writer,
    read_corpus,
)

START_SYMBOL = "###"

_MODEL_HEADER = "LEGROS-BIGRAM v2"

# (negated score, subword count, sequence): tuple order is the candidate order.
_Hypothesis = tuple[float, int, tuple[str, ...]]
# One context's step scores: the logs of its stored next tokens, and the log
# of any other next token.
_StepRow = tuple[dict[str, float], float]


class BigramModel:
    """Add-one-smoothed subword bigram model.

    ``unigram_counts`` defines the inventory S (counts may be zero for
    characters that never occur as whole tokens), whose tokens are checked
    here and which ``subwords`` returns sorted; ``bigram_counts`` maps
    (prev, next) pairs to positive counts.  Context totals are derived from
    the bigram table, and each one must stay within its unigram count, which
    is what catches hand-edited count tables at load time.

    An error about one entry carries its ``row``: the entry's position among
    the unigram entries followed by the bigram entries, in iteration order.
    A context total above its unigram count is reported at that unigram.
    """

    __slots__ = (
        "_unigrams",
        "_bigrams",
        "_contexts",
        "_total",
        "_max_len",
        "_steps",
    )

    def __init__(
        self,
        unigram_counts: Mapping[str, int],
        bigram_counts: Mapping[tuple[str, str], int],
    ):
        unigrams: dict[str, int] = {}
        for row, (token, count) in enumerate(unigram_counts.items()):
            _check_token(token, "subword", row=row)
            if token == START_SYMBOL:
                raise ValidationError(f"start symbol {START_SYMBOL!r} cannot be a subword", row)
            if not isinstance(count, int) or count < 0:
                raise ValidationError(f"subword {token!r} has invalid count {count!r}", row)
            unigrams[token] = count
        bigrams: dict[tuple[str, str], int] = {}
        contexts: Counter = Counter()
        for row, ((prev, nxt), count) in enumerate(bigram_counts.items(), len(unigrams)):
            if nxt == START_SYMBOL:
                raise ValidationError(
                    f"start symbol {START_SYMBOL!r} may only appear as a context", row
                )
            if nxt not in unigrams:
                raise ValidationError(f"bigram target {nxt!r} is not in the subword inventory", row)
            if prev != START_SYMBOL and prev not in unigrams:
                raise ValidationError(f"bigram context {prev!r} is not in the subword inventory", row)
            if not isinstance(count, int) or count < 1:
                raise ValidationError(f"bigram ({prev!r}, {nxt!r}) has invalid count {count!r}", row)
            bigrams[(prev, nxt)] = count
            contexts[prev] += count
        for prev, context_total in contexts.items():
            if prev != START_SYMBOL and context_total > unigrams[prev]:
                raise ValidationError(
                    f"context count {context_total} for {prev!r} exceeds its "
                    f"unigram count {unigrams[prev]}; the count table is inconsistent",
                    list(unigrams).index(prev),
                )
        self._unigrams = unigrams
        self._bigrams = bigrams
        self._contexts = dict(contexts)
        self._total = sum(unigrams.values())
        self._max_len = max((len(token) for token in unigrams), default=0)
        self._steps: tuple[dict[str, _StepRow], _StepRow] | None = None

    @property
    def subwords(self) -> tuple[str, ...]:
        return tuple(sorted(self._unigrams))

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
        rows, other = self._step_scores()
        scores, unseen = rows.get(prev_token, other)
        return scores.get(next_token, unseen)

    def _step_scores(self) -> tuple[dict[str, _StepRow], _StepRow]:
        """Every smoothed log the model gives, as rows of (scores by next, default).

        The first part maps each prev in {###} ∪ S to the scores of its
        stored bigrams and ``log(1 / (context_count(prev) + |S|))`` for any
        other next.  The second is the row of any other prev: the smoothed
        unigram log of each next in S and ``log(1 / |S|)`` for any other
        next.  The table is built on the first call and kept; its size is
        bounded by the model, not by what is segmented.
        """
        if self._steps is None:
            size = self.size
            if size == 0:
                raise ValidationError("model has an empty subword inventory")
            contexts = self._contexts
            rows: dict[str, dict[str, float]] = {prev: {} for prev in contexts}
            for (prev, nxt), count in self._bigrams.items():
                rows[prev][nxt] = math.log((count + 1) / (contexts[prev] + size))
            unseen_only: dict[str, float] = {}
            known = {
                prev: (rows.get(prev, unseen_only), math.log(1 / (contexts.get(prev, 0) + size)))
                for prev in (START_SYMBOL, *self._unigrams)
            }
            unigram = {
                nxt: math.log((count + 1) / (self._total + size))
                for nxt, count in self._unigrams.items()
            }
            self._steps = known, (unigram, math.log(1 / size))
        return self._steps


def iter_word_groups(
    lines: Iterable[str], separator: str | None = None
) -> Iterator[list[str]]:
    """Parse a segmented corpus into per-word subword groups.

    Without a separator each nonblank line is one word (its subwords
    space-separated).  With one, each line holds several words delimited
    by the separator token, which must itself be a valid token.
    """
    if separator is not None:
        _check_token(separator, "separator", ArgumentError)
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


# Distinct lines count_word_groups holds before it splits them into groups.
_LINE_MEMO_SIZE = 1 << 16


def count_word_groups(
    lines: Iterable[str], separator: str | None = None
) -> Counter[tuple[str, ...]]:
    """Count the word groups of a segmented corpus, splitting each distinct line once.

    Groups never span lines, so the groups of a line repeated n times are
    each counted n times.  Lines are counted a block at a time, and the
    distinct lines are split and dropped once ``_LINE_MEMO_SIZE`` of them
    are held, which keeps memory bounded on a stream of distinct lines.
    The counts, and their first-occurrence order, equal
    ``Counter(map(tuple, iter_word_groups(lines, separator)))``.
    """
    if separator is not None:
        _check_token(separator, "separator", ArgumentError)
    groups: Counter[tuple[str, ...]] = Counter()
    distinct: Counter[str] = Counter()
    lines = iter(lines)
    # Each pass takes one line, then counts the block's other lines in C.
    for line in lines:
        distinct[line] += 1
        distinct.update(islice(lines, _LINE_MEMO_SIZE - 1))
        if len(distinct) >= _LINE_MEMO_SIZE:
            _add_groups(groups, distinct, separator)
    _add_groups(groups, distinct, separator)
    return groups


def _add_groups(groups: Counter, distinct: Counter, separator: str | None) -> None:
    """Add each line's groups to ``groups``, weighted by its count, and empty ``distinct``."""
    for line, weight in distinct.items():
        for group in iter_word_groups((line,), separator):
            groups[tuple(group)] += weight
    distinct.clear()


def distill(groups: Iterable[Sequence[str]]) -> BigramModel:
    """Count a segmented corpus into a bigram model.

    Each group is one word occurrence as a subword sequence; see
    :func:`distill_counted`.
    """
    return distill_counted(Counter(map(tuple, groups)))


def distill_counted(occurrences: Mapping[tuple[str, ...], int]) -> BigramModel:
    """Count distinct word groups, each weighted by its occurrences, into a bigram model.

    The inventory S is the set of observed subwords plus every character
    observed inside them; characters that never occur as whole tokens enter
    with count 0.  Counting each distinct group once, weighted, gives the
    same integer counts as counting every occurrence.  Groups are checked
    in the mapping's order, which for the counts of a corpus is the order
    of first occurrence, so an invalid corpus raises the error of its first
    invalid group.
    """
    if not occurrences:
        raise ArgumentError("cannot distill from an empty corpus")
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    for group, weight in occurrences.items():
        if not group:
            raise ValidationError("empty word group in segmented corpus")
        prev = START_SYMBOL
        for token in group:
            _check_token(token, "subword in segmented corpus")
            if token == START_SYMBOL:
                raise ValidationError(
                    f"start symbol {START_SYMBOL!r} may not occur in a segmented corpus"
                )
            bigrams[(prev, token)] += weight
            unigrams[token] += weight
            prev = token
    for token in list(unigrams):
        for ch in token:
            if ch not in unigrams:
                unigrams[ch] = 0
    return BigramModel(dict(unigrams), dict(bigrams))


def _lattice(word: str, model: BigramModel) -> list[list[tuple[int, str]]]:
    """The admissible ``(end, piece)`` steps out of each start position of ``word``.

    A single character is always admissible; a longer piece must be in the
    inventory, and so at most ``max_subword_length`` characters long.
    """
    inventory = model._unigrams
    n = len(word)
    lattice = []
    for start in range(n):
        steps = [(start + 1, word[start])]
        for end in range(start + 2, min(start + model._max_len, n) + 1):
            piece = word[start:end]
            if piece in inventory:
                steps.append((end, piece))
        lattice.append(steps)
    return lattice


def _search(word: str, model: BigramModel, beam_size: int | None) -> ScoredSegmentation:
    """Best segmentation of ``word``, with at most ``beam_size`` states extended per position.

    The state is (end position, last subword): bigram scores depend only on
    the previous subword, so one best hypothesis per state suffices.  The
    search walks :func:`_lattice` start by start, so each state is final
    when it is extended.  With a ``beam_size``, a start position holding
    more states first keeps its ``beam_size`` first in the candidate order.
    A position holds at most one state per piece length, so a ``beam_size``
    of ``max(1, model.max_subword_length)`` or more never cuts.  Step scores
    come from :meth:`BigramModel._step_scores`.
    """
    _check_token(word, "word", ArgumentError)
    if beam_size is not None and beam_size < 1:
        raise ArgumentError(f"beam_size must be at least 1, got {beam_size}")
    rows, other = model._step_scores()
    n = len(word)
    states: list[dict[str, _Hypothesis]] = [{} for _ in range(n + 1)]
    states[0][START_SYMBOL] = (-0.0, 0, ())
    for start, steps in enumerate(_lattice(word, model)):
        extended = states[start].items()
        if beam_size is not None and len(extended) > beam_size:
            extended = sorted(extended, key=lambda state: state[1])[:beam_size]
        for prev, (negated, count, sequence) in extended:
            scores, unseen = rows.get(prev, other)
            for end, piece in steps:
                candidate = (negated - scores.get(piece, unseen), count + 1, sequence + (piece,))
                incumbent = states[end].get(piece)
                if incumbent is None or candidate < incumbent:
                    states[end][piece] = candidate
    if not states[n]:
        raise RuntimeError(f"no complete analysis for {word!r}; invariant violated")
    negated, _, sequence = min(states[n].values())
    return ScoredSegmentation(sequence, -negated)


def exact_segment(word: str, model: BigramModel) -> ScoredSegmentation:
    """Exact best segmentation: :func:`_search` with no cut."""
    return _search(word, model, None)


def beam_segment(word: str, model: BigramModel, beam_size: int = 5) -> ScoredSegmentation:
    """Best segmentation found extending ``beam_size`` states per position; see :func:`_search`."""
    return _search(word, model, beam_size)


def save_model(model: BigramModel, path: str | Path) -> None:
    with atomic_text_writer(path) as handle:
        handle.write(f"{_MODEL_HEADER}\n")
        handle.write(
            f"|S|={model.size} total={model.total_tokens} "
            f"maxlen={model.max_subword_length} bigrams={len(model._bigrams)}\n"
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
        raise ParseError(
            f"unsupported model header {lines[0]!r}, expected {_MODEL_HEADER!r}; "
            "re-run distill to write the model again",
            1,
        )
    if len(lines) < 2:
        raise ParseError("missing summary line", 2)
    summary = lines[1].split(" ")
    declared: dict[str, int] = {}
    if len(summary) == 4:
        for field in summary:
            name, _, value = field.partition("=")
            try:
                declared[name] = int(value)
            except ValueError:
                break
    if set(declared) != {"|S|", "total", "maxlen", "bigrams"}:
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
        raise ValidationError("missing '#BIGRAMS' section")
    try:
        model = BigramModel(unigrams, bigrams)
    except ValidationError as exc:
        if exc.row is None:
            raise
        # Unigram rows start at line 4; the '#BIGRAMS' line sits between them
        # and the bigram rows, which the model numbers on from the unigrams.
        line = 4 + exc.row if exc.row < len(unigrams) else 5 + exc.row
        raise ParseError(str(exc), line) from None
    found = {
        "|S|": model.size,
        "total": model.total_tokens,
        "maxlen": model.max_subword_length,
        "bigrams": len(bigrams),
    }
    for name, value in found.items():
        if declared[name] != value:
            raise ParseError(f"declared {name}={declared[name]} but the rows give {value}", 2)
    return model
