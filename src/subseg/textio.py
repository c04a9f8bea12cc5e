"""Corpus ingestion, vocabularies, segmented lexicons, and merge rules.

File formats handled here:

* corpus: UTF-8 text, one sentence per line, tokens separated by spaces
* vocabulary: ``token<TAB>frequency`` rows, one per id, in id order
* segmented lexicon: ``word<TAB>sub1 sub2 ...`` rows
* merge rules: ``left<SPACE>right`` rows, one merge per line, in rank order

Tokens are plain strings: nonempty, free of whitespace.  Nothing in the
package lowercases or otherwise normalizes text.

This module and the ones that only need it (``bigram``) import no numpy, so
the stages built on them start without loading it.
"""

from __future__ import annotations

import bisect
import heapq
import io
import os
import tempfile
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from subseg.errors import ArgumentError, CorpusIOError, ParseError, ValidationError

MergePair = tuple[str, str]

OOV_POLICIES = ("error", "whole", "char")


def _check_token(
    token: str, what: str = "token", error: type[Exception] = ValidationError
) -> str:
    """Return ``token`` if it is nonempty and free of whitespace, else raise ``error``."""
    if not token:
        raise error(f"empty {what}")
    # str.split() splits on exactly the characters str.isspace() accepts.
    if token.split() != [token]:
        raise error(f"{what} {token!r} contains whitespace")
    return token


def _preview(items: Sequence[str], limit: int = 10) -> str:
    """The first ``limit`` items as reprs, then how many more there are."""
    shown = ", ".join(repr(item) for item in items[:limit])
    return shown if len(items) <= limit else f"{shown} (+{len(items) - limit} more)"


def _umask() -> int:
    # The umask can only be read by setting it, so set it straight back.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


@contextmanager
def atomic_text_writer(path: str | Path) -> Iterator[IO[str]]:
    """Write a text file atomically: emit to a temp file, then rename.

    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask, rather than the temp file's 0o600.  An error in creating or
    renaming the temp file names ``path``, the file the caller asked for.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
            os.fchmod(handle.fileno(), 0o666 & ~_umask())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_corpus(source: str | Path | IO[str] | IO[bytes] | Iterable[str]) -> Iterator[str]:
    """Yield corpus lines without trailing newlines.

    ``source`` may be a path, a binary stream, or an open text stream.  Paths
    and binary streams are decoded strictly as UTF-8 line by line so that a
    bad byte sequence is reported with its line number instead of surfacing
    as a bare UnicodeDecodeError.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from _decode_lines(handle)
    elif isinstance(source, (io.BufferedIOBase, io.RawIOBase)):
        yield from _decode_lines(source)
    else:
        for line in source:
            yield line.rstrip("\r\n")


def _decode_lines(handle: IO[bytes]) -> Iterator[str]:
    for lineno, raw in enumerate(handle, 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusIOError(f"line {lineno}: invalid UTF-8 ({exc.reason})") from exc
        yield line.rstrip("\r\n")


class Vocabulary:
    """Word-type table with dense ids assigned by descending frequency.

    Ids run 0..n-1 in iteration order; frequency ties are broken by
    lexicographic token order.  Instances are immutable.
    """

    __slots__ = ("_tokens", "_freqs", "_index")

    def __init__(self, entries: Iterable[tuple[str, int]]):
        tokens: list[str] = []
        freqs: list[int] = []
        index: dict[str, int] = {}
        for token, freq in entries:
            _check_token(token)
            if not isinstance(freq, int) or freq < 1:
                raise ValidationError(f"token {token!r} has invalid frequency {freq!r}")
            if token in index:
                raise ValidationError(f"duplicate token {token!r}")
            if tokens:
                prev_token, prev_freq = tokens[-1], freqs[-1]
                if (-prev_freq, prev_token) >= (-freq, token):
                    raise ValidationError(
                        f"token {token!r} breaks canonical order after {prev_token!r}"
                    )
            index[token] = len(tokens)
            tokens.append(token)
            freqs.append(freq)
        self._tokens = tuple(tokens)
        self._freqs = tuple(freqs)
        self._index = index

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def token_id(self, token: str) -> int:
        return self._index[token]

    def get(self, token: str) -> int | None:
        return self._index.get(token)

    def freq(self, token: str) -> int:
        return self._freqs[self._index[token]]

    def entries(self) -> Iterator[tuple[str, int]]:
        return iter(zip(self._tokens, self._freqs))

    def __contains__(self, token: object) -> bool:
        return token in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._tokens == other._tokens and self._freqs == other._freqs

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} types)"


def build_vocabulary(
    lines: Iterable[str],
    max_size: int,
    min_freq: int = 1,
) -> Vocabulary:
    """Count token types and keep the ``max_size`` most frequent ones.

    Ties at the frequency boundary are resolved lexicographically, so the
    result does not depend on corpus line order.
    """
    if max_size <= 0:
        raise ArgumentError(f"max_size must be positive, got {max_size}")
    if min_freq < 1:
        raise ArgumentError(f"min_freq must be at least 1, got {min_freq}")
    counts = Counter(token for line in lines for token in line.split())
    kept = [(token, freq) for token, freq in counts.items() if freq >= min_freq]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return Vocabulary(kept[:max_size])


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    with atomic_text_writer(path) as handle:
        for token, freq in vocab.entries():
            handle.write(f"{token}\t{freq}\n")


def load_vocabulary(path: str | Path) -> Vocabulary:
    entries: list[tuple[str, int]] = []
    for lineno, line in enumerate(read_corpus(path), 1):
        if not line:
            raise ParseError("blank vocabulary row", lineno)
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 'token<TAB>frequency', got {line!r}", lineno)
        token, freq_text = fields
        try:
            freq = int(freq_text)
        except ValueError:
            raise ParseError(f"frequency {freq_text!r} is not an integer", lineno) from None
        entries.append((token, freq))
    try:
        return Vocabulary(entries)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


class SegmentedLexicon:
    """Immutable map from word to its subword sequence.

    Every entry satisfies the concatenation invariant: the subwords joined
    in order reproduce the word exactly.  Violations are rejected at
    construction time, which also guards every load/save and every
    segmentation step that builds one of these.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Sequence[str]] | Iterable[tuple[str, Sequence[str]]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        table: dict[str, tuple[str, ...]] = {}
        for word, segmentation in items:
            _check_token(word, "word")
            parts = tuple(segmentation)
            if not parts:
                raise ValidationError(f"word {word!r} has an empty segmentation")
            for part in parts:
                _check_token(part, "subword")
            if "".join(parts) != word:
                raise ValidationError(
                    f"segmentation {list(parts)!r} does not concatenate to word {word!r}"
                )
            if word in table:
                raise ValidationError(f"duplicate lexicon entry for word {word!r}")
            table[word] = parts
        self._entries = table

    def words(self) -> Iterator[str]:
        return iter(self._entries)

    def items(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        return iter(self._entries.items())

    def __getitem__(self, word: str) -> tuple[str, ...]:
        return self._entries[word]

    def __contains__(self, word: object) -> bool:
        return word in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentedLexicon):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"SegmentedLexicon({len(self)} words)"


def save_lexicon(lexicon: SegmentedLexicon, path: str | Path) -> None:
    with atomic_text_writer(path) as handle:
        for word, parts in lexicon.items():
            handle.write(f"{word}\t{' '.join(parts)}\n")


def load_lexicon(path: str | Path) -> SegmentedLexicon:
    entries: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_corpus(path), 1):
        if not line:
            raise ParseError("blank lexicon row", lineno)
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1].strip():
            raise ParseError(f"expected 'word<TAB>sub1 sub2 ...', got {line!r}", lineno)
        word, seg_text = fields
        if word in seen:
            raise ParseError(f"duplicate entry for word {word!r}", lineno)
        seen.add(word)
        entries.append((word, seg_text.split()))
    return SegmentedLexicon(entries)


class SubwordVocabulary:
    """Ordered subword-to-id table with dense contiguous ids."""

    __slots__ = ("_tokens", "_index")

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        index: dict[str, int] = {}
        for position, token in enumerate(tokens):
            _check_token(token, "subword")
            if token in index:
                raise ValidationError(f"duplicate subword {token!r}")
            index[token] = position
        self._tokens = tokens
        self._index = index

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def token_id(self, token: str) -> int:
        return self._index[token]

    def __contains__(self, token: object) -> bool:
        return token in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubwordVocabulary):
            return NotImplemented
        return self._tokens == other._tokens

    def __repr__(self) -> str:
        return f"SubwordVocabulary({len(self)} subwords)"


@dataclass(frozen=True)
class ScoredSegmentation:
    subwords: tuple[str, ...]
    score: float


def _candidate_order(hyp: tuple[float, int, tuple[str, ...]]) -> tuple[float, int, tuple[str, ...]]:
    # Highest score first, then fewer subwords, then lexicographic sequence;
    # shared with the bigram beam and exact searches.
    return (-hyp[0], hyp[1], hyp[2])


def segment_corpus(
    lines: Iterable[str],
    segmentations: SegmentedLexicon | Mapping[str, Sequence[str]],
    oov_policy: str = "error",
) -> Iterator[list[tuple[str, ...]]]:
    """Map each corpus word through a per-type segmentation lookup.

    Yields, per input line, the list of word segmentations in order.
    Out-of-lexicon words follow ``oov_policy``: ``error`` raises naming the
    word and line, ``whole`` passes the word through unsplit, ``char``
    splits it into characters.
    """
    if oov_policy not in OOV_POLICIES:
        raise ArgumentError(
            f"oov_policy must be one of {', '.join(OOV_POLICIES)}, got {oov_policy!r}"
        )
    for lineno, line in enumerate(lines, 1):
        row: list[tuple[str, ...]] = []
        for word in line.split():
            if word in segmentations:
                row.append(tuple(segmentations[word]))
            elif oov_policy == "whole":
                row.append((word,))
            elif oov_policy == "char":
                row.append(tuple(word))
            else:
                raise ValidationError(
                    f"line {lineno}: word {word!r} is not in the segmentation lexicon"
                )
        yield row


def _apply_merge(symbols: tuple[str, ...], pair: MergePair) -> tuple[str, ...]:
    # Leftmost-first: scan once, merging non-overlapping occurrences as found.
    left, right = pair
    merged = left + right
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def bpe_train(
    lines: Iterable[str],
    target_vocab_size: int,
) -> list[MergePair]:
    """Learn merge rules by iterated most-frequent-pair merging.

    Pair counts are accumulated per word type, weighted by corpus
    frequency; merges never cross word boundaries and no end-of-word
    marker is introduced.  A pair's count includes overlapping occurrences
    (``aaa`` counts ``(a, a)`` twice), while a merge joins the leftmost
    non-overlapping occurrences (``aaa`` becomes ``aa a``).  Count ties
    are broken lexicographically on the (left, right) pair, so training is
    deterministic.  The merge loop stops once the induced vocabulary
    (characters plus merge products) reaches ``target_vocab_size``, or
    when no adjacent pair is left.

    Counts live in a table updated between merges: an index from each pair
    to the word types that contain it means a merge re-tokenizes only those
    types, subtracting each one's old adjacent pairs and adding its new
    ones, and a lazy heap keyed by ``(-count, pair)`` yields the best pair
    (an entry whose count is out of date is dropped when it reaches the
    top).  A merge thus costs time in the types it touches, not in the
    whole vocabulary.
    """
    word_counts = Counter(token for line in lines for token in line.split())
    charset = {ch for word in word_counts for ch in word}
    if target_vocab_size < len(charset):
        raise ArgumentError(
            f"target vocabulary size {target_vocab_size} is below the "
            f"distinct character count {len(charset)}"
        )
    # Single-character types hold no pair and never change.
    pieces = [tuple(word) for word in word_counts if len(word) > 1]
    weights = [word_counts[word] for word in word_counts if len(word) > 1]
    pair_counts: defaultdict[MergePair, int] = defaultdict(int)
    pair_types: defaultdict[MergePair, set[int]] = defaultdict(set)
    for index, symbols in enumerate(pieces):
        weight = weights[index]
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += weight
            pair_types[pair].add(index)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    vocab = set(charset)
    merges: list[MergePair] = []
    while len(vocab) < target_vocab_size and heap:
        negated, best = heapq.heappop(heap)
        if pair_counts.get(best) != -negated:
            continue
        merges.append(best)
        vocab.add(best[0] + best[1])
        change: defaultdict[MergePair, int] = defaultdict(int)  # net count change per pair
        for index in list(pair_types[best]):
            old = pieces[index]
            new = pieces[index] = _apply_merge(old, best)
            weight = weights[index]
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for pair in old_pairs:
                change[pair] -= weight
            for pair in new_pairs:
                change[pair] += weight
            old_set, new_set = set(old_pairs), set(new_pairs)
            for pair in old_set - new_set:
                pair_types[pair].discard(index)
            for pair in new_set - old_set:
                pair_types[pair].add(index)
        for pair, delta in change.items():
            if not delta:
                continue
            count = pair_counts[pair] + delta
            if count:
                pair_counts[pair] = count
                heapq.heappush(heap, (-count, pair))
            else:
                del pair_counts[pair]
                del pair_types[pair]
    return merges


# A copy of the last merge list bpe_segment saw, with its rank table.
_merge_ranks_memo: tuple[list[MergePair], dict[MergePair, list[int]]] = ([], {})


def _merge_ranks(merges: list[MergePair]) -> dict[MergePair, list[int]]:
    """Map each pair of ``merges`` to its ranks, ascending; reused while the list is unchanged."""
    global _merge_ranks_memo
    memo = _merge_ranks_memo
    if merges == memo[0]:  # an unchanged list compares its entries by identity
        return memo[1]
    ranks: dict[MergePair, list[int]] = {}
    for rank, pair in enumerate(merges):
        ranks.setdefault(pair, []).append(rank)
    _merge_ranks_memo = (list(merges), ranks)
    return ranks


def bpe_segment(word: str, merges: Sequence[MergePair]) -> list[str]:
    """Split ``word`` into characters and apply merges in list order.

    Each rule is applied leftmost-first across the symbol sequence before
    the next rule is considered.  Characters never seen in training simply
    stay single-character subwords.

    Rules whose pair is absent are no-ops, so instead of walking the whole
    list this jumps from the last applied rank straight to the smallest
    higher rank among the pairs present in the word.  That keeps list-order
    semantics exactly, duplicate rules included: a rule is never revisited
    once a later one has applied, so ``abc`` under ``[(a, bc), (b, c)]``
    stays ``a bc``, where merging by best rank would give ``abc``.
    """
    _check_token(word, "word")
    rules = merges if isinstance(merges, list) else list(merges)
    ranks = _merge_ranks(rules)
    symbols = tuple(word)
    last = -1
    while len(symbols) > 1:
        next_rank = len(rules)
        for pair in zip(symbols, symbols[1:]):
            pair_ranks = ranks.get(pair)
            if pair_ranks is not None and pair_ranks[-1] > last:
                next_rank = min(next_rank, pair_ranks[bisect.bisect_right(pair_ranks, last)])
        if next_rank == len(rules):
            break
        symbols = _apply_merge(symbols, rules[next_rank])
        last = next_rank
    return list(symbols)


def save_merges(merges: Sequence[MergePair], path: str | Path) -> None:
    with atomic_text_writer(path) as handle:
        for left, right in merges:
            handle.write(f"{left} {right}\n")


def load_merges(path: str | Path) -> list[MergePair]:
    merges: list[MergePair] = []
    for lineno, line in enumerate(read_corpus(path), 1):
        fields = line.split(" ")
        if len(fields) != 2:
            raise ParseError(f"expected 'left<SPACE>right', got {line!r}", lineno)
        try:
            for field in fields:
                _check_token(field, "merge symbol")
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from None
        merges.append((fields[0], fields[1]))
    return merges
