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
import math
import os
import tempfile
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import IO, NamedTuple, TypeVar

from subseg.errors import ArgumentError, CorpusIOError, ParseError, ValidationError, rows_from_line

MergePair = tuple[str, str]

_T = TypeVar("_T")

OOV_POLICIES = ("error", "whole", "char")


def _check_token(
    token: str, what: str = "token", error: type[Exception] = ValidationError, row: int | None = None
) -> str:
    """Return ``token`` if it is nonempty and free of whitespace, else raise ``error``.

    A given ``row`` goes into the error as the index of the entry at fault.
    """
    # str.split() splits on exactly the characters str.isspace() accepts.
    if token.split() != [token]:
        problem = f"{what} {token!r} contains whitespace" if token else f"empty {what}"
        raise error(problem) if row is None else error(problem, row)
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


# Bytes read from a corpus and decoded at a time.
_READ_BLOCK = 1 << 16


def read_corpus(source: str | Path | IO[str] | IO[bytes] | Iterable[str]) -> Iterator[str]:
    """Yield corpus lines without trailing newlines.

    ``source`` may be a path, a binary stream, or an open text stream.  Paths
    and binary streams are decoded strictly as UTF-8, a block of lines at a
    time; a block that does not decode is decoded again line by line, so a
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


def _decode_lines(handle: IO[bytes], lineno: int = 1, size: int | None = None) -> Iterator[str]:
    """Lines of ``handle``'s next ``size`` bytes, or of all it holds, numbered from ``lineno``.

    Lines end at ``\n`` alone, and trailing ``\r`` and ``\n`` are stripped.
    Bytes are read a block at a time (one read each, so a pipe's lines come
    as they arrive) and decoded up to the block's last newline at once.
    """
    read = getattr(handle, "read1", handle.read)
    left = math.inf if size is None else size
    pending: list[bytes] = []
    while left > 0 and (chunk := read(min(left, _READ_BLOCK))):
        left -= len(chunk)
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        block = b"".join(pending)
        pending = [chunk[cut:]]
        yield from _decode_block(block, lineno)
        lineno += block.count(b"\n")
    rest = b"".join(pending)
    if rest:
        yield from _decode_block(rest, lineno)


def _decode_block(block: bytes, lineno: int) -> Iterator[str]:
    """The lines of ``block``, numbered from ``lineno``; a final newline ends the last one."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError:
        # Only a line holding a bad sequence fails, since "\n" is never part
        # of a multi-byte one; decoding line by line names it.
        for lineno, raw in enumerate(io.BytesIO(block), lineno):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusIOError(f"line {lineno}: invalid UTF-8 ({exc.reason})") from exc
            yield line.rstrip("\r\n")
        return
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    yield from lines


def _read_range(path: str | Path, start: int, stop: int, first_line: int) -> Iterator[str]:
    """``read_corpus(path)``'s lines held in bytes ``start`` to ``stop``, numbered from ``first_line``.

    ``start`` must begin a line, and ``first_line`` must be its number.
    """
    with open(path, "rb") as handle:
        handle.seek(start)
        yield from _decode_lines(handle, first_line, stop - start)


def _line_ranges(path: str | Path, parts: int) -> list[tuple[int, int, int]]:
    """Split the lines after the first of a regular file into up to ``parts`` ranges.

    Returns (start byte, stop byte, number of the first line) for each
    nonempty range, in file order.  Range k begins at the first line that
    starts at or after byte k * size / parts, so ranges of similar lines hold
    similar counts.  Lines are counted up to the last range's start.
    """
    size = os.stat(path).st_size
    targets = [1, *(size * k // parts for k in range(1, parts))]
    starts: list[tuple[int, int]] = []
    offset, lineno = 0, 1
    with open(path, "rb", buffering=0) as handle:
        while len(starts) < len(targets) and (chunk := handle.read(_READ_BLOCK)):
            counted = 0
            while len(starts) < len(targets):
                # A line starts at byte p when p - 1 holds a newline.
                cut = chunk.find(b"\n", max(targets[len(starts)] - 1 - offset, counted))
                if cut < 0:
                    break
                lineno += chunk.count(b"\n", counted, cut + 1)
                counted = cut + 1
                starts.append((offset + counted, lineno))
            lineno += chunk.count(b"\n", counted)
            offset += len(chunk)
    starts += [(offset, lineno)] * (len(targets) - len(starts))
    bounds = [*(start for start, _ in starts), size]
    return [
        (start, stop, first)
        for (start, first), stop in zip(starts, bounds[1:])
        if start < stop
    ]


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
        for row, (token, freq) in enumerate(entries):
            _check_token(token, row=row)
            if not isinstance(freq, int) or freq < 1:
                raise ValidationError(f"token {token!r} has invalid frequency {freq!r}", row)
            if token in index:
                raise ValidationError(f"duplicate token {token!r}", row)
            if tokens:
                prev_token, prev_freq = tokens[-1], freqs[-1]
                if (-prev_freq, prev_token) >= (-freq, token):
                    raise ValidationError(
                        f"token {token!r} breaks canonical order after {prev_token!r}", row
                    )
            index[token] = row
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

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """The id of each token, -1 for one outside the vocabulary."""
        return list(map(self._index.get, tokens, repeat(-1)))

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
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 'token<TAB>frequency', got {line!r}", lineno)
        token, freq_text = fields
        try:
            freq = int(freq_text)
        except ValueError:
            raise ParseError(f"frequency {freq_text!r} is not an integer", lineno) from None
        entries.append((token, freq))
    with rows_from_line(1):
        return Vocabulary(entries)


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
        for row, (word, segmentation) in enumerate(items):
            _check_token(word, "word", row=row)
            parts = tuple(segmentation)
            if not parts:
                raise ValidationError(f"word {word!r} has an empty segmentation", row)
            for part in parts:
                _check_token(part, "subword", row=row)
            if "".join(parts) != word:
                raise ValidationError(
                    f"segmentation {list(parts)!r} does not concatenate to word {word!r}", row
                )
            if word in table:
                raise ValidationError(f"duplicate lexicon entry for word {word!r}", row)
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
    for lineno, line in enumerate(read_corpus(path), 1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 'word<TAB>sub1 sub2 ...', got {line!r}", lineno)
        entries.append((fields[0], fields[1].split(" ")))
    with rows_from_line(1):
        return SegmentedLexicon(entries)


class ScoredSegmentation(NamedTuple):
    subwords: tuple[str, ...]
    score: float


def segment_corpus(
    lines: Iterable[str],
    segmentations: SegmentedLexicon | Mapping[str, Sequence[str]],
    oov_policy: str = "error",
) -> Iterator[list[tuple[str, ...]]]:
    """Map each corpus word through a per-type segmentation lookup.

    Yields, per input line, the list of word segmentations in order.
    Out-of-lexicon words follow ``oov_policy`` as in :func:`map_corpus`:
    ``error`` raises naming the word and line, ``whole`` passes the word
    through unsplit, ``char`` splits it into characters.
    """
    table = {word: tuple(parts) for word, parts in segmentations.items()}
    return map_corpus(lines, table, oov_policy, tuple)


def map_corpus(
    lines: Iterable[str],
    table: Mapping[str, _T],
    oov_policy: str,
    finish: Callable[[tuple[str, ...]], _T],
) -> Iterator[list[_T]]:
    """Yield, per input line, the ``table`` value of each of its words in order.

    A word missing from ``table`` follows ``oov_policy``: ``error`` raises
    naming the word and its line, ``whole`` gives ``finish((word,))`` and
    ``char`` gives ``finish`` of the word's characters.  A word in the table
    costs one lookup; an out-of-lexicon value is made per occurrence and
    kept nowhere, so a stream of novel words leaves memory flat.
    """
    if oov_policy not in OOV_POLICIES:
        raise ArgumentError(
            f"oov_policy must be one of {', '.join(OOV_POLICIES)}, got {oov_policy!r}"
        )
    get = table.get
    for lineno, line in enumerate(lines, 1):
        words = line.split()
        row = list(map(get, words))
        if None in row:
            row = [
                value if value is not None else finish(_oov_split(word, oov_policy, lineno))
                for word, value in zip(words, row)
            ]
        yield row


def _oov_split(word: str, oov_policy: str, lineno: int) -> tuple[str, ...]:
    if oov_policy == "whole":
        return (word,)
    if oov_policy == "char":
        return tuple(word)
    raise ValidationError(f"line {lineno}: word {word!r} is not in the segmentation lexicon")


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

    Returns the merges of :func:`bpe_train_splits`, which also returns the
    split of every corpus type of two or more characters that training ends
    with; ``init-bpe`` reuses those splits for its vocabulary words.
    """
    return bpe_train_splits(lines, target_vocab_size)[0]


def bpe_train_splits(
    lines: Iterable[str],
    target_vocab_size: int,
) -> tuple[list[MergePair], dict[str, tuple[str, ...]]]:
    """Learn merge rules, and the split training ends with for each corpus type.

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
    to the word types that have held it means a merge re-tokenizes only
    those types, subtracting each one's old adjacent pairs and adding its
    new ones, and a lazy heap keyed by ``(-count, pair)`` yields the best
    pair (an entry whose count is out of date is dropped when it reaches
    the top).  An entry only grows until its pair's count reaches 0, and a
    type that lost the merged pair at an earlier merge is skipped.  A merge
    thus costs time in the types it touches, not in the whole vocabulary.

    Training ends holding the split of every corpus type of two or more
    characters, which the returned dict maps it to.  Each merge is applied
    to every type that holds its pair at that step, which is what applying
    the list in order does (see :func:`bpe_segment`), so each of these
    splits equals ``bpe_segment(word, merges)``; ``init-bpe`` reuses them
    and segments only the other vocabulary words (single characters and
    words absent from the corpus).
    """
    word_counts = Counter(token for line in lines for token in line.split())
    charset = {ch for word in word_counts for ch in word}
    if target_vocab_size < len(charset):
        raise ArgumentError(
            f"target vocabulary size {target_vocab_size} is below the "
            f"distinct character count {len(charset)}"
        )
    # Single-character types hold no pair and never change.
    words = [word for word in word_counts if len(word) > 1]
    pieces = [tuple(word) for word in words]
    weights = [word_counts[word] for word in words]
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
        for index in pair_types.pop(best):
            old = pieces[index]
            if best not in zip(old, old[1:]):
                continue  # the type lost the pair at an earlier merge
            new = pieces[index] = _apply_merge(old, best)
            weight = weights[index]
            for pair in zip(old, old[1:]):
                change[pair] -= weight
            for pair in zip(new, new[1:]):
                change[pair] += weight
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
                pair_types.pop(pair, None)
    # The pair index is not needed past training; free it before the dict exists.
    del pair_counts, pair_types, heap
    return merges, dict(zip(words, pieces))


class MergeRules:
    """A merge list in rank order, with the table of each pair's ranks built once.

    Segmenting many words against one list (as ``init-bpe`` does) builds
    the table once; see :func:`bpe_segment`.
    """

    __slots__ = ("_rules", "_ranks")

    def __init__(self, merges: Iterable[MergePair]):
        self._rules = tuple(merges)
        ranks: dict[MergePair, list[int]] = {}
        for rank, pair in enumerate(self._rules):
            ranks.setdefault(pair, []).append(rank)
        self._ranks = ranks

    def segment(self, word: str) -> list[str]:
        _check_token(word, "word")
        rules, ranks = self._rules, self._ranks
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


def bpe_segment(word: str, merges: Sequence[MergePair] | MergeRules) -> list[str]:
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

    A plain list is read afresh on every call, at a cost linear in its
    length; pass a :class:`MergeRules` built once to segment many words.
    """
    rules = merges if isinstance(merges, MergeRules) else MergeRules(merges)
    return rules.segment(word)


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
