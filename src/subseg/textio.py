"""Corpus ingestion, vocabularies, segmented lexicons, and merge rules.

File formats handled here:

* corpus: UTF-8 text, one sentence per line, tokens separated by spaces
* vocabulary: ``token<TAB>frequency`` rows, one per id, in id order
* segmented lexicon: ``word<TAB>sub1 sub2 ...`` rows
* merge rules: ``left<SPACE>right`` rows, one merge per line, in rank order

Tokens are plain strings: nonempty, free of whitespace.  Nothing in the
package lowercases or otherwise normalizes text.
"""

from __future__ import annotations

import io
import os
import tempfile
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from subseg.errors import ArgumentError, CorpusIOError, ParseError, ValidationError

MergePair = tuple[str, str]


def _check_token(
    token: str, what: str = "token", error: type[Exception] = ValidationError
) -> str:
    """Return ``token`` if it is nonempty and free of whitespace, else raise ``error``."""
    if not token:
        raise error(f"empty {what}")
    if any(ch.isspace() for ch in token):
        raise error(f"{what} {token!r} contains whitespace")
    return token


@contextmanager
def atomic_text_writer(path: str | Path) -> Iterator[IO[str]]:
    """Write a text file atomically: emit to a temp file, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
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
    marker is introduced.  Count ties are broken lexicographically on the
    (left, right) pair, so training is deterministic.  The merge loop
    stops once the induced vocabulary (characters plus merge products)
    reaches ``target_vocab_size``.
    """
    word_counts = Counter(token for line in lines for token in line.split())
    charset = {ch for word in word_counts for ch in word}
    if target_vocab_size < len(charset):
        raise ArgumentError(
            f"target vocabulary size {target_vocab_size} is below the "
            f"distinct character count {len(charset)}"
        )
    vocab = set(charset)
    pieces = {word: tuple(word) for word in word_counts}
    merges: list[MergePair] = []
    while len(vocab) < target_vocab_size:
        pair_counts: Counter = Counter()
        for word, symbols in pieces.items():
            weight = word_counts[word]
            for left, right in zip(symbols, symbols[1:]):
                pair_counts[(left, right)] += weight
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda item: (-item[1], item[0]))[0]
        merges.append(best)
        vocab.add(best[0] + best[1])
        pieces = {word: _apply_merge(symbols, best) for word, symbols in pieces.items()}
    return merges


def bpe_segment(word: str, merges: Sequence[MergePair]) -> list[str]:
    """Split ``word`` into characters and apply merges in list order.

    Each rule is applied leftmost-first across the symbol sequence before
    the next rule is considered.  Characters never seen in training simply
    stay single-character subwords.
    """
    _check_token(word, "word")
    symbols = tuple(word)
    for pair in merges:
        if len(symbols) < 2:
            break
        symbols = _apply_merge(symbols, pair)
    return list(symbols)


def save_merges(merges: Sequence[MergePair], path: str | Path) -> None:
    with atomic_text_writer(path) as handle:
        for left, right in merges:
            handle.write(f"{left} {right}\n")


def load_merges(path: str | Path) -> list[MergePair]:
    merges: list[MergePair] = []
    for lineno, line in enumerate(read_corpus(path), 1):
        fields = line.split(" ")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ParseError(f"expected 'left<SPACE>right', got {line!r}", lineno)
        merges.append((fields[0], fields[1]))
    return merges
