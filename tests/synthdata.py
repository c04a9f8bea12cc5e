"""Deterministic synthetic corpora with known morpheme boundaries.

The agglutinative corpus pairs every stem with every suffix and gives each
morpheme its own marker context word, so stem and suffix identities are
recoverable from co-occurrence alone.  Word embeddings consistent with the
counts are solved directly from the count table against a random output
matrix, which keeps the whole harness free of external training.
"""

from __future__ import annotations

import numpy as np

from reference_solve import right_inverse_solve
from subseg.cooccur import CooccurrenceCounts
from subseg.subspace import default_ridge
from subseg.tables import EmbeddingTable

CONSONANTS = "bdgklmnprst"
VOWELS = "aeiou"


# The base formulas below repeat with period 55 (11 consonants x 5 vowels).
_PERIOD = len(CONSONANTS) * len(VOWELS)


def _syllables(block: int) -> str:
    """Consonant-vowel syllables spelling ``block`` >= 1 in bijective base 55.

    Distinct blocks give distinct strings, so appending them to the
    periodic base forms keeps every morph distinct.
    """
    out = []
    while block > 0:
        block, digit = divmod(block - 1, _PERIOD)
        out.append(CONSONANTS[digit % len(CONSONANTS)] + VOWELS[digit // len(CONSONANTS)])
    return "".join(reversed(out))


def make_stems(count: int) -> list[str]:
    """``count`` distinct stems: the 55 consonant-vowel-consonant base forms,
    then the same forms extended by one or more consonant-vowel syllables."""
    stems: list[str] = []
    for i in range(count):
        base = i % _PERIOD
        stems.append(
            CONSONANTS[base % len(CONSONANTS)]
            + VOWELS[(base // len(CONSONANTS)) % len(VOWELS)]
            + CONSONANTS[(base * 3 + 1) % len(CONSONANTS)]
            + _syllables(i // _PERIOD)
        )
    return stems


def make_suffixes(count: int) -> list[str]:
    """``count`` distinct suffixes: the 55 vowel-consonant base forms, then
    the same forms extended by one or more consonant-vowel syllables."""
    suffixes: list[str] = []
    for i in range(count):
        base = i % _PERIOD
        suffixes.append(
            VOWELS[base % len(VOWELS)]
            + CONSONANTS[(base * 7 + 2) % len(CONSONANTS)]
            + _syllables(i // _PERIOD)
        )
    return suffixes


def agglutinative_corpus(
    num_stems: int = 20, num_suffixes: int = 8
) -> tuple[list[str], dict[str, tuple[str, str]]]:
    """Corpus lines plus the gold word -> (stem, suffix) segmentation."""
    stems = make_stems(num_stems)
    suffixes = make_suffixes(num_suffixes)
    lines: list[str] = []
    gold: dict[str, tuple[str, str]] = {}
    for i, stem in enumerate(stems):
        for j, suffix in enumerate(suffixes):
            word = stem + suffix
            gold[word] = (stem, suffix)
            repeats = 1 + (i + j) % 3
            lines.extend([f"{word} q{stem} x{suffix}"] * repeats)
    return lines, gold


def consistent_embeddings(
    counts: CooccurrenceCounts,
    tokens: tuple[str, ...],
    dim: int,
    seed: int,
    smoothing: float = 0.1,
) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Word vectors E solved against a random output matrix W.

    E is the least-squares solution of E W ~ smoothed log normalized
    counts, so the embedding geometry reflects the count table exactly.
    """
    rng = np.random.default_rng(seed)
    out = rng.normal(size=(len(tokens), dim)) / np.sqrt(dim)
    output_rows = EmbeddingTable(tokens, out)
    dense = counts.matrix().toarray()
    row_sums = dense.sum(axis=1, keepdims=True)
    targets = np.log((dense + smoothing) / (row_sums + smoothing * len(tokens)))
    solved = right_inverse_solve(targets, output_rows, ridge=default_ridge(output_rows))
    return EmbeddingTable(tokens, solved), output_rows
