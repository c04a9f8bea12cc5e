"""Seeded synthetic inputs for the pipeline benchmark.

Every word is a stem followed by a suffix, so the gold segmentation of each
word type is known.  Morphemes are drawn from consonant/vowel shapes over
an alphabet without ``q`` and ``x``; those two letters prefix the marker
context words (``q<stem>``, ``x<suffix>``) that give each morpheme its own
co-occurrence signature.  Sizes are parameters, so the generator scales to
any number of morphemes.

Two kinds of input come out of it:

* a Zipfian corpus over the word types, for the counting, merging and
  decoding stages;
* the word tables the embedding stages read directly: a vocabulary, a
  co-occurrence table in which each word occurs with its two markers, a
  random output matrix W and input vectors E consistent with the counts.

E is the ridge right-inverse of the smoothed log targets, solved through
the exact sparse identity

    T = (log lam - log Z) 1^T + log1p(C / lam),   Z_y = sum_x C[y, x] + lam |V|

so the solve needs ``S W`` for the sparse ``S = log1p(C / lam)`` and never
builds a |V| x |V| dense array.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np
from scipy import sparse

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
STEM_SHAPES = ("CVC", "CVCV", "CVCVC")
SUFFIX_SHAPES = ("VC", "VCV")


def _morphemes(rng: np.random.Generator, count: int, shapes: Sequence[str], taken: set[str]) -> list[str]:
    # Shapes cycle rather than being drawn, so the morpheme length mix, and
    # with it the work per word, is the same for every seed.
    out: list[str] = []
    while len(out) < count:
        shape = shapes[len(out) % len(shapes)]
        morph = "".join(
            CONSONANTS[int(rng.integers(len(CONSONANTS)))]
            if slot == "C"
            else VOWELS[int(rng.integers(len(VOWELS)))]
            for slot in shape
        )
        if morph not in taken:
            taken.add(morph)
            out.append(morph)
    return out


def gold_lexicon(
    rng: np.random.Generator, stems: int, suffixes: int, words: int
) -> dict[str, tuple[str, str]]:
    """``words`` distinct stem+suffix words with their gold split.

    The stem/suffix pairs are a random subset of the full grid.  Distinct
    pairs that happen to spell the same string keep the first split.
    """
    if words > stems * suffixes:
        raise ValueError(f"{words} words need more than {stems} x {suffixes} pairs")
    taken: set[str] = set()
    stem_list = _morphemes(rng, stems, STEM_SHAPES, taken)
    suffix_list = _morphemes(rng, suffixes, SUFFIX_SHAPES, taken)
    gold: dict[str, tuple[str, str]] = {}
    for cell in rng.permutation(stems * suffixes):
        stem, suffix = stem_list[cell // suffixes], suffix_list[cell % suffixes]
        gold.setdefault(stem + suffix, (stem, suffix))
        if len(gold) == words:
            break
    return gold


def zipf_lines(rng: np.random.Generator, words: Sequence[str], tokens: int, exponent: float) -> list[str]:
    """Lines of 5 to 15 words, ``tokens`` in all, drawn i.i.d. from a Zipf law.

    The rank of each word is a random permutation, so the frequent types
    are not the lexicographically first ones.
    """
    ranked = [words[i] for i in rng.permutation(len(words))]
    weights = np.arange(1, len(ranked) + 1, dtype=np.float64) ** -exponent
    ids = rng.choice(len(ranked), size=tokens, p=weights / weights.sum())
    lengths = rng.integers(5, 16, size=tokens // 5 + 1)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    bounds = np.append(bounds[bounds < tokens], tokens)
    lines = []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        lines.append(" ".join(ranked[i] for i in ids[start:stop].tolist()))
    return lines


def random_splits(rng: np.random.Generator, words: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """Initial lexicon: each word cut at 0, 1 or 2 random positions."""
    lexicon: dict[str, tuple[str, ...]] = {}
    for word in words:
        cuts = int(rng.integers(0, min(2, len(word) - 1) + 1))
        points = sorted(rng.choice(np.arange(1, len(word)), size=cuts, replace=False).tolist())
        edges = [0, *points, len(word)]
        lexicon[word] = tuple(word[a:b] for a, b in zip(edges, edges[1:]))
    return lexicon


class WordTables:
    """Vocabulary and co-occurrence table of the marker-context corpus.

    Word ``w`` with gold split ``(s, f)`` and repeat count ``r`` stands for
    ``r`` corpus lines ``w q<s> x<f>``.  With window 5 each line adds one
    count to each of its three token pairs, which is what ``subseg cooc``
    would count on that corpus.
    """

    def __init__(self, rng: np.random.Generator, gold: Mapping[str, tuple[str, str]]):
        freq: dict[str, int] = {}
        triples: list[tuple[str, str, str, int]] = []
        for word, (stem, suffix) in gold.items():
            repeats = int(rng.integers(1, 4))
            line = (word, "q" + stem, "x" + suffix)
            for token in line:
                freq[token] = freq.get(token, 0) + repeats
            triples.append((*line, repeats))
        self.tokens = sorted(freq, key=lambda token: (-freq[token], token))
        self.freqs = [freq[token] for token in self.tokens]
        index = {token: i for i, token in enumerate(self.tokens)}
        rows, cols, vals = [], [], []
        for a, b, c, repeats in triples:
            ia, ib, ic = index[a], index[b], index[c]
            for x, y in ((ia, ib), (ia, ic), (ib, ic)):
                rows.append(min(x, y))
                cols.append(max(x, y))
                vals.append(repeats)
        upper = sparse.coo_matrix(
            (np.array(vals, dtype=np.int64), (rows, cols)), shape=(len(self.tokens),) * 2
        ).tocsr()
        upper.sum_duplicates()
        upper.sort_indices()
        self.upper = upper

    def symmetric(self) -> sparse.csr_matrix:
        upper = self.upper.astype(np.float64)
        return (upper + upper.T - sparse.diags(upper.diagonal())).tocsr()


def output_matrix(rng: np.random.Generator, vocab_size: int, dim: int) -> np.ndarray:
    return rng.normal(size=(vocab_size, dim)) / np.sqrt(dim)


def consistent_embeddings(counts: sparse.csr_matrix, out: np.ndarray) -> np.ndarray:
    """Input vectors E with E W^T ~ smoothed log targets, W = ``out``.

    E = T W (W^T W + ridge I)^{-1} with the program's default smoothing
    (lam = 0.1) and ridge (1e-6 * trace(W^T W) / dim), and T expanded by the
    sparse identity above.
    """
    smoothing = 0.1
    vocab_size, dim = out.shape
    log_z = np.log(np.asarray(counts.sum(axis=1)).ravel() + smoothing * vocab_size)
    shifted = counts.copy()
    shifted.data = np.log1p(shifted.data / smoothing)
    projected = np.outer(np.log(smoothing) - log_z, out.sum(axis=0)) + shifted @ out
    gram = out.T @ out
    gram[np.diag_indices(dim)] += 1e-6 * float(np.sum(out * out)) / dim
    return np.linalg.solve(gram, projected.T).T


def write_lines(path: Path, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")


def write_vocab(path: Path, tokens: Sequence[str], freqs: Sequence[int]) -> None:
    write_lines(path, (f"{t}\t{f}" for t, f in zip(tokens, freqs)))


def write_counts(path: Path, upper: sparse.csr_matrix) -> None:
    """The table in ``subseg cooc`` format, as counted with window 5."""
    coo = upper.tocoo()
    header = [f"#COOC v1 |V|={upper.shape[0]} window=5"]
    body = (f"{i}\t{j}\t{c}" for i, j, c in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    write_lines(path, (*header, *body))


def write_embeddings(path: Path, tokens: Sequence[str], vectors: np.ndarray) -> None:
    rows = (token + " " + " ".join(map(repr, row)) for token, row in zip(tokens, vectors.tolist()))
    write_lines(path, (f"{len(tokens)} {vectors.shape[1]}", *rows))


def write_lexicon(path: Path, lexicon: Mapping[str, Sequence[str]]) -> None:
    write_lines(path, (f"{word}\t{' '.join(parts)}" for word, parts in lexicon.items()))
