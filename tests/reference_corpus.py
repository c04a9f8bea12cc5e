"""Per-token versions of the corpus stages' work, kept as oracles.

The corpus stages once did their word-type work per token: ``segment-embed``
looked up, copied and joined each token's pieces, ``distill`` split and
tupled every line, ``segment`` joined each token's cached pieces, the bigram
beam computed the smoothed log of every extension with its own call, and
``init-bpe`` segmented every vocabulary word with ``MergeRules``.  They now
do that work once per distinct word or line, and every smoothed log comes
from one table per model.  These copies of the per-token versions are the
oracle that the stages give the same bytes, models and scores.
"""

from __future__ import annotations

import math

from subseg import bigram, textio
from subseg.bigram import START_SYMBOL, BigramModel
from subseg.errors import ArgumentError, ValidationError
from subseg.textio import OOV_POLICIES, ScoredSegmentation, _check_token


def _candidate_order(hyp):
    """Highest score first, then fewer subwords, then lexicographic sequence."""
    return (-hyp[0], hyp[1], hyp[2])


def segment_corpus(lines, segmentations, oov_policy="error"):
    """Each line's word segmentations, with the lexicon looked up per token."""
    if oov_policy not in OOV_POLICIES:
        raise ArgumentError(
            f"oov_policy must be one of {', '.join(OOV_POLICIES)}, got {oov_policy!r}"
        )
    for lineno, line in enumerate(lines, 1):
        row = []
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


def write_segmented(rows, handle, word_per_line):
    """Write rows of word segmentations, joining each token's pieces as it goes."""
    for row in rows:
        if word_per_line:
            for parts in row:
                handle.write(" ".join(parts) + "\n")
        else:
            handle.write(" ".join(part for parts in row for part in parts) + "\n")


def distill_lines(lines, separator=None):
    """``distill``'s model with every line split into groups as it is read."""
    return bigram.distill(bigram.iter_word_groups(lines, separator=separator))


def init_bpe_lexicon(lines, vocab_words, target_size):
    """``init-bpe``'s lexicon with every vocabulary word segmented by the merge rules."""
    rules = textio.MergeRules(textio.bpe_train(lines, target_size))
    return textio.SegmentedLexicon((word, rules.segment(word)) for word in vocab_words)


def log_prob(model: BigramModel, next_token: str, prev_token: str) -> float:
    """Smoothed log P(next | prev), computed per call from the model's public counts."""
    if not next_token:
        raise ArgumentError("next token must be nonempty")
    size = model.size
    if size == 0:
        raise ValidationError("model has an empty subword inventory")
    if prev_token == START_SYMBOL or prev_token in model:
        numerator = model.bigram_count(prev_token, next_token) + 1
        return math.log(numerator / (model.context_count(prev_token) + size))
    if next_token in model:
        return math.log((model.unigram_count(next_token) + 1) / (model.total_tokens + size))
    return math.log(1.0 / size)


def beam_segment(word: str, model: BigramModel, beam_size: int = 5) -> ScoredSegmentation:
    """The bigram beam with one :func:`log_prob` call per extension."""
    _check_token(word, "word", ArgumentError)
    if beam_size < 1:
        raise ArgumentError(f"beam_size must be at least 1, got {beam_size}")
    n = len(word)
    max_len = max(model.max_subword_length, 1)
    groups = [[] for _ in range(n + 1)]
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
                    (score + log_prob(model, piece, prev), count + 1, sequence + (piece,))
                )
    complete = _pruned(groups[n], beam_size)
    if not complete:
        raise RuntimeError(f"no complete hypothesis for {word!r}; invariant violated")
    best = min(complete, key=_candidate_order)
    return ScoredSegmentation(best[2], best[0])


def _pruned(hypotheses, beam_size):
    if len(hypotheses) <= beam_size:
        return hypotheses
    return sorted(hypotheses, key=_candidate_order)[:beam_size]
