"""Intrinsic segmentation metrics: boundary P/R/F1 and Renyi efficiency."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from subseg.errors import ArgumentError, ValidationError
from subseg.textio import _preview


@dataclass(frozen=True)
class BoundaryReport:
    true_positives: int
    predicted_boundaries: int
    gold_boundaries: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class RenyiReport:
    alpha: float
    entropy: float
    max_entropy: float
    efficiency: float


def segmentation_boundaries(segmentation: Sequence[str]) -> set[int]:
    """Internal character offsets where a subword ends.

    The word-final offset is not a boundary, so a whole word maps to the
    empty set: ("un", "do", "ing") -> {2, 4}.
    """
    boundaries: set[int] = set()
    offset = 0
    for part in segmentation[:-1]:
        offset += len(part)
        boundaries.add(offset)
    return boundaries


def boundary_prf(
    predicted: Mapping[str, Sequence[str]],
    gold: Mapping[str, Sequence[str]],
) -> BoundaryReport:
    """Micro-averaged boundary precision/recall/F1 over a shared word set.

    Counts are pooled over all words before the ratios are taken.  An
    empty predicted (or gold) boundary set with zero true positives scores
    precision (or recall) 1.0 by convention; F1 is 0.0 when both precision
    and recall are zero.
    """
    predicted_words = set(predicted)
    gold_words = set(gold)
    if predicted_words != gold_words:
        messages = []
        only_gold = sorted(gold_words - predicted_words)
        only_predicted = sorted(predicted_words - gold_words)
        if only_gold:
            messages.append(f"missing from predicted: {_preview(only_gold)}")
        if only_predicted:
            messages.append(f"missing from gold: {_preview(only_predicted)}")
        raise ValidationError("word sets differ; " + "; ".join(messages))
    true_positives = 0
    predicted_total = 0
    gold_total = 0
    for word in predicted_words:
        predicted_set = segmentation_boundaries(predicted[word])
        gold_set = segmentation_boundaries(gold[word])
        true_positives += len(predicted_set & gold_set)
        predicted_total += len(predicted_set)
        gold_total += len(gold_set)
    precision = true_positives / predicted_total if predicted_total else 1.0
    recall = true_positives / gold_total if gold_total else 1.0
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return BoundaryReport(true_positives, predicted_total, gold_total, precision, recall, f1)


def renyi_efficiency(
    token_frequencies: Mapping[str, int],
    vocab_size: int,
    alpha: float = 2.5,
) -> RenyiReport:
    """Renyi entropy of the token distribution over log(vocab_size).

    ``alpha == 1`` is the Shannon limit; all logarithms are natural.  The
    degenerate case vocab_size == 1 (necessarily a single observed type)
    is defined as efficiency 1.0.
    """
    if alpha <= 0:
        raise ArgumentError(f"alpha must be positive, got {alpha}")
    counts = []
    for token, count in token_frequencies.items():
        if count < 0:
            raise ArgumentError(f"token {token!r} has negative frequency {count}")
        if count > 0:
            counts.append(count)
    if not counts:
        raise ArgumentError("token frequency table is empty")
    if vocab_size < len(counts):
        raise ArgumentError(
            f"vocab_size {vocab_size} is below the observed type count {len(counts)}"
        )
    import numpy as np  # deferred: eval-boundaries needs no arrays

    probabilities = np.asarray(counts, dtype=np.float64)
    probabilities /= probabilities.sum()
    if alpha == 1.0:
        entropy = float(-np.sum(probabilities * np.log(probabilities)))
    else:
        entropy = float(np.log(np.sum(probabilities**alpha)) / (1.0 - alpha))
    entropy += 0.0  # normalize -0.0
    max_entropy = math.log(vocab_size)
    efficiency = 1.0 if max_entropy == 0.0 else entropy / max_entropy
    return RenyiReport(alpha, entropy, max_entropy, efficiency)
