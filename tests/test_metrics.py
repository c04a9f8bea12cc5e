import math
import random

import numpy as np
import pytest

from subseg import (
    ArgumentError,
    SegmentedLexicon,
    ValidationError,
    boundary_prf,
    renyi_efficiency,
    segmentation_boundaries,
)


def _oracle_prf(predicted, gold):
    """Recompute micro-averaged boundary P/R/F1 from raw boundary sets."""
    tp = pred_total = gold_total = 0
    for word in predicted:
        pred_set = set()
        offset = 0
        for piece in predicted[word][:-1]:
            offset += len(piece)
            pred_set.add(offset)
        gold_set = set()
        offset = 0
        for piece in gold[word][:-1]:
            offset += len(piece)
            gold_set.add(offset)
        tp += len(pred_set & gold_set)
        pred_total += len(pred_set)
        gold_total += len(gold_set)
    precision = tp / pred_total if pred_total else 1.0
    recall = tp / gold_total if gold_total else 1.0
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return tp, pred_total, gold_total, precision, recall, f1


def _random_lexicon_pair(rng, words):
    def split(word):
        parts = []
        start = 0
        for pos in range(1, len(word)):
            if rng.random() < 0.4:
                parts.append(word[start:pos])
                start = pos
        parts.append(word[start:])
        return parts

    return (
        SegmentedLexicon({w: split(w) for w in words}),
        SegmentedLexicon({w: split(w) for w in words}),
    )


# ---------------------------------------------------------------------------
# boundaries


def test_segmentation_boundaries_are_internal_end_offsets():
    assert segmentation_boundaries(("un", "do", "ing")) == {2, 4}
    assert segmentation_boundaries(("undoing",)) == set()
    assert segmentation_boundaries(("a", "b", "c")) == {1, 2}


def test_identical_lexicons_score_one():
    lexicon = SegmentedLexicon({"undoing": ["un", "do", "ing"]})
    report = boundary_prf(lexicon, lexicon)
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.f1 == 1.0


def test_hand_worked_partial_overlap():
    gold = SegmentedLexicon({"undoing": ["un", "do", "ing"]})  # boundaries {2, 4}
    pred = SegmentedLexicon({"undoing": ["un", "doing"]})  # boundaries {2}
    report = boundary_prf(pred, gold)
    assert report.true_positives == 1
    assert report.predicted_boundaries == 1
    assert report.gold_boundaries == 2
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert report.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_disjoint_boundaries_score_zero():
    gold = SegmentedLexicon({"undoing": ["un", "do", "ing"]})
    pred = SegmentedLexicon({"undoing": ["und", "oing"]})
    report = boundary_prf(pred, gold)
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0


def test_single_piece_words_use_the_one_convention():
    gold = SegmentedLexicon({"cat": ["cat"]})
    pred = SegmentedLexicon({"cat": ["cat"]})
    report = boundary_prf(pred, gold)
    # no boundaries anywhere: both denominators are zero
    assert report.predicted_boundaries == 0
    assert report.gold_boundaries == 0
    assert report.precision == 1.0 and report.recall == 1.0 and report.f1 == 1.0


def test_key_mismatch_lists_missing_words():
    gold = SegmentedLexicon({"cat": ["cat"], "dog": ["dog"]})
    pred = SegmentedLexicon({"cat": ["cat"]})
    with pytest.raises(ValidationError, match="dog"):
        boundary_prf(pred, gold)


def test_key_mismatch_names_at_most_ten_words_per_side():
    words = [f"w{i:04d}" for i in range(7288)]
    pred = SegmentedLexicon({word: [word] for word in words})
    gold = SegmentedLexicon({"cat": ["cat"]})
    with pytest.raises(ValidationError) as excinfo:
        boundary_prf(pred, gold)
    message = str(excinfo.value)
    assert message.count("'w") == 10
    assert "'w0009' (+7278 more)" in message
    assert "missing from predicted: 'cat'; " in message
    assert len(message) < 200


def test_matches_oracle_on_random_pairs():
    rng = random.Random(2024)
    words = ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 9))) for _ in range(30)]
    words = sorted(set(words))
    for _ in range(25):
        pred, gold = _random_lexicon_pair(rng, words)
        report = boundary_prf(pred, gold)
        tp, pred_total, gold_total, precision, recall, f1 = _oracle_prf(pred, gold)
        assert report.true_positives == tp
        assert report.predicted_boundaries == pred_total
        assert report.gold_boundaries == gold_total
        assert report.precision == precision
        assert report.recall == recall
        assert report.f1 == f1


def test_precision_recall_swap_symmetry():
    rng = random.Random(17)
    words = ["".join(rng.choice("ab") for _ in range(rng.randint(2, 7))) for _ in range(20)]
    words = sorted(set(words))
    pred, gold = _random_lexicon_pair(rng, words)
    forward = boundary_prf(pred, gold)
    backward = boundary_prf(gold, pred)
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision
    assert forward.f1 == pytest.approx(backward.f1, abs=1e-15)


def test_f1_lies_between_precision_and_recall():
    rng = random.Random(18)
    words = ["".join(rng.choice("abc") for _ in range(rng.randint(2, 8))) for _ in range(25)]
    words = sorted(set(words))
    for _ in range(10):
        pred, gold = _random_lexicon_pair(rng, words)
        report = boundary_prf(pred, gold)
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        if report.precision > 0 and report.recall > 0:
            low, high = sorted([report.precision, report.recall])
            assert low - 1e-12 <= report.f1 <= high + 1e-12


# ---------------------------------------------------------------------------
# Rényi efficiency


def test_uniform_distribution_is_maximally_efficient():
    for k in (2, 5, 16):
        for alpha in (0.5, 1.0, 2.5, 5.0):
            report = renyi_efficiency({f"t{i}": 7 for i in range(k)}, vocab_size=k, alpha=alpha)
            assert abs(report.efficiency - 1.0) <= 1e-12
            assert report.max_entropy == pytest.approx(math.log(k), abs=1e-12)


def test_single_type_has_zero_entropy():
    report = renyi_efficiency({"a": 10}, vocab_size=4, alpha=2.5)
    assert report.entropy == 0.0
    assert report.efficiency == 0.0


def test_worked_half_half_case():
    # H_2.5 of (1/2, 1/2) is ln 2; against vocab 4 the ceiling is ln 4
    report = renyi_efficiency({"a": 5, "b": 5}, vocab_size=4, alpha=2.5)
    assert report.entropy == pytest.approx(math.log(2), abs=1e-12)
    assert abs(report.efficiency - 0.5) <= 1e-9


def test_degenerate_vocab_of_one_is_fully_efficient():
    report = renyi_efficiency({"a": 3}, vocab_size=1, alpha=2.5)
    assert report.max_entropy == 0.0
    assert report.efficiency == 1.0


def test_shannon_limit_at_alpha_one():
    counts = {"a": 1, "b": 2, "c": 7}
    total = 10
    expected = -sum((c / total) * math.log(c / total) for c in counts.values())
    report = renyi_efficiency(counts, vocab_size=4, alpha=1.0)
    assert report.entropy == pytest.approx(expected, abs=1e-12)


def test_matches_direct_formula_oracle():
    rng = np.random.default_rng(60)
    for _ in range(50):
        k = int(rng.integers(2, 12))
        counts = {f"t{i}": int(c) for i, c in enumerate(rng.integers(1, 50, size=k))}
        alpha = float(rng.choice([0.5, 2.0, 2.5, 5.0]))
        vocab_size = k + int(rng.integers(0, 5))
        report = renyi_efficiency(counts, vocab_size=vocab_size, alpha=alpha)
        total = sum(counts.values())
        powers = sum((c / total) ** alpha for c in counts.values())
        entropy = math.log(powers) / (1.0 - alpha)
        assert report.entropy == pytest.approx(entropy, abs=1e-9)
        assert report.efficiency == pytest.approx(entropy / math.log(vocab_size), abs=1e-9)


def test_entropy_non_increasing_in_alpha():
    rng = np.random.default_rng(61)
    for _ in range(20):
        k = int(rng.integers(2, 10))
        counts = {f"t{i}": int(c) for i, c in enumerate(rng.integers(1, 30, size=k))}
        entropies = [
            renyi_efficiency(counts, vocab_size=k, alpha=alpha).entropy
            for alpha in (0.5, 1.0, 2.5, 5.0)
        ]
        for high, low in zip(entropies, entropies[1:]):
            assert high >= low - 1e-12


def test_permutation_invariance():
    counts = {"a": 3, "b": 9, "c": 1}
    renamed = {"x": 9, "y": 1, "z": 3}
    first = renyi_efficiency(counts, vocab_size=5, alpha=2.5)
    second = renyi_efficiency(renamed, vocab_size=5, alpha=2.5)
    assert first.entropy == pytest.approx(second.entropy, abs=1e-15)


def test_efficiency_is_bounded_by_one():
    rng = np.random.default_rng(62)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        counts = {f"t{i}": int(c) for i, c in enumerate(rng.integers(1, 20, size=k))}
        report = renyi_efficiency(counts, vocab_size=max(k, 2), alpha=2.5)
        assert report.efficiency <= 1.0 + 1e-12


def test_argument_errors():
    with pytest.raises(ArgumentError, match="alpha"):
        renyi_efficiency({"a": 1}, vocab_size=2, alpha=0.0)
    with pytest.raises(ArgumentError, match="alpha"):
        renyi_efficiency({"a": 1}, vocab_size=2, alpha=-1.0)
    with pytest.raises(ArgumentError):
        renyi_efficiency({}, vocab_size=2, alpha=2.5)
    with pytest.raises(ArgumentError):
        renyi_efficiency({"a": -1}, vocab_size=2, alpha=2.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_alpha_is_an_argument_error(alpha):
    with pytest.raises(ArgumentError, match="alpha must be positive and finite"):
        renyi_efficiency({"a": 1, "b": 2}, vocab_size=2, alpha=alpha)
    with pytest.raises(ArgumentError, match="vocab_size"):
        renyi_efficiency({"a": 1, "b": 1}, vocab_size=1, alpha=2.5)
