"""Acceptance battery: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line on the real stderr so
the verdicts survive pytest's capture, then asserts.  Tolerances are pinned
here on purpose — loosening them is a contract change, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from subseg import (
    BigramModel,
    CooccurrenceCounts,
    EmbeddingTable,
    SegmentedLexicon,
    START_SYMBOL,
    beam_segment,
    boundary_prf,
    bpe_segment,
    bpe_train,
    build_vocabulary,
    compute_subword_embeddings,
    cosine,
    count_cooccurrences,
    distill,
    embedding_segment,
    exact_segment,
    load_counts,
    load_embeddings,
    load_lexicon,
    load_model,
    load_vocabulary,
    refine,
    renyi_efficiency,
    save_counts,
    save_embeddings,
    save_lexicon,
    save_model,
    save_vocabulary,
    segment_corpus,
)
from subseg.cli import main

from reference_solve import segmentation_matrix
from synthdata import agglutinative_corpus, consistent_embeddings


_CHANNEL = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    # verdict lines must land in the terminal (or the teed log) even for
    # passing tests, so they print with capture suspended
    global _CHANNEL
    _CHANNEL = capsys
    yield
    _CHANNEL = None


def _emit(line: str) -> None:
    if _CHANNEL is None:
        print(line)
        return
    with _CHANNEL.disabled():
        print(line)


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _emit(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


# ---------------------------------------------------------------------------
# 1. exact-regime solver


def test_criterion_1_exact_regime_solver():
    started = time.perf_counter()
    rng = np.random.default_rng(40)
    n = 40
    words = [f"w{i:02d}" for i in range(n)]
    dense = rng.integers(1, 50, size=(n, n))
    dense = dense + dense.T  # symmetric, strictly positive
    entries = [(i, j, int(dense[i, j])) for i in range(n) for j in range(i, n)]
    counts = CooccurrenceCounts(vocab_size=n, window=5, counts=entries)

    # random well-conditioned square output matrix (condition number 2)
    gaussian = rng.normal(size=(n, n))
    left, _, right = np.linalg.svd(gaussian)
    rows = left @ np.diag(np.linspace(1.0, 2.0, n)) @ right
    output_rows = EmbeddingTable(words, rows)

    # independent oracle: row-normalize the counts, solve E Wᵀ = T directly
    targets = np.log(dense / dense.sum(axis=1, keepdims=True))
    word_solution = np.linalg.solve(rows, targets.T).T

    subwords = tuple(words)
    identity = segmentation_matrix(n, [(i,) for i in range(n)])
    solved = compute_subword_embeddings(
        subwords, identity, counts, output_rows, smoothing=0.0, ridge=0.0
    )
    worst = max(
        1.0 - cosine(solved.vectors[i], word_solution[i]) for i in range(n)
    )
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "identity incidence reproduces the word solve",
        worst <= 1e-6 and elapsed < 5.0,
        f"max cosine distance {worst:.3e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. embedding segmenter vs exhaustive enumeration


def _brute_force_embedding(word, word_vector, table, alpha):
    n = len(word)
    best = None
    for mask in range(1 << (n - 1)):
        parts = []
        start = 0
        for pos in range(1, n):
            if mask & (1 << (pos - 1)):
                parts.append(word[start:pos])
                start = pos
        parts.append(word[start:])
        if any(p not in table for p in parts):
            continue
        score = 0.0
        for p in parts:
            score = score + (cosine(word_vector, table.vector(p)) - alpha)
        key = (-score, len(parts), tuple(parts))
        if best is None or key < best[0]:
            best = (key, tuple(parts), score)
    return best


def test_criterion_2_segmenter_matches_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(20260814)
    alphabet = "abc"
    failures = 0
    for _ in range(1000):
        length = int(rng.integers(1, 13))
        word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
        tokens = set(alphabet)
        for _ in range(int(rng.integers(0, 9))):
            i = int(rng.integers(0, length))
            j = int(rng.integers(i + 1, length + 1))
            tokens.add(word[i:j])
        table = EmbeddingTable(sorted(tokens), rng.normal(size=(len(tokens), 8)))
        vector = rng.normal(size=8)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        result = embedding_segment(word, vector, table, alpha)
        _, parts, score = _brute_force_embedding(word, vector, table, alpha)
        if result.subwords != parts or result.score != score:
            failures += 1
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        "1000/1000 segmentations equal brute force",
        failures == 0 and elapsed < 30.0,
        f"{failures} mismatches, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. bigram exact DP, beam convergence and monotonicity


def _brute_force_bigram(word, model):
    n = len(word)
    best = None
    for mask in range(1 << (n - 1)):
        parts = []
        start = 0
        for pos in range(1, n):
            if mask & (1 << (pos - 1)):
                parts.append(word[start:pos])
                start = pos
        parts.append(word[start:])
        if any(len(p) > 1 and p not in model for p in parts):
            continue
        score = 0.0
        prev = START_SYMBOL
        for p in parts:
            score = score + model.log_prob(p, prev)
            prev = p
        key = (-score, len(parts), tuple(parts))
        if best is None or key < best[0]:
            best = (key, tuple(parts), score)
    return best


def _random_distilled_model(rng, alphabet="abcd"):
    groups = []
    for _ in range(int(rng.integers(1, 30))):
        length = int(rng.integers(1, 9))
        word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
        parts = []
        start = 0
        for pos in range(1, length):
            if rng.random() < 0.4:
                parts.append(word[start:pos])
                start = pos
        parts.append(word[start:])
        groups.append(parts)
    return distill(groups)


def test_criterion_3_bigram_oracles():
    rng = np.random.default_rng(99)
    exact_mismatches = beam_mismatches = monotonicity_violations = 0
    for _ in range(1000):
        model = _random_distilled_model(rng)
        length = int(rng.integers(1, 13))
        alphabet = "abcd" + ("z" if rng.random() < 0.2 else "")
        word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
        exact = exact_segment(word, model)
        _, parts, score = _brute_force_bigram(word, model)
        if exact.subwords != parts or exact.score != score:
            exact_mismatches += 1
        wide = beam_segment(word, model, beam_size=512)
        if wide.subwords != exact.subwords or wide.score != exact.score:
            beam_mismatches += 1
        scores = [
            beam_segment(word, model, beam_size=b).score for b in (1, 2, 5, 50, 512)
        ]
        if any(later < earlier for earlier, later in zip(scores, scores[1:])):
            monotonicity_violations += 1
    _verdict(
        3,
        "exact DP, wide beam and beam monotonicity agree on 1000 models",
        exact_mismatches == 0 and beam_mismatches == 0 and monotonicity_violations == 0,
        f"exact {exact_mismatches}, beam {beam_mismatches}, "
        f"monotonicity {monotonicity_violations}",
    )


# ---------------------------------------------------------------------------
# 4. smoothing normalization and the uniform floor


def test_criterion_4_smoothing_normalization():
    rng = np.random.default_rng(4444)
    worst_gap = 0.0
    floor_exact = True
    for _ in range(100):
        model = _random_distilled_model(rng)
        tokens = model.subwords
        for prev in (START_SYMBOL,) + tokens:
            total = sum(math.exp(model.log_prob(nxt, prev)) for nxt in tokens)
            worst_gap = max(worst_gap, abs(total - 1.0))
        if model.log_prob("unseen-next", "unseen-prev") != math.log(1.0 / model.size):
            floor_exact = False
    _verdict(
        4,
        "every known context normalizes; both-unknown is exactly 1/|S|",
        worst_gap <= 1e-9 and floor_exact,
        f"max |sum-1| = {worst_gap:.3e}",
    )


# ---------------------------------------------------------------------------
# 5. refinement contracts on the synthetic agglutinative corpus


def _synthetic_refinement(dim=32, seed=11):
    lines, gold = agglutinative_corpus(20, 8)
    vocab = build_vocabulary(lines, max_size=10_000)
    counts = count_cooccurrences(lines, vocab, window=5)
    embeddings, output_rows = consistent_embeddings(counts, vocab.tokens, dim, seed)
    charset = {ch for word in gold for ch in word}
    merges = bpe_train(lines, target_vocab_size=len(charset) + 40)
    lexicon0 = SegmentedLexicon(
        {word: bpe_segment(word, merges) for word in vocab.tokens}
    )
    state = refine(lexicon0, embeddings, counts, output_rows)
    return lines, gold, vocab, counts, embeddings, output_rows, state


def test_criterion_5_refinement_contracts(tmp_path):
    started = time.perf_counter()
    lines, gold, _, _, embeddings, _, state = _synthetic_refinement()

    terminated = state.converged and state.iterations <= 10
    sizes = [s.subword_count for s in state.history]
    shrinking = all(a >= b for a, b in zip(sizes, sizes[1:]))

    fixed_point = True
    for word, parts in state.lexicon.items():
        redo = embedding_segment(word, embeddings.vector(word), state.embeddings)
        if redo.subwords != parts:
            fixed_point = False
            break

    first = tmp_path / "first"
    second = tmp_path / "second"
    for directory in (first, second):
        directory.mkdir()
        _, _, _, _, _, _, rerun = _synthetic_refinement()
        save_lexicon(rerun.lexicon, directory / "lexicon.tsv")
        save_embeddings(rerun.embeddings, directory / "subwords.txt")
    identical = (
        (first / "lexicon.tsv").read_bytes() == (second / "lexicon.tsv").read_bytes()
        and (first / "subwords.txt").read_bytes()
        == (second / "subwords.txt").read_bytes()
    )
    elapsed = time.perf_counter() - started
    _verdict(
        5,
        "refinement terminates, shrinks, fixes and reproduces",
        terminated and shrinking and fixed_point and identical and elapsed < 120.0,
        f"{state.iterations} iterations, |S| {sizes[0]}->{sizes[-1]}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. metric correctness


def _oracle_boundaries(parts):
    offsets = set()
    position = 0
    for piece in parts[:-1]:
        position += len(piece)
        offsets.add(position)
    return offsets


def test_criterion_6_metric_correctness():
    rng = np.random.default_rng(66)
    words = sorted(
        {
            "".join("abcd"[i] for i in rng.integers(0, 4, int(rng.integers(1, 10))))
            for _ in range(40)
        }
    )

    def random_split(word):
        parts = []
        start = 0
        for pos in range(1, len(word)):
            if rng.random() < 0.4:
                parts.append(word[start:pos])
                start = pos
        parts.append(word[start:])
        return parts

    boundary_exact = True
    for _ in range(200):
        pred = SegmentedLexicon({w: random_split(w) for w in words})
        gold = SegmentedLexicon({w: random_split(w) for w in words})
        report = boundary_prf(pred, gold)
        tp = pred_total = gold_total = 0
        for w in words:
            p, g = _oracle_boundaries(pred[w]), _oracle_boundaries(gold[w])
            tp += len(p & g)
            pred_total += len(p)
            gold_total += len(g)
        precision = tp / pred_total if pred_total else 1.0
        recall = tp / gold_total if gold_total else 1.0
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        if (
            report.true_positives != tp
            or report.predicted_boundaries != pred_total
            or report.gold_boundaries != gold_total
            or report.precision != precision
            or report.recall != recall
            or report.f1 != f1
        ):
            boundary_exact = False
            break

    uniform_ok = True
    for k in (2, 7, 32):
        report = renyi_efficiency({f"t{i}": 3 for i in range(k)}, vocab_size=k, alpha=2.5)
        if abs(report.efficiency - 1.0) > 1e-12:
            uniform_ok = False

    worked = renyi_efficiency({"a": 1, "b": 1}, vocab_size=4, alpha=2.5)
    worked_ok = abs(worked.efficiency - 0.5) <= 1e-9

    formula_gap = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 15))
        frequencies = {f"t{i}": int(c) for i, c in enumerate(rng.integers(1, 60, size=k))}
        alpha = float(rng.choice([0.5, 2.0, 2.5, 5.0]))
        vocab_size = k + int(rng.integers(0, 4))
        report = renyi_efficiency(frequencies, vocab_size=vocab_size, alpha=alpha)
        total = sum(frequencies.values())
        entropy = math.log(sum((c / total) ** alpha for c in frequencies.values())) / (
            1.0 - alpha
        )
        formula_gap = max(formula_gap, abs(report.entropy - entropy))
        formula_gap = max(
            formula_gap, abs(report.efficiency - entropy / math.log(vocab_size))
        )

    _verdict(
        6,
        "boundary oracle exact on 200 pairs; efficiency within pinned bounds",
        boundary_exact and uniform_ok and worked_ok and formula_gap <= 1e-9,
        f"formula gap {formula_gap:.3e}",
    )


# ---------------------------------------------------------------------------
# 7. distillation fidelity report (values reported, not thresholded)


def test_criterion_7_distillation_fidelity():
    lines, gold, _, _, _, _, state = _synthetic_refinement()
    segmented_words = [
        " ".join(parts) for row in segment_corpus(lines, state.lexicon) for parts in row
    ]
    model = distill(parts.split() for parts in segmented_words)

    gold_words = sorted(gold)
    embedding_side = {w: state.lexicon[w] for w in gold_words}
    bigram_side = {w: beam_segment(w, model).subwords for w in gold_words}
    agreement = sum(
        1 for w in gold_words if embedding_side[w] == bigram_side[w]
    ) / len(gold_words)

    gold_lexicon = SegmentedLexicon({w: list(gold[w]) for w in gold_words})
    embedding_precision = boundary_prf(
        SegmentedLexicon(embedding_side), gold_lexicon
    ).precision
    bigram_precision = boundary_prf(
        SegmentedLexicon({w: list(p) for w, p in bigram_side.items()}), gold_lexicon
    ).precision

    _emit(
        "[REPORT] criterion 7: "
        f"type agreement {agreement:.4f}, boundary precision "
        f"embedding {embedding_precision:.4f} vs bigram {bigram_precision:.4f}"
    )
    values_valid = all(
        0.0 <= value <= 1.0
        for value in (agreement, embedding_precision, bigram_precision)
    )
    _verdict(
        7,
        "distillation pipeline completed and reported",
        values_valid,
        f"agreement {agreement:.4f}",
    )


# ---------------------------------------------------------------------------
# 8. round-trips and end-to-end byte determinism


def _run_pipeline(root, lines, gold):
    corpus = root / "corpus.txt"
    corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    vocab_path = root / "vocab.tsv"
    counts_path = root / "counts.tsv"
    assert main(["vocab", str(corpus), "-o", str(vocab_path)]) == 0
    assert main(["cooc", str(corpus), "--vocab", str(vocab_path), "-o", str(counts_path)]) == 0

    vocab = load_vocabulary(vocab_path)
    counts = load_counts(counts_path)
    embeddings, output_rows = consistent_embeddings(counts, vocab.tokens, dim=16, seed=5)
    save_embeddings(embeddings, root / "emb.txt")
    save_embeddings(output_rows, root / "outmat.txt")

    charset = {ch for word in gold for ch in word}
    assert (
        main(
            [
                "init-bpe",
                str(corpus),
                "--vocab",
                str(vocab_path),
                "--target-size",
                str(len(charset) + 20),
                "--lexicon-out",
                str(root / "lex0.tsv"),
                "--merges-out",
                str(root / "merges.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "subword-embed",
                "--vocab",
                str(vocab_path),
                "--counts",
                str(counts_path),
                "--output-matrix",
                str(root / "outmat.txt"),
                "--lexicon",
                str(root / "lex0.tsv"),
                "-o",
                str(root / "subemb.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "refine",
                "--vocab",
                str(vocab_path),
                "--counts",
                str(counts_path),
                "--embeddings",
                str(root / "emb.txt"),
                "--output-matrix",
                str(root / "outmat.txt"),
                "--lexicon",
                str(root / "lex0.tsv"),
                "-o",
                str(root / "refined.tsv"),
                "--subword-embeddings-out",
                str(root / "refined_emb.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "segment-embed",
                str(corpus),
                "--lexicon",
                str(root / "refined.tsv"),
                "--word-per-line",
                "-o",
                str(root / "segmented.txt"),
            ]
        )
        == 0
    )
    assert main(["distill", str(root / "segmented.txt"), "-o", str(root / "model.bigram")]) == 0
    assert (
        main(
            [
                "segment",
                str(corpus),
                "--model",
                str(root / "model.bigram"),
                "-o",
                str(root / "bigram_segmented.txt"),
            ]
        )
        == 0
    )
    refined = load_lexicon(root / "refined.tsv")
    save_lexicon(
        SegmentedLexicon({w: list(refined[w]) for w in gold}), root / "pred.tsv"
    )
    save_lexicon(SegmentedLexicon({w: list(p) for w, p in gold.items()}), root / "gold.tsv")
    assert (
        main(
            [
                "eval-boundaries",
                "--pred",
                str(root / "pred.tsv"),
                "--gold",
                str(root / "gold.tsv"),
                "-o",
                str(root / "boundaries.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "eval-renyi",
                str(root / "segmented.txt"),
                "-o",
                str(root / "renyi.txt"),
            ]
        )
        == 0
    )


def test_criterion_8_round_trips_and_determinism(tmp_path):
    # artifact round-trips
    lines = ["ab ba ab", "ba ab"]
    vocab = build_vocabulary(lines, max_size=100)
    save_vocabulary(vocab, tmp_path / "v.tsv")
    vocab_ok = load_vocabulary(tmp_path / "v.tsv") == vocab

    counts = count_cooccurrences(lines, vocab, window=3)
    save_counts(counts, tmp_path / "c.tsv")
    counts_ok = load_counts(tmp_path / "c.tsv") == counts

    lexicon = SegmentedLexicon({"ab": ["a", "b"], "ba": ["ba"]})
    save_lexicon(lexicon, tmp_path / "l.tsv")
    lexicon_ok = load_lexicon(tmp_path / "l.tsv") == lexicon

    rng = np.random.default_rng(8)
    table = EmbeddingTable(["a", "ab", "b"], rng.normal(size=(3, 7)))
    save_embeddings(table, tmp_path / "e.txt")
    loaded = load_embeddings(tmp_path / "e.txt")
    embeddings_ok = loaded.tokens == table.tokens and np.array_equal(
        loaded.vectors, table.vectors
    )

    model = distill([["ab"], ["b", "a"], ["ba"]])
    save_model(model, tmp_path / "m.bigram")
    model_ok = load_model(tmp_path / "m.bigram") == model

    # end-to-end reruns are byte-identical at every stage
    lines, gold = agglutinative_corpus(6, 4)
    first = tmp_path / "first"
    second = tmp_path / "second"
    stage_files = [
        "corpus.txt",
        "vocab.tsv",
        "counts.tsv",
        "emb.txt",
        "outmat.txt",
        "lex0.tsv",
        "merges.txt",
        "subemb.txt",
        "refined.tsv",
        "refined_emb.txt",
        "segmented.txt",
        "model.bigram",
        "bigram_segmented.txt",
        "pred.tsv",
        "gold.tsv",
        "boundaries.txt",
        "renyi.txt",
    ]
    for directory in (first, second):
        directory.mkdir()
        _run_pipeline(directory, lines, gold)
    differing = [
        name
        for name in stage_files
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    _verdict(
        8,
        "all artifacts round-trip; pipeline reruns are byte-identical",
        vocab_ok
        and counts_ok
        and lexicon_ok
        and embeddings_ok
        and model_ok
        and not differing,
        f"differing stages: {differing or 'none'}",
    )
