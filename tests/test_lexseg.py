import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseg import (
    ArgumentError,
    CooccurrenceCounts,
    CoverageError,
    EmbeddingTable,
    SegmentationMatrix,
    SegmentedLexicon,
    ValidationError,
    build_segmentation_matrix,
    compute_subword_embeddings,
    cosine,
    default_ridge,
    embedding_segment,
    refine,
    right_inverse_solve,
    segment_corpus,
    smoothed_log_target,
)

from subseg import lexseg
from subseg.lexseg import _split_at, _WordSubstrings
from subseg.textio import ScoredSegmentation, _candidate_order

from synthdata import agglutinative_corpus, consistent_embeddings


def _zero_table(tokens, dim=2):
    return EmbeddingTable(tokens, np.zeros((len(tokens), dim)))


def _table(entries):
    tokens = sorted(entries)
    return EmbeddingTable(tokens, np.array([entries[t] for t in tokens], dtype=float))


def _brute_force(word, word_vector, table, alpha):
    """Score every one of the 2^(n-1) splits directly."""
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


def _best_segmentation(word, sims, alpha):
    """Reference DP: one hypothesis per prefix, candidates compared as tuples.

    ``sims`` maps every substring of ``word`` that has a vector to its cosine.
    """
    n = len(word)
    # One hypothesis per prefix length: (score, subword count, sequence).
    best = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for end in range(1, n + 1):
        chosen = None
        for start in range(end):
            prefix = best[start]
            if prefix is None:
                continue
            piece = word[start:end]
            similarity = sims.get(piece)
            if similarity is None:
                continue
            candidate = (
                prefix[0] + (similarity - alpha),
                prefix[1] + 1,
                prefix[2] + (piece,),
            )
            if chosen is None or _candidate_order(candidate) < _candidate_order(chosen):
                chosen = candidate
        best[end] = chosen
    final = best[n]
    if final is None:
        missing = next(ch for ch in word if ch not in sims)
        raise CoverageError(
            f"cannot segment {word!r}: character {missing!r} is missing "
            "from the subword vocabulary"
        )
    return ScoredSegmentation(final[2], final[0])


def _reference_sims(word, word_vector, table):
    """Cosine of ``word_vector`` to every substring of ``word`` in ``table``."""
    pieces = {word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)}
    return {p: cosine(word_vector, table.vector(p)) for p in sorted(pieces) if p in table}


# ---------------------------------------------------------------------------
# cosine


def test_cosine_zero_vector_is_neutral():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
    assert cosine(np.ones(3), np.zeros(3)) == 0.0


def test_cosine_parallel_and_orthogonal():
    assert cosine(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == 1.0
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == 0.0
    assert cosine(np.array([1.0, 1.0]), np.array([2.0, 2.0])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# embedding_segment


def test_single_character_word():
    table = _table({"a": [1.0, 0.0]})
    result = embedding_segment("a", np.array([1.0, 0.0]), table)
    assert result.subwords == ("a",)
    assert result.score == 0.0  # cos 1 minus default alpha 1


def test_alpha_defaults_to_one():
    table = _table({"a": [1.0, 0.0], "b": [1.0, 0.0], "ab": [1.0, 0.0]})
    vec = np.array([1.0, 0.0])
    assert embedding_segment("ab", vec, table) == embedding_segment("ab", vec, table, alpha=1.0)


def test_tie_breaking_prefers_fewer_then_lexicographic():
    # all-zero vectors make every candidate score -alpha per piece
    table = _zero_table(["a", "b", "c", "ab", "bc"])
    result = embedding_segment("abc", np.zeros(2), table)
    # two-piece splits (a, bc) and (ab, c) tie; lexicographic picks (a, bc)
    assert result.subwords == ("a", "bc")
    assert result.score == -2.0


def test_zero_word_vector_is_not_an_error():
    table = _table({"a": [1.0, 0.0], "b": [0.0, 1.0], "ab": [1.0, 1.0]})
    result = embedding_segment("ab", np.zeros(2), table)
    assert result.subwords == ("ab",)
    assert result.score == -1.0


def test_unreachable_intermediate_positions_are_fine():
    # neither "a" nor "b" has a vector, yet "abc" is coverable end to end
    table = _table({"ab": [1.0, 0.0], "abc": [0.5, 0.5]})
    result = embedding_segment("abc", np.array([1.0, 0.0]), table)
    assert result.subwords == ("abc",)


def test_uncovered_word_raises_coverage_error_naming_character():
    table = _table({"a": [1.0, 0.0], "ab": [1.0, 0.0], "b": [0.0, 1.0]})
    with pytest.raises(CoverageError, match="'c'"):
        embedding_segment("abc", np.array([1.0, 0.0]), table)


def test_argument_validation():
    table = _table({"a": [1.0, 0.0]})
    with pytest.raises(ArgumentError):
        embedding_segment("", np.zeros(2), table)
    with pytest.raises(ArgumentError):
        embedding_segment("a b", np.zeros(2), table)
    with pytest.raises(ArgumentError):
        embedding_segment("a", np.zeros(3), table)
    with pytest.raises(ValidationError, match="non-finite"):
        embedding_segment("a", np.array([np.nan, 0.0]), table)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(77)
    alphabet = "abc"
    for _ in range(200):
        length = int(rng.integers(1, 11))
        word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
        tokens = sorted(set(alphabet))
        extra = set()
        for _ in range(int(rng.integers(0, 7))):
            i = int(rng.integers(0, length))
            j = int(rng.integers(i + 1, length + 1))
            extra.add(word[i:j])
        tokens = sorted(set(tokens) | extra)
        table = EmbeddingTable(tokens, rng.normal(size=(len(tokens), 6)))
        vec = rng.normal(size=6)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        result = embedding_segment(word, vec, table, alpha)
        key, parts, score = _brute_force(word, vec, table, alpha)
        assert result.subwords == parts
        assert result.score == score  # same accumulation order, bitwise equal


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 300])
def test_batched_similarities_equal_cosine_bitwise(dim):
    rng = np.random.default_rng(dim)
    words = ["abcab", "bca", "cc", "a", "abcabcab", "ba"]
    substrings = sorted({w[i:j] for w in words for i in range(len(w)) for j in range(i + 1, len(w) + 1)})
    tokens = sorted({"zz", "c"} | {s for s in substrings if rng.random() < 0.6})
    vectors = rng.normal(size=(len(tokens), dim)) * rng.choice([1e-3, 1.0, 1e3], size=(len(tokens), 1))
    vectors[tokens.index("c")] = 0.0
    table = EmbeddingTable(tokens, vectors)
    word_vectors = rng.normal(size=(len(words), dim))
    word_vectors[1] = 0.0
    batched = _WordSubstrings(words, word_vectors)
    piece_row = np.array([table.token_id(p) if p in table else -1 for p in batched.piece_ids])
    batched.score(table.vectors, piece_row)

    def scored(position):
        pairs = np.flatnonzero(batched.pair_word == position)
        pieces = list(batched.piece_ids)
        return {
            pieces[batched.pair_piece[pair]]: float(batched.cosines[pair])
            for pair in pairs
            if batched.present[pair]
        }

    for position, (word, vector) in enumerate(zip(words, word_vectors)):
        sims = scored(position)
        expected = _reference_sims(word, vector, table)
        assert sorted(sims) == sorted(expected)
        got = np.array([sims[p] for p in expected], dtype=np.float64)
        want = np.array(list(expected.values()), dtype=np.float64)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit

    # Re-scoring some pieces against new vectors leaves the other pairs as they were.
    before = batched.cosines.copy()
    moved = [batched.piece_ids[p] for p in ("c", max(batched.piece_ids, key=len)) if p in table]
    changed = np.array(table.vectors)
    changed[piece_row[moved]] = rng.normal(size=(len(moved), dim))
    batched.score(changed, piece_row, moved)
    affected = np.isin(batched.pair_piece, moved)
    assert np.array_equal(batched.cosines[:-1][~affected], before[:-1][~affected])
    for pair in np.flatnonzero(affected):
        piece = list(batched.piece_ids)[batched.pair_piece[pair]]
        want = cosine(word_vectors[batched.pair_word[pair]], changed[table.token_id(piece)])
        assert batched.cosines[pair] == want


def test_rescoring_pieces_shared_across_pair_blocks_equals_cosine_bitwise(monkeypatch):
    # At d = 300, with blocks of 7 pairs and 3 norms, a piece's pairs span
    # several blocks and calls; word norms are computed once, piece norms
    # once per call.
    monkeypatch.setattr(lexseg, "_PAIR_BLOCK", 7)
    monkeypatch.setattr(lexseg, "_NORM_ROWS", 3)
    dim = 300
    rng = np.random.default_rng(dim)
    words = ["abab", "babba", "ab", "bbb", "aabba", "b"]
    word_vectors = rng.normal(size=(len(words), dim)) * rng.choice([1e-3, 1.0, 1e3], size=(len(words), 1))
    word_vectors[3] = 0.0
    batched = _WordSubstrings(words, word_vectors)
    pieces = list(batched.piece_ids)
    # Rows in another order than piece ids, one piece without a row.
    piece_row = rng.permutation(len(pieces))
    piece_row[pieces.index("bbb")] = -1
    vectors = np.zeros((len(pieces), dim))
    for rescored in (None, ["b", "ab", "bbb"], ["a", "ba"], []):
        ids = None if rescored is None else [batched.piece_ids[p] for p in rescored]
        rows = [row for row in piece_row[ids if ids is not None else slice(None)] if row >= 0]
        vectors = np.array(vectors)
        vectors[rows] = rng.normal(size=(len(rows), dim))
        vectors[piece_row[pieces.index("a")]] = 0.0
        before = batched.cosines.copy()
        batched.score(vectors, piece_row, ids)
        for pair in range(batched.pair_piece.size):
            piece = int(batched.pair_piece[pair])
            if ids is not None and piece not in ids or piece_row[piece] < 0:
                assert batched.cosines[pair] == before[pair]
                continue
            want = cosine(word_vectors[batched.pair_word[pair]], vectors[piece_row[piece]])
            assert np.float64(batched.cosines[pair]).view(np.int64) == np.float64(want).view(np.int64)


# A few fixed vectors with repeats, so that cosines and whole-split scores
# tie exactly; the zero vector makes every cosine 0.
_VECTOR_POOL = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 2.0], [3.0, -1.0]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    words=st.lists(st.text(alphabet="abc", min_size=1, max_size=7), min_size=1, max_size=8, unique=True),
    all_chars=st.booleans(),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.25]),
    data=st.data(),
)
def test_batched_dp_equals_reference_dp(words, all_chars, alpha, data):
    words = sorted(words)
    substrings = sorted({w[i:j] for w in words for i in range(len(w)) for j in range(i + 1, len(w) + 1)})
    keep = data.draw(st.lists(st.booleans(), min_size=len(substrings), max_size=len(substrings)))
    tokens = {piece for piece, kept in zip(substrings, keep) if kept}
    if all_chars:
        tokens |= {ch for word in words for ch in word}
    tokens = sorted(tokens)
    pick = st.integers(0, len(_VECTOR_POOL) - 1)
    table = EmbeddingTable(
        tokens,
        _VECTOR_POOL[data.draw(st.lists(pick, min_size=len(tokens), max_size=len(tokens)))].reshape(-1, 2),
    )
    # Zero word vectors tie every split with the same number of pieces.
    zero_or_pick = st.one_of(st.just(0), pick)
    word_vectors = _VECTOR_POOL[data.draw(st.lists(zero_or_pick, min_size=len(words), max_size=len(words)))]

    expected, error = [], None
    for word, vector in zip(words, word_vectors):
        try:
            expected.append(_best_segmentation(word, _reference_sims(word, vector, table), alpha))
        except CoverageError as exc:
            error = str(exc)
            break

    batched = _WordSubstrings(words, word_vectors)
    batched.score(
        table.vectors,
        np.array([table.token_id(p) if p in table else -1 for p in batched.piece_ids]),
    )
    if error is not None:
        with pytest.raises(CoverageError) as excinfo:
            batched.segment(alpha)
        assert str(excinfo.value) == error  # the first uncovered word in sorted order
        return
    for positions, scores, masks in batched.segment(alpha):
        for position, score, mask in zip(positions, scores, masks):
            want = expected[position]
            assert _split_at(words[position], mask) == want.subwords
            assert np.float64(score).view(np.int64) == np.float64(want.score).view(np.int64)


def test_piece_count_is_non_increasing_in_alpha():
    rng = np.random.default_rng(78)
    for _ in range(50):
        length = int(rng.integers(2, 10))
        word = "".join("ab"[i] for i in rng.integers(0, 2, length))
        pieces = {word[i:j] for i in range(length) for j in range(i + 1, length + 1)}
        tokens = sorted(pieces | set(word))
        table = EmbeddingTable(tokens, rng.normal(size=(len(tokens), 4)))
        vec = rng.normal(size=4)
        counts = [
            len(embedding_segment(word, vec, table, alpha).subwords)
            for alpha in (0.25, 1.0, 4.0)
        ]
        assert counts[0] >= counts[1] >= counts[2]


def test_segmentation_is_pure():
    rng = np.random.default_rng(79)
    table = EmbeddingTable(["a", "ab", "b"], rng.normal(size=(3, 4)))
    vec = rng.normal(size=4)
    first = embedding_segment("ab", vec, table)
    second = embedding_segment("ab", vec, table)
    assert first.subwords == second.subwords
    assert first.score == second.score


def test_score_respects_upper_bound():
    rng = np.random.default_rng(80)
    table = EmbeddingTable(["a", "ab", "b"], rng.normal(size=(3, 4)))
    for alpha in (0.5, 1.0, 2.0):
        result = embedding_segment("ab", rng.normal(size=4), table, alpha)
        assert result.score <= len(result.subwords) * (1.0 - alpha) + 1e-12


# ---------------------------------------------------------------------------
# refine


def _two_word_setup():
    """Two words with no shared optimal split: already a fixed point."""
    words = ["ab", "ba"]
    counts = CooccurrenceCounts(vocab_size=2, window=5, counts=[(0, 1, 6)])
    output_rows = EmbeddingTable(words, np.array([[1.0, 0.3], [-0.2, 1.0]]))
    targets = smoothed_log_target(SegmentationMatrix(2, [(0,), (1,)]), counts)
    word_vectors = right_inverse_solve(targets, output_rows, ridge=default_ridge(output_rows))
    embeddings = EmbeddingTable(words, word_vectors)
    lexicon = SegmentedLexicon({"ab": ["ab"], "ba": ["ba"]})
    return lexicon, embeddings, counts, output_rows


def test_refine_fixed_point_converges_in_one_iteration():
    lexicon, embeddings, counts, output_rows = _two_word_setup()
    state = refine(lexicon, embeddings, counts, output_rows)
    assert state.iterations == 1
    assert state.converged
    assert state.lexicon == lexicon
    assert [(s.iteration, s.changed_words) for s in state.history] == [(1, 0)]
    # unused single-character subwords were pruned
    assert state.subwords.tokens == ("ab", "ba")
    assert state.embeddings.tokens == ("ab", "ba")


def test_refine_reports_progress():
    lexicon, embeddings, counts, output_rows = _two_word_setup()
    seen = []
    refine(lexicon, embeddings, counts, output_rows, progress=seen.append)
    assert [s.iteration for s in seen] == [1]
    assert seen[0].changed_words == 0
    assert seen[0].subword_count == 2


def test_refine_validations():
    lexicon, embeddings, counts, output_rows = _two_word_setup()
    with pytest.raises(ArgumentError, match="max_iters"):
        refine(lexicon, embeddings, counts, output_rows, max_iters=0)
    stranger = SegmentedLexicon({"zz": ["zz"]})
    with pytest.raises(ValidationError, match="'zz'"):
        refine(stranger, embeddings, counts, output_rows)
    short = EmbeddingTable(["ab"], np.zeros((1, 2)))
    with pytest.raises(ValidationError, match="coverage"):
        refine(lexicon, short, counts, output_rows)


def _refinement_inputs(num_stems, num_suffixes, dim, seed, extra_merges=20, all_words=False):
    from subseg import bpe_train, bpe_segment, build_vocabulary, count_cooccurrences

    lines, gold = agglutinative_corpus(num_stems, num_suffixes)
    vocab = build_vocabulary(lines, max_size=10_000)
    counts = count_cooccurrences(lines, vocab, window=5)
    embeddings, output_rows = consistent_embeddings(counts, vocab.tokens, dim, seed)
    charset = {ch for word in gold for ch in word}
    merges = bpe_train(lines, target_vocab_size=len(charset) + extra_merges)
    words = vocab.tokens if all_words else sorted(gold)
    lexicon = SegmentedLexicon({word: bpe_segment(word, merges) for word in words})
    return lexicon, embeddings, counts, output_rows, gold


def test_refine_contracts_on_synthetic_corpus():
    lexicon, embeddings, counts, output_rows, _ = _refinement_inputs(6, 4, 16, seed=5)
    state = refine(lexicon, embeddings, counts, output_rows)
    assert state.converged
    assert state.iterations <= 10
    sizes = [s.subword_count for s in state.history]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    # every surviving subword is used by at least one segmentation
    used = {piece for _, parts in state.lexicon.items() for piece in parts}
    assert used == set(state.subwords.tokens)
    # convergence means re-running the segmentation step changes nothing
    for word, parts in state.lexicon.items():
        again = embedding_segment(word, embeddings.vector(word), state.embeddings)
        assert again.subwords == parts


def test_refine_is_deterministic_across_runs():
    first = refine(*_refinement_inputs(6, 4, 16, seed=5)[:4])
    second = refine(*_refinement_inputs(6, 4, 16, seed=5)[:4])
    assert first.lexicon == second.lexicon
    assert first.subwords == second.subwords
    assert np.array_equal(first.embeddings.vectors, second.embeddings.vectors)


def _reference_refine(lexicon0, embeddings, counts, output_rows, max_iters=10):
    """The full refinement loop: solve every row, then run the reference DP on every word."""
    words = sorted(lexicon0.words())
    current = {word: lexicon0[word] for word in words}
    subwords, matrix = build_segmentation_matrix(
        embeddings.tokens, lexicon=lexicon0, augment_chars=True
    )
    history = []
    for iteration in range(1, max_iters + 1):
        solved = compute_subword_embeddings(subwords, matrix, counts, output_rows)
        resegmented = {
            word: _best_segmentation(
                word, _reference_sims(word, embeddings.vector(word), solved), 1.0
            ).subwords
            for word in words
        }
        changed = sum(resegmented[word] != current[word] for word in words)
        current = resegmented
        subwords, matrix = build_segmentation_matrix(
            embeddings.tokens, lexicon=SegmentedLexicon(current), augment_chars=False
        )
        history.append((iteration, changed, len(subwords)))
        if changed == 0:
            break
    final = EmbeddingTable(subwords.tokens, [solved.vector(t) for t in subwords.tokens])
    return SegmentedLexicon(current), history, final, matrix


@pytest.mark.parametrize(
    "inputs",
    [
        dict(num_stems=6, num_suffixes=4, dim=16, seed=5),
        # the fixture of acceptance criterion 5
        dict(num_stems=20, num_suffixes=8, dim=32, seed=11, extra_merges=40, all_words=True),
    ],
)
def test_refine_equals_reference_loop_bitwise(inputs):
    lexicon0, embeddings, counts, output_rows, _ = _refinement_inputs(**inputs)
    state = refine(lexicon0, embeddings, counts, output_rows)
    lexicon, history, final, matrix = _reference_refine(lexicon0, embeddings, counts, output_rows)
    assert state.lexicon == lexicon
    assert state.subwords.tokens == final.tokens
    assert state.matrix == matrix
    assert [(s.iteration, s.changed_words, s.subword_count) for s in state.history] == history
    assert state.embeddings.tokens == final.tokens
    assert np.array_equal(state.embeddings.vectors, final.vectors)


def test_refine_solves_fewer_rows_than_the_full_loop(monkeypatch):
    lexicon0, embeddings, counts, output_rows, _ = _refinement_inputs(
        num_stems=20, num_suffixes=8, dim=32, seed=11, extra_merges=40, all_words=True
    )
    solved = []
    original = lexseg.compute_subword_embeddings

    def counting(subwords, matrix, *args, **kwargs):
        solved.append(matrix.row_count)
        return original(subwords, matrix, *args, **kwargs)

    monkeypatch.setattr(lexseg, "compute_subword_embeddings", counting)
    state = refine(lexicon0, embeddings, counts, output_rows)
    augmented, _ = build_segmentation_matrix(embeddings.tokens, lexicon=lexicon0, augment_chars=True)
    full_loop = [len(augmented)] + [s.subword_count for s in state.history[:-1]]
    assert state.iterations > 1
    assert len(solved) <= len(full_loop)
    assert sum(solved) < sum(full_loop)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_alpha_is_an_argument_error(alpha):
    lexicon, embeddings, counts, output_rows = _two_word_setup()
    with pytest.raises(ArgumentError, match="alpha must be finite"):
        refine(lexicon, embeddings, counts, output_rows, alpha=alpha)
    table = _table({"a": [1.0, 0.0]})
    with pytest.raises(ArgumentError, match="alpha must be finite"):
        embedding_segment("a", np.array([1.0, 0.0]), table, alpha=alpha)


# ---------------------------------------------------------------------------
# segment_corpus


def test_segment_corpus_known_words_only():
    lexicon = SegmentedLexicon({"undoing": ["un", "do", "ing"], "cats": ["cat", "s"]})
    rows = list(segment_corpus(["undoing cats", "cats"], lexicon))
    assert rows == [[("un", "do", "ing"), ("cat", "s")], [("cat", "s")]]


def test_segment_corpus_accepts_refinement_state():
    lexicon, embeddings, counts, output_rows = _two_word_setup()
    state = refine(lexicon, embeddings, counts, output_rows)
    rows = list(segment_corpus(["ab ba"], state))
    assert rows == [[("ab",), ("ba",)]]
    emitted = {piece for row in rows for parts in row for piece in parts}
    assert emitted <= set(state.subwords.tokens)


def test_segment_corpus_oov_policies():
    lexicon = SegmentedLexicon({"ab": ["a", "b"]})
    assert list(segment_corpus(["ab zzz"], lexicon, oov_policy="whole")) == [
        [("a", "b"), ("zzz",)]
    ]
    assert list(segment_corpus(["ab zzz"], lexicon, oov_policy="char")) == [
        [("a", "b"), ("z", "z", "z")]
    ]
    with pytest.raises(ValidationError, match=r"line 2.*'zzz'"):
        list(segment_corpus(["ab", "zzz ab"], lexicon, oov_policy="error"))


def test_segment_corpus_rejects_unknown_policy():
    with pytest.raises(ArgumentError, match="oov_policy"):
        list(segment_corpus(["ab"], SegmentedLexicon({"ab": ["ab"]}), oov_policy="skip"))
