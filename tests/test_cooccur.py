import random
from collections import Counter

import numpy as np
import pytest

from subseg import (
    ArgumentError,
    CooccurrenceCounts,
    ParseError,
    ValidationError,
    build_vocabulary,
    cooccur,
    count_cooccurrences,
    load_counts,
    save_counts,
)


def _oracle_counts(lines, vocab, window):
    """Enumerate in-window position pairs directly.

    count(x, y) is the number of ordered position pairs (i, j) with
    token_i = x and token_j = y; the canonical (min, max) slot stores that
    value once, so each unordered position pair adds 1 off-diagonal and 2
    on the diagonal (both orders collapse onto the same slot).
    """
    counts = Counter()
    for line in lines:
        ids = [vocab.get(tok) for tok in line.split()]
        for i, x in enumerate(ids):
            if x is None:
                continue
            for j in range(i + 1, min(len(ids), i + window + 1)):
                y = ids[j]
                if y is None:
                    continue
                counts[(min(x, y), max(x, y))] += 2 if x == y else 1
    return dict(counts)


def _as_dict(counts):
    return {(i, j): c for i, j, c in counts.pairs()}


def _count(counts, first, second):
    """C[first, second], read from the canonical rows."""
    i, j = sorted((first, second))
    hit = (counts.counts[:, 0] == i) & (counts.counts[:, 1] == j)
    return int(counts.counts[hit, 2].sum())


def _row_sum(counts, word_id):
    """The sum of the canonical rows that hold ``word_id`` on either side."""
    hit = (counts.counts[:, 0] == word_id) | (counts.counts[:, 1] == word_id)
    return int(counts.counts[hit, 2].sum())


def test_hand_counted_example():
    vocab = build_vocabulary(["a b a"], max_size=10)
    counts = count_cooccurrences(["a b a"], vocab, window=5)
    a, b = vocab.token_id("a"), vocab.token_id("b")
    # ordered pairs: (0,1),(1,0),(0,2),(2,0),(1,2),(2,1) over tokens a,b,a
    assert _count(counts, a, b) == 2
    assert _count(counts, b, a) == 2
    assert _count(counts, a, a) == 2  # ordered pairs (0,2) and (2,0)


def test_single_token_line_has_no_pairs():
    vocab = build_vocabulary(["a"], max_size=10)
    counts = count_cooccurrences(["a"], vocab, window=5)
    assert list(counts.pairs()) == []


def test_windows_do_not_cross_line_boundaries():
    vocab = build_vocabulary(["a", "b"], max_size=10)
    counts = count_cooccurrences(["a", "b"], vocab, window=5)
    assert list(counts.pairs()) == []


def test_window_limits_pair_distance():
    vocab = build_vocabulary(["a x x x b"], max_size=10)
    near = count_cooccurrences(["a x x x b"], vocab, window=2)
    a, b = vocab.token_id("a"), vocab.token_id("b")
    assert _count(near, a, b) == 0
    far = count_cooccurrences(["a x x x b"], vocab, window=4)
    assert _count(far, a, b) == 1  # the single ordered pair (0, 4)


def test_oov_tokens_occupy_positions_but_bear_no_counts():
    vocab = build_vocabulary(["a b"], max_size=10)
    # "z" is out of vocabulary: it blocks nothing but contributes nothing
    counts = count_cooccurrences(["a z b"], vocab, window=1)
    a, b = vocab.token_id("a"), vocab.token_id("b")
    assert _count(counts, a, b) == 0  # distance 2 > window 1
    wide = count_cooccurrences(["a z b"], vocab, window=2)
    assert _count(wide, a, b) == 1


def test_window_zero_is_an_argument_error():
    vocab = build_vocabulary(["a b"], max_size=10)
    with pytest.raises(ArgumentError):
        count_cooccurrences(["a b"], vocab, window=0)


def _random_lines(rng):
    # a line of zero tokens is blank
    return [
        " ".join(rng.choice("abcdez") for _ in range(rng.randint(0, 12)))
        for _ in range(rng.randint(1, 30))
    ]


def test_counts_match_ordered_pair_oracle_on_random_corpora():
    rng = random.Random(1234)
    for _ in range(20):
        lines = _random_lines(rng)
        vocab = build_vocabulary(lines, max_size=4)  # leaves some tokens OOV
        window = rng.randint(1, 6)
        counts = count_cooccurrences(lines, vocab, window=window)
        assert _as_dict(counts) == _oracle_counts(lines, vocab, window)


def test_counts_match_oracle_across_many_blocks(monkeypatch):
    # Blocks close at the first line end past 8 ids, so each corpus spans
    # several blocks whose partial tables must merge exactly; pairs() then
    # reads the table back three rows at a time.
    monkeypatch.setattr(cooccur, "_BLOCK_TOKENS", 8)
    monkeypatch.setattr(cooccur, "_PAIR_CHUNK", 3)
    rng = random.Random(4321)
    for _ in range(20):
        lines = _random_lines(rng)
        vocab = build_vocabulary(lines, max_size=4)
        window = rng.randint(1, 6)
        counts = count_cooccurrences(lines, vocab, window=window)
        assert _as_dict(counts) == _oracle_counts(lines, vocab, window)


def test_symmetry_and_row_sums():
    rng = random.Random(99)
    lines = [
        " ".join(rng.choice("abcd") for _ in range(rng.randint(1, 10))) for _ in range(50)
    ]
    vocab = build_vocabulary(lines, max_size=10)
    counts = count_cooccurrences(lines, vocab, window=3)
    dense = counts.matrix().toarray()
    assert (dense == dense.T).all()
    for x in range(len(vocab)):
        assert _row_sum(counts, x) == int(dense[x].sum())


def test_line_order_permutation_invariance():
    rng = random.Random(5)
    lines = [f"w{i % 4} w{(i + 1) % 4} w{(i + 2) % 5}" for i in range(40)]
    vocab = build_vocabulary(lines, max_size=10)
    base = count_cooccurrences(lines, vocab, window=2)
    shuffled = lines[:]
    rng.shuffle(shuffled)
    assert count_cooccurrences(shuffled, vocab, window=2) == base


def test_matrix_puts_diagonal_counts_on_the_diagonal():
    vocab = build_vocabulary(["a b a"], max_size=10)
    counts = count_cooccurrences(["a b a"], vocab, window=5)
    dense = counts.matrix().toarray()
    a, b = vocab.token_id("a"), vocab.token_id("b")
    assert dense[a, a] == 2
    assert dense[a, b] == dense[b, a] == 2


def test_matrix_is_built_once_and_read_only():
    vocab = build_vocabulary(["a b a c"], max_size=10)
    counts = count_cooccurrences(["a b a c"], vocab, window=2)
    csr = counts.matrix()
    assert counts.matrix() is csr
    for array in (csr.data, csr.indices, csr.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert np.array_equal(csr.toarray(), counts.matrix().toarray())


def test_counts_validate_canonical_storage():
    with pytest.raises(ValidationError):
        CooccurrenceCounts(vocab_size=3, window=2, counts=[(2, 1, 4)])
    with pytest.raises(ValidationError):
        CooccurrenceCounts(vocab_size=3, window=2, counts=[(0, 5, 4)])
    with pytest.raises(ValidationError):
        CooccurrenceCounts(vocab_size=3, window=2, counts=[(0, 1, 0)])
    with pytest.raises(ValidationError, match="rows"):
        CooccurrenceCounts(vocab_size=3, window=2, counts=[(0, 1)])
    with pytest.raises(ValidationError, match=r"\(0, 1\) does not come strictly after \(0, 1\)"):
        CooccurrenceCounts(vocab_size=3, window=2, counts=[(0, 1, 4), (0, 1, 2)])
    with pytest.raises(ValidationError, match=r"\(0, 2\) does not come strictly after \(1, 1\)"):
        CooccurrenceCounts(vocab_size=3, window=2, counts=[(0, 1, 4), (1, 1, 2), (0, 2, 1)])


def test_save_load_round_trip(tmp_path):
    lines = ["a b a b c", "c a"]
    vocab = build_vocabulary(lines, max_size=10)
    counts = count_cooccurrences(lines, vocab, window=4)
    path = tmp_path / "counts.tsv"
    save_counts(counts, path)
    assert load_counts(path) == counts


def test_diagonal_triple_loads_as_diagonal_entry(tmp_path):
    path = tmp_path / "counts.tsv"
    path.write_text("#COOC v1 |V|=1 window=5\n0\t0\t2\n", encoding="utf-8")
    counts = load_counts(path)
    assert _count(counts, 0, 0) == 2


@pytest.mark.parametrize(
    "body, pattern",
    [
        ("2\t1\t5\n", "line 2"),  # id1 > id2 violates canonical order
        ("0\t1\t5\n0\t1\t2\n", "line 3"),  # duplicate pair
        ("0\t9\t5\n", "line 2"),  # id out of range
        ("0\t1\t0\n", "line 2"),  # non-positive count
        ("0\t1\n", "line 2"),  # missing field
        ("0\t1\t99999999999999999999\n", "line 2"),  # count beyond int64
    ],
)
def test_load_counts_rejects_malformed_triples(tmp_path, body, pattern):
    path = tmp_path / "counts.tsv"
    path.write_text("#COOC v1 |V|=3 window=5\n" + body, encoding="utf-8")
    with pytest.raises((ParseError, ValidationError), match=pattern):
        load_counts(path)


def test_save_counts_writes_one_row_per_line_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(cooccur, "_PAIR_CHUNK", 3)
    rng = random.Random(7)
    lines = _random_lines(rng)
    counts = count_cooccurrences(lines, build_vocabulary(lines, max_size=10), window=3)
    path = tmp_path / "counts.tsv"
    save_counts(counts, path)
    rows = "".join(f"{i}\t{j}\t{value}\n" for i, j, value in counts.pairs())
    assert len(counts.counts) > 3
    assert path.read_text(encoding="utf-8") == f"#COOC v1 |V|={counts.vocab_size} window=3\n" + rows


@pytest.mark.parametrize(
    "row, parsed",
    [
        ("0\t1\t1_0", [0, 1, 10]),
        ("0\t+1\t5", [0, 1, 5]),
        ("0\t 1\t5 ", [0, 1, 5]),
        ("0\t1\r\t5", [0, 1, 5]),
        ("0\t1\t5\u0665", [0, 1, 55]),
        ("\u0660\t1\t5", [0, 1, 5]),
        ("0\t1\t9223372036854775807", [0, 1, 2**63 - 1]),
    ],
)
@pytest.mark.parametrize("block_chars", [1, 1 << 20])
def test_load_counts_reads_fields_as_int_does(tmp_path, monkeypatch, row, parsed, block_chars):
    # np.loadtxt rejects or misreads each of these fields; int() decides.
    monkeypatch.setattr(cooccur, "_PARSE_BLOCK_CHARS", block_chars)
    path = tmp_path / "counts.tsv"
    path.write_text(f"#COOC v1 |V|=2 window=5\n0\t0\t1\n{row}\n1\t1\t2\n", encoding="utf-8")
    assert load_counts(path).counts.tolist() == [[0, 0, 1], parsed, [1, 1, 2]]


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0\t1\t\x1c5", "non-integer field"),
        ("0\t1\t5\x1f", "non-integer field"),
        ("0\t1\t1\u01fe", "non-integer field"),
        ("0\t1\t1\r5", "non-integer field"),
        ("0\t1\t9223372036854775808", "does not fit in int64"),
        ("0\t1\t\t5", "expected 'id1<TAB>id2<TAB>count'"),
    ],
)
@pytest.mark.parametrize("block_chars", [1, 1 << 20])
def test_load_counts_names_the_line_int_rejects(tmp_path, monkeypatch, row, problem, block_chars):
    monkeypatch.setattr(cooccur, "_PARSE_BLOCK_CHARS", block_chars)
    path = tmp_path / "counts.tsv"
    path.write_text(f"#COOC v1 |V|=2 window=5\n0\t0\t1\n{row}\n1\t1\t0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=problem) as excinfo:
        load_counts(path)
    assert excinfo.value.line_number == 3


def test_load_counts_rejects_bad_header(tmp_path):
    path = tmp_path / "counts.tsv"
    for header in ("#CO v9", "#COOC v1 |V|=1 window=0"):
        path.write_text(header + "\n0\t0\t1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1"):
            load_counts(path)


def test_matrix_round_trips_through_scipy():
    lines = ["a b c a", "b c"]
    vocab = build_vocabulary(lines, max_size=10)
    counts = count_cooccurrences(lines, vocab, window=2)
    dense = counts.matrix().toarray()
    rebuilt = {}
    for i in range(dense.shape[0]):
        for j in range(i, dense.shape[1]):
            if dense[i, j]:
                rebuilt[(i, j)] = int(dense[i, j])
    assert rebuilt == dict(_as_dict(counts))
    assert dense.dtype == np.float64  # ready for downstream matrix products
