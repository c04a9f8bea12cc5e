import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseg import (
    ArgumentError,
    BigramModel,
    ParseError,
    START_SYMBOL,
    ValidationError,
    beam_segment,
    distill,
    exact_segment,
    iter_word_groups,
    load_model,
    save_model,
)
from subseg.textio import _check_token

import reference_corpus


def _brute_force(word, model):
    """Enumerate all splits and rescore them with the same accumulation of per-call logs."""
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
            score = score + reference_corpus.log_prob(model, p, prev)
            prev = p
        key = (-score, len(parts), tuple(parts))
        if best is None or key < best[0]:
            best = (key, tuple(parts), score)
    return best


def _random_model(rng, alphabet="abcd"):
    groups = []
    for _ in range(int(rng.integers(1, 25))):
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


# ---------------------------------------------------------------------------
# distillation


def test_distill_hand_counted_example():
    model = distill([["ab", "c"]])
    assert model.bigram_count(START_SYMBOL, "ab") == 1
    assert model.bigram_count("ab", "c") == 1
    assert model.context_count(START_SYMBOL) == 1
    assert model.context_count("ab") == 1
    assert model.unigram_count("ab") == 1
    assert model.unigram_count("c") == 1


def test_distill_inventory_is_subwords_plus_characters():
    model = distill([["ab", "c"]])
    assert model.subwords == ("a", "ab", "b", "c")
    # a model built from an unsorted count table returns its tokens sorted
    unigrams = {"cd": 2, "ab": 3, "f": 0, "e": 0}
    assert BigramModel(unigrams, {}).subwords == tuple(sorted(unigrams))
    # characters only ever seen inside longer subwords carry count 0
    assert model.unigram_count("a") == 0
    assert model.unigram_count("b") == 0


def test_start_symbol_is_not_a_subword():
    model = distill([["ab", "c"]])
    assert START_SYMBOL not in model
    assert START_SYMBOL not in model.subwords


def test_duplicate_corpus_doubles_counts_and_shifts_probabilities():
    single = distill([["ab", "c"]])
    double = distill([["ab", "c"], ["ab", "c"]])
    assert double.bigram_count("ab", "c") == 2 * single.bigram_count("ab", "c")
    assert double.unigram_count("ab") == 2 * single.unigram_count("ab")
    assert double.total_tokens == 2 * single.total_tokens
    # Laplace smoothing is not scale-invariant: (1+1)/(1+4) vs (2+1)/(2+4)
    assert single.log_prob("c", "ab") == math.log(2 / 5)
    assert double.log_prob("c", "ab") == math.log(3 / 6)


def test_distill_argument_and_validation_errors():
    with pytest.raises(ArgumentError, match="empty corpus"):
        distill([])
    with pytest.raises(ValidationError, match="empty word group"):
        distill([[]])
    with pytest.raises(ValidationError, match="###"):
        distill([["###", "a"]])
    # The first invalid group in corpus order decides the error.
    with pytest.raises(ValidationError, match="'c d' contains whitespace"):
        distill([["a"], ["b"], ["a"], ["c d"], [], ["c d"]])


def _distill_per_occurrence(groups):
    """Count every occurrence of every group: the reference for ``distill``."""
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    seen_any = False
    for group in groups:
        if not group:
            raise ValidationError("empty word group in segmented corpus")
        seen_any = True
        prev = START_SYMBOL
        for token in group:
            _check_token(token, "subword in segmented corpus")
            if token == START_SYMBOL:
                raise ValidationError(
                    f"start symbol {START_SYMBOL!r} may not occur in a segmented corpus"
                )
            bigrams[(prev, token)] += 1
            unigrams[token] += 1
            prev = token
    if not seen_any:
        raise ArgumentError("cannot distill from an empty corpus")
    for token in list(unigrams):
        for ch in token:
            if ch not in unigrams:
                unigrams[ch] = 0
    return BigramModel(dict(unigrams), dict(bigrams))


def _model_file_or_error(build, groups):
    try:
        model = build(groups)
    except (ArgumentError, ValidationError) as exc:
        return type(exc), str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "model.txt")
        return (Path(tmp) / "model.txt").read_bytes()


_GOOD_GROUPS = st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=4)
_BAD_GROUPS = st.sampled_from([[], ["a", ""], [START_SYMBOL], ["ab", "c d"], ["a\u2028b"]])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    pool=st.lists(_GOOD_GROUPS, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), max_size=40),
    bad=st.lists(st.tuples(st.integers(0, 40), _BAD_GROUPS), max_size=2),
)
def test_distill_matches_per_occurrence_counting(pool, picks, bad):
    groups = [list(pool[i % len(pool)]) for i in picks]
    for position, group in bad:
        groups.insert(min(position, len(groups)), group)
    expected = _model_file_or_error(_distill_per_occurrence, groups)
    assert _model_file_or_error(distill, iter(groups)) == expected


def test_iter_word_groups_line_and_separator_forms():
    assert list(iter_word_groups(["ab c", "", "d"])) == [["ab", "c"], ["d"]]
    grouped = iter_word_groups(["ab c | d", "e |"], separator="|")
    assert list(grouped) == [["ab", "c"], ["d"], ["e"]]


def test_max_subword_length_tracks_inventory():
    model = distill([["abc", "d"]])
    assert model.max_subword_length == 3


# ---------------------------------------------------------------------------
# log_prob


def test_log_prob_known_context_formula():
    model = BigramModel(
        {"ab": 3, "cd": 2, "e": 0, "f": 0},
        {(START_SYMBOL, "ab"): 3, (START_SYMBOL, "cd"): 2},
    )
    assert model.size == 4
    assert model.context_count(START_SYMBOL) == 5
    assert model.log_prob("ab", START_SYMBOL) == math.log(4 / 9)


def test_log_prob_unigram_fallback_formula():
    model = BigramModel({"ab": 2, "cd": 8, "e": 0, "f": 0}, {("cd", "ab"): 2})
    assert model.total_tokens == 10
    assert model.log_prob("ab", "unseen-context") == math.log(3 / 14)


def test_log_prob_uniform_floor_is_exactly_one_over_s():
    model = BigramModel({"a": 1, "b": 1, "c": 0, "d": 0}, {("a", "b"): 1})
    assert model.log_prob("zz", "yy") == math.log(1.0 / 4)


def test_log_prob_rejects_empty_next():
    model = distill([["ab"]])
    with pytest.raises(ArgumentError):
        model.log_prob("", "ab")


def test_log_prob_is_finite_and_nonpositive():
    rng = np.random.default_rng(50)
    model = _random_model(rng)
    probes = list(model.subwords) + ["zz", "qqq"]
    for prev in probes + [START_SYMBOL]:
        for nxt in probes:
            value = model.log_prob(nxt, prev)
            assert math.isfinite(value)
            assert value <= 0.0


def test_known_context_distributions_normalize():
    rng = np.random.default_rng(51)
    for _ in range(20):
        model = _random_model(rng)
        tokens = model.subwords
        for prev in (START_SYMBOL,) + tokens:
            total = sum(math.exp(model.log_prob(nxt, prev)) for nxt in tokens)
            assert abs(total - 1.0) <= 1e-9
        # the unigram fallback normalizes too: sum (c+1)/(total+|S|) = 1
        fallback = sum(math.exp(model.log_prob(nxt, "unseen-context")) for nxt in tokens)
        assert abs(fallback - 1.0) <= 1e-9


def test_model_equality_and_tamper_rejection():
    model = distill([["ab", "c"]])
    twin = distill([["ab", "c"]])
    assert model == twin
    with pytest.raises(ValidationError):
        # context total for "ab" would exceed its unigram count
        BigramModel({"ab": 1, "c": 1, "a": 0, "b": 0}, {("ab", "c"): 5})


# ---------------------------------------------------------------------------
# segmentation


def test_single_character_word_scores_start_transition():
    model = distill([["ab", "c"]])
    result = beam_segment("c", model)
    assert result.subwords == ("c",)
    assert result.score == model.log_prob("c", START_SYMBOL)
    assert exact_segment("c", model) == result


def test_unseen_single_character_word_is_segmentable():
    model = distill([["ab"]])
    result = beam_segment("z", model)
    assert result.subwords == ("z",)
    assert result.score == model.log_prob("z", START_SYMBOL)


def test_default_beam_size_is_five():
    rng = np.random.default_rng(52)
    model = _random_model(rng)
    word = "abcabda"
    assert beam_segment(word, model) == beam_segment(word, model, beam_size=5)


def test_beam_rejects_bad_arguments():
    model = distill([["ab"]])
    with pytest.raises(ArgumentError):
        beam_segment("", model)
    with pytest.raises(ArgumentError):
        beam_segment("ab", model, beam_size=0)


def test_multicharacter_pieces_must_be_in_inventory():
    model = distill([["ab", "cd"]])
    # "abc" is not in S, so the only admissible splits use ab/cd/chars
    result = exact_segment("abcd", model)
    admissible = {piece for piece in result.subwords}
    for piece in admissible:
        assert len(piece) == 1 or piece in model


def test_exact_matches_brute_force_and_beam_converges():
    rng = np.random.default_rng(53)
    for _ in range(150):
        model = _random_model(rng)
        length = int(rng.integers(1, 11))
        alphabet = "abcd" + ("z" if rng.random() < 0.25 else "")
        word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
        exact = exact_segment(word, model)
        key, parts, score = _brute_force(word, model)
        assert exact.subwords == parts
        assert exact.score == score
        wide = beam_segment(word, model, beam_size=512)
        assert wide == exact


def test_beam_score_never_exceeds_exact():
    rng = np.random.default_rng(54)
    for _ in range(50):
        model = _random_model(rng)
        word = "".join("abcd"[i] for i in rng.integers(0, 4, 9))
        exact = exact_segment(word, model)
        for beam in (1, 2, 5):
            assert beam_segment(word, model, beam_size=beam).score <= exact.score


def test_exact_tie_goes_to_the_lexicographically_smallest_sequence():
    # Both two-piece splits of "abc" score exactly the same.
    model = distill([["ab", "c"], ["a", "bc"]])
    tie = -2.351375257163478
    log_prob = reference_corpus.log_prob
    for first, second in (("ab", "c"), ("a", "bc")):
        assert log_prob(model, first, START_SYMBOL) + log_prob(model, second, first) == tie
    for beam in (1, 2, 3, 4):
        assert beam_segment("abc", model, beam_size=beam).subwords == ("a", "bc")
    assert exact_segment("abc", model) == (("a", "bc"), tie)


def test_a_beam_as_wide_as_the_longest_subword_is_exact():
    # A position holds at most one state per piece length, so this beam
    # never cuts.  The pinned word's "d dd" and "dd d" tie exactly, and the
    # tie goes to the smaller sequence.
    model = distill([["dd", "baacb"], ["b", "aa"]])
    cases = [(model, "bcadddcazazb")]
    assert beam_segment("bcadddcazazb", model).subwords[3:5] == ("dd", "d")
    rng = np.random.default_rng(56)
    for _ in range(300):
        word = "".join("abcdz"[i] for i in rng.integers(0, 5, int(rng.integers(1, 14))))
        cases.append((_random_model(rng), word))
    for model, word in cases:
        exact = exact_segment(word, model)
        wide = beam_segment(word, model, beam_size=max(1, model.max_subword_length))
        assert wide == exact
        assert wide.score.hex() == exact.score.hex()


def test_distilled_corpus_segments_within_inventory():
    groups = [["un", "do", "ing"], ["do", "ing"], ["un", "do"]]
    model = distill(groups)
    for group in groups:
        word = "".join(group)
        result = beam_segment(word, model)
        for piece in result.subwords:
            assert piece in model


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(55)
    model = _random_model(rng)
    path = tmp_path / "model.bigram"
    save_model(model, path)
    assert load_model(path) == model


def test_zero_bigram_model_serves_fallbacks(tmp_path):
    path = tmp_path / "model.bigram"
    path.write_text(
        "LEGROS-BIGRAM v2\n|S|=2 total=3 maxlen=1 bigrams=0\n#UNIGRAMS\na\t2\nb\t1\n#BIGRAMS\n",
        encoding="utf-8",
    )
    model = load_model(path)
    assert model.size == 2
    assert model.log_prob("a", START_SYMBOL) == math.log(1 / 2)
    assert model.log_prob("a", "unseen") == math.log(3 / 5)


def test_load_model_rejects_header_and_count_tampering(tmp_path):
    path = tmp_path / "model.bigram"
    path.write_text("SOME-OTHER v9\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="header"):
        load_model(path)
    path.write_text(
        "LEGROS-BIGRAM v2\n|S|=4 total=99 maxlen=2 bigrams=2\n#UNIGRAMS\nab\t1\nc\t1\na\t0\nb\t0\n"
        "#BIGRAMS\n###\tab\t1\nab\tc\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="total"):
        load_model(path)
    path.write_text(
        "LEGROS-BIGRAM v2\n|S|=4 total=2 maxlen=2 bigrams=2\n#UNIGRAMS\nab\t1\nc\t1\na\t0\nb\t0\n"
        "#BIGRAMS\n###\tab\t1\nab\tc\t5\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError):
        load_model(path)


def test_load_model_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "model.bigram"
    path.write_text(
        "LEGROS-BIGRAM v2\n|S|=1 total=1 maxlen=1 bigrams=0\n#UNIGRAMS\na\tmany\n#BIGRAMS\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="line 4"):
        load_model(path)


def _model_text(unigrams, bigrams, summary="|S|=2 total=2 maxlen=1 bigrams=2"):
    return f"LEGROS-BIGRAM v2\n{summary}\n#UNIGRAMS\n{unigrams}#BIGRAMS\n{bigrams}"


@pytest.mark.parametrize(
    "unigrams, bigrams, line, problem",
    [
        ("a\t1\nb\t-1\n", "", 5, "subword 'b' has invalid count -1"),
        ("a\t1\n###\t1\n", "", 5, "start symbol '###' cannot be a subword"),
        ("a\t1\nb\t1\n", "###\ta\t1\n###\tc\t1\n", 8, "bigram target 'c' is not in"),
        ("a\t1\nb\t1\n", "###\ta\t1\nc\ta\t1\n", 8, "bigram context 'c' is not in"),
        ("a\t1\nb\t1\n", "###\ta\t1\n###\tb\t0\n", 8, r"bigram \('###', 'b'\) has invalid count 0"),
        ("a\t1\nb\t1\n", "a\tb\t1\nb\ta\t2\n", 5, "context count 2 for 'b' exceeds its unigram count 1"),
    ],
)
def test_load_model_names_the_line_of_an_entry_the_model_rejects(tmp_path, unigrams, bigrams, line, problem):
    path = tmp_path / "model.bigram"
    path.write_text(_model_text(unigrams, bigrams), encoding="utf-8")
    with pytest.raises(ParseError, match=problem) as excinfo:
        load_model(path)
    assert excinfo.value.line_number == line


@pytest.mark.parametrize(
    "summary, problem",
    [
        ("|S|=3 total=2 maxlen=1", r"declared \|S\|=3"),
        ("|S|=2 total=5 maxlen=1", "declared total=5"),
        ("|S|=2 total=2 maxlen=4", "declared maxlen=4"),
    ],
)
def test_load_model_names_the_summary_line_of_a_wrong_total(tmp_path, summary, problem):
    path = tmp_path / "model.bigram"
    summary += " bigrams=1"
    path.write_text(_model_text("a\t1\nb\t1\n", "###\ta\t1\n", summary), encoding="utf-8")
    with pytest.raises(ParseError, match=problem) as excinfo:
        load_model(path)
    assert excinfo.value.line_number == 2
    path.write_text(f"LEGROS-BIGRAM v1\n{summary}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="unsupported model header.*re-run distill") as excinfo:
        load_model(path)
    assert excinfo.value.line_number == 1
    assert str(path) not in str(excinfo.value)


def test_model_entry_errors_carry_their_row():
    # Rows number the unigram entries, then the bigram entries.
    with pytest.raises(ValidationError, match="invalid count 0") as excinfo:
        BigramModel({"a": 1, "b": 1}, {(START_SYMBOL, "a"): 1, (START_SYMBOL, "b"): 0})
    assert excinfo.value.row == 3
    with pytest.raises(ValidationError, match="exceeds") as excinfo:
        BigramModel({"a": 1, "b": 1}, {("b", "a"): 2})
    assert excinfo.value.row == 1
