from synthdata import agglutinative_corpus, make_stems, make_suffixes


def test_morph_generators_produce_any_number_of_distinct_morphs():
    for make in (make_stems, make_suffixes):
        morphs = make(400)
        assert len(set(morphs)) == 400
        assert make(55) == morphs[:55]  # longer lists extend shorter ones


def test_first_morphs_are_the_pinned_base_forms():
    assert make_stems(3) == ["bad", "dal", "gap"]
    assert make_suffixes(3) == ["ag", "es", "im"]
    assert all(len(stem) == 3 for stem in make_stems(55))
    assert all(len(suffix) == 2 for suffix in make_suffixes(55))


def test_corpus_beyond_55_morphs_terminates():
    lines, gold = agglutinative_corpus(60, 20)
    assert len(gold) == 1200
    assert all(stem + suffix == word for word, (stem, suffix) in gold.items())
    assert {line.split()[0] for line in lines} == set(gold)
