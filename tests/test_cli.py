import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subseg import (
    EmbeddingTable,
    beam_segment,
    boundary_prf,
    exact_segment,
    load_counts,
    load_embeddings,
    load_lexicon,
    load_model,
    load_vocabulary,
    save_embeddings,
    save_lexicon,
)
from subseg.cli import main
from subseg.errors import ParseError, ValidationError

from reference_solve import reference_segmentation_matrix
from synthdata import agglutinative_corpus, consistent_embeddings


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole file-based pipeline once and hand out the paths."""
    root = tmp_path_factory.mktemp("pipeline")
    lines, gold = agglutinative_corpus(6, 4)
    corpus = root / "corpus.txt"
    corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    gold_lexicon = root / "gold.tsv"
    save_lexicon(
        __import__("subseg").SegmentedLexicon(
            {word: list(parts) for word, parts in gold.items()}
        ),
        gold_lexicon,
    )

    paths = {
        "root": root,
        "corpus": corpus,
        "gold": gold_lexicon,
        "vocab": root / "vocab.tsv",
        "counts": root / "counts.tsv",
        "lex0": root / "lex0.tsv",
        "merges": root / "merges.txt",
        "emb": root / "emb.txt",
        "outmat": root / "outmat.txt",
        "subemb": root / "subemb.txt",
        "refined": root / "refined.tsv",
        "refined_emb": root / "refined_emb.txt",
        "segmented": root / "segmented.txt",
        "model": root / "model.bigram",
    }

    assert main(["vocab", str(corpus), "--max-size", "5000", "-o", str(paths["vocab"])]) == 0
    assert (
        main(
            [
                "cooc",
                str(corpus),
                "--vocab",
                str(paths["vocab"]),
                "--window",
                "5",
                "-o",
                str(paths["counts"]),
            ]
        )
        == 0
    )

    vocab = load_vocabulary(paths["vocab"])
    from subseg import count_cooccurrences

    counts = count_cooccurrences(lines, vocab, window=5)
    embeddings, output_rows = consistent_embeddings(counts, vocab.tokens, dim=16, seed=5)
    save_embeddings(embeddings, paths["emb"])
    save_embeddings(output_rows, paths["outmat"])

    charset = {ch for word in gold for ch in word}
    assert (
        main(
            [
                "init-bpe",
                str(corpus),
                "--vocab",
                str(paths["vocab"]),
                "--target-size",
                str(len(charset) + 20),
                "--lexicon-out",
                str(paths["lex0"]),
                "--merges-out",
                str(paths["merges"]),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "subword-embed",
                "--vocab",
                str(paths["vocab"]),
                "--counts",
                str(paths["counts"]),
                "--output-matrix",
                str(paths["outmat"]),
                "--lexicon",
                str(paths["lex0"]),
                "-o",
                str(paths["subemb"]),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "refine",
                "--vocab",
                str(paths["vocab"]),
                "--counts",
                str(paths["counts"]),
                "--embeddings",
                str(paths["emb"]),
                "--output-matrix",
                str(paths["outmat"]),
                "--lexicon",
                str(paths["lex0"]),
                "-o",
                str(paths["refined"]),
                "--subword-embeddings-out",
                str(paths["refined_emb"]),
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
                str(paths["refined"]),
                "--word-per-line",
                "-o",
                str(paths["segmented"]),
            ]
        )
        == 0
    )
    assert main(["distill", str(paths["segmented"]), "-o", str(paths["model"])]) == 0

    # the refined lexicon covers every vocabulary word (context markers
    # included); evaluation wants just the gold word list
    refined = load_lexicon(paths["refined"])
    paths["pred"] = root / "pred.tsv"
    save_lexicon(
        __import__("subseg").SegmentedLexicon({w: list(refined[w]) for w in gold}),
        paths["pred"],
    )
    return paths


def test_vocab_file_is_loadable(pipeline):
    vocab = load_vocabulary(pipeline["vocab"])
    assert len(vocab) > 0


def test_refine_reports_iteration_stats(pipeline, capsys, tmp_path):
    # re-run refine to observe its diagnostics stream
    out = tmp_path / "again.tsv"
    code = main(
        [
            "refine",
            "--vocab",
            str(pipeline["vocab"]),
            "--counts",
            str(pipeline["counts"]),
            "--embeddings",
            str(pipeline["emb"]),
            "--output-matrix",
            str(pipeline["outmat"]),
            "--lexicon",
            str(pipeline["lex0"]),
            "-o",
            str(out),
        ]
    )
    assert code == 0
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line]
    assert err_lines
    for line in err_lines:
        iteration, changed, size = line.split("\t")
        assert int(iteration) >= 1 and int(changed) >= 0 and int(size) >= 1
    assert out.read_bytes() == pipeline["refined"].read_bytes()
    # an empty lexicon: one pass over no subwords, and an empty output
    (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
    assert main(_embedding_stage_args("refine", {**pipeline, "lex0": tmp_path / "empty.tsv"}, out)) == 0
    assert capsys.readouterr().err == "1\t0\t0\n" and out.read_bytes() == b""


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_refine_rejects_a_non_finite_alpha(pipeline, capsys, tmp_path, alpha):
    out = tmp_path / "never.tsv"
    code = main(
        [
            "refine",
            "--vocab",
            str(pipeline["vocab"]),
            "--counts",
            str(pipeline["counts"]),
            "--embeddings",
            str(pipeline["emb"]),
            "--output-matrix",
            str(pipeline["outmat"]),
            "--lexicon",
            str(pipeline["lex0"]),
            "--alpha",
            alpha,
            "-o",
            str(out),
        ]
    )
    assert code == 2
    assert "alpha must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_get_the_umask_mode(pipeline):
    mask = os.umask(0o022)
    os.umask(mask)
    for key in ("vocab", "counts", "lex0", "subemb", "refined", "refined_emb", "model"):
        assert stat.S_IMODE(os.stat(pipeline[key]).st_mode) == 0o666 & ~mask, key


def test_refined_lexicon_validates(pipeline):
    refined = load_lexicon(pipeline["refined"])
    gold = load_lexicon(pipeline["gold"])
    assert set(gold.words()) <= set(refined.words())


def test_subword_embeddings_file_round_trips(pipeline, tmp_path):
    table = load_embeddings(pipeline["subemb"])
    assert table.dim == 16
    # an empty lexicon leaves one subword per character of the vocabulary
    (tmp_path / "empty.lex").write_text("", encoding="utf-8")
    args = _embedding_stage_args("subword-embed", {**pipeline, "lex0": tmp_path / "empty.lex"}, tmp_path / "chars.txt")
    assert main(args) == 0
    chars = load_embeddings(tmp_path / "chars.txt")
    assert chars.tokens == tuple(sorted(set("".join(load_vocabulary(pipeline["vocab"]).tokens))))
    final = load_embeddings(pipeline["refined_emb"])
    refined = load_lexicon(pipeline["refined"])
    used = {piece for _, parts in refined.items() for piece in parts}
    assert set(final.tokens) == used


def test_segmented_corpus_matches_lexicon(pipeline):
    refined = load_lexicon(pipeline["refined"])
    for line in pipeline["segmented"].read_text(encoding="utf-8").splitlines():
        word = line.replace(" ", "")
        assert refined[word] == tuple(line.split())


def test_segment_beam_equals_library_calls(pipeline, tmp_path, monkeypatch):
    model = load_model(pipeline["model"])
    words_file = tmp_path / "words.txt"
    words = ["badim", "rekun", "zzz"]
    words_file.write_text("".join(w + "\n" for w in words), encoding="utf-8")
    out = tmp_path / "segmented.txt"
    assert (
        main(
            [
                "segment",
                str(words_file),
                "--model",
                str(pipeline["model"]),
                "-o",
                str(out),
            ]
        )
        == 0
    )
    got = out.read_text(encoding="utf-8").splitlines()
    expected = [" ".join(beam_segment(w, model).subwords) for w in words]
    assert got == expected

    # Repeated words and several words per line: each word type is searched
    # once, and every occurrence gets the library's answer.
    lines = ["badim rekun badim", "", "zzz badim zzz zzz", "rekun"]
    lines_file = tmp_path / "lines.txt"
    lines_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    for flags, search in (([], beam_segment), (["--exact"], exact_segment)):
        calls = []

        def counted(word, *rest, _search=search, **options):
            calls.append(word)
            return _search(word, *rest, **options)

        monkeypatch.setattr(f"subseg.bigram.{search.__name__}", counted)
        args = ["segment", str(lines_file), "--model", str(pipeline["model"]), *flags]
        assert main([*args, "-o", str(out)]) == 0
        got = out.read_text(encoding="utf-8").splitlines()
        expected = [
            " ".join(part for w in line.split() for part in search(w, model).subwords)
            for line in lines
        ]
        assert got == expected
        assert sorted(calls) == ["badim", "rekun", "zzz"]


def test_segment_exact_flag(pipeline, tmp_path):
    words_file = tmp_path / "words.txt"
    words_file.write_text("badim\n", encoding="utf-8")
    beam_out = tmp_path / "beam.txt"
    exact_out = tmp_path / "exact.txt"
    assert (
        main(
            ["segment", str(words_file), "--model", str(pipeline["model"]), "-o", str(beam_out)]
        )
        == 0
    )
    assert (
        main(
            [
                "segment",
                str(words_file),
                "--model",
                str(pipeline["model"]),
                "--exact",
                "-o",
                str(exact_out),
            ]
        )
        == 0
    )
    assert beam_out.read_text(encoding="utf-8") == exact_out.read_text(encoding="utf-8")


def test_eval_boundaries_output(pipeline, tmp_path):
    report_path = tmp_path / "report.txt"
    code = main(
        [
            "eval-boundaries",
            "--pred",
            str(pipeline["pred"]),
            "--gold",
            str(pipeline["gold"]),
            "-o",
            str(report_path),
        ]
    )
    assert code == 0
    text = report_path.read_text(encoding="utf-8")
    final = text.strip().splitlines()[-1]
    fields = dict(part.split("=") for part in final.split())
    report = boundary_prf(load_lexicon(pipeline["pred"]), load_lexicon(pipeline["gold"]))
    assert float(fields["P"]) == report.precision
    assert float(fields["R"]) == report.recall
    assert float(fields["F1"]) == report.f1


def test_eval_renyi_output(pipeline, tmp_path):
    flat = tmp_path / "flat.txt"
    text = pipeline["segmented"].read_text(encoding="utf-8").replace("\n", " ")
    flat.write_text(text + "\n", encoding="utf-8")
    out = tmp_path / "renyi.txt"
    assert main(["eval-renyi", str(flat), "--alpha", "2.5", "-o", str(out)]) == 0
    final = out.read_text(encoding="utf-8").strip().splitlines()[-1]
    fields = dict(part.split("=") for part in final.split())
    assert 0.0 <= float(fields["EFF"]) <= 1.0
    assert float(fields["Hmax"]) >= float(fields["H"]) >= 0.0


def test_eval_renyi_separator_exclusion(tmp_path):
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("a | b | a | b\n", encoding="utf-8")
    excluded = tmp_path / "excluded.txt"
    included = tmp_path / "included.txt"
    assert (
        main(["eval-renyi", str(tokens), "--word-separator", "|", "-o", str(excluded)]) == 0
    )
    assert main(["eval-renyi", str(tokens), "-o", str(included)]) == 0
    def eff(path):
        final = path.read_text(encoding="utf-8").strip().splitlines()[-1]
        return dict(part.split("=") for part in final.split())

    two_types = eff(excluded)
    three_types = eff(included)
    # a and b are uniform once the separator is dropped
    assert float(two_types["EFF"]) == pytest.approx(1.0, abs=1e-12)
    assert float(three_types["EFF"]) < 1.0


def test_eval_renyi_vocab_size_override(tmp_path):
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("a b\n", encoding="utf-8")
    out = tmp_path / "renyi.txt"
    assert main(["eval-renyi", str(tokens), "--vocab-size", "4", "-o", str(out)]) == 0
    final = out.read_text(encoding="utf-8").strip().splitlines()[-1]
    fields = dict(part.split("=") for part in final.split())
    assert float(fields["EFF"]) == pytest.approx(0.5, abs=1e-9)


def test_stdin_and_stdout_streams(monkeypatch, capsys, tmp_path):
    vocab_path = tmp_path / "vocab.tsv"
    monkeypatch.setattr("sys.stdin", io.StringIO("a b a\nb\n"))
    assert main(["vocab", "-", "-o", str(vocab_path)]) == 0
    vocab = load_vocabulary(vocab_path)
    assert vocab.freq("a") == 2 and vocab.freq("b") == 2

    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("ab\ta b\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("ab zz\n"))
    assert main(["segment-embed", "-", "--lexicon", str(lexicon)]) == 0
    assert capsys.readouterr().out == "a b zz\n"


def _run_python(args, stdin_bytes, cwd, **env_overrides):
    """Run the interpreter in a child process with ``subseg`` importable."""
    src = str(Path(__import__("subseg").__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, *args],
        input=stdin_bytes,
        capture_output=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def _run_cli(args, stdin_bytes, cwd, **env_overrides):
    """Run ``python -m subseg.cli`` in a child process with raw bytes on stdin."""
    return _run_python(["-m", "subseg.cli", *args], stdin_bytes, cwd, **env_overrides)


def test_stdin_is_decoded_strictly_like_a_file(tmp_path):
    bad = b"ok\nbad \xff\n"
    (tmp_path / "bad.txt").write_bytes(bad)
    from_file = _run_cli(["vocab", "bad.txt", "-o", "v.tsv"], b"", tmp_path)
    from_stdin = _run_cli(["vocab", "-", "-o", "v.tsv"], bad, tmp_path)
    for result in (from_file, from_stdin):
        assert result.returncode == 5
        assert b"line 2: invalid UTF-8" in result.stderr
        assert b"Traceback" not in result.stderr
    assert not (tmp_path / "v.tsv").exists()

    (tmp_path / "lex.tsv").write_text("ab\ta b\n", encoding="utf-8")
    segmented = _run_cli(["segment-embed", "-", "--lexicon", "lex.tsv"], bad, tmp_path)
    assert segmented.returncode == 5
    assert b"line 2: invalid UTF-8" in segmented.stderr
    assert b"Traceback" not in segmented.stderr

    good = _run_cli(["vocab", "-", "-o", "v.tsv"], "ab \u00e9\n\u00e9\n".encode(), tmp_path)
    assert good.returncode == 0
    assert load_vocabulary(tmp_path / "v.tsv").freq("\u00e9") == 2


def test_stdout_is_encoded_as_utf8_like_a_file(tmp_path):
    (tmp_path / "u.txt").write_text("\u00e9t\u00e9 caf\u00e9\n", encoding="utf-8")
    (tmp_path / "u.lex").write_text("\u00e9t\u00e9\t\u00e9t \u00e9\n", encoding="utf-8")
    args = ["segment-embed", "u.txt", "--lexicon", "u.lex"]
    to_file = _run_cli([*args, "-o", "out.txt"], b"", tmp_path, PYTHONIOENCODING="ascii")
    to_stdout = _run_cli(args, b"", tmp_path, PYTHONIOENCODING="ascii")
    assert to_file.returncode == 0 and to_stdout.returncode == 0, to_stdout.stderr
    assert b"Traceback" not in to_stdout.stderr
    expected = "\u00e9t \u00e9 caf\u00e9\n".encode("utf-8")
    assert (tmp_path / "out.txt").read_bytes() == expected
    assert to_stdout.stdout == expected


def test_cold_start_loads_no_scipy(tmp_path):
    script = (
        "import subseg, subseg.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    imported = _run_python(["-c", script], b"", tmp_path)
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout.strip() == b"[]"

    (tmp_path / "corpus.txt").write_text("a b a\nb\n", encoding="utf-8")
    vocab = _run_cli(["vocab", "corpus.txt", "-o", "v.tsv"], b"", tmp_path)
    assert vocab.returncode == 0, vocab.stderr
    assert load_vocabulary(tmp_path / "v.tsv").freq("a") == 2


def test_cold_start_loads_no_numpy(tmp_path):
    script = (
        "import subseg, subseg.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))"
    )
    imported = _run_python(["-c", script], b"", tmp_path)
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout.strip() == b"[]"


def test_stages_without_arrays_never_load_numpy(tmp_path):
    (tmp_path / "corpus.txt").write_text("undoing redoing undo\nredo doing\n", encoding="utf-8")
    script = """
import sys
from subseg.cli import main
for argv in [
    ["vocab", "corpus.txt", "-o", "vocab.tsv"],
    ["init-bpe", "corpus.txt", "--vocab", "vocab.tsv", "--target-size", "12", "--lexicon-out", "bpe.lex"],
    ["segment-embed", "corpus.txt", "--lexicon", "bpe.lex", "--word-per-line", "-o", "train.seg"],
    ["distill", "train.seg", "-o", "model.txt"],
    ["segment", "corpus.txt", "--model", "model.txt", "-o", "out.seg"],
    ["eval-boundaries", "--pred", "bpe.lex", "--gold", "bpe.lex", "-o", "eval.txt"],
]:
    heavy = [name for name in ("numpy", "dataclasses", "inspect") if name in sys.modules]
    print(argv[0], main(argv), *heavy)
"""
    ran = _run_python(["-c", script], b"", tmp_path)
    assert ran.returncode == 0, ran.stderr
    lines = ran.stdout.decode().splitlines()
    # The pipeline stages load neither numpy nor dataclasses' import of inspect.
    assert lines[:5] == [f"{stage} 0" for stage in ("vocab", "init-bpe", "segment-embed", "distill", "segment")]
    assert lines[5].split()[:2] == ["eval-boundaries", "0"] and "numpy" not in lines[5]
    assert (tmp_path / "out.seg").read_text(encoding="utf-8").replace(" ", "") == "undoingredoingundo\nredodoing\n"


@pytest.mark.parametrize("corpus", [None, b"", b"badim rekun\n"])
@pytest.mark.parametrize("beam", ["0", "-2"])
def test_segment_rejects_a_beam_below_1_whatever_the_input(pipeline, tmp_path, monkeypatch, capsys, corpus, beam):
    """``None`` is an empty file; bytes come on stdin."""
    if corpus is None:
        source = tmp_path / "empty.txt"
        source.write_bytes(b"")
        source = str(source)
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(corpus), encoding="utf-8"))
        source = "-"
    out = tmp_path / "out.seg"
    code = main(["segment", source, "--model", str(pipeline["model"]), "--beam", beam, "-o", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: beam_size must be at least 1, got {beam}\n"
    assert not out.exists()


def test_segment_exact_ignores_the_beam(pipeline, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("badim\n", encoding="utf-8")
    out = tmp_path / "out.seg"
    args = ["segment", str(words), "--model", str(pipeline["model"]), "--exact"]
    assert main([*args, "--beam", "0", "-o", str(out)]) == 0
    assert main([*args, "-o", str(tmp_path / "default.seg")]) == 0
    assert out.read_bytes() == (tmp_path / "default.seg").read_bytes()


def test_solving_stages_never_load_scipy_linalg(pipeline, tmp_path):
    tables = ["--vocab", str(pipeline["vocab"]), "--counts", str(pipeline["counts"]),
              "--output-matrix", str(pipeline["outmat"]), "--lexicon", str(pipeline["lex0"])]
    runs = [
        ["subword-embed", *tables, "-o", "sub.txt"],
        ["refine", *tables, "--embeddings", str(pipeline["emb"]), "--max-iters", "2", "-o", "ref.tsv"],
    ]
    script = f"""
import sys
from subseg.cli import main
for argv in {runs!r}:
    code = main(argv)
    print(argv[0], code, "scipy.sparse" in sys.modules, "scipy.linalg" in sys.modules)
"""
    ran = _run_python(["-c", script], b"", tmp_path)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.decode().splitlines() == ["subword-embed 0 True False", "refine 0 True False"]


def test_public_names_resolve_to_their_defining_modules():
    import subseg
    from subseg import bigram, lexseg, textio

    for name in subseg.__all__:
        value = getattr(subseg, name)
        home = bigram if name == "START_SYMBOL" else sys.modules[value.__module__]
        assert inspect.ismodule(home) and home.__name__.startswith("subseg.")
        assert value is getattr(home, name), name
    # Moved names stay importable from their old modules as the same objects.
    for name in ("OOV_POLICIES", "ScoredSegmentation"):
        assert getattr(lexseg, name) is getattr(textio, name)
    assert subseg.segment_corpus is textio.segment_corpus
    with pytest.raises(AttributeError, match="no_such_name"):
        subseg.no_such_name


@pytest.mark.parametrize("stage", ["vocab", "subword-embed", "refine"])
def test_benchmark_tracer_runs_a_stage(pipeline, tmp_path, stage):
    """``perfbench/tracer.py`` resolves package names when it installs its wrappers."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (tmp_path / "corpus.txt").write_text("ab cd ab\ncd ef\n", encoding="utf-8")
    common = ["--vocab", str(pipeline["vocab"]), "--counts", str(pipeline["counts"])]
    common += ["--output-matrix", str(pipeline["outmat"]), "--lexicon", str(pipeline["lex0"])]
    stage_args, traced, out = {
        "vocab": (["corpus.txt"], "textio.build_vocabulary", "vocab.tsv"),
        "subword-embed": (common, "subspace.SegmentationMatrix.to_csr", "subemb.txt"),
        "refine": (["--embeddings", str(pipeline["emb"]), *common], "lexseg.refine", "refined.tsv"),
    }[stage]
    spans = tmp_path / "spans.json"
    argv = [str(tracer), str(spans), f"{stage}-1", "--", stage, *stage_args, "-o", out]
    ran = _run_python(argv, b"", tmp_path)
    assert ran.returncode == 0, ran.stderr
    report = json.loads(spans.read_text(encoding="utf-8"))
    assert (report["stage_id"], report["exit_code"]) == (f"{stage}-1", 0)
    assert report["spans"] and traced in report["totals"]
    assert set(report["counts"]) == {"lexseg.cosine", "bigram.BigramModel.log_prob"}
    if stage == "subword-embed":
        assert report["quantities"]["subspace.build_segmentation_matrix.rows"] > 0
    assert (tmp_path / out).is_file()


def test_usage_errors_exit_2(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["segment"])  # missing required --model
    assert excinfo.value.code == 2
    code = main(
        [
            "subword-embed",
            "--vocab",
            str(pipeline["vocab"]),
            "--counts",
            str(pipeline["counts"]),
            "--output-matrix",
            str(pipeline["outmat"]),
            "--lexicon",
            str(pipeline["lex0"]),
            "--ridge",
            "bogus",
            "-o",
            str(tmp_path / "out.txt"),
        ]
    )
    assert code == 2
    assert "ridge" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option, name", [("--ridge", "ridge"), ("--lambda", "smoothing")])
def test_non_finite_ridge_or_lambda_exits_2(pipeline, tmp_path, capsys, option, value, name):
    out = tmp_path / "never.txt"
    common = ["--vocab", str(pipeline["vocab"]), "--counts", str(pipeline["counts"])]
    common += ["--output-matrix", str(pipeline["outmat"]), "--lexicon", str(pipeline["lex0"])]
    for stage in (["subword-embed"], ["refine", "--embeddings", str(pipeline["emb"])]):
        assert main([*stage, *common, option, value, "-o", str(out)]) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_eval_renyi_rejects_a_non_finite_alpha(tmp_path, capsys, alpha):
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("a b a\n", encoding="utf-8")
    out = tmp_path / "renyi.txt"
    assert main(["eval-renyi", str(tokens), "--alpha", alpha, "-o", str(out)]) == 2
    assert "alpha must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_distill_rejects_a_separator_no_token_can_equal(tmp_path, capsys):
    segmented = tmp_path / "train.seg"
    segmented.write_text("ab c | d\n", encoding="utf-8")
    for separator, problem in (("", "empty separator"), ("a b", "separator 'a b' contains whitespace")):
        code = main(["distill", str(segmented), "--separator", separator, "-o", str(tmp_path / "m.txt")])
        assert code == 2
        assert problem in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


def test_eval_renyi_rejects_a_word_separator_no_token_can_equal(tmp_path, capsys):
    missing = tmp_path / "never-read.txt"
    out = tmp_path / "renyi.txt"
    for separator, problem in (("", "empty word separator"), ("a b", "word separator 'a b' contains whitespace")):
        assert main(["eval-renyi", str(missing), "--word-separator", separator, "-o", str(out)]) == 2
        assert problem in capsys.readouterr().err
    assert not out.exists()


def test_validation_errors_exit_3(pipeline, tmp_path, capsys):
    broken = tmp_path / "broken.tsv"
    broken.write_text("undoing\tun do in\n", encoding="utf-8")
    code = main(
        [
            "segment-embed",
            str(pipeline["corpus"]),
            "--lexicon",
            str(broken),
            "-o",
            str(tmp_path / "out.txt"),
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_impossible_embedding_header_exits_3(pipeline, tmp_path, capsys):
    for header in ("-1 2", "100000000000 300"):
        bad = tmp_path / "outmat.txt"
        bad.write_text(f"{header}\n", encoding="utf-8")
        code = main(
            [
                "subword-embed",
                "--vocab",
                str(pipeline["vocab"]),
                "--counts",
                str(pipeline["counts"]),
                "--output-matrix",
                str(bad),
                "--lexicon",
                str(pipeline["lex0"]),
                "-o",
                str(tmp_path / "out.txt"),
            ]
        )
        assert code == 3
        assert "line 1" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_init_bpe_output_is_independent_of_the_hash_seed(pipeline, tmp_path):
    # Training iterates sets of string pairs, whose order follows the hash seed.
    outputs = []
    for seed in ("0", "1"):
        result = _run_cli(
            [
                "init-bpe",
                str(pipeline["corpus"]),
                "--vocab",
                str(pipeline["vocab"]),
                "--target-size",
                "200",
                "--lexicon-out",
                f"lex{seed}.tsv",
                "--merges-out",
                f"merges{seed}.txt",
            ],
            b"",
            tmp_path,
            PYTHONHASHSEED=seed,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(
            ((tmp_path / f"merges{seed}.txt").read_bytes(), (tmp_path / f"lex{seed}.tsv").read_bytes())
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") > 20


def test_numerical_errors_exit_4(pipeline, tmp_path, capsys):
    # lambda 0 hits the zero co-occurrence cells of the synthetic corpus
    vocab = load_vocabulary(pipeline["vocab"])
    subwords, matrix = reference_segmentation_matrix(vocab.tokens, lexicon=load_lexicon(pipeline["lex0"]))
    pooled = matrix.to_csr() @ load_counts(pipeline["counts"]).matrix()
    for command in ("subword-embed", "refine"):
        code = main([*_embedding_stage_args(command, pipeline, tmp_path / "out.txt"), "--lambda", "0"])
        assert code == 4
        err = capsys.readouterr().err
        named = re.search(r"error: pooled count for subword '(.+)' and word '(.+)' is zero", err)
        assert named, err
        # The error names, by its tokens, a zero cell of the first solve's pooled counts.
        assert pooled[subwords.index(named[1]), vocab.token_id(named[2])] == 0


def test_ridge_0_on_a_rank_deficient_output_matrix_exits_4(pipeline, tmp_path, capsys):
    table = load_embeddings(pipeline["outmat"])
    vectors = table.vectors.copy()
    vectors[:, -1] = vectors[:, 0]  # two equal columns: W Wᵀ is singular
    deficient = tmp_path / "outmat.txt"
    save_embeddings(EmbeddingTable(table.tokens, vectors), deficient)
    args = ["subword-embed", "--vocab", str(pipeline["vocab"]), "--counts", str(pipeline["counts"]),
            "--output-matrix", str(deficient), "--lexicon", str(pipeline["lex0"]),
            "-o", str(tmp_path / "out.txt")]
    assert main([*args, "--ridge", "0"]) == 4
    assert "pass a positive ridge" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()
    assert main(args) == 0  # the default ridge regularizes it
    # refine refuses the same W before its first pass, even on an empty lexicon.
    (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
    refine = ["refine", "--embeddings", str(pipeline["emb"]), *args[1:7],
              "--lexicon", str(tmp_path / "empty.tsv"), "-o", str(tmp_path / "refined.tsv")]
    assert main([*refine, "--ridge", "0"]) == 4
    assert "pass a positive ridge" in capsys.readouterr().err
    assert not (tmp_path / "refined.tsv").exists()
    assert main(refine) == 0


def test_an_output_matrix_wider_than_its_words_exits_2(tmp_path, capsys):
    from subseg import SegmentedLexicon

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("ab ba ab\nba ab\n", encoding="utf-8")
    vocab, counts = tmp_path / "vocab.tsv", tmp_path / "counts.tsv"
    assert main(["vocab", str(corpus), "-o", str(vocab)]) == 0
    assert main(["cooc", str(corpus), "--vocab", str(vocab), "-o", str(counts)]) == 0
    tokens = load_vocabulary(vocab).tokens
    rng = np.random.default_rng(0)
    for name in ("W.txt", "E.txt"):
        save_embeddings(EmbeddingTable(tokens, rng.normal(size=(2, 3))), tmp_path / name)
    save_lexicon(SegmentedLexicon({"ab": ["ab"], "ba": ["b", "a"]}), tmp_path / "lex.tsv")
    common = ["--vocab", str(vocab), "--counts", str(counts), "--output-matrix", str(tmp_path / "W.txt")]
    out = tmp_path / "never.txt"
    (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
    refine = ["refine", "--embeddings", str(tmp_path / "E.txt")]
    # refine refuses W before its first pass, even on an empty lexicon, which solves nothing.
    for stage, lexicon in ((["subword-embed"], "lex.tsv"), (refine, "lex.tsv"), (refine, "empty.tsv")):
        assert main([*stage, *common, "--lexicon", str(tmp_path / lexicon), "-o", str(out)]) == 2
        assert "embedding dimension 3 exceeds vocabulary size 2" in capsys.readouterr().err
        assert not out.exists()


def test_dash_is_refused_for_a_path_a_stage_opens_by_name(pipeline, tmp_path, monkeypatch, capsys):
    # Only the corpus/tokens positionals and the -o of segment-embed,
    # segment and eval-* stand for stdin or stdout.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.txt").write_text("ab cd ab\n", encoding="utf-8")
    vocab, lexicon = str(pipeline["vocab"]), str(pipeline["lex0"])
    embed = _embedding_stage_args("refine", pipeline, tmp_path / "refined.tsv")
    for argv, option in [
        (["vocab", "corpus.txt", "-o", "-"], "-o/--output"),
        (["eval-boundaries", "--pred", "-", "--gold", lexicon], "--pred"),
        (["cooc", "corpus.txt", "--vocab", "-", "-o", "counts.tsv"], "--vocab"),
        (["init-bpe", "--vocab", vocab, "--target-size", "4", "--lexicon-out", "l.tsv", "--merges-out", "-"],
         "--merges-out"),
        ([*embed, "--subword-embeddings-out", "-"], "--subword-embeddings-out"),
        (["segment", "corpus.txt", "--model", "-"], "--model"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {option}: '-' is not a stream here" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["corpus.txt"]


def test_io_errors_exit_5(tmp_path, capsys):
    code = main(["vocab", str(tmp_path / "missing.txt"), "-o", str(tmp_path / "v.tsv")])
    assert code == 5
    assert "error:" in capsys.readouterr().err
    (tmp_path / "corpus.txt").write_text("a b\n", encoding="utf-8")
    unwritable = tmp_path / "missing" / "v.tsv"
    code = main(["vocab", str(tmp_path / "corpus.txt"), "-o", str(unwritable)])
    assert code == 5
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(unwritable)!r}\n"


def test_rerunning_a_stage_is_byte_identical(pipeline, tmp_path):
    again = tmp_path / "again.tsv"
    assert (
        main(
            [
                "cooc",
                str(pipeline["corpus"]),
                "--vocab",
                str(pipeline["vocab"]),
                "-o",
                str(again),
            ]
        )
        == 0
    )
    assert again.read_bytes() == pipeline["counts"].read_bytes()


def _replace_line(line, text):
    """Corrupt a file by putting ``text(lines)`` on its ``line``."""
    return lambda lines: [*lines[: line - 1], text(lines), *lines[line:]]


def _zero_start_counts(lines):
    return [line[:-1] + "0" if line.startswith("###\t") else line for line in lines]


@pytest.mark.parametrize(
    "command, key, corrupt, problem",
    [
        ("subword-embed", "vocab", _replace_line(2, lambda lines: lines[0]), "duplicate token"),
        ("subword-embed", "counts", _replace_line(3, lambda lines: "0\t1\tmany"), "non-integer field"),
        ("subword-embed", "outmat", _replace_line(4, lambda lines: lines[3] + "x"), "non-numeric vector"),
        ("subword-embed", "lex0", _replace_line(2, lambda lines: "ab"), "expected 'word<TAB>"),
        ("refine", "emb", _replace_line(3, lambda lines: lines[1]), "duplicate embedding token"),
        ("refine", "counts", lambda lines: [*lines, "0\t0\t1"], "does not come strictly after"),
        ("segment", "model", _zero_start_counts, "has invalid count 0"),
    ],
)
def test_data_errors_name_their_file_once(pipeline, tmp_path, capsys, command, key, corrupt, problem):
    lines = pipeline[key].read_text(encoding="utf-8").splitlines()
    corrupted = corrupt(lines)
    # The first line that differs, or the appended one.
    line = next((n for n, (a, b) in enumerate(zip(corrupted, lines), 1) if a != b), len(lines) + 1)
    bad = tmp_path / pipeline[key].name
    bad.write_text("".join(text + "\n" for text in corrupted), encoding="utf-8")
    paths = {name: str(bad if name == key else path) for name, path in pipeline.items()}
    out = str(tmp_path / "out.txt")
    tables = ["--vocab", paths["vocab"], "--counts", paths["counts"],
              "--output-matrix", paths["outmat"], "--lexicon", paths["lex0"], "-o", out]
    args = {
        "subword-embed": tables,
        "refine": [*tables, "--embeddings", paths["emb"]],
        "segment": [paths["corpus"], "--model", paths["model"], "-o", out],
    }[command]
    assert main([command, *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {line}: "), err
    assert problem in err and err.count(str(bad)) == 1
    assert not (tmp_path / "out.txt").exists()


def test_a_decoding_error_names_its_file(pipeline, tmp_path, capsys):
    bad = tmp_path / "vocab.tsv"
    bad.write_bytes(pipeline["vocab"].read_bytes() + b"\xff\t1\n")
    code = main(["cooc", str(pipeline["corpus"]), "--vocab", str(bad), "-o", str(tmp_path / "counts.tsv")])
    assert code == 5
    assert capsys.readouterr().err.startswith(f"error: {bad}: line ")


@pytest.mark.parametrize(
    "command, corpus, code, problem",
    [
        ("vocab", b"ok\nbad \xff\n", 5, "line 2: invalid UTF-8 (invalid start byte)"),
        ("distill", b"a b\n### c\n", 3, "start symbol '###' may not occur in a segmented corpus"),
    ],
)
def test_corpus_errors_name_their_file(tmp_path, capsys, command, corpus, code, problem):
    bad = tmp_path / "corpus.txt"
    bad.write_bytes(corpus)
    assert main([command, str(bad), "-o", str(tmp_path / "out.txt")]) == code
    assert capsys.readouterr().err == f"error: {bad}: {problem}\n"
    assert not (tmp_path / "out.txt").exists()
    from_stdin = _run_cli([command, "-", "-o", "out.txt"], corpus, tmp_path)
    assert from_stdin.returncode == code
    assert from_stdin.stderr.decode() == f"error: <stdin>: {problem}\n"


def test_solving_stages_write_the_same_bytes_on_one_cpu_or_all(tmp_path):
    # Tables large enough that loading and saving split over every CPU the
    # process may use; pinned to one CPU, the same stages use one process.
    # BLAS sums in an order that follows its thread count, which follows the
    # CPUs too, so both runs fix it at one thread.
    from subseg import SegmentedLexicon, build_vocabulary, count_cooccurrences, save_counts, save_vocabulary
    from subseg.subspace import _MIN_VALUES_PER_WORKER

    lines, _ = agglutinative_corpus(40, 15)
    vocab = build_vocabulary(lines, max_size=5000)
    counts = count_cooccurrences(lines, vocab, window=5)
    embeddings, output_rows = consistent_embeddings(counts, vocab.tokens, dim=240, seed=3)
    save_vocabulary(vocab, tmp_path / "vocab.tsv")
    save_counts(counts, tmp_path / "counts.tsv")
    save_embeddings(embeddings, tmp_path / "E.txt")
    save_embeddings(output_rows, tmp_path / "W.txt")
    save_lexicon(SegmentedLexicon({word: [word] for word in vocab.tokens}), tmp_path / "whole.lex")
    tables = ["--vocab", "vocab.tsv", "--counts", "counts.tsv", "--output-matrix", "W.txt"]
    runs = {
        "sub.txt": ["subword-embed", *tables, "--substr-max-len", "4", "-o", "sub.txt"],
        "ref_emb.txt": ["refine", *tables, "--embeddings", "E.txt", "--lexicon", "whole.lex",
                        "--max-iters", "1", "-o", "ref.lex", "--subword-embeddings-out", "ref_emb.txt"],
    }
    first_cpu = min(os.sched_getaffinity(0))
    outputs = {}
    for pinned in (True, False):
        for output, args in runs.items():
            ran = subprocess.run(
                [sys.executable, "-m", "subseg.cli", *args],
                capture_output=True,
                cwd=tmp_path,
                env=dict(os.environ, PYTHONPATH=str(Path(__import__("subseg").__file__).resolve().parents[1]),
                         OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"),
                preexec_fn=(lambda: os.sched_setaffinity(0, {first_cpu})) if pinned else None,
                timeout=120,
            )
            assert ran.returncode == 0, ran.stderr
            for name in (output, "ref.lex") if output == "ref_emb.txt" else (output,):
                outputs.setdefault(name, set()).add((tmp_path / name).read_bytes())
    assert all(len(versions) == 1 for versions in outputs.values())
    for name in ("W.txt", "E.txt", "sub.txt", "ref_emb.txt"):
        table = load_embeddings(tmp_path / name)
        assert table.vectors.size >= 2 * _MIN_VALUES_PER_WORKER, name


@pytest.fixture
def forking_loads(monkeypatch):
    """Load every embedding table in forked workers over two CPUs; the pids
    of the workers forked from then on."""
    from subseg import subspace

    forked = []
    fork = subspace._fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(subspace, "_MIN_VALUES_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(subspace, "_fork", recording_fork)
    return forked


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _embedding_stage_args(command, paths, out):
    tables = ["--vocab", str(paths["vocab"]), "--counts", str(paths["counts"]),
              "--output-matrix", str(paths["outmat"]), "--lexicon", str(paths["lex0"]), "-o", str(out)]
    return [command, *tables, *(["--embeddings", str(paths["emb"])] if command == "refine" else [])]


@pytest.mark.parametrize("command", ["subword-embed", "refine"])
@pytest.mark.parametrize(
    "key, corrupt, problem",
    [
        ("vocab", _replace_line(2, lambda lines: lines[0]), "duplicate token"),
        ("counts", _replace_line(3, lambda lines: "0\t1\tmany"), "non-integer field"),
    ],
)
def test_a_bad_word_table_stops_the_embedding_workers(
    pipeline, tmp_path, capsys, forking_loads, command, key, corrupt, problem
):
    bad = tmp_path / pipeline[key].name
    bad.write_text("".join(text + "\n" for text in corrupt(pipeline[key].read_text(encoding="utf-8").splitlines())),
                   encoding="utf-8")
    paths = {**pipeline, key: bad}
    assert main(_embedding_stage_args(command, paths, tmp_path / "out.txt")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line ") and problem in err, err
    # Two workers per large table had started; none outlives the stage.
    assert len(forking_loads) == (4 if command == "refine" else 2)
    _assert_reaped(forking_loads)
    assert not (tmp_path / "out.txt").exists()


def _break(path, tmp_path, how):
    """A copy of ``path`` in ``tmp_path``: with a bad row 3, or never written."""
    bad = tmp_path / path.name
    if how == "row":
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        bad.write_text("".join([*lines[:2], "\t \t\n", *lines[3:]]), encoding="utf-8")
    return bad


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "command, first, second, how",
    [
        ("subword-embed", "outmat", "lex0", "row"),
        ("subword-embed", "outmat", "lex0", "missing"),
        ("refine", "emb", "outmat", "row"),
        ("refine", "outmat", "lex0", "missing"),
    ],
)
def test_of_two_bad_inputs_the_one_read_first_is_reported(
    pipeline, tmp_path, capsys, forking_loads, monkeypatch, cpus, command, first, second, how
):
    # The tables are joined after the lexicon is read, but their errors
    # still come first, in the order the stage names its inputs.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    bad_first = _break(pipeline[first], tmp_path / "a", "row")
    alone = main(_embedding_stage_args(command, {**pipeline, first: bad_first}, tmp_path / "out.txt"))
    alone_err = capsys.readouterr().err
    bad_second = _break(pipeline[second], tmp_path / "b", how)
    both = main(_embedding_stage_args(
        command, {**pipeline, first: bad_first, second: bad_second}, tmp_path / "out.txt"
    ))
    assert (both, capsys.readouterr().err) == (alone, alone_err) == (3, alone_err)
    assert alone_err.startswith(f"error: {bad_first}: line 3: "), alone_err
    assert len(forking_loads) == (0 if cpus == 1 else 2 * (2 if command == "refine" else 1) * 2)
    _assert_reaped(forking_loads)


def _load_outcome(load, path):
    try:
        table = load(path)
    except ValidationError as exc:
        return type(exc), exc.line_number, str(exc)
    return table.tokens, table.vectors.view(np.int64).tobytes()


def test_a_table_of_one_to_two_minima_is_parsed_by_one_worker(pipeline, tmp_path, forking_loads, monkeypatch):
    from subseg import subspace

    path = pipeline["emb"]
    values = subspace._load_serially(path).vectors.size
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "bad.txt"
    bad.write_text("".join([*lines[:-1], lines[-1].rsplit(" ", 1)[0] + " x\n"]), encoding="utf-8")

    # Exactly one minimum: under two, so one worker parses the whole table
    # while the caller goes on, with the bits and errors of one process.
    monkeypatch.setattr(subspace, "_MIN_VALUES_PER_WORKER", values)
    assert subspace._worker_count(values) == 1
    for table in (path, bad):
        forking_loads.clear()
        with subspace.start_loading_embeddings(table) as pending:
            assert len(forking_loads) == 1
            outcome = _load_outcome(lambda _: subspace.join_embeddings(pending), table)
        assert outcome == _load_outcome(subspace._load_serially, table)
        _assert_reaped(forking_loads)
    assert outcome == (ParseError, len(lines), f"line {len(lines)}: non-numeric vector component")

    # Under one minimum, or on one CPU, the caller reads the table at the join.
    forking_loads.clear()
    for minimum, cpus in ((values + 1, 2), (values, 1)):
        monkeypatch.setattr(subspace, "_MIN_VALUES_PER_WORKER", minimum)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        for table in (path, bad):
            assert _load_outcome(subspace.load_embeddings, table) == _load_outcome(subspace._load_serially, table)
        assert forking_loads == []


def test_refine_with_tables_of_one_to_two_minima_forks_one_worker_each(pipeline, tmp_path, forking_loads, monkeypatch):
    from subseg import subspace

    monkeypatch.setattr(subspace, "_MIN_VALUES_PER_WORKER", load_embeddings(pipeline["emb"]).vectors.size)
    assert load_embeddings(pipeline["outmat"]).vectors.size == subspace._MIN_VALUES_PER_WORKER
    forking_loads.clear()
    args = _embedding_stage_args("refine", pipeline, tmp_path / "ref.lex")
    assert main([*args, "--subword-embeddings-out", str(tmp_path / "ref_emb.txt")]) == 0
    # One worker per table (E and W); saving a one-range table forks none.
    assert len(forking_loads) == 2
    _assert_reaped(forking_loads)
    assert (tmp_path / "ref.lex").read_bytes() == pipeline["refined"].read_bytes()
    assert (tmp_path / "ref_emb.txt").read_bytes() == pipeline["refined_emb"].read_bytes()


def _through_fifo(source, fifo):
    """Make ``fifo`` a FIFO and start a child process writing ``source`` into it."""
    os.mkfifo(fifo)
    code = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    # A process, not a thread: a process with other threads forks no workers.
    return subprocess.Popen([sys.executable, "-c", code, str(source), str(fifo)])


@pytest.mark.parametrize(
    "command, key, outputs",
    [
        ("subword-embed", "outmat", {"subemb": "sub.txt"}),
        ("refine", "emb", {"refined": "ref.lex", "refined_emb": "ref_emb.txt"}),
        ("refine", "outmat", {"refined": "ref.lex", "refined_emb": "ref_emb.txt"}),
    ],
)
def test_an_embedding_table_from_a_fifo_gives_the_same_outputs(
    pipeline, tmp_path, forking_loads, command, key, outputs
):
    writer = _through_fifo(pipeline[key], tmp_path / "table.fifo")
    try:
        args = _embedding_stage_args(command, {**pipeline, key: tmp_path / "table.fifo"}, tmp_path / "ref.lex")
        if command == "subword-embed":
            args[args.index("-o") + 1] = str(tmp_path / "sub.txt")
        else:
            args += ["--subword-embeddings-out", str(tmp_path / "ref_emb.txt")]
        assert main(args) == 0
    finally:
        assert writer.wait(timeout=60) == 0
    for name, output in outputs.items():
        assert (tmp_path / output).read_bytes() == pipeline[name].read_bytes(), output
    _assert_reaped(forking_loads)


def test_the_process_entry_gives_the_output_and_exit_code_of_main(pipeline, tmp_path, capsys):
    segment = ["segment", str(pipeline["corpus"]), "--model", str(pipeline["model"])]
    assert main([*segment, "-o", str(tmp_path / "seg.txt")]) == 0
    piped = _run_cli([*segment, "-o", "-"], b"", tmp_path)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == (tmp_path / "seg.txt").read_bytes()
    # A stage that loaded scipy.sparse and failed on its data.
    bad = _break(pipeline["outmat"], tmp_path, "row")
    args = _embedding_stage_args("refine", {**pipeline, "outmat": bad}, tmp_path / "out.txt")
    capsys.readouterr()
    assert main(args) == 3
    failed = _run_cli(args, b"", tmp_path)
    assert (failed.returncode, failed.stdout, failed.stderr.decode()) == (3, b"", capsys.readouterr().err)


def test_run_freezes_the_heap_before_a_normal_exit(pipeline, tmp_path):
    argv = ["subseg", "segment", str(pipeline["corpus"]), "--model", str(pipeline["model"]), "-o", "-"]
    script = (
        "import atexit, gc, sys\n"
        "from subseg import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        f"sys.argv = {argv!r}\n"
        "cli.run()\n"
    )
    ran = _run_python(["-c", script], b"", tmp_path)
    assert (ran.returncode, ran.stderr) == (0, b"frozen True\n")
    assert ran.stdout == _run_cli(argv[1:], b"", tmp_path).stdout != b""


def test_main_leaves_the_heap_unfrozen(pipeline, tmp_path):
    import gc

    before = gc.get_freeze_count()
    assert main(_embedding_stage_args("refine", pipeline, tmp_path / "ref.lex")) == 0
    assert gc.get_freeze_count() == before


def test_the_console_script_resolves_to_the_process_entry():
    import importlib

    from subseg import cli

    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["subseg"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry)
    assert entry is cli.run
