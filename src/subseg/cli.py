"""Command-line pipeline around the library.

Subcommands cover the whole workflow: ``vocab`` and ``cooc`` build the word
tables, ``init-bpe`` bootstraps an initial segmented lexicon, ``subword-embed``
solves subword vectors, ``refine`` runs the alternating refinement,
``segment-embed`` applies a lexicon to running text, ``distill`` compresses a
segmented corpus into a bigram model, ``segment`` applies that model, and the
``eval-*`` commands score outputs.

Exit codes: 2 usage, 3 invalid data, 4 numerical failure, 5 I/O.  File
outputs are written atomically.  ``-`` is stdin as the corpus or tokens
positional and stdout as the ``-o`` of ``segment-embed``, ``segment`` and
``eval-*``, both strict UTF-8 like files; ``-`` for any other path exits 2.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import gc
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import IO, TYPE_CHECKING, NoReturn, TypeVar

# Only textio is imported here; each command imports the other modules it
# uses, so a stage that needs no arrays starts without loading numpy.
from subseg import textio
from subseg.errors import ArgumentError, CorpusIOError, NumericalError, ValidationError

if TYPE_CHECKING:
    from subseg import cooccur, lexseg, tables

_T = TypeVar("_T")

# Distinct word types whose segmentation ``segment`` keeps in memory.
_SEGMENT_MEMO_SIZE = 1 << 16


def _input_lines(path: str) -> Iterator[str]:
    if path == "-":
        # Decode the raw bytes like a file; a replaced text stream has no buffer.
        return textio.read_corpus(getattr(sys.stdin, "buffer", sys.stdin))
    return textio.read_corpus(path)


@contextmanager
def _naming(path: str) -> Iterator[None]:
    """Name ``path`` in a data error raised inside the block.

    The error keeps its type and attributes; only its message gains the
    prefix, so loaders and corpus readers report lines without knowing
    where they came from.  ``-`` is named ``<stdin>``.
    """
    try:
        yield
    except (ValidationError, CorpusIOError) as exc:
        exc.args = (f"{'<stdin>' if path == '-' else path}: {exc}",)
        raise


def _load(load: Callable[[str], _T], path: str) -> _T:
    """``load(path)``, naming ``path`` in a data error it raises."""
    with _naming(path):
        return load(path)


@contextmanager
def _output_stream(path: str) -> Iterator[IO[str]]:
    if path == "-":
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            # A replaced text stream has no buffer; write to it as it is.
            yield sys.stdout
            return
        # Encode strictly as UTF-8 like a file, whatever the locale says.
        sys.stdout.flush()
        yield codecs.getwriter("utf-8")(buffer, "strict")
        buffer.flush()
    else:
        with textio.atomic_text_writer(path) as handle:
            yield handle


def _file(text: str) -> str:
    """A path option a stage opens by name, where ``-`` stands for no stream."""
    if text == "-":
        raise argparse.ArgumentTypeError("'-' is not a stream here; give a file path")
    return text


def _parse_ridge(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ArgumentError(f"ridge must be 'auto' or a number, got {text!r}") from None
    return value


def _write_rows(rows: Iterable[list[str]], handle: IO[str], word_per_line: bool) -> None:
    """Write each input line's segmented words (``"p1 p2"`` each) as one string.

    The words go on one line, or one line each; a line without words gives
    an empty line, or nothing.
    """
    write = handle.write
    if word_per_line:
        for row in rows:
            if row:
                write("\n".join(row) + "\n")
    else:
        for row in rows:
            write(" ".join(row) + "\n")


def _cmd_vocab(args: argparse.Namespace) -> int:
    with _naming(args.corpus):
        vocab = textio.build_vocabulary(
            _input_lines(args.corpus),
            max_size=args.max_size,
            min_freq=args.min_freq,
        )
    textio.save_vocabulary(vocab, args.output)
    return 0


def _cmd_cooc(args: argparse.Namespace) -> int:
    from subseg import cooccur

    vocab = _load(textio.load_vocabulary, args.vocab)
    with _naming(args.corpus):
        counts = cooccur.count_cooccurrences(_input_lines(args.corpus), vocab, window=args.window)
    cooccur.save_counts(counts, args.output)
    return 0


def _cmd_init_bpe(args: argparse.Namespace) -> int:
    vocab = _load(textio.load_vocabulary, args.vocab)
    with _naming(args.corpus):
        merges, splits = textio.bpe_train_splits(_input_lines(args.corpus), args.target_size)
    # Training already split every corpus type of two or more characters.
    rules = textio.MergeRules(merges)
    lexicon = textio.SegmentedLexicon(
        (word, splits.get(word) or textio.bpe_segment(word, rules)) for word in vocab.tokens
    )
    textio.save_lexicon(lexicon, args.lexicon_out)
    if args.merges_out:
        textio.save_merges(merges, args.merges_out)
    return 0


def _join_aligned(
    pending: tables.PendingEmbeddings, path: str, vocab: textio.Vocabulary
) -> tables.EmbeddingTable:
    """The table ``pending`` loads from ``path``, in ``vocab``'s order."""
    from subseg import tables

    return _load(lambda p: tables.align_embeddings(tables.join_embeddings(pending), vocab.tokens), path)


@contextmanager
def _reported_after(*joins: Callable[[], object]) -> Iterator[None]:
    """Raise an error of the block only once ``joins`` are called, and theirs first.

    A stage joins its embedding tables after the block but names them ahead
    of the block's inputs, so an error in a table is the one reported.
    """
    try:
        yield
    except Exception:
        for join in joins:
            join()
        raise


def _load_word_tables(
    args: argparse.Namespace,
) -> tuple[textio.Vocabulary, cooccur.CooccurrenceCounts]:
    from subseg import cooccur

    vocab = _load(textio.load_vocabulary, args.vocab)
    counts = _load(cooccur.load_counts, args.counts)
    if counts.vocab_size != len(vocab):
        raise ValidationError(
            f"counts cover {counts.vocab_size} words but the vocabulary has {len(vocab)}"
        )
    return vocab, counts


# The embedding stages start loading their embedding tables first, so that
# forked workers parse them while this process reads the other inputs and
# then builds the counts CSR, which imports scipy.  The import comes last:
# ahead of the other inputs' parsing, it left about 1 MB more resident at
# the stage's peak.  Each table is joined where it is first needed.


def _cmd_subword_embed(args: argparse.Namespace) -> int:
    from subseg import subspace, tables

    with tables.start_loading_embeddings(args.output_matrix) as pending:
        vocab, counts = _load_word_tables(args)
        join = functools.partial(_join_aligned, pending, args.output_matrix, vocab)
        with _reported_after(join):
            lexicon = _load(textio.load_lexicon, args.lexicon) if args.lexicon else None
            subwords, matrix = subspace.build_segmentation_matrix(vocab.tokens, lexicon, args.substr_max_len)
            counts.matrix()
        output_rows = join()
    ridge = _parse_ridge(args.ridge)
    table = subspace.compute_subword_embeddings(subwords, matrix, counts, output_rows, args.smoothing, ridge)
    tables.save_embeddings(table, args.output)
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    from subseg import lexseg, tables

    with (
        tables.start_loading_embeddings(args.embeddings) as pending_e,
        tables.start_loading_embeddings(args.output_matrix) as pending_w,
    ):
        vocab, counts = _load_word_tables(args)
        join_e = functools.partial(_join_aligned, pending_e, args.embeddings, vocab)
        join_w = functools.partial(_join_aligned, pending_w, args.output_matrix, vocab)
        with _reported_after(join_e, join_w):
            lexicon0 = _load(textio.load_lexicon, args.lexicon)
            counts.matrix()
        word_embeddings = join_e()
        output_rows = join_w()

    def report(stats: lexseg.IterationStats) -> None:
        print(
            f"{stats.iteration}\t{stats.changed_words}\t{stats.subword_count}",
            file=sys.stderr,
        )

    state = lexseg.refine(
        lexicon0,
        word_embeddings,
        counts,
        output_rows,
        alpha=args.alpha,
        smoothing=args.smoothing,
        ridge=_parse_ridge(args.ridge),
        max_iters=args.max_iters,
        progress=report,
    )
    textio.save_lexicon(state.lexicon, args.output)
    if args.subword_embeddings_out:
        tables.save_embeddings(state.embeddings, args.subword_embeddings_out)
    return 0


def _cmd_segment_embed(args: argparse.Namespace) -> int:
    lexicon = _load(textio.load_lexicon, args.lexicon)
    texts = {word: " ".join(parts) for word, parts in lexicon.items()}
    rows = textio.map_corpus(_input_lines(args.corpus), texts, args.oov_policy, " ".join)
    with _naming(args.corpus), _output_stream(args.output) as handle:
        _write_rows(rows, handle, args.word_per_line)
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    from subseg import bigram

    with _naming(args.corpus):
        groups = bigram.count_word_groups(_input_lines(args.corpus), separator=args.separator)
        model = bigram.distill_counted(groups)
    bigram.save_model(model, args.output)
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    from subseg import bigram

    if not args.exact and args.beam < 1:
        raise ArgumentError(f"beam_size must be at least 1, got {args.beam}")
    model = _load(bigram.load_model, args.model)

    # Both searches are deterministic per (word, model), so memoizing each
    # word type's text is exact; the bound keeps memory flat on streaming input.
    @functools.lru_cache(maxsize=_SEGMENT_MEMO_SIZE)
    def segment_word(word: str) -> str:
        if args.exact:
            return " ".join(bigram.exact_segment(word, model).subwords)
        return " ".join(bigram.beam_segment(word, model, beam_size=args.beam).subwords)

    rows = (list(map(segment_word, line.split())) for line in _input_lines(args.corpus))
    with _naming(args.corpus), _output_stream(args.output) as handle:
        _write_rows(rows, handle, args.word_per_line)
    return 0


def _cmd_eval_boundaries(args: argparse.Namespace) -> int:
    from subseg import metrics

    predicted = _load(textio.load_lexicon, args.pred)
    gold = _load(textio.load_lexicon, args.gold)
    report = metrics.boundary_prf(predicted, gold)
    with _output_stream(args.output) as handle:
        handle.write(f"words evaluated: {len(predicted)}\n")
        handle.write(f"predicted boundaries: {report.predicted_boundaries}\n")
        handle.write(f"gold boundaries: {report.gold_boundaries}\n")
        handle.write(f"true positives: {report.true_positives}\n")
        handle.write(
            f"P={report.precision!r} R={report.recall!r} F1={report.f1!r}\n"
        )
    return 0


def _cmd_eval_renyi(args: argparse.Namespace) -> int:
    from subseg import metrics

    if args.word_separator is not None:
        textio._check_token(args.word_separator, "word separator", ArgumentError)
    frequencies: Counter = Counter()
    with _naming(args.tokens):
        for line in _input_lines(args.tokens):
            frequencies.update(line.split())
    if args.word_separator is not None:
        frequencies.pop(args.word_separator, None)
    observed = sum(1 for count in frequencies.values() if count > 0)
    vocab_size = args.vocab_size if args.vocab_size is not None else observed
    report = metrics.renyi_efficiency(frequencies, vocab_size, alpha=args.alpha)
    with _output_stream(args.output) as handle:
        handle.write(f"token count: {sum(frequencies.values())}\n")
        handle.write(f"distinct types: {observed}\n")
        handle.write(f"vocab size: {vocab_size}\n")
        handle.write(f"alpha: {report.alpha!r}\n")
        handle.write(
            f"H={report.entropy!r} Hmax={report.max_entropy!r} EFF={report.efficiency!r}\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subseg",
        description="Embedding-grounded subword segmentation pipeline.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("vocab", help="build a word vocabulary from a corpus")
    p.add_argument("corpus", nargs="?", default="-", help="corpus file or - for stdin")
    p.add_argument("--max-size", type=int, default=200_000, help="keep at most this many types")
    p.add_argument("--min-freq", type=int, default=1, help="drop rarer types")
    p.add_argument("-o", "--output", type=_file, required=True, help="vocabulary file to write")
    p.set_defaults(func=_cmd_vocab)

    p = commands.add_parser("cooc", help="count windowed co-occurrences")
    p.add_argument("corpus", nargs="?", default="-")
    p.add_argument("--vocab", type=_file, required=True, help="vocabulary file")
    p.add_argument("--window", type=int, default=5, help="window size in positions")
    p.add_argument("-o", "--output", type=_file, required=True, help="counts file to write")
    p.set_defaults(func=_cmd_cooc)

    p = commands.add_parser(
        "init-bpe", help="bootstrap an initial lexicon with pair merging"
    )
    p.add_argument("corpus", nargs="?", default="-")
    p.add_argument("--vocab", type=_file, required=True, help="vocabulary whose words get segmented")
    p.add_argument("--target-size", type=int, required=True, help="induced subword inventory size")
    p.add_argument("--lexicon-out", type=_file, required=True, help="initial lexicon file to write")
    p.add_argument("--merges-out", type=_file, default=None, help="optionally save the merge rules")
    p.set_defaults(func=_cmd_init_bpe)

    p = commands.add_parser("subword-embed", help="solve subword vectors in the word space")
    p.add_argument("--vocab", type=_file, required=True)
    p.add_argument("--counts", type=_file, required=True, help="co-occurrence counts file")
    p.add_argument("--output-matrix", type=_file, required=True, help="per-word output vectors (W rows)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lexicon", type=_file, default=None, help="segmented lexicon defining the subwords")
    group.add_argument(
        "--substr-max-len", type=int, default=None, help="enumerate all substrings up to this length"
    )
    p.add_argument("--lambda", dest="smoothing", type=float, default=0.1, help="additive smoothing")
    p.add_argument("--ridge", default="auto", help="ridge strength or 'auto'")
    p.add_argument("-o", "--output", type=_file, required=True, help="subword embedding file to write")
    p.set_defaults(func=_cmd_subword_embed)

    p = commands.add_parser("refine", help="alternate subword solving and re-segmentation")
    p.add_argument("--vocab", type=_file, required=True)
    p.add_argument("--counts", type=_file, required=True)
    p.add_argument("--embeddings", type=_file, required=True, help="per-word input vectors (E rows)")
    p.add_argument("--output-matrix", type=_file, required=True, help="per-word output vectors (W rows)")
    p.add_argument("--lexicon", type=_file, required=True, help="initial segmented lexicon")
    p.add_argument("--alpha", type=float, default=1.0, help="per-subword score penalty")
    p.add_argument("--lambda", dest="smoothing", type=float, default=0.1)
    p.add_argument("--ridge", default="auto")
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("-o", "--output", type=_file, required=True, help="refined lexicon file to write")
    p.add_argument(
        "--subword-embeddings-out", type=_file, default=None, help="optionally save the final subword vectors"
    )
    p.set_defaults(func=_cmd_refine)

    p = commands.add_parser("segment-embed", help="apply a segmented lexicon to running text")
    p.add_argument("corpus", nargs="?", default="-")
    p.add_argument("--lexicon", type=_file, required=True)
    p.add_argument(
        "--oov-policy",
        choices=textio.OOV_POLICIES,
        default="whole",
        help="how to treat words missing from the lexicon",
    )
    p.add_argument(
        "--word-per-line",
        action="store_true",
        help="emit one word per output line (distillation input format)",
    )
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_segment_embed)

    p = commands.add_parser("distill", help="count a segmented corpus into a bigram model")
    p.add_argument("corpus", nargs="?", default="-", help="segmented corpus, one word per line")
    p.add_argument(
        "--separator",
        default=None,
        help="treat this token as a word delimiter instead of newlines",
    )
    p.add_argument("-o", "--output", type=_file, required=True, help="model file to write")
    p.set_defaults(func=_cmd_distill)

    p = commands.add_parser("segment", help="segment running text with a bigram model")
    p.add_argument("corpus", nargs="?", default="-")
    p.add_argument("--model", type=_file, required=True)
    p.add_argument("--beam", type=int, default=5, help="beam width")
    p.add_argument("--exact", action="store_true", help="use the exact dynamic program")
    p.add_argument("--word-per-line", action="store_true")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_segment)

    p = commands.add_parser("eval-boundaries", help="boundary precision/recall/F1")
    p.add_argument("--pred", type=_file, required=True, help="predicted segmented lexicon")
    p.add_argument("--gold", type=_file, required=True, help="gold segmented lexicon")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_eval_boundaries)

    p = commands.add_parser("eval-renyi", help="Renyi efficiency of a token stream")
    p.add_argument("tokens", nargs="?", default="-", help="tokenized text, space-separated")
    p.add_argument("--alpha", type=float, default=2.5)
    p.add_argument(
        "--vocab-size",
        type=int,
        default=None,
        help="normalizing vocabulary size; defaults to the observed type count",
    )
    p.add_argument(
        "--word-separator",
        default=None,
        help="separator token excluded from the frequency table",
    )
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_eval_renyi)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


def run() -> NoReturn:
    """Process entry point: exit with :func:`main`'s code, skipping the heap walk.

    Interpreter shutdown collects the whole heap, about 0.1 s once
    ``scipy.sparse`` is loaded.  ``gc.freeze()`` moves every object to a
    generation no collection visits, so exit skips that walk, while atexit
    handlers, the final flush of stdout and its exit status run as usual.
    ``main`` itself leaves the collector alone for in-process callers.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
