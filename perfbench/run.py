"""Stage-level benchmark of the subseg pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload text-zipf --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Each workload generates its inputs from ``--seed`` (``perfbench/gen.py``),
then runs its chain of ``subseg`` stages, each as its own child process the
way a user runs them, one at a time, repeating the whole chain (a "pass")
for ``--seconds`` seconds.  Every stage's exit code, every output (reloaded
through the program's own loaders) and the byte digest of every output
across passes are checked; each check and each stage run is one attempted
operation.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end figures, medians over the run's samples:

* ``setup_s``: generating and writing the inputs (median of 3 to 5 set-ups);
* ``pipeline_s``: summed wall time of one pass over the workload's stages;
* ``peak_rss_mb``: largest peak RSS of any stage process in a pass.

These are the figures every workload has.  Per-stage figures (``vocab_s``
... ``segment_tokens_per_s``, ``boundary_f1``, ``renyi_eff``,
``fail_ratio``) exist only on the workloads that run the stage; the table
printed above the JSON line gives each of them with its unit, median,
min, max, upper percentile (when ten samples lie above it) and sample
count, and the traced run reports stage times as ``cli.<stage>.s``.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
run each stage under ``perfbench/tracer.py`` and the metrics are the
per-layer figures listed in ``PER_LAYER``.  The difference between a
traced pass and the untraced pass next to it is ``trace.overhead_s``.
"""

from __future__ import annotations

import os

# The stage processes inherit these; they must be set before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# Set-up runs at least 3 and at most 5 times, stopping after 3 s.
SETUP_REPEATS = (3, 5)
SETUP_BUDGET_S = 3.0
RUN_LIMIT_S = 170.0
_MB = 2.0**20

STAGES = ("vocab", "cooc", "init-bpe", "subword-embed", "refine", "segment-embed", "distill", "segment")

END_TO_END = (("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics: (name, unit).  Names are <module>.<function>.<quantity>;
# ``s`` is inclusive time, ``self_s`` excludes traced children.  A layer a
# workload never calls reads 0.
PER_LAYER = (
    ("cli.import_s", "s"),
    *((f"cli.{stage}.s", "s") for stage in STAGES),
    *((f"cli.{stage}.peak_rss_mb", "MB") for stage in STAGES),
    ("cli.segment.tokens_per_s", "tokens/s"),
    ("textio.build_vocabulary.s", "s"),
    ("textio.bpe_train.s", "s"),
    ("textio.bpe_train.merges", "count"),
    ("textio.bpe_segment.s", "s"),
    ("textio.bpe_segment.calls", "count"),
    ("textio.load_vocabulary.s", "s"),
    ("textio.load_lexicon.s", "s"),
    ("textio.save_lexicon.s", "s"),
    ("textio.SegmentedLexicon.init.s", "s"),
    ("textio.SegmentedLexicon.init.calls", "count"),
    ("cooccur.count_cooccurrences.s", "s"),
    ("cooccur.count_cooccurrences.pairs", "count"),
    ("cooccur.save_counts.s", "s"),
    ("cooccur.load_counts.s", "s"),
    ("cooccur.CooccurrenceCounts.matrix.s", "s"),
    ("cooccur.CooccurrenceCounts.matrix.calls", "count"),
    ("subspace.load_embeddings.s", "s"),
    ("subspace.load_embeddings.values", "count"),
    ("subspace.align_embeddings.s", "s"),
    ("subspace.save_embeddings.s", "s"),
    ("subspace.build_segmentation_matrix.s", "s"),
    ("subspace.build_segmentation_matrix.calls", "count"),
    ("subspace.build_segmentation_matrix.rows", "count"),
    ("subspace.SegmentationMatrix.to_csr.s", "s"),
    ("subspace.compute_subword_embeddings.s", "s"),
    ("subspace.compute_subword_embeddings.self_s", "s"),
    ("subspace.compute_subword_embeddings.calls", "count"),
    ("subspace.compute_subword_embeddings.rows", "count"),
    ("subspace.compute_subword_embeddings.dense_target_mb", "MB"),
    ("subspace.compute_subword_embeddings.proj_flops", "flop"),
    ("subspace.default_ridge.calls", "count"),
    ("lexseg.refine.s", "s"),
    ("lexseg.refine.iterations", "count"),
    ("lexseg.refine.subwords_final", "count"),
    ("lexseg.embedding_segment.s", "s"),
    ("lexseg.embedding_segment.self_s", "s"),
    ("lexseg.embedding_segment.calls", "count"),
    ("lexseg.cosine.calls", "count"),
    ("lexseg.segment_corpus.s", "s"),
    ("bigram.distill.s", "s"),
    ("bigram.save_model.s", "s"),
    ("bigram.load_model.s", "s"),
    ("bigram.beam_segment.s", "s"),
    ("bigram.beam_segment.calls", "count"),
    ("bigram.beam_segment.distinct_ratio", "ratio"),
    ("bigram.BigramModel.log_prob.calls", "count"),
    ("metrics.boundary_prf.f1", "ratio"),
    ("metrics.renyi_efficiency.efficiency", "ratio"),
    ("trace.overhead_s", "s"),
)


class CheckError(Exception):
    """An output failed a correctness check."""


@dataclass
class Stage:
    """One ``subseg`` invocation of a pass.

    ``outputs`` must repeat byte for byte in every pass; ``check`` reloads
    them through the program's loaders on the first pass.  Stages with
    ``timed=False`` score quality and run on the first pass only.
    """

    command: str
    args: list[str]
    outputs: list[str]
    check: Callable[[Path], None] | None = None
    timed: bool = True


@dataclass
class StageRun:
    command: str
    wall_s: float
    rss_mb: float
    exit_code: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


# --------------------------------------------------------------------------
# Workloads


def _check_rejoins(path: Path, words: list[str]) -> None:
    """Word-per-line segmenter output must concatenate back to ``words``."""
    rows = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
    if len(rows) != len(words):
        raise CheckError(f"{path.name}: {len(rows)} lines for {len(words)} input words")
    for lineno, (parts, word) in enumerate(zip(rows, words), 1):
        if not parts or "".join(parts) != word:
            raise CheckError(f"{path.name}:{lineno}: {parts!r} does not rejoin to {word!r}")


def _check_lexicon(path: Path, words) -> None:
    from subseg import textio

    lexicon = textio.load_lexicon(path)
    if set(lexicon.words()) != set(words):
        raise CheckError(f"{path.name}: word set differs from the expected {len(words)} words")
    for word, parts in lexicon.items():
        if "".join(parts) != word:
            raise CheckError(f"{path.name}: {parts!r} does not rejoin to {word!r}")


def _check_model(path: Path) -> None:
    from subseg import bigram

    if bigram.load_model(path).size < 1:
        raise CheckError(f"{path.name}: empty subword inventory")


def _report_field(path: Path, key: str) -> float:
    text = path.read_text(encoding="utf-8")
    for token in text.split():
        if token.startswith(key + "="):
            value = float(token[len(key) + 1 :])
            if not 0.0 <= value <= 1.0:
                raise CheckError(f"{path.name}: {key}={value} outside [0, 1]")
            return value
    raise CheckError(f"{path.name}: no {key}= field")


class Workload:
    """Inputs, stage chain and output checks of one benchmark workload."""

    name = ""
    sizes: dict = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.quality: dict[str, float] = {}

    def setup(self, work: Path) -> list[str]:
        """Generate and write the inputs; return the written file names."""
        raise NotImplementedError

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def segment_words(self) -> int:
        return 0

    def _eval_boundaries(self, pred: str) -> Stage:
        def check(work: Path) -> None:
            self.quality["metrics.boundary_prf.f1"] = _report_field(work / "boundaries.txt", "F1")

        return Stage(
            "eval-boundaries", ["--pred", pred, "--gold", "gold.lex", "-o", "boundaries.txt"],
            ["boundaries.txt"], check, timed=False,
        )

    def _eval_renyi(self, tokens: str) -> Stage:
        def check(work: Path) -> None:
            self.quality["metrics.renyi_efficiency.efficiency"] = _report_field(work / "renyi.txt", "EFF")

        return Stage("eval-renyi", [tokens, "--alpha", "2.5", "-o", "renyi.txt"], ["renyi.txt"], check, timed=False)


class TextZipf(Workload):
    """Corpus stages on a Zipfian stem+suffix corpus.

    Counting, merging and decoding grow with corpus tokens, and the Zipfian
    repeats are what a pair index or a per-type memo exploits.  No
    embedding stage runs.
    """

    name = "text-zipf"
    sizes = {
        "stems": 800, "suffixes": 30, "candidate_words": 12000, "zipf_exponent": 1.05,
        "train_tokens": 60_000, "heldout_tokens": 20_000, "window": 5, "bpe_target_size": 60, "beam": 5,
    }

    def setup(self, work: Path) -> list[str]:
        size = self.sizes
        rng = np.random.default_rng(self.seed)
        gold = gen.gold_lexicon(rng, size["stems"], size["suffixes"], size["candidate_words"])
        words = sorted(gold)
        self.train = gen.zipf_lines(rng, words, size["train_tokens"], size["zipf_exponent"])
        heldout = gen.zipf_lines(rng, words, size["heldout_tokens"], size["zipf_exponent"])
        self.heldout = [w for line in heldout for w in line.split()]
        self.types = Counter(w for line in self.train for w in line.split())
        gen.write_lines(work / "train.txt", self.train)
        gen.write_lines(work / "heldout.txt", self.heldout)
        gen.write_lexicon(work / "gold.lex", {w: gold[w] for w in sorted(self.types)})
        return ["train.txt", "heldout.txt", "gold.lex"]

    def segment_words(self) -> int:
        return len(self.heldout)

    def _check_vocab(self, work: Path) -> None:
        from subseg import textio

        vocab = textio.load_vocabulary(work / "vocab.tsv")
        if dict(vocab.entries()) != dict(self.types):
            raise CheckError("vocab.tsv: frequencies differ from the generated corpus")

    def _check_counts(self, work: Path) -> None:
        from subseg import cooccur, textio

        vocab = textio.load_vocabulary(work / "vocab.tsv")
        counts = cooccur.load_counts(work / "counts.tsv")
        expected = reference_cooccurrences(self.train, vocab, self.sizes["window"])
        got = np.array(list(counts.pairs()), dtype=np.int64).reshape(-1, 3)
        if counts.vocab_size != len(vocab) or not np.array_equal(got, expected):
            raise CheckError("counts.tsv: table differs from the reference offset-shift count")

    def stages(self) -> list[Stage]:
        size = self.sizes
        return [
            Stage("vocab", ["train.txt", "-o", "vocab.tsv"], ["vocab.tsv"], self._check_vocab),
            Stage(
                "cooc", ["train.txt", "--vocab", "vocab.tsv", "--window", str(size["window"]), "-o", "counts.tsv"],
                ["counts.tsv"], self._check_counts,
            ),
            Stage(
                "init-bpe",
                ["train.txt", "--vocab", "vocab.tsv", "--target-size", str(size["bpe_target_size"]),
                 "--lexicon-out", "bpe.lex"],
                ["bpe.lex"], lambda work: _check_lexicon(work / "bpe.lex", self.types),
            ),
            Stage(
                "segment-embed", ["train.txt", "--lexicon", "bpe.lex", "--word-per-line", "-o", "train.seg"],
                ["train.seg"],
                lambda work: _check_rejoins(work / "train.seg", [w for line in self.train for w in line.split()]),
            ),
            Stage("distill", ["train.seg", "-o", "model.txt"], ["model.txt"], lambda work: _check_model(work / "model.txt")),
            Stage(
                "segment",
                ["heldout.txt", "--model", "model.txt", "--beam", str(size["beam"]), "--word-per-line",
                 "-o", "heldout.seg"],
                ["heldout.seg"], lambda work: _check_rejoins(work / "heldout.seg", self.heldout),
            ),
            self._eval_boundaries("bpe.lex"),
            self._eval_renyi("heldout.seg"),
        ]


class _MorphTables(Workload):
    """Workloads that read generated word tables instead of a corpus."""

    def _write_tables(self, work: Path, with_embeddings: bool) -> list[str]:
        size = self.sizes
        rng = np.random.default_rng(self.seed)
        self.gold = gen.gold_lexicon(rng, size["stems"], size["suffixes"], size["words"])
        tables = gen.WordTables(rng, self.gold)
        self.tokens = tables.tokens
        out = gen.output_matrix(rng, len(tables.tokens), size["dim"])
        gen.write_vocab(work / "vocab.tsv", tables.tokens, tables.freqs)
        gen.write_counts(work / "counts.tsv", tables.upper)
        gen.write_embeddings(work / "W.txt", tables.tokens, out)
        gen.write_lexicon(work / "gold.lex", self.gold)
        files = ["vocab.tsv", "counts.tsv", "W.txt", "gold.lex"]
        if with_embeddings:
            gen.write_embeddings(work / "E.txt", tables.tokens, gen.consistent_embeddings(tables.symmetric(), out))
            gen.write_lexicon(work / "init.lex", gen.random_splits(rng, self.gold))
            files += ["E.txt", "init.lex"]
        return files


class RefineMorph(_MorphTables):
    """Refinement from a random-split lexicon, then one pass over the types.

    The cosine DP and the per-iteration solve repeat 10 times at low d (the
    lexicon does not converge on these tables).  Every word is segmented
    exactly once, so a per-type memo has nothing to save here.
    """

    name = "refine-morph"
    sizes = {"stems": 200, "suffixes": 20, "words": 1500, "dim": 64, "max_iters": 10, "beam": 5}

    def setup(self, work: Path) -> list[str]:
        files = self._write_tables(work, with_embeddings=True)
        self.words = sorted(self.gold)
        gen.write_lines(work / "types.txt", self.words)
        return [*files, "types.txt"]

    def segment_words(self) -> int:
        return len(self.words)

    def stages(self) -> list[Stage]:
        return [
            Stage(
                "refine",
                ["--vocab", "vocab.tsv", "--counts", "counts.tsv", "--embeddings", "E.txt", "--output-matrix",
                 "W.txt", "--lexicon", "init.lex", "--max-iters", str(self.sizes["max_iters"]), "-o", "refined.lex"],
                ["refined.lex"], lambda work: _check_lexicon(work / "refined.lex", self.gold),
            ),
            Stage(
                "segment-embed", ["types.txt", "--lexicon", "refined.lex", "--word-per-line", "-o", "types.seg"],
                ["types.seg"], lambda work: _check_rejoins(work / "types.seg", self.words),
            ),
            Stage("distill", ["types.seg", "-o", "model.txt"], ["model.txt"], lambda work: _check_model(work / "model.txt")),
            Stage(
                "segment",
                ["types.txt", "--model", "model.txt", "--beam", str(self.sizes["beam"]), "--word-per-line",
                 "-o", "types.out"],
                ["types.out"], lambda work: _check_rejoins(work / "types.out", self.words),
            ),
            self._eval_boundaries("refined.lex"),
            self._eval_renyi("types.out"),
        ]


class EmbedWide(_MorphTables):
    """``subword-embed`` at d=300, in both ways of building the incidence.

    Lexicon mode (the gold lexicon) gives few, narrow rows; substrings up to
    length 3 give many wide ones.  Pooling, targets, the solve and
    ``load_embeddings`` dominate, and no DP runs.
    """

    name = "embed-wide"
    sizes = {"stems": 600, "suffixes": 30, "words": 3000, "dim": 300, "substr_max_len": 3}

    def setup(self, work: Path) -> list[str]:
        return self._write_tables(work, with_embeddings=False)

    def _check_subwords(self, path: Path, expected: set[str]) -> None:
        from subseg import subspace

        table = subspace.load_embeddings(path)
        if set(table.tokens) != expected or table.dim != self.sizes["dim"]:
            raise CheckError(f"{path.name}: {len(table)} x {table.dim} table, expected {len(expected)} subwords")

    def stages(self) -> list[Stage]:
        common = ["--vocab", "vocab.tsv", "--counts", "counts.tsv", "--output-matrix", "W.txt"]
        limit = self.sizes["substr_max_len"]
        lexicon_rows = {part for parts in self.gold.values() for part in parts}
        lexicon_rows |= {ch for token in self.tokens for ch in token}
        substrings = {
            token[i:j] for token in self.tokens for i in range(len(token)) for j in range(i + 1, min(i + limit, len(token)) + 1)
        }
        return [
            Stage(
                "subword-embed", [*common, "--lexicon", "gold.lex", "-o", "sub_lexicon.txt"], ["sub_lexicon.txt"],
                lambda work: self._check_subwords(work / "sub_lexicon.txt", lexicon_rows),
            ),
            Stage(
                "subword-embed", [*common, "--substr-max-len", str(limit), "-o", "sub_enum.txt"], ["sub_enum.txt"],
                lambda work: self._check_subwords(work / "sub_enum.txt", substrings),
            ),
        ]


WORKLOADS = {cls.name: cls for cls in (TextZipf, RefineMorph, EmbedWide)}


def reference_cooccurrences(lines: list[str], vocab, window: int):
    """Canonical (i, j, count) rows by numpy offset shifts, sorted by (i, j)."""
    ids, line_of = [], []
    for lineno, line in enumerate(lines):
        for token in line.split():
            ids.append(vocab.get(token))
            line_of.append(lineno)
    ids = np.array([-1 if i is None else i for i in ids], dtype=np.int64)
    line_of = np.array(line_of, dtype=np.int64)
    keys, weights = [], []
    for k in range(1, window + 1):
        a, b = ids[:-k], ids[k:]
        keep = (line_of[:-k] == line_of[k:]) & (a >= 0) & (b >= 0)
        lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
        keys.append(lo * len(vocab) + hi)
        weights.append(np.where(lo == hi, 2, 1))
    unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    totals = np.bincount(inverse, weights=np.concatenate(weights)).astype(np.int64)
    return np.stack([unique // len(vocab), unique % len(vocab), totals], axis=1)


# --------------------------------------------------------------------------
# Running stages


def run_stage(stage: Stage, work: Path, deadline: float, spans: Path | None, label: str) -> StageRun:
    """Run one stage as a child process; wall time and its own peak RSS.

    With ``spans`` the stage runs under the tracer, which writes its spans,
    tagged with ``label`` as the stage id, to that file.
    """
    if spans is None:
        argv = [sys.executable, "-m", "subseg.cli", stage.command, *stage.args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), label, "--", stage.command, *stage.args]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(work / f"{stage.command}.stderr", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), child.kill)
        killer.start()
        try:
            # wait4 on this child alone: ru_maxrss is the child's own peak (KiB).
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(stage.command, wall, usage.ru_maxrss * 1024 / _MB, child.returncode)


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class PassResult:
    runs: list[StageRun]
    traces: list[dict]
    complete: bool

    @property
    def pipeline_s(self) -> float:
        return sum(run.wall_s for run in self.runs)


def run_pass(
    workload: Workload, work: Path, tally: Tally, digests: dict, deadline: float, first: bool, traced: bool
) -> PassResult:
    runs, traces = [], []
    for position, stage in enumerate(workload.stages()):
        if not (stage.timed or first):
            continue
        label = f"{stage.command}#{position}"
        spans = work / f"spans_{position}.json" if traced else None
        run = run_stage(stage, work, deadline, spans, label)
        if not tally.record(run.exit_code == 0, f"{label} exited {run.exit_code}"):
            detail = (work / f"{stage.command}.stderr").read_text(encoding="utf-8", errors="replace")[-500:]
            tally.errors.append(detail)
            return PassResult(runs, traces, False)
        if stage.timed:
            runs.append(run)
        if traced:
            traces.append(json.loads(spans.read_text(encoding="utf-8")))
        if first and stage.check is not None:
            try:
                stage.check(work)
                ok, what = True, ""
            except Exception as exc:  # any failure to reload or verify is a failed check
                ok, what = False, f"{label} check: {type(exc).__name__}: {exc}"
            tally.record(ok, what)
        value = digest([work / name for name in stage.outputs])
        if label in digests:
            tally.record(digests[label] == value, f"{label} output digest changed between passes")
        else:
            digests[label] = value
    return PassResult(runs, traces, True)


# --------------------------------------------------------------------------
# Metrics


def percentile_label(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return "-"
    q = int(100 * (n - 10) / n)
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return f"p{q}={cut:.6g}"


def stage_samples(workload: Workload, passes: list[PassResult]) -> dict[str, tuple[str, list[float]]]:
    """Per-stage wall times and segment throughput, one sample per complete pass."""
    out: dict[str, tuple[str, list[float]]] = {}
    for result in passes:
        walls: dict[str, float] = {}
        for run in result.runs:
            walls[run.command] = walls.get(run.command, 0.0) + run.wall_s
        for command, wall in walls.items():
            out.setdefault(command.replace("-", "_") + "_s", ("s", []))[1].append(wall)
        if "segment" in walls:
            out.setdefault("segment_tokens_per_s", ("tokens/s", []))[1].append(workload.segment_words() / walls["segment"])
    return out


def layer_values(workload: Workload, traced: PassResult, untraced: PassResult) -> dict[str, float]:
    """Per-layer metrics of one traced pass paired with one untraced pass."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for run in untraced.runs:
        values[f"cli.{run.command}.s"] += run.wall_s
        key = f"cli.{run.command}.peak_rss_mb"
        values[key] = max(values[key], run.rss_mb)
    segment = values["cli.segment.s"]
    values["cli.segment.tokens_per_s"] = workload.segment_words() / segment if segment else 0.0
    values["cli.import_s"] = statistics.median(trace["import_s"] for trace in traced.traces)
    distinct: dict[str, int] = {}
    for trace in traced.traces:
        for name, total in trace["totals"].items():
            for field_name in ("s", "self_s", "calls"):
                key = f"{name}.{field_name}"
                if key in values:
                    values[key] += total[field_name]
        for name, count in trace["counts"].items():
            values[f"{name}.calls"] += count
        for key, value in trace["quantities"].items():
            if key in values:
                values[key] += value
        for name, count in trace["distinct"].items():
            distinct[name] = distinct.get(name, 0) + count
    calls = values["bigram.beam_segment.calls"]
    values["bigram.beam_segment.distinct_ratio"] = distinct.get("bigram.beam_segment", 0) / calls if calls else 0.0
    values.update(workload.quality)
    values["trace.overhead_s"] = traced.pipeline_s - untraced.pipeline_s
    return values


def top_self_times(traced: PassResult, limit: int = 8) -> list[tuple[str, float]]:
    totals: dict[str, float] = {}
    for trace in traced.traces:
        for name, total in trace["totals"].items():
            totals[name] = totals.get(name, 0.0) + total["self_s"]
    return sorted(totals.items(), key=lambda item: -item[1])[:limit]


# --------------------------------------------------------------------------
# Running a workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    workload = WORKLOADS[name](seed)
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        setup_times, setup_digests = [], set()
        while len(setup_times) < SETUP_REPEATS[0] or (
            len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_BUDGET_S
        ):
            t0 = time.perf_counter()
            files = workload.setup(work)
            setup_times.append(time.perf_counter() - t0)
            setup_digests.add(digest([work / f for f in files]))
        tally.record(len(setup_digests) == 1, "generator output differs between set-ups of one seed")

        digests: dict[str, str] = {}
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        # The first pass warms the interpreter's bytecode and file caches,
        # checks every output and scores quality; it is not a sample.  Timed
        # passes then repeat until the next one would overrun ``seconds``.
        measure_start = time.monotonic()
        warm = run_pass(workload, work, tally, digests, deadline, first=True, traced=False)
        last_pass = time.monotonic() - measure_start
        while warm.complete:
            now = time.monotonic()
            enough = (traced and untraced) if trace else len(untraced) >= 2
            if enough and (now - measure_start + last_pass > seconds or now + 2 * last_pass > deadline):
                break
            run_traced = trace and len(traced) <= len(untraced)
            result = run_pass(workload, work, tally, digests, deadline, first=False, traced=run_traced)
            if not result.complete:
                break
            (traced if run_traced else untraced).append(result)
            last_pass = time.monotonic() - now
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    print(f"workload {name}  seed {seed}  passes {len(untraced)} untraced, {len(traced)} traced  "
          f"blas_threads {NPROC}")
    print(f"  sizes: {json.dumps(workload.sizes)}")
    rows = [("setup_s", "s", setup_times)]
    if untraced:
        rows.append(("pipeline_s", "s", [p.pipeline_s for p in untraced]))
        rows.append(("peak_rss_mb", "MB", [max(r.rss_mb for r in p.runs) for p in untraced]))
        rows.extend((metric, unit, samples) for metric, (unit, samples) in stage_samples(workload, untraced).items())
    for key, label in (("metrics.boundary_prf.f1", "boundary_f1"), ("metrics.renyi_efficiency.efficiency", "renyi_eff")):
        if key in workload.quality:
            rows.append((label, "ratio", [workload.quality[key]]))
    rows.append(("fail_ratio", "ratio", [tally.failed / max(tally.attempted, 1)]))
    print(f"  {'metric':<22}{'unit':<10}{'median':>14}{'min':>14}{'max':>14}  {'upper':<16}{'n':>4}")
    for metric, unit, samples in rows:
        print(f"  {metric:<22}{unit:<10}{statistics.median(samples):>14.6g}{min(samples):>14.6g}{max(samples):>14.6g}"
              f"  {percentile_label(samples):<16}{len(samples):>4}")
    if untraced:
        print("  pass walls: " + " ".join(f"{p.pipeline_s:.4f}" for p in untraced))
    for error in tally.errors:
        print(f"  FAILED: {error}")

    if trace:
        pairs = list(zip(traced, untraced))
        per_pass = [layer_values(workload, t, u) for t, u in pairs]
        metrics = {
            metric: {"value": statistics.median(v[metric] for v in per_pass) if per_pass else 0.0, "unit": unit}
            for metric, unit in PER_LAYER
        }
        if traced:
            print("  largest self time (traced pass): " + ", ".join(f"{n} {s:.3f}s" for n, s in top_self_times(traced[0])))
            idle = [metric for metric, value in metrics.items() if value["value"] == 0.0]
            print(f"  reported as 0 because this workload never runs them: {', '.join(idle) or 'none'}")
    else:
        samples = {metric: values for metric, _, values in rows}
        metrics = {
            metric: {"value": statistics.median(samples[metric]) if metric in samples else 0.0, "unit": unit}
            for metric, unit in END_TO_END
        }
    return {
        "correct": tally.failed == 0 and bool(untraced),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if untraced else max(tally.failed, 1),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subseg" / "cli.py").is_file():
        print(f"error: {SRC / 'subseg'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
