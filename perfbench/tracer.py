"""Run one ``subseg`` CLI stage with spans around the library's layers.

Usage: python3 perfbench/tracer.py SPANS_JSON STAGE_ID -- <subseg arguments>

The program is not modified.  Before ``cli.main`` runs, every public
function of ``textio``, ``cooccur``, ``subspace``, ``lexseg``, ``bigram``
and ``cli`` (plus the methods named in ``METHODS``) is replaced by a timing
wrapper, in the defining module and in every module namespace that imported
it by name, so calls made from inside ``refine`` are caught too.

Each call becomes a span (name, start, end, parent span, stage id) kept in
memory.  A name stops recording spans after ``SPAN_LIMIT`` calls and from
then on only adds to its call count and times, so hot functions cost a
counter rather than a record.  Functions in ``COUNT_ONLY`` run millions of
times per stage and are only counted.  Self time is a call's duration minus
the time covered by its traced children.  Everything is written to
SPANS_JSON when the stage exits.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from subseg import bigram, cli, cooccur, lexseg, subspace, textio  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

MODULES = (textio, cooccur, subspace, lexseg, bigram, cli)
METHODS = (
    (textio.SegmentedLexicon, "__init__", "textio.SegmentedLexicon.init"),
    (cooccur.CooccurrenceCounts, "matrix", "cooccur.CooccurrenceCounts.matrix"),
    (subspace.SegmentationMatrix, "to_csr", "subspace.SegmentationMatrix.to_csr"),
)
COUNT_ONLY = (
    (lexseg, "cosine", "lexseg.cosine"),
    (bigram.BigramModel, "log_prob", "bigram.BigramModel.log_prob"),
)
SPAN_LIMIT = 10_000
_MB = 2.0**20


def _refine_quantities(args, result):
    return {"iterations": result.iterations, "subwords_final": len(result.subwords)}


def _solve_quantities(args, result):
    rows, words, dim = args["matrix"].row_count, len(args["output_rows"]), args["output_rows"].dim
    return {
        "rows": rows,
        "dense_target_mb": rows * words * 8 / _MB,
        "proj_flops": 2.0 * rows * words * dim,
    }


# Work counts taken from a call's bound arguments and result.
QUANTITIES = {
    "textio.bpe_train": lambda args, result: {"merges": len(result)},
    "cooccur.count_cooccurrences": lambda args, result: {"pairs": len(result.counts)},
    "subspace.load_embeddings": lambda args, result: {"values": int(result.vectors.size)},
    "subspace.build_segmentation_matrix": lambda args, result: {"rows": result[1].row_count},
    "subspace.compute_subword_embeddings": _solve_quantities,
    "lexseg.refine": _refine_quantities,
}
# Names whose first argument's distinct values are counted.
DISTINCT = ("bigram.beam_segment",)


class Tracer:
    def __init__(self, stage_id: str):
        self.stage_id = stage_id
        # (name, start, end, parent span index); the stage id is added on output.
        self.spans: list[tuple[str, float, float, int]] = []
        self.totals: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.quantities: dict[str, float] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        # Open calls: [name, start, time covered by children, span index].
        self._stack: list[list] = []

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, -1]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, covered, _ = frame
        duration = end - start
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if total[0] <= SPAN_LIMIT:
            parent = self._stack[-1][3] if self._stack else -1
            frame[3] = len(self.spans)
            self.spans.append((name, start, end, parent))

    def _record(self, name: str, func, args, kwargs, result) -> None:
        extract = QUANTITIES.get(name)
        if extract is not None:
            bound = inspect.signature(func).bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in extract(bound.arguments, result).items():
                qname = f"{name}.{key}"
                self.quantities[qname] = self.quantities.get(qname, 0.0) + value
        if name in self.distinct:
            self.distinct[name].add(args[0])

    def timed(self, name: str, func):
        if inspect.isgeneratorfunction(func):
            return self._timed_generator(name, func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(frame)
            self._record(name, func, args, kwargs, result)
            return result

        return wrapper

    def _timed_generator(self, name: str, func):
        # A generator's time is the sum of its resumptions, each a span.
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                frame = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                yield item

        return wrapper

    def counted(self, name: str, func):
        self.counts[name] = 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        replaced = {}
        for owner, attr, name in COUNT_ONLY:
            original = getattr(owner, attr)
            replaced[original] = self.counted(name, original)
            if inspect.isclass(owner):
                setattr(owner, attr, replaced[original])
        for module in MODULES:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not hasattr(value, "__wrapped__")
                    and value not in replaced
                ):
                    replaced[value] = self.timed(f"{prefix}.{attr}", value)
        for owner, attr, name in METHODS:
            setattr(owner, attr, self.timed(name, getattr(owner, attr)))
        # Rebind in every namespace that holds the original function object,
        # including names imported with ``from module import function``.
        for module in (*MODULES, sys.modules["subseg"]):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    def report(self, exit_code: int) -> dict:
        return {
            "stage_id": self.stage_id,
            "exit_code": exit_code,
            "import_s": IMPORT_S,
            "spans": [(*span, self.stage_id) for span in self.spans],
            "totals": {name: {"calls": c, "s": s, "self_s": own} for name, (c, s, own) in self.totals.items()},
            "counts": self.counts,
            "quantities": self.quantities,
            "distinct": {name: len(values) for name, values in self.distinct.items()},
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON STAGE_ID -- <subseg arguments>", file=sys.stderr)
        return 2
    out_path, stage_id, stage_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(stage_id)
    tracer.install()
    exit_code = 1
    try:
        exit_code = cli.main(stage_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(exit_code), handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
