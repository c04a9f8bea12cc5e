"""Subword segmentation toolkit grounded in a pre-trained word embedding space.

The package covers a full pipeline: corpus ingestion and vocabulary
construction, windowed co-occurrence counting, solving subword vectors
inside an existing skip-gram space, similarity-driven segmentation with
alternating refinement, distillation into a smoothed bigram segmenter with
an exact or beam-cut search, and intrinsic evaluation (boundary P/R/F1,
Renyi efficiency).
"""

import importlib

__version__ = "0.1.0"

# Public names by defining module.  Each module is imported on the first
# access to one of its names, so a stage that needs no arrays never loads
# numpy through the package.
_EXPORTS = {
    "errors": (
        "ArgumentError",
        "CorpusIOError",
        "CoverageError",
        "NumericalError",
        "ParseError",
        "ValidationError",
    ),
    "textio": (
        "MergeRules",
        "ScoredSegmentation",
        "SegmentedLexicon",
        "Vocabulary",
        "bpe_segment",
        "bpe_train",
        "build_vocabulary",
        "load_lexicon",
        "load_merges",
        "load_vocabulary",
        "read_corpus",
        "save_lexicon",
        "save_merges",
        "save_vocabulary",
        "segment_corpus",
    ),
    "cooccur": (
        "CooccurrenceCounts",
        "count_cooccurrences",
        "load_counts",
        "save_counts",
    ),
    "tables": (
        "EmbeddingTable",
        "PendingEmbeddings",
        "align_embeddings",
        "join_embeddings",
        "load_embeddings",
        "save_embeddings",
        "start_loading_embeddings",
    ),
    "subspace": (
        "SegmentationMatrix",
        "build_segmentation_matrix",
        "compute_subword_embeddings",
        "default_ridge",
    ),
    "lexseg": (
        "IterationStats",
        "RefinementState",
        "cosine",
        "embedding_segment",
        "refine",
    ),
    "bigram": (
        "START_SYMBOL",
        "BigramModel",
        "beam_segment",
        "distill",
        "exact_segment",
        "iter_word_groups",
        "load_model",
        "save_model",
    ),
    "metrics": (
        "BoundaryReport",
        "RenyiReport",
        "boundary_prf",
        "renyi_efficiency",
        "segmentation_boundaries",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
