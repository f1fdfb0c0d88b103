"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/`` knows about it: while a ``Tracer`` is installed, each
public function listed in ``PATCHES`` is replaced, at the module attribute its
callers look up, by a wrapper that records a span (name, parent, start, end)
plus the work counts the benchmark can compute from the arguments.  Several
modules import functions by name (``from .model import train``), so a function
is wrapped once per caller-visible name.  Leaving the ``with`` block restores
every original attribute.
"""

import json
import os
import statistics
import time
from functools import wraps

import topicxfer.corpus
import topicxfer.evaluate
import topicxfer.fileio
import topicxfer.harness
import topicxfer.kernels
import topicxfer.model
import topicxfer.transfer


def _doc_tokens(corpus):
    return sum(len(doc) for doc in corpus.documents)


def _kernel_counts(gemms):
    # args: (doc, W, U, b, c, lvt, use_lvt, act); each GEMM is 2*K*H*D flop
    def count(args, kwargs, result):
        d = args[0].shape[0]
        h, k = args[1].shape
        return {"tokens": d, "flop": gemms * 2 * k * h * d}
    return count


def _gvt_counts(gemms):
    # args: (W, ctx, ...); each GEMM with an H x H alignment is 2*H*H*K flop
    def count(args, kwargs, result):
        h, k = args[0].shape
        return {"flop": gemms * 2 * h * h * k * len(args[1].gvt_source_ids())}
    return count


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _corpus_arg(position):
    def count(args, kwargs, result):
        corpus = args[position]
        return {"docs": len(corpus), "tokens": _doc_tokens(corpus)}
    return count


def _raw_docs(args, kwargs, result):
    raw_docs = result[0]
    return {"docs": len(raw_docs), "tokens": sum(len(doc) for doc in raw_docs)}


def _encoded(args, kwargs, result):
    return {"docs": len(result), "tokens": _doc_tokens(result)}


def _words(args, kwargs, result):
    doc = args[0]
    return {"tokens": len(doc)}


def _queries(args, kwargs, result):
    return {"docs": len(args[1])}


# short names for the modules, to keep the table readable
C, E, F, H, K, M, T = (topicxfer.corpus, topicxfer.evaluate, topicxfer.fileio,
                       topicxfer.harness, topicxfer.kernels, topicxfer.model,
                       topicxfer.transfer)

# (span name, counter or None, [(module, attribute) callers look up])
PATCHES = [
    ("corpus.read_raw_file", _raw_docs, [(C, "read_raw_file")]),
    ("corpus.build_vocabulary", None, [(C, "build_vocabulary")]),
    ("corpus.encode_corpus", _encoded, [(C, "encode_corpus")]),
    ("corpus.load_corpus_file", _encoded, [(C, "load_corpus_file")]),
    ("kernels.doc_grads", _kernel_counts(3), [(K, "doc_grads")]),
    ("kernels.doc_forward", _kernel_counts(1), [(K, "doc_forward")]),
    ("kernels.window_counts", _words, [(K, "window_counts")]),
    ("model.train", _corpus_arg(0), [(M, "train"), (H, "train")]),
    ("model.forward", _words, [(M, "forward"), (E, "forward")]),
    ("model.document_vector", _words, [(M, "document_vector"), (E, "document_vector")]),
    ("model.save_model", None, [(M, "save_model"), (H, "save_model")]),
    ("model.load_model", None, [(M, "load_model")]),
    ("transfer.gvt_gradients", _gvt_counts(3), [(T, "gvt_gradients")]),
    ("transfer.gvt_penalty", _gvt_counts(1), [(T, "gvt_penalty")]),
    ("transfer.gvt_residual_norms", _gvt_counts(1), [(T, "gvt_residual_norms")]),
    ("transfer.project_kb", None, [(T, "project_kb")]),
    ("transfer.make_transfer_context", None,
     [(T, "make_transfer_context"), (H, "make_transfer_context")]),
    ("transfer.build_kb", None, [(T, "build_kb"), (H, "build_kb")]),
    ("transfer.save_kb", None, [(T, "save_kb"), (H, "save_kb")]),
    ("evaluate.perplexity", _corpus_arg(1), [(E, "perplexity"), (H, "perplexity")]),
    ("evaluate.coherence", _corpus_arg(1), [(E, "coherence"), (H, "coherence")]),
    ("evaluate.retrieval_precision", _queries,
     [(E, "retrieval_precision"), (H, "retrieval_precision")]),
    ("evaluate.all_topics", None, [(E, "all_topics"), (H, "all_topics")]),
    ("fileio.write_matrix", _file_bytes, [(F, "write_matrix"), (M, "write_matrix"),
                                          (T, "write_matrix")]),
    ("fileio.read_matrix", _file_bytes, [(F, "read_matrix"), (M, "read_matrix"),
                                         (T, "read_matrix")]),
    ("harness.parse_config", None, [(H, "parse_config")]),
    ("harness.run_experiment", None, [(H, "run_experiment")]),
    ("harness.grid_search", None, [(H, "grid_search")]),
]

LAYERS = [name for name, _, _ in PATCHES]

# the computed work counts reported as per-layer metrics, with their units
COUNTS = [
    ("corpus.read_raw_file", "tokens", "tokens"),
    ("corpus.encode_corpus", "tokens", "tokens"),
    ("kernels.doc_grads", "tokens", "tokens"),
    ("kernels.doc_grads", "flop", "flop"),
    ("kernels.doc_forward", "tokens", "tokens"),
    ("kernels.doc_forward", "flop", "flop"),
    ("kernels.window_counts", "tokens", "tokens"),
    ("model.train", "tokens", "tokens"),
    ("transfer.gvt_gradients", "flop", "flop"),
    ("evaluate.perplexity", "docs", "docs"),
    ("evaluate.coherence", "docs", "docs"),
    ("evaluate.retrieval_precision", "docs", "docs"),
    ("fileio.write_matrix", "bytes", "bytes"),
    ("fileio.read_matrix", "bytes", "bytes"),
]


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, counter):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": 0.0, "end": 0.0, "counts": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result
        return traced

    def __enter__(self):
        for name, counter, sites in PATCHES:
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def layer_table(spans):
    """Per-layer calls, total_s, self_s and summed counts over a list of spans.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS}
    for span in spans:
        row = table[span["name"]]
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(span["id"], 0.0)
        for key, value in span["counts"].items():
            row[key] = row.get(key, 0) + value
    return table


def root_time(spans, first_id):
    """Summed duration of the spans without a parent, from span ``first_id`` on."""
    return sum(s["end"] - s["start"] for s in spans[first_id:] if s["parent"] is None)


def per_layer_metrics(passes, untraced_pass_s):
    """Median per-layer metrics over traced passes.

    ``passes`` holds (wall_s, layer_table, root_s) per traced pass;
    ``untraced_pass_s`` is the untraced set-up plus operation time, so
    ``trace.overhead_s`` is what the wrappers cost.
    """
    def med(values):
        return float(statistics.median(values))

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (med([t[name]["calls"] for _, t, _ in passes]), "count")
        metrics[f"{name}.total_s"] = (med([t[name]["total_s"] for _, t, _ in passes]), "s")
        metrics[f"{name}.self_s"] = (med([t[name]["self_s"] for _, t, _ in passes]), "s")
    for name, key, unit in COUNTS:
        metrics[f"{name}.{key}"] = (med([t[name].get(key, 0) for _, t, _ in passes]), unit)
    walls = [w for w, _, _ in passes]
    metrics["trace.wall_s"] = (med(walls), "s")
    metrics["trace.remainder_s"] = (med([w - r for w, _, r in passes]), "s")
    metrics["trace.coverage"] = (med([r / w for w, _, r in passes]), "ratio")
    metrics["trace.overhead_s"] = (med(walls) - untraced_pass_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def write_spans(path, spans):
    """One JSON object per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
