"""The benchmark must keep finding the package names it uses.

perfbench/tracer.py replaces package functions at their caller-visible
module attributes, and perfbench/workloads.py and run.py call the package
through its module attributes.  A rename or deletion of one of them should
fail here, not in a benchmark run.
"""

import ast
import importlib
import importlib.util
import os

import numpy as np
import pytest

from topicxfer import evaluate, model, transfer
from topicxfer.corpus import Corpus, Document, Vocabulary

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACER_PATH = os.path.join(PERFBENCH, "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites(tracer):
    return [(name, module, attr) for name, _, sites in tracer.PATCHES
            for module, attr in sites]


def test_every_patch_site_resolves_to_a_callable(tracer):
    for name, module, attr in _sites(tracer):
        assert callable(getattr(module, attr, None)), \
            f"{name}: {module.__name__}.{attr} is missing or not callable"


def test_tracer_restores_every_original(tracer):
    originals = [(module, attr, getattr(module, attr)) for _, module, attr in _sites(tracer)]
    with tracer.Tracer():
        for module, attr, original in originals:
            assert getattr(module, attr) is not original
    for module, attr, original in originals:
        assert getattr(module, attr) is original


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_every_package_name_the_benchmark_uses_resolves(script):
    with open(os.path.join(PERFBENCH, script), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {}  # the name a topicxfer module is bound to -> the module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "topicxfer":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"topicxfer.{alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("topicxfer."):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    uses = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert uses, f"{script} uses no topicxfer module attribute"
    missing += [f"{name}.{attr}" for name, attr in sorted(uses)
                if not hasattr(modules[name], attr)]
    assert not missing, f"{script} uses names the package lacks: {missing}"


def test_pipeline_small_passes_its_own_output_check(tmp_path, monkeypatch):
    # the workload's paths are relative, so running it in tmp_path keeps the
    # checkout clean; its oracle catches a context or bundle change it cannot read
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    workload = importlib.import_module("workloads").PipelineSmall(1)
    workload.prepare()
    state = workload.setup()
    digests = []
    for _ in range(2):
        workload.clear()
        result, _ = workload.op(state)
        digests.append(workload.digest(result))
    assert workload.check(result) == []
    assert digests[0] == digests[1]


def test_traced_contexts_give_the_gvt_flop_counts(tracer):
    # _gvt_counts reads the context it is handed; tier-1 runs no traced workload
    rng = np.random.default_rng(0)
    h, k = 3, 5
    vocab = Vocabulary([f"w{i}" for i in range(k)])
    kbs = [transfer.KnowledgeBase(sid, vocab, rng.normal(size=(h, k)), rng.normal(size=(h, k)))
           for sid in ("s0", "s1")]
    spec = transfer.TransferSpec([transfer.SourceWeight("s0", lam=0.5, gamma=0.2),
                                  transfer.SourceWeight("s1", gamma=0.3)],
                                 lvt_enabled=True, gvt_enabled=True)
    ctx = transfer.make_transfer_context(kbs, vocab, spec, h)
    params = model.init_params(h, k, seed=0)
    model.ensure_alignments(params, ctx)
    corpus = Corpus(vocab, [Document(np.array([0, 2, 4, 2]))])
    with tracer.Tracer() as traced:
        for gvt in (transfer.gvt_gradients, transfer.gvt_penalty, transfer.gvt_residual_norms):
            gvt(params.W, ctx, params.alignments)
        for context in (ctx, transfer.InferenceContext(ctx.lvt_matrix)):
            evaluate.perplexity(params, corpus, context)
            model.document_vector(corpus.documents[0], params, context)
    flop = 2 * h * h * k * len(spec.gvt_weights)  # one H x H by H x K GEMM per source
    counts = [(s["name"], s["counts"].get("flop")) for s in traced.spans
              if s["name"].startswith("transfer.")]
    assert counts == [("transfer.gvt_gradients", 3 * flop), ("transfer.gvt_penalty", flop),
                      ("transfer.gvt_residual_norms", flop)]
    assert [s["name"] for s in traced.spans if s["parent"] is None] == [
        "transfer.gvt_gradients", "transfer.gvt_penalty", "transfer.gvt_residual_norms",
        "evaluate.perplexity", "model.document_vector",
        "evaluate.perplexity", "model.document_vector"]


def test_traced_evaluation_records_one_span_per_document_and_matrix(tracer, tmp_path):
    # eval-large's per-layer counts come from these spans: one document_vector
    # per document under retrieval_precision, one read_matrix per bundle matrix
    rng = np.random.default_rng(1)
    h, k = 3, 6
    vocab = Vocabulary([f"w{i}" for i in range(k)])
    params = model.init_params(h, k, seed=1, init_scale=0.5)
    params.alignments["s0"] = np.eye(h)
    lvt = rng.normal(size=(h, k))

    def labeled(n):
        docs = [Document(rng.integers(0, k, size=int(rng.integers(1, 9))), i % 2)
                for i in range(n)]
        return Corpus(vocab, docs, label_names=["a", "b"])

    pool, queries = labeled(7), labeled(3)
    with tracer.Tracer() as traced:
        evaluate.retrieval_precision(pool, queries, evaluate.model_vector_fn(
            params, transfer.InferenceContext(lvt)))
    root, *vectors = traced.spans
    assert root["name"] == "evaluate.retrieval_precision"
    assert [(s["name"], s["parent"], s["counts"]["tokens"]) for s in vectors] == [
        ("model.document_vector", root["id"], len(doc))
        for doc in (*pool.documents, *queries.documents)]

    bundle = tmp_path / "bundle"
    model.save_model(params, vocab, bundle, lvt_matrix=lvt)
    sizes = sorted(path.stat().st_size for path in bundle.glob("*.mat"))
    assert len(sizes) == 6  # W, U, b, c, A.s0 and lvt
    with tracer.Tracer() as traced:
        model.load_model(bundle)
    root, *reads = traced.spans
    assert root["name"] == "model.load_model"
    assert [(s["name"], s["parent"]) for s in reads] == [
        ("fileio.read_matrix", root["id"])] * len(sizes)
    assert sorted(s["counts"]["bytes"] for s in reads) == sizes
