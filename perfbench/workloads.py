"""The three benchmark workloads.

Each workload generates its inputs from the seed (``prepare``, not timed and
not part of set-up), then offers:

- ``setup()``: the program's set-up before the timed part (ingestion, KB build
  and projection, model init, warm-up); timed as ``setup_s``;
- ``clear()``: removes what the previous operation wrote (not timed);
- ``op(state)``: the timed operation, through the package's public API;
  returns its result and the wall time of its stages (the rates named in
  README.md, recorded in the detail file);
- ``digest(result)``: a fingerprint two runs of unchanged code agree on;
- ``check(result)``: problems found by the reference computations in
  ``oracle.py`` (an empty list when the result is right).

All paths are relative to the checkout root, so the experiment fingerprint in
``report.txt``, which hashes input paths, is the same in every checkout.
"""

import hashlib
import os
import shutil
import time

import numpy as np

import inputs
import oracle
from topicxfer import corpus, evaluate, harness, model, transfer
from topicxfer.synthetic import SyntheticSpec, generate_synthetic

WORK_DIR = ".perfbench_run"


def tree_digest(root):
    """sha256 over every file under root: relative path and bytes, sorted."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def _warm_up(vocab_size, n_topics, docs, ctx=None):
    """One small perplexity pass so lazy imports and BLAS threads start before timing."""
    params = model.init_params(n_topics, vocab_size, seed=0)
    sample = corpus.Corpus(docs.vocabulary, docs.documents[:2], label_names=docs.label_names,
                           split=docs.split)
    evaluate.perplexity(params, sample, ctx)


class PipelineSmall:
    """ROADMAP workload (a): the synthetic ``mvt`` experiment of acceptance criterion 5."""

    name = "pipeline-small"

    def __init__(self, seed):
        self.seed = seed
        self.work = os.path.join(WORK_DIR, self.name)
        self.paths = {split: os.path.join(self.work, "inputs", f"{split}.txt")
                      for split in ("source", "train", "validation", "test")}
        self.config_path = os.path.join(self.work, "experiment.cfg")
        self.out_dir = os.path.join(self.work, "out")

    def prepare(self):
        os.makedirs(os.path.dirname(self.paths["train"]), exist_ok=True)
        source, (train, validation, test) = generate_synthetic(SyntheticSpec(seed=self.seed))
        for split, data in (("source", source), ("train", train),
                            ("validation", validation), ("test", test)):
            corpus.write_corpus_file(data, self.paths[split])
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(f"""mode = mvt
target.train = {self.paths["train"]}
target.validation = {self.paths["validation"]}
target.test = {self.paths["test"]}
labeled = true
out = {self.out_dir}
epochs = 20
learning_rate = 0.01
topics = 3
seed = 100
lambda_grid = 0.5
gamma_grid = 0.5
eval_fractions = 0.02
coherence_top_n = 5
coherence_reference = {self.paths["source"]}
source.s1.corpus = {self.paths["source"]}
""")

    def setup(self):
        config = harness.parse_config(self.config_path)
        train = corpus.load_corpus_file(self.paths["train"], labeled=True)
        for split in ("validation", "test"):
            corpus.load_corpus_file(self.paths[split], vocabulary=train.vocabulary,
                                    labeled=True, split=split)
        corpus.load_corpus_file(self.paths["source"], labeled=True)
        return config

    def clear(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self, config):
        return harness.run_experiment(config), {}

    def digest(self, report):
        return {"out_dir": tree_digest(self.out_dir),
                "model": tree_digest(os.path.join(self.out_dir, "model"))}

    def check(self, report):
        W, U, b, c, lvt, tokens = oracle.read_bundle(os.path.join(self.out_dir, "model"))
        train_labels, train_docs = oracle.encode(*oracle.read_corpus(self.paths["train"]), tokens)
        test_labels, test_docs = oracle.encode(*oracle.read_corpus(self.paths["test"]), tokens)
        _, reference = oracle.read_corpus(self.paths["source"])
        saved = evaluate.EvalReport.load(os.path.join(self.out_dir, "report.txt"))
        problems = [] if saved.to_text() == report.to_text() else ["report.txt differs"]
        problems += oracle.check_close(
            "ppl", report.ppl, oracle.perplexity(W, U, b, c, lvt, test_docs),
            rtol=oracle.PPL_RTOL)
        problems += oracle.check_close(
            "coh", report.coh,
            oracle.coherence(oracle.top_words(W, tokens, 5), reference, evaluate.DEFAULT_WINDOW),
            atol=oracle.COH_ATOL)
        fractions = [0.02]
        problems += oracle.compare_ir(
            report.ir, oracle.retrieval_precision(W, c, lvt, train_docs, train_labels,
                                                  test_docs, test_labels, fractions),
            fractions, len(train_docs), len(test_docs))
        return problems


class TrainMVT:
    """Paper-scale training: H=200, K=2000, MVT transfer from one H=200 source KB."""

    name = "train-mvt"
    n_train, n_validation, epochs = 60, 30, 2
    lam, gamma, learning_rate = 0.5, 0.1, 0.001

    def __init__(self, seed):
        self.seed = seed
        self.work = os.path.join(WORK_DIR, self.name)
        self.paths = {name: os.path.join(self.work, f"{name}.txt")
                      for name in ("vocab", "train", "validation")}
        self.bundle = os.path.join(self.work, "model")

    def prepare(self):
        os.makedirs(self.work, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        topics = inputs.draw_topics(rng)
        inputs.write_vocabulary(self.paths["vocab"])
        inputs.write_corpus(self.paths["train"], *inputs.sample_docs(rng, topics, self.n_train))
        inputs.write_corpus(self.paths["validation"],
                            *inputs.sample_docs(rng, topics, self.n_validation))
        self.source_W = inputs.topic_weights(topics)

    def setup(self):
        vocabulary = corpus.Vocabulary.load(self.paths["vocab"])
        train = corpus.load_corpus_file(self.paths["train"], vocabulary=vocabulary, labeled=True)
        validation = corpus.load_corpus_file(self.paths["validation"], vocabulary=vocabulary,
                                             labeled=True, split="validation")
        h, k = self.source_W.shape
        source = model.ModelParams(self.source_W, self.source_W.T.copy(), np.zeros(k),
                                   np.zeros(h))
        kb = transfer.build_kb(source, vocabulary, "src")
        spec = transfer.TransferSpec([transfer.SourceWeight("src", self.lam, self.gamma)],
                                     lvt_enabled=True, gvt_enabled=True)
        ctx = transfer.make_transfer_context([kb], vocabulary, spec, h)
        _warm_up(k, h, validation, ctx)
        return train, validation, ctx

    def clear(self):
        shutil.rmtree(self.bundle, ignore_errors=True)

    def op(self, state):
        train, validation, ctx = state
        config = model.TrainConfig(learning_rate=self.learning_rate, epochs=self.epochs,
                                   seed=self.seed, n_topics=inputs.N_TOPICS)
        t0 = time.perf_counter()
        params, stats = model.train(train, config, ctx, validation)
        t1 = time.perf_counter()
        model.save_model(params, train.vocabulary, self.bundle, seed=self.seed,
                         lvt_matrix=ctx.lvt_matrix)
        t2 = time.perf_counter()
        sgd_tokens = len(stats) * sum(len(doc) for doc in train.documents)
        stages = {"train_tokens_per_s": sgd_tokens / (t1 - t0), "save_model_s": t2 - t1}
        return (params, stats, ctx), stages

    def digest(self, result):
        params, stats, _ = result
        h = hashlib.sha256(params.W.tobytes() + params.U.tobytes())
        return {"W_U": h.hexdigest(), "validation_ppl": repr(stats[-1].validation_ppl),
                "bundle": tree_digest(self.bundle)}

    def check(self, result):
        params, stats, ctx = result
        W, U, b, c, lvt, tokens = oracle.read_bundle(self.bundle)
        problems = []
        for name, saved, trained in (("W", W, params.W), ("U", U, params.U),
                                     ("lvt", lvt, ctx.lvt_matrix)):
            if not np.array_equal(saved, trained):
                problems.append(f"saved {name} differs from the trained {name}")
        _, validation = oracle.encode(*oracle.read_corpus(self.paths["validation"]), tokens)
        problems += oracle.check_close(
            "best validation ppl", min(s.validation_ppl for s in stats),
            oracle.perplexity(W, U, b, c, lvt, validation), rtol=oracle.PPL_RTOL)
        return problems


class EvalLarge:
    """Paper-scale evaluation of a fixed H=200, K=2000 bundle, as ``topicxfer eval`` does."""

    name = "eval-large"
    n_pool, n_test, n_reference = 2000, 200, 200

    def __init__(self, seed):
        self.seed = seed
        self.work = os.path.join(WORK_DIR, self.name)
        self.paths = {name: os.path.join(self.work, f"{name}.txt")
                      for name in ("pool", "test", "reference")}
        self.bundle = os.path.join(self.work, "model")

    def prepare(self):
        os.makedirs(self.work, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        topics = inputs.draw_topics(rng)
        pool_labels, pool = inputs.sample_docs(rng, topics, self.n_pool)
        inputs.write_corpus(self.paths["pool"], pool_labels, pool)
        inputs.write_corpus(self.paths["test"], *inputs.sample_docs(rng, topics, self.n_test))
        inputs.write_corpus(self.paths["reference"], pool_labels[:self.n_reference],
                            pool[:self.n_reference])
        # the fixed bundle is written by the program, so it follows the program's format
        W = inputs.topic_weights(topics)
        marginal = topics.mean(axis=0)
        params = model.ModelParams(W, W.T.copy(), np.log(marginal / marginal.sum()),
                                   np.zeros(W.shape[0]))
        shutil.rmtree(self.bundle, ignore_errors=True)
        model.save_model(params, corpus.Vocabulary(inputs.TOKENS), self.bundle, seed=self.seed)

    def setup(self):
        vocabulary = corpus.Vocabulary.load(os.path.join(self.bundle, "vocab.txt"))
        test = corpus.load_corpus_file(self.paths["test"], vocabulary=vocabulary,
                                       labeled=True, split="test")
        pool = corpus.load_corpus_file(self.paths["pool"], vocabulary=vocabulary, labeled=True)
        reference = corpus.load_corpus_file(self.paths["reference"], labeled=True)
        _warm_up(len(vocabulary), inputs.N_TOPICS, test)
        return test, pool, reference

    def clear(self):
        pass

    def op(self, state):
        test, pool, reference = state
        t0 = time.perf_counter()
        params, vocabulary, _, lvt = model.load_model(self.bundle)
        ctx = transfer.InferenceContext(lvt) if lvt is not None else None
        t1 = time.perf_counter()
        ppl = evaluate.perplexity(params, test, ctx)
        t2 = time.perf_counter()
        topics = evaluate.all_topics(params, vocabulary, evaluate.DEFAULT_TOP_N)
        coh = evaluate.coherence(topics, reference)
        t3 = time.perf_counter()
        ir = evaluate.retrieval_precision(pool, test, evaluate.model_vector_fn(params, ctx))
        t4 = time.perf_counter()
        stages = {"load_model_s": t1 - t0, "ppl_docs_per_s": len(test) / (t2 - t1),
                  "coh_ref_docs_per_s": len(reference) / (t3 - t2),
                  "ir_queries_per_s": len(test) / (t4 - t3), "eval_s": t4 - t0}
        return (ppl, coh, ir), stages

    def digest(self, result):
        ppl, coh, ir = result
        return {"ppl": repr(ppl), "coh": repr(coh), "ir": repr(ir)}

    def check(self, result):
        ppl, coh, ir = result
        W, U, b, c, lvt, tokens = oracle.read_bundle(self.bundle)
        pool_labels, pool = oracle.encode(*oracle.read_corpus(self.paths["pool"]), tokens)
        test_labels, test = oracle.encode(*oracle.read_corpus(self.paths["test"]), tokens)
        _, reference = oracle.read_corpus(self.paths["reference"])
        problems = oracle.check_close("ppl", ppl, oracle.perplexity(W, U, b, c, lvt, test),
                                      rtol=oracle.PPL_RTOL)
        topics = oracle.top_words(W, tokens, evaluate.DEFAULT_TOP_N)
        problems += oracle.check_close(
            "coh", coh, oracle.coherence(topics, reference, evaluate.DEFAULT_WINDOW),
            atol=oracle.COH_ATOL)
        fractions = list(evaluate.DEFAULT_FRACTIONS)
        problems += oracle.compare_ir(
            ir, oracle.retrieval_precision(W, c, lvt, pool, pool_labels, test, test_labels,
                                           fractions),
            fractions, len(pool), len(test))
        return problems


WORKLOADS = {w.name: w for w in (PipelineSmall, TrainMVT, EvalLarge)}
