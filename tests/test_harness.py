import os

import numpy as np
import pytest

from topicxfer.corpus import Vocabulary, load_corpus_file, write_corpus_file
from topicxfer.errors import ConfigError, CorpusError
from topicxfer.evaluate import EvalReport, perplexity
from topicxfer.harness import (MODE_VIEWS, MODES, ExperimentConfig, SourceConfig,
                               _fingerprint, candidate_grid, grid_search, parse_config,
                               run_experiment, transfer_context)
from topicxfer.model import TrainConfig, init_params, train
from topicxfer.synthetic import SyntheticSpec, generate_synthetic
from topicxfer.transfer import KnowledgeBase, TransferContext, build_kb, save_kb


def small_family(tmp_path, seed=1):
    spec = SyntheticSpec(n_topics=3, vocab_size=40, source_docs=60,
                         target_train_docs=18, target_validation_docs=8,
                         target_test_docs=10, source_len=(15, 25),
                         target_len=(5, 9), seed=seed)
    source, (tr, va, te) = generate_synthetic(spec)
    paths = {}
    for name, corpus in (("source", source), ("train", tr),
                         ("validation", va), ("test", te)):
        path = tmp_path / f"{name}.txt"
        write_corpus_file(corpus, path)
        paths[name] = str(path)
    return paths


def base_kwargs(paths, epochs=4, lr=0.05, seed=3):
    return dict(
        target_train=paths["train"], target_validation=paths["validation"],
        target_test=paths["test"], labeled=True,
        train=TrainConfig(learning_rate=lr, epochs=epochs, seed=seed, n_topics=3),
        eval_fractions=[0.1, 0.5], coherence_window=8, coherence_top_n=4)


# ----------------------------------------------------------------- config file

def test_parse_config_full(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# a comment\n"
        "mode = mvt\n"
        "target.train = tr.txt\n"
        "target.validation = va.txt\n"
        "target.test = te.txt\n"
        "labeled = true\n"
        "out = outdir\n"
        "epochs = 12\n"
        "learning_rate = 0.02\n"
        "seed = 9\n"
        "topics = 5\n"
        "activation = tanh\n"
        "min_freq = 2\n"
        "max_vocab = 500\n"
        "lambda_grid = 0.1 0.5\n"
        "gamma_grid = 0.01\n"
        "eval_fractions = 0.02 0.1\n"
        "coherence_window = 20\n"
        "coherence_top_n = 5\n"
        "gvt_mask_oov = true\n"
        "source.s1.corpus = src1.txt\n"
        "source.s1.lambda = 0.9\n"
        "source.s2.kb = kబdir\n")
    cfg = parse_config(path)
    assert cfg.mode == "mvt"
    assert cfg.train.epochs == 12
    assert cfg.train.learning_rate == 0.02
    assert cfg.train.n_topics == 5
    assert cfg.train.activation == "tanh"
    assert cfg.min_freq == 2 and cfg.max_vocab == 500
    assert cfg.lambda_grid == [0.1, 0.5]
    assert cfg.gamma_grid == [0.01]
    assert cfg.eval_fractions == [0.02, 0.1]
    assert cfg.gvt_mask_oov is True
    assert [s.source_id for s in cfg.sources] == ["s1", "s2"]
    assert cfg.sources[0].lam_override == 0.9
    assert cfg.sources[1].kb_path == "kబdir"


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mode = baseline\ntarget.train = a\ntarget.test = b\n"
                    "out = o\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(path)


def test_parse_config_malformed_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mode = baseline\ntarget.train a\n")
    with pytest.raises(ConfigError, match=r"exp\.cfg: line 2"):
        parse_config(path)


@pytest.mark.parametrize("line, key", [
    ("epochs = abc", "epochs"),
    ("lambda_grid = 0.1 x", "lambda_grid"),
    ("source.s1.lambda = x", "source.s1.lambda"),
    ("labeled = maybe", "labeled"),
], ids=["int", "float-list", "source-weight", "bool"])
def test_parse_config_bad_value_names_file_and_key(tmp_path, line, key):
    path = tmp_path / "exp.cfg"
    path.write_text("mode = baseline\ntarget.train = a\ntarget.test = b\nout = o\n"
                    f"source.s1.corpus = c\n{line}\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    message = str(info.value)
    assert message.startswith(f"{path}: {key}: ") and "\n" not in message


def test_parse_config_rejects_momentum(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mode = baseline\ntarget.train = a\ntarget.test = b\n"
                    "out = o\nmomentum = 0.5\n")
    with pytest.raises(ConfigError, match="unknown config key 'momentum'"):
        parse_config(path)


def test_fingerprint_is_stable():
    # a change here changes the fingerprint= line of every experiment report
    config = ExperimentConfig(
        mode="baseline", target_train="t.txt", target_test="s.txt", out_dir="o",
        train=TrainConfig(learning_rate=0.01, epochs=20, seed=100, n_topics=3))
    assert _fingerprint(config, None) == "585b620d7871ba71"


def test_fingerprint_names_the_data_of_each_weighted_source():
    ctx = TransferContext(np.zeros((3, 4)), lvt_weights={"s1": 0.5},
                          gvt={"s1": (0.1, np.zeros((3, 4)), None)})

    def fingerprint(source):
        return _fingerprint(ExperimentConfig(
            mode="mvt", target_train="t.txt", target_validation="v.txt", target_test="s.txt",
            out_dir="o", sources=[source]), ctx)

    prints = {fingerprint(SourceConfig("s1", corpus_path="news.txt")),
              fingerprint(SourceConfig("s1", corpus_path="wiki.txt")),
              fingerprint(SourceConfig("s1", kb_path="news.txt"))}
    assert len(prints) == 3
    assert fingerprint(SourceConfig("s1", corpus_path="news.txt")) in prints


def test_parse_config_missing_required(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mode = baseline\ntarget.train = a\nout = o\n")
    with pytest.raises(ConfigError, match="target.test"):
        parse_config(path)


def test_config_mode_validation(tmp_path):
    with pytest.raises(ConfigError, match="source"):
        ExperimentConfig(mode="lvt", target_train="a", target_test="b",
                         target_validation="v", out_dir="o")
    with pytest.raises(ConfigError, match="validation"):
        ExperimentConfig(mode="gvt", target_train="a", target_test="b", out_dir="o",
                         sources=[SourceConfig("s", corpus_path="c")])
    with pytest.raises(ConfigError, match="unknown mode"):
        ExperimentConfig(mode="wat", target_train="a", target_test="b", out_dir="o")


@pytest.mark.parametrize("source_id", ["a/b", "a b", ""])
def test_source_config_rejects_source_id_that_is_not_one_file_name_token(source_id):
    with pytest.raises(ConfigError, match=f"source id {source_id!r} must be"):
        SourceConfig(source_id, corpus_path="c")


# ----------------------------------------------------------------- experiments

def test_baseline_no_learning_matches_fresh_init(tmp_path):
    paths = small_family(tmp_path)
    cfg = ExperimentConfig(mode="baseline", out_dir=str(tmp_path / "out"),
                           **base_kwargs(paths, epochs=1, lr=0.0, seed=5))
    report = run_experiment(cfg)
    train_corpus = load_corpus_file(paths["train"], labeled=True)
    fresh = init_params(3, len(train_corpus.vocabulary), seed=5)
    test = load_corpus_file(paths["test"], vocabulary=train_corpus.vocabulary,
                            labeled=True)
    assert report.ppl == pytest.approx(perplexity(fresh, test), rel=1e-12)


def test_mvt_all_zero_weights_reduces_to_baseline(tmp_path):
    paths = small_family(tmp_path)
    base = run_experiment(ExperimentConfig(
        mode="baseline", out_dir=str(tmp_path / "base"), **base_kwargs(paths)))
    mvt = run_experiment(ExperimentConfig(
        mode="mvt", out_dir=str(tmp_path / "mvt"),
        sources=[SourceConfig("s1", corpus_path=paths["source"])],
        lambda_grid=[0.0], gamma_grid=[0.0], **base_kwargs(paths)))
    base_bytes = (tmp_path / "base" / "report.txt").read_bytes()
    mvt_bytes = (tmp_path / "mvt" / "report.txt").read_bytes()
    assert base_bytes == mvt_bytes


def test_experiment_reruns_are_byte_identical(tmp_path):
    paths = small_family(tmp_path)
    kwargs = base_kwargs(paths)
    src = [SourceConfig("s1", corpus_path=paths["source"])]
    run_experiment(ExperimentConfig(mode="gvt", out_dir=str(tmp_path / "a"),
                                    sources=src, gamma_grid=[0.05], **kwargs))
    run_experiment(ExperimentConfig(mode="gvt", out_dir=str(tmp_path / "b"),
                                    sources=src, gamma_grid=[0.05], **kwargs))
    for name in ("report.txt", "train_log.txt", "selection.txt",
                 os.path.join("model", "W.mat"), os.path.join("model", "U.mat"),
                 os.path.join("model", "b.mat"), os.path.join("model", "c.mat"),
                 os.path.join("model", "A.s1.mat")):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_zero_shot_never_trains_on_target(tmp_path):
    paths = small_family(tmp_path)
    run_experiment(ExperimentConfig(
        mode="zero-shot", out_dir=str(tmp_path / "zs"),
        sources=[SourceConfig("s1", corpus_path=paths["source"])],
        **base_kwargs(paths)))
    audit = (tmp_path / "zs" / "ingestion.txt").read_text().splitlines()
    train_lines = [line for line in audit if line.startswith("train ")]
    assert not any("target_train" in line for line in train_lines)
    assert any("source:s1" in line for line in train_lines)


def test_data_augment_train_size_is_sum_of_parts(tmp_path):
    paths = small_family(tmp_path)
    run_experiment(ExperimentConfig(
        mode="data-augment", out_dir=str(tmp_path / "da"),
        sources=[SourceConfig("s1", corpus_path=paths["source"])],
        **base_kwargs(paths)))
    audit = dict()
    for line in (tmp_path / "da" / "ingestion.txt").read_text().splitlines():
        role, name, count = line.rsplit(" ", 2)[0], line.split()[1], int(line.split()[2])
        if line.startswith("train "):
            audit[name] = count
    assert audit["total"] == audit["source:s1"] + audit["target_train"]


def test_union_part_counts_match_saved_vocabulary(tmp_path):
    paths = small_family(tmp_path)
    (tmp_path / "other").mkdir()
    other = small_family(tmp_path / "other", seed=2)
    kwargs = base_kwargs(paths)
    kwargs["coherence_top_n"] = 3
    out = tmp_path / "da"
    # min_freq 195 keeps 3 words, so every part loses whole documents
    run_experiment(ExperimentConfig(
        mode="data-augment", out_dir=str(out), min_freq=195,
        sources=[SourceConfig("s1", corpus_path=paths["source"]),
                 SourceConfig("s2", corpus_path=other["source"])], **kwargs))
    audit = {}
    for line in (out / "ingestion.txt").read_text().splitlines():
        role, name, count = line.split()
        if role == "train":
            audit[name] = int(count)
    vocabulary = Vocabulary.load(out / "model" / "vocab.txt")
    parts = {"source:s1": paths["source"], "source:s2": other["source"],
             "target_train": paths["train"]}
    for name, path in parts.items():
        encoded = load_corpus_file(path, vocabulary=vocabulary, labeled=True)
        assert encoded.docs_dropped > 0
        assert audit[name] == len(encoded), name
    assert audit["total"] == sum(audit[name] for name in parts)


def test_zero_shot_rejects_kb_sources(tmp_path):
    paths = small_family(tmp_path)
    with pytest.raises(ConfigError, match="corpus"):
        ExperimentConfig(mode="zero-shot", out_dir=str(tmp_path / "zs"),
                         sources=[SourceConfig("s1", kb_path="anywhere")],
                         **base_kwargs(paths))


def test_union_vocabulary_overflow_is_error(tmp_path):
    paths = small_family(tmp_path)
    kwargs = base_kwargs(paths)
    cfg = ExperimentConfig(mode="zero-shot", out_dir=str(tmp_path / "zs"),
                           sources=[SourceConfig("s1", corpus_path=paths["source"])],
                           max_vocab=5, **kwargs)
    with pytest.raises(ConfigError, match="union"):
        run_experiment(cfg)


def test_experiment_with_prebuilt_kb(tmp_path):
    paths = small_family(tmp_path)
    source_corpus = load_corpus_file(paths["source"], labeled=True)
    params, _ = train(source_corpus, TrainConfig(learning_rate=0.05, epochs=3,
                                                 seed=1, n_topics=3))
    kb = build_kb(params, source_corpus.vocabulary, "pre")
    save_kb(kb, tmp_path / "kb")
    report = run_experiment(ExperimentConfig(
        mode="lvt", out_dir=str(tmp_path / "out"),
        sources=[SourceConfig("pre", kb_path=str(tmp_path / "kb"))],
        lambda_grid=[0.5], **base_kwargs(paths)))
    assert report.ppl > 1.0
    assert (tmp_path / "out" / "model" / "lvt.mat").exists()


def test_prebuilt_kb_is_used_under_its_config_source_id(tmp_path):
    # the bundle was saved as 'news'; the config names it 'ext', as --kb ext=DIR would
    paths = small_family(tmp_path)
    source_corpus = load_corpus_file(paths["source"], labeled=True)
    params, _ = train(source_corpus, TrainConfig(learning_rate=0.05, epochs=2,
                                                 seed=1, n_topics=3))
    save_kb(build_kb(params, source_corpus.vocabulary, "news"), tmp_path / "kb")
    run_experiment(ExperimentConfig(
        mode="mvt", out_dir=str(tmp_path / "out"),
        sources=[SourceConfig("ext", kb_path=str(tmp_path / "kb"))],
        lambda_grid=[0.5], gamma_grid=[0.1], **base_kwargs(paths)))
    assert (tmp_path / "out" / "model" / "A.ext.mat").exists()
    assert "residual.ext" in (tmp_path / "out" / "train_log.txt").read_text()


# ----------------------------------------------------------------- grid search

def test_grid_candidates_by_mode(tmp_path):
    paths = small_family(tmp_path)
    kwargs = base_kwargs(paths)
    src = [SourceConfig("s1", corpus_path=paths["source"])]
    expected = {"baseline": [], "lvt": [(0.1, 0.0), (0.5, 0.0)],
                "gvt": [(0.0, 0.01), (0.0, 0.02)],
                "mvt": [(0.1, 0.01), (0.1, 0.02), (0.5, 0.01), (0.5, 0.02)],
                "zero-shot": [], "data-augment": []}
    assert tuple(expected) == MODES
    for mode, grid in expected.items():
        cfg = ExperimentConfig(mode=mode, out_dir="o", sources=src, lambda_grid=[0.1, 0.5],
                               gamma_grid=[0.01, 0.02], **kwargs)
        assert candidate_grid(cfg) == grid, mode


def test_transfer_context_turns_off_views_without_weight():
    rng = np.random.default_rng(0)
    vocab = Vocabulary(["a", "b", "c"])
    kb = KnowledgeBase("s", vocab, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    for mode in MODE_VIEWS:
        assert transfer_context([kb], vocab, mode, [("s", 0.0, 0.0)], 2) is None
    # a view the mode does not use stays off whatever its weight
    assert transfer_context([kb], vocab, "lvt", [("s", 0.0, 0.5)], 2) is None
    ctx = transfer_context([kb], vocab, "gvt", [("s", 0.5, 0.25)], 2, gvt_mask_oov=True)
    assert (ctx.lvt_weights, ctx.gvt_weights, ctx.lvt_matrix) == ({}, {"s": 0.25}, None)
    np.testing.assert_array_equal(ctx.gvt["s"][2], ~ctx.projected["s"].covered)
    ctx = transfer_context([kb], vocab, "mvt", [("s", 0.5, 0.0)], 2)
    assert (ctx.lvt_weights, ctx.gvt_weights) == ({"s": 0.5}, {})
    with pytest.raises(ConfigError, match="lambda and gamma must be finite"):
        transfer_context([kb], vocab, "mvt", [("s", float("nan"), 0.0)], 2)


def test_grid_search_single_candidate(tmp_path):
    paths = small_family(tmp_path)
    cfg = ExperimentConfig(mode="gvt", out_dir="o",
                           sources=[SourceConfig("s1", corpus_path=paths["source"])],
                           gamma_grid=[0.02], **base_kwargs(paths))
    train_corpus = load_corpus_file(paths["train"], labeled=True)
    validation = load_corpus_file(paths["validation"],
                                  vocabulary=train_corpus.vocabulary, labeled=True)
    source_corpus = load_corpus_file(paths["source"], labeled=True)
    params, _ = train(source_corpus, cfg.train)
    kbs = [build_kb(params, source_corpus.vocabulary, "s1")]
    best, table, *_ = grid_search(train_corpus, validation, kbs, cfg, [(0.0, 0.02)])
    assert best == 0
    assert len(table) == 1
    assert np.isfinite(table[0][2])


def test_grid_search_rejects_distorting_gamma(tmp_path):
    # imitating large random topics saturates the hidden units and provably
    # hurts held-out likelihood once the plain model has learned; the grid
    # must pick gamma=0 (the two training runs are their own oracle)
    spec = SyntheticSpec(n_topics=3, vocab_size=30, source_docs=80,
                         target_train_docs=10, target_validation_docs=15,
                         target_test_docs=10, source_len=(15, 25),
                         target_len=(10, 15), seed=2,
                         mixture_concentration=0.05, word_concentration=0.02)
    source, (_, va, _) = generate_synthetic(spec)
    write_corpus_file(source, tmp_path / "source.txt")
    write_corpus_file(va, tmp_path / "validation.txt")
    train_corpus = load_corpus_file(tmp_path / "source.txt", labeled=True)
    validation = load_corpus_file(tmp_path / "validation.txt",
                                  vocabulary=train_corpus.vocabulary, labeled=True)
    cfg = ExperimentConfig(
        mode="gvt", out_dir="o",
        sources=[SourceConfig("noise", corpus_path=str(tmp_path / "source.txt"))],
        gamma_grid=[0.0, 10.0],
        target_train=str(tmp_path / "source.txt"),
        target_validation=str(tmp_path / "validation.txt"),
        target_test=str(tmp_path / "source.txt"), labeled=True,
        train=TrainConfig(learning_rate=1e-3, epochs=120, seed=3, n_topics=3))
    k = len(train_corpus.vocabulary)
    noise_rng = np.random.default_rng(20240817)
    noise = KnowledgeBase("noise", train_corpus.vocabulary,
                          noise_rng.normal(size=(3, k)),
                          noise_rng.normal(scale=5.0, size=(3, k)))
    best, table, *_ = grid_search(train_corpus, validation, [noise], cfg,
                                  [(0.0, 0.0), (0.0, 10.0)])
    assert best == 0
    assert table[0][2] < table[1][2]
    assert min(row[2] for row in table) == table[best][2]


def test_grid_search_empty_candidates(tmp_path):
    paths = small_family(tmp_path)
    cfg = ExperimentConfig(mode="gvt", out_dir="o",
                           sources=[SourceConfig("s1", corpus_path=paths["source"])],
                           **base_kwargs(paths))
    train_corpus = load_corpus_file(paths["train"], labeled=True)
    with pytest.raises(ConfigError, match="candidate"):
        grid_search(train_corpus, train_corpus, [], cfg, [])


# ----------------------------------------------------------------- reports

def test_experiment_report_roundtrips(tmp_path):
    paths = small_family(tmp_path)
    report = run_experiment(ExperimentConfig(
        mode="baseline", out_dir=str(tmp_path / "out"), **base_kwargs(paths)))
    loaded = EvalReport.load(tmp_path / "out" / "report.txt")
    assert loaded.ppl == report.ppl
    assert loaded.coh == report.coh
    assert loaded.ir == report.ir
    assert loaded.fingerprint == report.fingerprint


def test_unlabeled_experiment_skips_retrieval(tmp_path):
    spec = SyntheticSpec(n_topics=2, vocab_size=25, source_docs=10,
                         target_train_docs=10, target_validation_docs=4,
                         target_test_docs=5, source_len=(6, 10), target_len=(4, 7),
                         seed=9)
    _, (tr, va, te) = generate_synthetic(spec)
    paths = {}
    for name, corpus in (("train", tr), ("validation", va), ("test", te)):
        corpus.label_names = None
        for doc in corpus.documents:
            doc.label = None
        path = tmp_path / f"{name}.txt"
        write_corpus_file(corpus, path)
        paths[name] = str(path)
    report = run_experiment(ExperimentConfig(
        mode="baseline", target_train=paths["train"],
        target_validation=paths["validation"], target_test=paths["test"],
        labeled=False, out_dir=str(tmp_path / "out"),
        train=TrainConfig(learning_rate=0.05, epochs=2, seed=1, n_topics=2),
        coherence_window=6, coherence_top_n=3))
    assert report.ir == []
    loaded = EvalReport.load(tmp_path / "out" / "report.txt")
    assert loaded.ir == []
    assert loaded.ppl == report.ppl


def test_errors_carry_stage_context(tmp_path):
    paths = small_family(tmp_path)
    cfg = ExperimentConfig(mode="gvt", out_dir=str(tmp_path / "out"),
                           sources=[SourceConfig("s1", corpus_path="/nonexistent.txt")],
                           gamma_grid=[0.05], **base_kwargs(paths))
    with pytest.raises(CorpusError, match="knowledge base 's1'"):
        run_experiment(cfg)


def test_per_source_override_pins_weight_across_grid(tmp_path):
    paths = small_family(tmp_path)
    kwargs = base_kwargs(paths)
    src = [SourceConfig("s1", corpus_path=paths["source"], lam_override=0.5)]
    cfg = ExperimentConfig(mode="lvt", out_dir=str(tmp_path / "out"), sources=src,
                           lambda_grid=[0.1, 1.0], **kwargs)
    run_experiment(cfg)
    lines = (tmp_path / "out" / "selection.txt").read_text().splitlines()
    # both grid candidates trained the same pinned model
    ppls = [line.split()[-1] for line in lines if line.startswith("candidate")]
    assert len(ppls) == 2
    assert ppls[0] == ppls[1]
    assert lines[-1] == "selected 0"


def test_multi_source_with_embedding_only_kb(tmp_path):
    # one corpus-backed source plus an external embedding-only KB; the
    # embedding KB is held out of the alignment penalty via a per-source
    # gamma override
    paths = small_family(tmp_path)
    train_corpus = load_corpus_file(paths["train"], labeled=True)
    lines = []
    rng = np.random.default_rng(5)
    for tok in list(train_corpus.vocabulary)[:20]:
        vec = " ".join(f"{v:.4f}" for v in rng.normal(size=3))
        lines.append(f"{tok} {vec}")
    (tmp_path / "vectors.txt").write_text("\n".join(lines) + "\n")
    from topicxfer.transfer import load_embeddings_text, save_kb as save
    ext = load_embeddings_text(tmp_path / "vectors.txt", "ext")
    save(ext, tmp_path / "kb.ext")

    cfg = ExperimentConfig(
        mode="mvt", out_dir=str(tmp_path / "out"),
        sources=[SourceConfig("s1", corpus_path=paths["source"]),
                 SourceConfig("ext", kb_path=str(tmp_path / "kb.ext"),
                              gamma_override=0.0)],
        lambda_grid=[0.5], gamma_grid=[0.1], **base_kwargs(paths))
    report = run_experiment(cfg)
    assert report.ppl > 1.0
    model_dir = tmp_path / "out" / "model"
    assert (model_dir / "A.s1.mat").exists()
    assert not (model_dir / "A.ext.mat").exists()
    assert (model_dir / "lvt.mat").exists()


def test_zero_gamma_source_leaves_no_global_view_trace(tmp_path):
    paths = small_family(tmp_path)
    kwargs = base_kwargs(paths)
    sources = [SourceConfig("s1", corpus_path=paths["source"]),
               SourceConfig("s2", corpus_path=paths["source"], gamma_override=0.0)]
    run_experiment(ExperimentConfig(mode="mvt", out_dir=str(tmp_path / "mvt"),
                                    sources=sources, lambda_grid=[0.5], gamma_grid=[0.1],
                                    **kwargs))
    assert (tmp_path / "mvt" / "model" / "A.s1.mat").exists()
    assert not (tmp_path / "mvt" / "model" / "A.s2.mat").exists()
    log = (tmp_path / "mvt" / "train_log.txt").read_text()
    assert "residual.s1" in log and "residual.s2" not in log

    # a gvt run whose gammas are all zero trains the baseline model, whatever
    # lambda a source pins
    base = run_experiment(ExperimentConfig(mode="baseline", out_dir=str(tmp_path / "base"),
                                           **kwargs))
    gvt = run_experiment(ExperimentConfig(
        mode="gvt", out_dir=str(tmp_path / "gvt"), gamma_grid=[0.0],
        sources=[SourceConfig("s1", corpus_path=paths["source"], lam_override=0.5)],
        **kwargs))
    assert gvt.fingerprint == base.fingerprint
