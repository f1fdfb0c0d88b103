import pytest

from conftest import command_flags
from topicxfer import cli, harness
from topicxfer.cli import build_parser, main
from topicxfer.corpus import load_corpus_file
from topicxfer.evaluate import EvalReport
from topicxfer.transfer import load_embeddings_text, save_kb


@pytest.fixture
def family(tmp_path):
    out = tmp_path / "data"
    rc = main(["synth", "--out", str(out), "--seed", "4", "--vocab", "40",
               "--topics", "3", "--source-docs", "40", "--target-docs", "15",
               "--target-validation-docs", "6", "--target-test-docs", "8",
               "--source-len-min", "12", "--source-len-max", "20"])
    assert rc == 0
    return out


def train_small(tmp_path, family, name="model", extra=()):
    out = tmp_path / name
    rc = main(["train", "--train", str(family / "train.txt"), "--labeled",
               "--epochs", "3", "--learning-rate", "0.05", "--topics", "3",
               "--seed", "1", "--out", str(out), *extra])
    assert rc == 0
    return out


def test_synth_writes_four_corpora(family):
    for name in ("source.txt", "train.txt", "validation.txt", "test.txt"):
        assert (family / name).exists()


def test_train_writes_bundle(tmp_path, family):
    out = train_small(tmp_path, family)
    for name in ("meta.txt", "vocab.txt", "W.mat", "U.mat", "b.mat", "c.mat"):
        assert (out / name).exists()


def test_topics_prints_expected_lines(tmp_path, family, capsys):
    model = train_small(tmp_path, family)
    capsys.readouterr()
    rc = main(["topics", "--model", str(model), "--n", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for j, line in enumerate(lines):
        assert line.startswith(f"topic {j}: ")
        assert len(line.split(": ", 1)[1].split()) == 5


def test_nn_prints_n_neighbors(tmp_path, family, capsys):
    model = train_small(tmp_path, family)
    word = (model / "vocab.txt").read_text().splitlines()[0]
    capsys.readouterr()
    rc = main(["nn", "--model", str(model), "--word", word, "--n", "5"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    assert word not in out


def test_nn_unknown_word_fails_with_diagnostic(tmp_path, family, capsys):
    model = train_small(tmp_path, family)
    rc = main(["nn", "--model", str(model), "--word", "notaword", "--n", "3"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_build_kb_and_transfer_train(tmp_path, family, capsys):
    src_model = tmp_path / "src_model"
    rc = main(["train", "--train", str(family / "source.txt"), "--labeled",
               "--epochs", "3", "--learning-rate", "0.05", "--topics", "3",
               "--seed", "2", "--out", str(src_model)])
    assert rc == 0
    kb = tmp_path / "kb"
    assert main(["build-kb", "--model", str(src_model), "--source-id", "s1",
                 "--out", str(kb)]) == 0
    assert (kb / "E.mat").exists() and (kb / "Z.mat").exists()
    out = tmp_path / "xfer"
    rc = main(["transfer-train", "--train", str(family / "train.txt"), "--labeled",
               "--kb", f"s1={kb}", "--mode", "mvt", "--lam", "0.5", "--gamma",
               "0.01", "--epochs", "3", "--learning-rate", "0.05", "--topics", "3",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "A.s1.mat").exists()
    assert (out / "lvt.mat").exists()


def test_experiment_and_transfer_train_write_the_same_bundle(tmp_path, family):
    # one path from mode and sources to a context: a KB saved as 'news' and
    # named 'ext' by the config or by --kb trains the same model at one weight
    src_model = train_small(tmp_path, family, "src_model")
    kb = tmp_path / "kb"
    assert main(["build-kb", "--model", str(src_model), "--source-id", "news",
                 "--out", str(kb)]) == 0
    common = {"epochs": "3", "learning_rate": "0.05", "topics": "3", "seed": "1"}
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "expout"
    cfg.write_text(
        f"mode = mvt\ntarget.train = {family / 'train.txt'}\n"
        f"target.validation = {family / 'validation.txt'}\n"
        f"target.test = {family / 'test.txt'}\nlabeled = true\nout = {out}\n"
        f"lambda_grid = 0.5\ngamma_grid = 0.05\nsource.ext.kb = {kb}\n"
        + "".join(f"{key} = {value}\n" for key, value in common.items()))
    assert main(["experiment", "--config", str(cfg)]) == 0
    model = tmp_path / "xfer"
    flags = [arg for key, value in common.items()
             for arg in (f"--{key.replace('_', '-')}", value)]
    assert main(["transfer-train", "--train", str(family / "train.txt"),
                 "--validation", str(family / "validation.txt"), "--labeled",
                 "--kb", f"ext={kb}", "--mode", "mvt", "--lam", "0.5", "--gamma", "0.05",
                 *flags, "--out", str(model)]) == 0
    names = sorted(p.name for p in model.iterdir())
    assert "A.ext.mat" in names and "lvt.mat" in names
    assert sorted(p.name for p in (out / "model").iterdir()) == names
    for name in names:
        assert (out / "model" / name).read_bytes() == (model / name).read_bytes(), name


@pytest.mark.parametrize("args", [
    ["eval", "--window", "1"],
    ["eval", "--top-n", "1"],
    ["eval", "--fractions", "0 0.5"],
    ["topics", "--n", "0"],
    ["nn", "--n", "0"],
], ids=["eval-window", "eval-top-n", "eval-fractions", "topics-n", "nn-n"])
def test_argument_error_is_single_line(tmp_path, family, capsys, args):
    model = train_small(tmp_path, family)
    word = (model / "vocab.txt").read_text().splitlines()[0]
    needs = {"eval": ["--test", str(family / "test.txt"), "--train",
                      str(family / "train.txt"), "--labeled"],
             "topics": [], "nn": ["--word", word]}[args[0]]
    capsys.readouterr()
    rc = main([*args, "--model", str(model), *needs])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_import_embeddings(tmp_path, capsys):
    vectors = tmp_path / "vecs.txt"
    vectors.write_text("alpha 0.1 0.2 0.3\nbeta 0.4 0.5 0.6\n")
    out = tmp_path / "kb"
    rc = main(["import-embeddings", "--embeddings", str(vectors),
               "--source-id", "ext", "--out", str(out)])
    assert rc == 0
    assert (out / "E.mat").exists()
    assert not (out / "Z.mat").exists()


def test_eval_writes_parseable_report(tmp_path, family, capsys):
    model = train_small(tmp_path, family)
    out = tmp_path / "evalout"
    rc = main(["eval", "--model", str(model), "--test", str(family / "test.txt"),
               "--train", str(family / "train.txt"), "--labeled",
               "--window", "8", "--top-n", "4", "--fractions", "0.1 0.5",
               "--out", str(out)])
    assert rc == 0
    report = EvalReport.load(out / "report.txt")
    assert report.ppl > 1.0
    assert [f for f, _ in report.ir] == [0.1, 0.5]


def test_experiment_subcommand_roundtrip(tmp_path, family, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "expout"
    cfg.write_text(
        f"mode = gvt\n"
        f"target.train = {family / 'train.txt'}\n"
        f"target.validation = {family / 'validation.txt'}\n"
        f"target.test = {family / 'test.txt'}\n"
        f"labeled = true\n"
        f"out = {out}\n"
        f"epochs = 3\nlearning_rate = 0.05\nseed = 1\ntopics = 3\n"
        f"gamma_grid = 0.05\n"
        f"eval_fractions = 0.1 0.5\n"
        f"coherence_window = 8\ncoherence_top_n = 4\n"
        f"source.s1.corpus = {family / 'source.txt'}\n")
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 0
    report = EvalReport.load(out / "report.txt")
    assert report.ppl > 1.0
    assert (out / "selection.txt").exists()


@pytest.mark.parametrize("kb, where", [("={tmp}/kb", "--kb expects ID=DIR"),
                                       ("s1={tmp}/absent", "{tmp}/absent")],
                         ids=["empty-id", "missing-dir"])
def test_transfer_train_loads_kbs_before_the_target(tmp_path, capsys, kb, where):
    # --train names a missing file too, so only a KB loaded first gives the KB error
    rc = main(["transfer-train", "--train", str(tmp_path / "missing.txt"),
               "--kb", kb.format(tmp=tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert where.format(tmp=tmp_path) in err and "missing.txt" not in err
    assert len(err.splitlines()) == 1


def test_unknown_subcommand_is_nonzero(capsys):
    assert main(["frobnicate"]) != 0


def test_unknown_flag_is_nonzero(capsys):
    assert main(["topics", "--bogus"]) != 0


def test_missing_out_is_single_line_error(tmp_path, family, capsys):
    rc = main(["train", "--train", str(family / "train.txt")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["train", "--train", "absent.txt"],
    ["transfer-train", "--train", "absent.txt", "--kb", "s=absent"],
    ["build-kb", "--model", "absent", "--source-id", "s"],
    ["import-embeddings", "--embeddings", "absent.txt", "--source-id", "s"],
    ["synth"]], ids=lambda argv: argv[0])
def test_missing_out_is_reported_before_any_file_is_read(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {argv[0]} requires --out DIR\n"


def test_config_file_supplies_flag_defaults(tmp_path, family, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("epochs = 2\nlearning_rate = 0.01\ntopics = 3\nlabeled = true\n")
    out = tmp_path / "model"
    rc = main(["train", "--train", str(family / "train.txt"),
               "--config", str(cfg), "--seed", "1", "--out", str(out)])
    assert rc == 0
    meta = dict(line.split("=", 1) for line in
                (out / "meta.txt").read_text().splitlines())
    assert meta["trained_epochs"] == "2"
    # the topic count is W's row count
    assert (out / "W.mat").read_text().split(maxsplit=1)[0] == "3"


@pytest.mark.parametrize("text", [None, "epocs = 2\ntopics = 3\n", "momentum = 0.5\n",
                                  "no_shuffle_words = true\n"],
                         ids=["missing-file", "misspelt-key", "removed-momentum",
                              "renamed-shuffle-key"])
def test_bad_config_is_single_line_error(tmp_path, family, capsys, text):
    cfg = tmp_path / "defaults.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "model"
    rc = main(["train", "--train", str(family / "train.txt"),
               "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_experiment_bad_config_value_is_single_line_error(tmp_path, family, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"mode = baseline\ntarget.train = {family / 'train.txt'}\n"
                   f"target.test = {family / 'test.txt'}\nout = {tmp_path / 'out'}\n"
                   "epochs = abc\n")
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"{cfg}: epochs:" in err


def test_config_shuffle_keys_match_no_shuffle_flags(tmp_path, family):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("shuffle_words = false\nshuffle_docs = false\n")
    from_config = train_small(tmp_path, family, "from_config", ["--config", str(cfg)])
    from_flags = train_small(tmp_path, family, "from_flags",
                             ["--no-shuffle-words", "--no-shuffle-docs"])
    shuffled = train_small(tmp_path, family, "shuffled")
    for name in ("meta.txt", "vocab.txt", "W.mat", "U.mat", "b.mat", "c.mat"):
        assert (from_config / name).read_bytes() == (from_flags / name).read_bytes()
    assert (from_config / "W.mat").read_bytes() != (shuffled / "W.mat").read_bytes()


def test_experiment_range_error_names_file_and_key(tmp_path, family, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"mode = baseline\ntarget.train = {family / 'train.txt'}\n"
                   f"target.test = {family / 'test.txt'}\nout = {tmp_path / 'out'}\n"
                   "topics = 0\n")
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"{cfg}: topics:" in err


@pytest.mark.parametrize("text, key", [
    ("mode = wat\n", "mode"),
    ("mode = gvt\nsource.s1.corpus = s.txt\n", "target.validation"),
    ("mode = lvt\ntarget.validation = v.txt\nlambda_grid =\nsource.s1.corpus = s.txt\n",
     "lambda_grid"),
    ("mode = lvt\ntarget.validation = v.txt\nsource.s1.corpus = s.txt\nsource.s1.kb = kb\n",
     "source.s1"),
    ("mode = lvt\ntarget.validation = v.txt\nsource.s1.lambda = 0.5\n", "source.s1"),
    ("mode = baseline\ncoherence_window = 1\n", "coherence_window"),
    ("mode = baseline\ncoherence_top_n = 1\n", "coherence_top_n"),
    ("mode = baseline\neval_fractions = 0 0.5\n", "eval_fractions"),
    ("mode = baseline\nmin_freq = 0\n", "min_freq"),
    ("mode = baseline\nmax_vocab = 0\n", "max_vocab"),
    ("mode = baseline\nsource..corpus = s.txt\n", "source..corpus"),
    ("mode = lvt\ntarget.validation = v.txt\nsource.a/b.corpus = s.txt\n", "source.a/b.corpus"),
    ("mode = lvt\ntarget.validation = v.txt\nsource.a b.corpus = s.txt\n", "source.a b.corpus"),
    ("mode = zero-shot\nsource.s1.kb = kb\n", "source.s1"),
    ("mode = lvt\ntarget.validation = v.txt\nsource.s1.corpus = s.txt\nlambda_grid = nan\n",
     "lambda_grid"),
    ("mode = lvt\ntarget.validation = v.txt\nsource.s1.corpus = s.txt\nlambda_grid = -1\n",
     "lambda_grid"),
    ("mode = gvt\ntarget.validation = v.txt\nsource.s1.corpus = s.txt\ngamma_grid = 0.1 nan\n",
     "gamma_grid"),
    ("mode = mvt\ntarget.validation = v.txt\nsource.s1.corpus = s.txt\nsource.s1.gamma = nan\n",
     "source.s1.gamma"),
    ("mode = mvt\ntarget.validation = v.txt\nsource.s1.corpus = s.txt\nsource.s1.lambda = inf\n",
     "source.s1.lambda"),
], ids=["unknown-mode", "missing-validation", "empty-grid", "corpus-and-kb",
        "neither-corpus-nor-kb", "coherence-window", "coherence-top-n", "eval-fractions",
        "min-freq", "max-vocab", "empty-source-id", "slash-source-id", "space-source-id",
        "union-mode-kb", "lambda-grid-nan", "lambda-grid-negative", "gamma-grid-nan",
        "source-gamma-nan", "source-lambda-inf"])
def test_experiment_check_error_names_file_and_key(tmp_path, capsys, text, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"target.train = t.txt\ntarget.test = e.txt\nout = {tmp_path / 'out'}\n"
                   + text)
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {cfg}: {key}: ") and len(err.splitlines()) == 1
    if key == "max_vocab":
        assert err == f"error: {cfg}: max_vocab: max_vocab must be >= 1"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "train"])
def test_repeated_config_key_is_single_line_error(tmp_path, family, capsys, command):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "out"
    if command == "experiment":
        cfg.write_text(f"mode = baseline\ntarget.train = {family / 'train.txt'}\n"
                       f"target.test = {family / 'test.txt'}\nout = {out}\n"
                       "epochs = 5\nepochs = 7\n")
        args = ["experiment", "--config", str(cfg)]
    else:
        cfg.write_text("epochs = 5\ntopics = 3\nepochs = 7\n")
        args = ["train", "--train", str(family / "train.txt"), "--config", str(cfg),
                "--out", str(out)]
    rc = main(args)
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    line = 6 if command == "experiment" else 3
    assert err == f"error: {cfg}: line {line}: duplicate key 'epochs'"
    assert not out.exists()


@pytest.mark.parametrize("origin", ["flag", "config"])
def test_train_range_error_names_flag_or_config_key(tmp_path, family, capsys, origin):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("topics = 0\n")
    out = tmp_path / "model"
    given = ["--topics", "0"] if origin == "flag" else ["--config", str(cfg)]
    rc = main(["train", "--train", str(family / "train.txt"), "--out", str(out), *given])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    where = "--topics" if origin == "flag" else f"{cfg}: topics"
    assert err.startswith(f"error: {where}: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, key, value", [
    ("--window", "coherence_window", "1"),
    ("--top-n", "coherence_top_n", "1"),
    ("--fractions", "eval_fractions", "0 0.5"),
], ids=["window", "top-n", "fractions"])
@pytest.mark.parametrize("origin", ["flag", "config"])
def test_eval_range_error_names_flag_or_config_key_before_loading(tmp_path, capsys, origin,
                                                                  flag, key, value):
    # the bundle does not exist, so only a check made before loading it can name the flag
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"{key} = {value}\n")
    given = [flag, value] if origin == "flag" else ["--config", str(cfg)]
    rc = main(["eval", "--model", str(tmp_path / "missing"), "--test",
               str(tmp_path / "test.txt"), *given])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    where = flag if origin == "flag" else f"{cfg}: {key}"
    assert err.startswith(f"error: {where}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("args, where", [
    (["train", "--train", "{tmp}/t.txt", "--init-scale", "nan"], "--init-scale:"),
    (["train", "--train", "{tmp}/t.txt", "--learning-rate", "nan"], "--learning-rate:"),
    (["transfer-train", "--train", "{tmp}/t.txt", "--kb", "s1={tmp}/kb", "--mode", "mvt",
      "--lam", "nan"], "--lam:"),
    (["transfer-train", "--train", "{tmp}/t.txt", "--kb", "s1={tmp}/kb", "--mode", "gvt",
      "--gamma", "inf"], "--gamma:"),
    (["transfer-train", "--train", "{tmp}/t.txt", "--kb", "={tmp}/kb"], "--kb"),
    (["transfer-train", "--train", "{tmp}/missing.txt", "--kb", "s1={tmp}/missing-kb", "--kb",
      "a/b={tmp}/kb", "--mode", "gvt", "--epochs", "3"], "--kb 'a/b={tmp}/kb':"),
    (["transfer-train", "--train", "{tmp}/missing.txt", "--kb", "a b={tmp}/kb"],
     "--kb 'a b={tmp}/kb':"),
    (["train", "--train", "{tmp}/missing.txt", "--min-freq", "0"], "--min-freq:"),
    (["train", "--train", "{tmp}/missing.txt", "--max-vocab", "0"], "--max-vocab:"),
    (["eval", "--model", "{tmp}/model", "--test", "{tmp}/t.txt", "--fractions", "nan"],
     "--fractions:"),
    (["synth", "--mixture-concentration", "nan"], "--mixture-concentration:"),
    (["import-embeddings", "--embeddings", "{tmp}/vecs.txt", "--source-id", "ext"],
     "{tmp}/vecs.txt: line 1:"),
    (["build-kb", "--model", "{tmp}/missing-model", "--source-id", "a b/c"], "--source-id:"),
    (["import-embeddings", "--embeddings", "{tmp}/missing.txt", "--source-id", "a b/c"],
     "--source-id:"),
], ids=["init-scale-nan", "learning-rate-nan", "lam-nan", "gamma-inf", "kb-empty-id",
        "kb-slash-id", "kb-space-id",
        "min-freq-zero", "max-vocab-zero", "fractions-nan", "concentration-nan",
        "embedding-not-a-number", "build-kb-bad-id", "import-bad-id"])
def test_bad_value_is_single_line_error(tmp_path, capsys, args, where):
    # setting checks run before any file is read and name the flag; the
    # --min-freq/--max-vocab cases name a missing --train file, so only a
    # check made before loading can give their error
    (tmp_path / "t.txt").write_text("alpha beta\n")
    (tmp_path / "kb.txt").write_text("alpha 0.25\n")
    save_kb(load_embeddings_text(tmp_path / "kb.txt", "s1"), tmp_path / "kb")
    (tmp_path / "vecs.txt").write_text("alpha 0.25 x\n")
    out = tmp_path / "out"
    rc = main([arg.format(tmp=tmp_path) for arg in args] + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {where.format(tmp=tmp_path)} ") and len(err.splitlines()) == 1
    if where == "--max-vocab:":
        assert err == "error: --max-vocab: max_vocab must be >= 1"
    assert not out.exists()


def test_malformed_bundle_meta_is_single_line_error(tmp_path, family, capsys):
    model = train_small(tmp_path, family)
    meta = model / "meta.txt"
    meta.write_text(meta.read_text().replace("trained_epochs=3", "trained_epochs=x"))
    capsys.readouterr()
    rc = main(["topics", "--model", str(model)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"{meta}: trained_epochs:" in err


def test_eval_reproduces_experiment_report(tmp_path, family, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "expout"
    cfg.write_text(
        f"mode = mvt\n"
        f"target.train = {family / 'train.txt'}\n"
        f"target.validation = {family / 'validation.txt'}\n"
        f"target.test = {family / 'test.txt'}\n"
        f"labeled = true\nout = {out}\n"
        f"epochs = 3\nlearning_rate = 0.05\nseed = 1\ntopics = 3\n"
        f"lambda_grid = 0.5\ngamma_grid = 0.05\neval_fractions = 0.1 0.5\n"
        f"coherence_window = 8\ncoherence_top_n = 4\n"
        f"coherence_reference = {family / 'source.txt'}\n"
        f"source.s1.corpus = {family / 'source.txt'}\n")
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert (out / "model" / "lvt.mat").exists()
    evalout = tmp_path / "evalout"
    assert main(["eval", "--model", str(out / "model"), "--test", str(family / "test.txt"),
                 "--train", str(family / "train.txt"),
                 "--reference", str(family / "source.txt"), "--labeled",
                 "--window", "8", "--top-n", "4", "--fractions", "0.1 0.5",
                 "--out", str(evalout)]) == 0
    experiment = EvalReport.load(out / "report.txt")
    standalone = EvalReport.load(evalout / "report.txt")
    assert standalone.ppl == experiment.ppl
    assert standalone.coh == experiment.coh
    assert standalone.ir == experiment.ir


def test_config_false_boolean_stays_false(tmp_path, family):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("labeled = false\nepochs = 2\ntopics = 3\n")
    out = tmp_path / "model"
    # train.txt is labeled; parsing it as unlabeled must fail loudly, proving
    # the config value was honored
    rc = main(["train", "--train", str(family / "train.txt"),
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0  # unlabeled parse treats 'label<TAB>tokens' as tokens
    vocab = (out / "vocab.txt").read_text().splitlines()
    assert any(tok.startswith("topic") for tok in vocab)


def test_eval_restores_lvt_from_bundle(tmp_path, family, capsys):
    src_model = tmp_path / "src_model"
    assert main(["train", "--train", str(family / "source.txt"), "--labeled",
                 "--epochs", "3", "--learning-rate", "0.05", "--topics", "3",
                 "--seed", "2", "--out", str(src_model)]) == 0
    kb = tmp_path / "kb"
    assert main(["build-kb", "--model", str(src_model), "--source-id", "s1",
                 "--out", str(kb)]) == 0
    model = tmp_path / "xfer"
    assert main(["transfer-train", "--train", str(family / "train.txt"),
                 "--labeled", "--kb", f"s1={kb}", "--mode", "lvt", "--lam", "0.8",
                 "--epochs", "3", "--learning-rate", "0.05", "--topics", "3",
                 "--seed", "1", "--out", str(model)]) == 0
    out = tmp_path / "evalout"
    assert main(["eval", "--model", str(model), "--test", str(family / "test.txt"),
                 "--labeled", "--window", "8", "--top-n", "4",
                 "--out", str(out)]) == 0
    report = EvalReport.load(out / "report.txt")

    # oracle: evaluate in-process with the original transfer context
    from topicxfer.corpus import load_corpus_file
    from topicxfer.evaluate import perplexity
    from topicxfer.model import load_model
    from topicxfer.transfer import (SourceWeight, TransferSpec, load_kb,
                                    make_transfer_context)
    params, vocab, _, lvt = load_model(model)
    assert lvt is not None
    spec = TransferSpec([SourceWeight("s1", lam=0.8)], lvt_enabled=True)
    ctx = make_transfer_context([load_kb(kb)], vocab, spec, 3)
    test = load_corpus_file(family / "test.txt", vocabulary=vocab, labeled=True)
    assert report.ppl == pytest.approx(perplexity(params, test, ctx), rel=1e-12)


TRAIN_FLAGS = {"--config", "--out", "--seed", "--train", "--validation", "--activation",
               "--epochs", "--init-scale", "--labeled", "--learning-rate", "--max-vocab",
               "--min-freq", "--no-shuffle-docs", "--no-shuffle-words", "--patience",
               "--topics"}


def test_each_command_registers_exactly_the_flags_it_reads():
    assert command_flags() == {
        "train": TRAIN_FLAGS,
        "build-kb": {"--model", "--out", "--source-id"},
        "import-embeddings": {"--embeddings", "--out", "--source-id"},
        "transfer-train": TRAIN_FLAGS | {"--gamma", "--gvt-mask-oov", "--kb", "--lam", "--mode"},
        "eval": {"--config", "--fractions", "--labeled", "--model", "--out", "--reference",
                 "--test", "--top-n", "--train", "--window"},
        "topics": {"--model", "--n", "--out"},
        "nn": {"--model", "--n", "--word"},
        "synth": {"--config", "--mixture-concentration", "--out", "--overlap", "--seed",
                  "--source-docs", "--source-len-max", "--source-len-min", "--target-docs",
                  "--target-len-max", "--target-len-min", "--target-test-docs",
                  "--target-validation-docs", "--topics", "--vocab", "--word-concentration"},
        "experiment": {"--config", "--out", "--seed"},
    }


@pytest.mark.parametrize("argv, flag", [
    (["build-kb", "--model", "m", "--source-id", "s", "--out", "o"], "--seed"),
    (["build-kb", "--model", "m", "--source-id", "s", "--out", "o"], "--config"),
    (["import-embeddings", "--embeddings", "e", "--source-id", "s", "--out", "o"], "--seed"),
    (["import-embeddings", "--embeddings", "e", "--source-id", "s", "--out", "o"], "--config"),
    (["topics", "--model", "m"], "--seed"),
    (["topics", "--model", "m"], "--config"),
    (["eval", "--model", "m", "--test", "t"], "--seed"),
    (["nn", "--model", "m", "--word", "w"], "--seed"),
    (["nn", "--model", "m", "--word", "w"], "--config"),
    (["nn", "--model", "m", "--word", "w"], "--out"),
], ids=["build-kb-seed", "build-kb-config", "import-embeddings-seed",
        "import-embeddings-config", "topics-seed", "topics-config", "eval-seed", "nn-seed",
        "nn-config", "nn-out"])
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, argv, flag):
    # the usage shown is the subcommand's, which lists the flags it does take
    assert main([*argv, flag, "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: topicxfer {argv[0]} [-h] ")
    assert err.endswith(f"\ntopicxfer {argv[0]}: error: unrecognized arguments: {flag} 1\n")


@pytest.mark.parametrize("argv", [["train", "--train", "t"], ["transfer-train", "--train", "t"],
                                  ["synth"]], ids=["train", "transfer-train", "synth"])
def test_seed_defaults_to_the_dataclass_default(argv):
    assert build_parser().parse_args(argv).seed == 0


def test_experiment_seed_overrides_the_config_seed(tmp_path, family):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"mode = baseline\ntarget.train = {family / 'train.txt'}\n"
                   f"target.test = {family / 'test.txt'}\nout = {tmp_path / 'out'}\n"
                   "epochs = 1\ntopics = 2\nseed = 100\n")
    assert build_parser().parse_args(["experiment", "--config", str(cfg)]).seed is None
    assert main(["experiment", "--config", str(cfg), "--seed", "5"]) == 0
    assert "seed=5" in (tmp_path / "out" / "model" / "meta.txt").read_text().splitlines()


def _never_train(*args, **kwargs):
    raise AssertionError("a model was trained")


OOV_DOC = "zzz-never qqq-nowhere\n"


def test_eval_pool_without_a_vocabulary_word_names_the_file(tmp_path, family, capsys):
    model = train_small(tmp_path, family)
    pool = tmp_path / "pool.txt"
    pool.write_text(f"t0\t{OOV_DOC}")
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--test", str(family / "test.txt"),
               "--train", str(pool), "--labeled"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: {pool}: no document holds a word of the vocabulary"


def test_zero_shot_target_without_a_source_word_names_the_file(tmp_path, family, capsys,
                                                               monkeypatch):
    # the target train split is the retrieval pool, read before the union model is trained
    monkeypatch.setattr(harness, "train", _never_train)
    train = tmp_path / "train.txt"
    train.write_text(f"t0\t{OOV_DOC}t1\t{OOV_DOC}")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"mode = zero-shot\ntarget.train = {train}\n"
                   f"target.test = {family / 'test.txt'}\nout = {tmp_path / 'out'}\n"
                   f"source.s1.corpus = {family / 'source.txt'}\nepochs = 1\ntopics = 2\n")
    assert main(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: loading evaluation corpora: {train}: "
                   "no document holds a word of the vocabulary")


@pytest.mark.parametrize("missing", ["target.test", "coherence_reference"])
def test_missing_evaluation_corpus_fails_before_any_kb_or_model_is_trained(
        tmp_path, family, capsys, monkeypatch, missing):
    monkeypatch.setattr(harness, "train", _never_train)
    absent = tmp_path / "missing_test.txt"
    paths = {"target.test": family / "test.txt", "coherence_reference": family / "train.txt",
             missing: absent}
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"mode = mvt\ntarget.train = {family / 'train.txt'}\n"
                   f"target.validation = {family / 'validation.txt'}\n"
                   f"target.test = {paths['target.test']}\n"
                   f"coherence_reference = {paths['coherence_reference']}\nout = {out}\n"
                   f"source.s1.corpus = {family / 'source.txt'}\nepochs = 1\ntopics = 2\n")
    assert main(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: loading evaluation corpora: [Errno 2] No such file or directory: "
                   f"'{absent}'")
    assert not (out / "kb.s1").exists() and not (out / "model").exists()


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_validation_without_a_vocabulary_word_fails_before_training(tmp_path, family, capsys,
                                                                     monkeypatch, command):
    monkeypatch.setattr(cli, "train", _never_train)
    monkeypatch.setattr(harness, "train", _never_train)
    validation = tmp_path / "validation.txt"
    validation.write_text(f"t0\t{OOV_DOC}")
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--train", str(family / "train.txt"), "--validation", str(validation),
                "--labeled", "--out", str(out)]
        where = ""
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"mode = baseline\ntarget.train = {family / 'train.txt'}\n"
                       f"target.validation = {validation}\n"
                       f"target.test = {family / 'test.txt'}\nout = {out}\n")
        argv = ["experiment", "--config", str(cfg)]
        where = "loading target corpora: "
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: {where}{validation}: no document holds a word of the vocabulary"


def test_experiment_top_n_above_the_vocabulary_fails_before_any_training(tmp_path, family,
                                                                          capsys, monkeypatch):
    monkeypatch.setattr(harness, "train", _never_train)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"mode = mvt\ntarget.train = {family / 'train.txt'}\n"
                   f"target.validation = {family / 'validation.txt'}\n"
                   f"target.test = {family / 'test.txt'}\nout = {out}\n"
                   f"source.s1.corpus = {family / 'source.txt'}\ncoherence_top_n = 50\n")
    assert main(["experiment", "--config", str(cfg)]) == 1
    k = len(load_corpus_file(family / "train.txt", labeled=True).vocabulary)
    assert capsys.readouterr().err.strip() == (
        f"error: coherence_top_n: top_n must be <= the vocabulary size {k}")
    assert list(out.iterdir()) == []  # no kb.s1 and no model


@pytest.mark.parametrize("origin", ["flag", "config"])
def test_eval_top_n_above_the_vocabulary_fails_before_perplexity(tmp_path, family, capsys,
                                                                  origin):
    model = train_small(tmp_path, family)
    k = len((model / "vocab.txt").read_text().splitlines())
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"coherence_top_n = {k + 1}\n")
    given = ["--top-n", str(k + 1)] if origin == "flag" else ["--config", str(cfg)]
    capsys.readouterr()
    # the test file does not exist, so only a check made before perplexity gives the error
    rc = main(["eval", "--model", str(model), "--test", str(tmp_path / "missing.txt"), *given])
    assert rc == 1
    where = "--top-n" if origin == "flag" else f"{cfg}: coherence_top_n"
    assert capsys.readouterr().err.strip() == (
        f"error: {where}: top_n must be <= the vocabulary size {k}")
