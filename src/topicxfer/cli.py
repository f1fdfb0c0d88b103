"""Command-line interface.

Subcommands: train, build-kb, import-embeddings, transfer-train, eval, topics,
nn, synth, experiment.  --seed, --out and --config are available on every
subcommand.  For ``experiment``, --config is the experiment file; for every
other subcommand it points at a ``key = value`` file whose entries act as flag
defaults (explicit flags win).  A missing file or a key the subcommand does not
register is an error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus as corpuslib
from .errors import ConfigError, TopicxferError
from .evaluate import (DEFAULT_FRACTIONS, DEFAULT_TOP_N, DEFAULT_WINDOW,
                       EvalReport, all_topics, coherence, model_vector_fn,
                       nearest_neighbors, perplexity, retrieval_precision)
from .fileio import parse_bool, parse_entry, parse_floats, read_kv
from .harness import parse_config, run_experiment
from .model import TrainConfig, load_model, save_model, train
from .synthetic import SyntheticSpec, generate_synthetic
from .transfer import (InferenceContext, TransferSpec, build_kb,
                       load_embeddings_text, load_kb, make_transfer_context,
                       save_kb)


class _Options:
    """Registers flags whose defaults can come from the --config file."""

    def __init__(self, parser):
        self.parser = parser
        self.casts = {}  # config key -> (argparse dest, value parser)

    def add(self, flag, key, cast, default, **kwargs):
        if cast is bool:
            action = self.parser.add_argument(flag, action="store_true", default=default,
                                              **kwargs)
            cast = parse_bool
        else:
            action = self.parser.add_argument(flag, type=cast, default=default, **kwargs)
        self.casts[key] = (action.dest, cast)

    def load(self, path):
        """Make the entries of a ``key = value`` file this subcommand's flag defaults."""
        defaults = {}
        for key, raw in read_kv(path, error=ConfigError).items():
            if key not in self.casts:
                raise ConfigError(f"{path}: {self.parser.prog} has no config key {key!r}")
            dest, cast = self.casts[key]
            defaults[dest] = parse_entry(path, key, raw, cast)
        self.parser.set_defaults(**defaults)


def _train_config(args):
    return TrainConfig(
        learning_rate=args.learning_rate, epochs=args.epochs, seed=args.seed,
        n_topics=args.topics, activation=args.activation,
        shuffle_words=not args.no_shuffle_words,
        shuffle_docs=not args.no_shuffle_docs,
        init_scale=args.init_scale, validation_patience=args.patience)


def _add_train_flags(opt):
    opt.add("--learning-rate", "learning_rate", float, 0.001)
    opt.add("--epochs", "epochs", int, 50)
    opt.add("--topics", "topics", int, 200)
    opt.add("--activation", "activation", str, "sigmoid")
    opt.add("--init-scale", "init_scale", float, 0.01)
    opt.add("--patience", "patience", int, 10)
    opt.add("--no-shuffle-words", "no_shuffle_words", bool, False)
    opt.add("--no-shuffle-docs", "no_shuffle_docs", bool, False)
    opt.add("--min-freq", "min_freq", int, 1)
    opt.add("--max-vocab", "max_vocab", int, None)
    opt.add("--labeled", "labeled", bool, False)


def _load_split(path, vocabulary, labeled, split):
    return corpuslib.load_corpus_file(path, vocabulary=vocabulary,
                                      labeled=labeled, split=split)


def _require_out(args):
    if not args.out:
        raise TopicxferError(f"{args.command} requires --out DIR")


def _cmd_train(args):
    _require_out(args)
    train_corpus = corpuslib.load_corpus_file(
        args.train, labeled=args.labeled, min_freq=args.min_freq,
        max_size=args.max_vocab)
    validation = None
    if args.validation:
        validation = _load_split(args.validation, train_corpus.vocabulary,
                                 args.labeled, "validation")
    params, stats = train(train_corpus, _train_config(args), None, validation)
    save_model(params, train_corpus.vocabulary, args.out, seed=args.seed)
    last = stats[-1]
    msg = f"trained {len(stats)} epochs, final mean loss {last.train_loss:.6g}"
    if last.validation_ppl is not None:
        msg += f", validation ppl {last.validation_ppl:.6g}"
    print(msg)
    print(f"model bundle written to {args.out}")
    return 0


def _cmd_build_kb(args):
    _require_out(args)
    params, vocabulary, _, _ = load_model(args.model)
    kb = build_kb(params, vocabulary, args.source_id)
    save_kb(kb, args.out)
    print(f"knowledge base {args.source_id!r} written to {args.out}")
    return 0


def _cmd_import_embeddings(args):
    _require_out(args)
    kb = load_embeddings_text(args.embeddings, args.source_id)
    save_kb(kb, args.out)
    print(f"imported {len(kb.vocabulary)} word vectors "
          f"(dim {kb.embedding_dim}) as {args.source_id!r} into {args.out}")
    return 0


def _parse_kb_flags(kb_args):
    kbs = []
    for entry in kb_args or []:
        if "=" not in entry:
            raise TopicxferError(f"--kb expects ID=DIR, got {entry!r}")
        source_id, path = entry.split("=", 1)
        kb = load_kb(path)
        if kb.source_id != source_id:
            kb.source_id = source_id
        kbs.append(kb)
    return kbs


def _cmd_transfer_train(args):
    _require_out(args)
    train_corpus = corpuslib.load_corpus_file(
        args.train, labeled=args.labeled, min_freq=args.min_freq,
        max_size=args.max_vocab)
    validation = None
    if args.validation:
        validation = _load_split(args.validation, train_corpus.vocabulary,
                                 args.labeled, "validation")
    kbs = _parse_kb_flags(args.kb)
    if not kbs:
        raise TopicxferError("transfer-train needs at least one --kb ID=DIR")
    spec = TransferSpec.for_mode(
        args.mode, [(kb.source_id, args.lam, args.gamma) for kb in kbs],
        gvt_mask_oov=args.gvt_mask_oov)
    ctx = None
    if spec.active:
        ctx = make_transfer_context(kbs, train_corpus.vocabulary, spec, args.topics)
        for sid, cov in sorted(ctx.coverage.items()):
            print(f"source {sid}: vocabulary coverage {cov:.3f}")
    params, stats = train(train_corpus, _train_config(args), ctx, validation)
    save_model(params, train_corpus.vocabulary, args.out, seed=args.seed,
               lvt_matrix=ctx.lvt_matrix if ctx is not None and ctx.lvt_enabled else None)
    print(f"trained {len(stats)} epochs, final mean loss {stats[-1].train_loss:.6g}")
    print(f"model bundle written to {args.out}")
    return 0


def _cmd_eval(args):
    params, vocabulary, _, lvt = load_model(args.model)
    ctx = InferenceContext(lvt) if lvt is not None else None
    test = _load_split(args.test, vocabulary, args.labeled, "test")
    ppl = perplexity(params, test, ctx)
    reference_path = args.reference or args.train or args.test
    reference = corpuslib.load_corpus_file(reference_path, labeled=args.labeled)
    topics = all_topics(params, vocabulary, args.top_n)
    coh = coherence(topics, reference, window=args.window, top_n=args.top_n)
    ir = []
    if args.train and args.labeled:
        pool = _load_split(args.train, vocabulary, True, "train")
        ir = retrieval_precision(pool, test, model_vector_fn(params, ctx),
                                 args.fractions)
    report = EvalReport(ppl, coh, ir)
    sys.stdout.write(report.to_text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.save(os.path.join(args.out, "report.txt"))
        print(f"report written to {os.path.join(args.out, 'report.txt')}")
    return 0


def _cmd_topics(args):
    params, vocabulary, _, _ = load_model(args.model)
    lines = []
    for j, words in enumerate(all_topics(params, vocabulary, args.n)):
        lines.append(f"topic {j}: {' '.join(words)}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "topics.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_nn(args):
    params, vocabulary, _, _ = load_model(args.model)
    for word in nearest_neighbors(params, vocabulary, args.word, args.n):
        print(word)
    return 0


def _cmd_synth(args):
    if not args.out:
        raise TopicxferError("synth requires --out DIR")
    spec = SyntheticSpec(
        n_topics=args.topics, vocab_size=args.vocab,
        source_docs=args.source_docs, target_train_docs=args.target_docs,
        target_validation_docs=args.target_validation_docs,
        target_test_docs=args.target_test_docs,
        source_len=(args.source_len_min, args.source_len_max),
        target_len=(args.target_len_min, args.target_len_max),
        mixture_concentration=args.mixture_concentration,
        word_concentration=args.word_concentration,
        overlap=args.overlap, seed=args.seed)
    source, (tr, va, te) = generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    for name, corpus in (("source.txt", source), ("train.txt", tr),
                         ("validation.txt", va), ("test.txt", te)):
        corpuslib.write_corpus_file(corpus, os.path.join(args.out, name))
    print(f"synthetic corpora written to {args.out} "
          f"(source {len(source)}, train {len(tr)}, validation {len(va)}, test {len(te)})")
    return 0


def _cmd_experiment(args):
    if not args.config:
        raise TopicxferError("experiment requires --config FILE")
    config = parse_config(args.config)
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.train.seed = args.seed
    report = run_experiment(config)
    sys.stdout.write(report.to_text())
    print(f"artifacts written to {config.out_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="topicxfer",
        description="Autoregressive topic modeling with multi-view, multi-source transfer")
    sub = parser.add_subparsers(dest="command", required=True)

    def new_command(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        opt = _Options(p)
        p.set_defaults(fn=fn, options=opt)
        p.add_argument("--seed", type=int, default=None if name == "experiment" else 0)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)
        return p, opt

    p, opt = new_command("train", _cmd_train, "train a model on one corpus")
    p.add_argument("--train", required=True)
    p.add_argument("--validation", default=None)
    _add_train_flags(opt)

    p, _ = new_command("build-kb", _cmd_build_kb, "export a trained model as a knowledge base")
    p.add_argument("--model", required=True)
    p.add_argument("--source-id", required=True)

    p, _ = new_command("import-embeddings", _cmd_import_embeddings,
                       "import external word vectors as an embedding-only KB")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--source-id", required=True)

    p, opt = new_command("transfer-train", _cmd_transfer_train,
                         "train with knowledge transfer from saved KBs")
    p.add_argument("--train", required=True)
    p.add_argument("--validation", default=None)
    p.add_argument("--kb", action="append", metavar="ID=DIR")
    p.add_argument("--mode", choices=("lvt", "gvt", "mvt"), default="mvt")
    opt.add("--lam", "lam", float, 0.5)
    opt.add("--gamma", "gamma", float, 0.01)
    opt.add("--gvt-mask-oov", "gvt_mask_oov", bool, False)
    _add_train_flags(opt)

    p, opt = new_command("eval", _cmd_eval, "evaluate a saved model bundle")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--train", default=None, help="retrieval pool / default coherence reference")
    p.add_argument("--reference", default=None)
    opt.add("--labeled", "labeled", bool, False)
    opt.add("--window", "coherence_window", int, DEFAULT_WINDOW)
    opt.add("--top-n", "coherence_top_n", int, DEFAULT_TOP_N)
    opt.add("--fractions", "eval_fractions", parse_floats, list(DEFAULT_FRACTIONS))

    p, _ = new_command("topics", _cmd_topics, "print each topic's top words")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=10)

    p, _ = new_command("nn", _cmd_nn, "print a word's nearest neighbors")
    p.add_argument("--model", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, default=5)

    p, opt = new_command("synth", _cmd_synth, "generate a synthetic source/target family")
    opt.add("--topics", "topics", int, 3)
    opt.add("--vocab", "vocab", int, 100)
    opt.add("--source-docs", "source_docs", int, 500)
    opt.add("--target-docs", "target_docs", int, 40)
    opt.add("--target-validation-docs", "target_validation_docs", int, 20)
    opt.add("--target-test-docs", "target_test_docs", int, 40)
    opt.add("--source-len-min", "source_len_min", int, 40)
    opt.add("--source-len-max", "source_len_max", int, 80)
    opt.add("--target-len-min", "target_len_min", int, 8)
    opt.add("--target-len-max", "target_len_max", int, 15)
    opt.add("--mixture-concentration", "mixture_concentration", float, 0.3)
    opt.add("--word-concentration", "word_concentration", float, 0.05)
    opt.add("--overlap", "overlap", float, 1.0)

    p, _ = new_command("experiment", _cmd_experiment, "run a full experiment from a config file")
    # its --config is the experiment file, which parse_config reads and checks
    p.set_defaults(options=None)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config and args.options is not None:
            args.options.load(args.config)
            # parse again so the file's values become defaults and explicit flags win
            args = parser.parse_args(argv)
        return args.fn(args)
    except (TopicxferError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
