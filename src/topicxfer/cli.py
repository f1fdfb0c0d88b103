"""Command-line interface.

Subcommands: train, build-kb, import-embeddings, transfer-train, eval, topics,
nn, synth, experiment.  Each registers only the flags it reads: all but nn take
--out; train, transfer-train, synth and experiment take --seed, and they and
eval take --config.  For ``experiment``, --config is the experiment file; for
the others it is a ``key = value`` file whose entries act as flag defaults
(explicit flags win).  A missing file or a key the subcommand does not register
is an error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import corpus as corpuslib
from .errors import ConfigError, TopicxferError
from .evaluate import (DEFAULT_FRACTIONS, DEFAULT_TOP_N, DEFAULT_WINDOW,
                       all_topics, check_top_n, nearest_neighbors)
from .fileio import parse_bool, parse_entry, parse_floats, read_kv, settings, write_lines
from .harness import (DEFAULT_TRANSFER_MODE, MODE_VIEWS, check_settings, evaluate_model,
                      load_target, parse_config, run_experiment, transfer_context)
from .model import TRAIN_KEYS, TrainConfig, load_model, save_model, train
from .synthetic import SyntheticSpec, generate_synthetic
from .transfer import (TransferContext, build_kb, check_source_id, load_embeddings_text, load_kb,
                       save_kb)


# the SyntheticSpec fields whose synth flag and config key differ from the field name
SYNTH_KEYS = {"n_topics": "topics", "vocab_size": "vocab", "target_train_docs": "target_docs"}


class _Options:
    """Registers a subcommand's --config and the flags whose defaults it can give.

    A flag's config key is its argparse dest.  A boolean that defaults to
    False is a --KEY switch; one that defaults to True is a --no-KEY switch
    whose config key stays KEY.
    """

    def __init__(self, parser):
        self.parser = parser
        self.casts = {}  # config key -> value parser
        self.flags = {}  # dest -> flag
        self.loaded = {}  # config key -> the value the --config file gave
        parser.add_argument("--config", default=None)
        parser.set_defaults(options=self)

    def add(self, key, cast, default, flag=None):
        name = key.replace("_", "-")
        if cast is parse_bool:
            flag = flag or (f"--no-{name}" if default else f"--{name}")
            self.parser.add_argument(flag, dest=key,
                                     action="store_false" if default else "store_true",
                                     default=default)
        else:
            flag = flag or f"--{name}"
            self.parser.add_argument(flag, dest=key, type=cast, default=default)
        self.casts[key] = cast
        self.flags[key] = flag

    def add_fields(self, cls, keys):
        """One flag per field of the dataclass cls, and a KEY_min and a KEY_max
        flag per (min, max) tuple field; seed's --seed is a flag but no config key."""
        for name, key, cast, default in settings(cls, keys):
            if isinstance(default, tuple):
                self.add(f"{key}_min", int, default[0])
                self.add(f"{key}_max", int, default[1])
            elif name == "seed":
                self.parser.add_argument("--seed", type=int, default=default)
                self.flags["seed"] = "--seed"
            else:
                self.add(key, cast, default)

    def load(self, path):
        """Make the entries of a ``key = value`` file this subcommand's flag defaults."""
        defaults = {}
        for key, raw in read_kv(path, error=ConfigError).items():
            if key not in self.casts:
                raise ConfigError(f"{path}: {self.parser.prog} has no config key {key!r}")
            defaults[key] = parse_entry(f"{path}: {key}", raw, self.casts[key])
        self.parser.set_defaults(**defaults)
        self.loaded = defaults

    def origin(self, args, key):
        """The --config entry that gave key's value in args, else key's flag."""
        if key in self.loaded and getattr(args, key) == self.loaded[key]:
            return f"{args.config}: {key}"
        return self.flags[key]


def _from_args(cls, keys, args):
    """The cls instance the flags of _Options.add_fields(cls, keys) give.

    Each value goes in through replace(), which reruns cls's checks, so a value
    they reject is an error naming its flag or --config entry.
    """
    config = cls()
    opt = args.options
    for name, key, _, default in settings(cls, keys):
        if isinstance(default, tuple):
            value = (getattr(args, f"{key}_min"), getattr(args, f"{key}_max"))
            origin = ", ".join(opt.origin(args, f"{key}_{end}") for end in ("min", "max"))
        else:
            value, origin = getattr(args, key), opt.origin(args, key)
        config = parse_entry(origin, value, lambda v: replace(config, **{name: v}))
    return config


def _add_train_flags(p):
    opt = _Options(p)
    p.add_argument("--out", default=None)
    p.add_argument("--train", required=True)
    p.add_argument("--validation", default=None)
    opt.add_fields(TrainConfig, TRAIN_KEYS)
    opt.add("min_freq", int, 1)
    opt.add("max_vocab", int, None)
    opt.add("labeled", parse_bool, False)
    return opt


def _require_out(args):
    if not args.out:
        raise TopicxferError(f"{args.command} requires --out DIR")


def _load_target(args):
    """Check --out, then load the --train corpus and its --validation split."""
    _require_out(args)
    return load_target(args.train, args.validation, args.labeled, args.min_freq,
                       args.max_vocab)


def _train_and_save(args, config, train_corpus, validation, ctx=None):
    params, stats = train(train_corpus, config, ctx, validation)
    save_model(params, train_corpus.vocabulary, args.out, seed=args.seed,
               lvt_matrix=None if ctx is None else ctx.lvt_matrix)
    last = stats[-1]
    msg = f"trained {len(stats)} epochs, final mean loss {last.train_loss:.6g}"
    if last.validation_ppl is not None:
        msg += f", validation ppl {last.validation_ppl:.6g}"
    print(msg)
    print(f"model bundle written to {args.out}")
    return 0


def _cmd_train(args):
    config = _from_args(TrainConfig, TRAIN_KEYS, args)
    return _train_and_save(args, config, *_load_target(args))


def _cmd_build_kb(args):
    _require_out(args)
    parse_entry("--source-id", args.source_id, check_source_id)  # before any file is read
    params, vocabulary, _, _ = load_model(args.model)
    kb = build_kb(params, vocabulary, args.source_id)
    save_kb(kb, args.out)
    print(f"knowledge base {args.source_id!r} written to {args.out}")
    return 0


def _cmd_import_embeddings(args):
    _require_out(args)
    parse_entry("--source-id", args.source_id, check_source_id)  # before any file is read
    kb = load_embeddings_text(args.embeddings, args.source_id)
    save_kb(kb, args.out)
    print(f"imported {len(kb.vocabulary)} word vectors "
          f"(dim {kb.embedding_dim}) as {args.source_id!r} into {args.out}")
    return 0


def _parse_kb_flags(kb_args):
    """The KB of each --kb ID=DIR, loaded under ID once every entry is checked."""
    sources = []
    for entry in kb_args or []:
        source_id, sep, path = entry.partition("=")
        if not (sep and source_id):
            raise TopicxferError(f"--kb expects ID=DIR with a non-empty ID, got {entry!r}")
        sources.append((parse_entry(f"--kb {entry!r}", source_id, check_source_id), path))
    return [load_kb(path, source_id) for source_id, path in sources]


def _cmd_transfer_train(args):
    config = _from_args(TrainConfig, TRAIN_KEYS, args)
    _require_out(args)
    kbs = _parse_kb_flags(args.kb)
    if not kbs:
        raise TopicxferError("transfer-train needs at least one --kb ID=DIR")
    train_corpus, validation = _load_target(args)
    ctx = transfer_context(kbs, train_corpus.vocabulary, args.mode,
                           [(kb.source_id, args.lam, args.gamma) for kb in kbs],
                           config.n_topics, args.gvt_mask_oov)
    if ctx is not None:
        for sid, cov in sorted(ctx.coverage.items()):
            print(f"source {sid}: vocabulary coverage {cov:.3f}")
    return _train_and_save(args, config, train_corpus, validation, ctx)


def _cmd_eval(args):
    params, vocabulary, _, lvt = load_model(args.model)
    # every topic lists --top-n words, which a smaller vocabulary cannot give
    parse_entry(args.options.origin(args, "coherence_top_n"), args.coherence_top_n,
                lambda n: check_top_n(n, len(vocabulary)))
    ctx = TransferContext(lvt) if lvt is not None else None
    report, _ = evaluate_model(
        params, vocabulary, ctx, args.test, args.reference or args.train or args.test,
        args.train, args.labeled, args.eval_fractions, args.coherence_window,
        args.coherence_top_n)
    sys.stdout.write(report.to_text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.save(os.path.join(args.out, "report.txt"))
        print(f"report written to {os.path.join(args.out, 'report.txt')}")
    return 0


def _cmd_topics(args):
    params, vocabulary, _, _ = load_model(args.model)
    lines = [f"topic {j}: {' '.join(words)}"
             for j, words in enumerate(all_topics(params, vocabulary, args.n))]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_lines(os.path.join(args.out, "topics.txt"), lines)
    return 0


def _cmd_nn(args):
    params, vocabulary, _, _ = load_model(args.model)
    for word in nearest_neighbors(params, vocabulary, args.word, args.n):
        print(word)
    return 0


def _cmd_synth(args):
    _require_out(args)
    source, (tr, va, te) = generate_synthetic(_from_args(SyntheticSpec, SYNTH_KEYS, args))
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
        p.set_defaults(fn=fn, options=None)
        return p

    p = new_command("train", _cmd_train, "train a model on one corpus")
    _add_train_flags(p)

    p = new_command("build-kb", _cmd_build_kb, "export a trained model as a knowledge base")
    p.add_argument("--out", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--source-id", required=True)

    p = new_command("import-embeddings", _cmd_import_embeddings,
                    "import external word vectors as an embedding-only KB")
    p.add_argument("--out", default=None)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--source-id", required=True)

    p = new_command("transfer-train", _cmd_transfer_train,
                    "train with knowledge transfer from saved KBs")
    opt = _add_train_flags(p)
    p.add_argument("--kb", action="append", metavar="ID=DIR")
    p.add_argument("--mode", choices=tuple(MODE_VIEWS), default=DEFAULT_TRANSFER_MODE)
    opt.add("lam", float, 0.5)
    opt.add("gamma", float, 0.01)
    opt.add("gvt_mask_oov", parse_bool, False)

    p = new_command("eval", _cmd_eval, "evaluate a saved model bundle")
    opt = _Options(p)
    p.add_argument("--out", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--train", default=None, help="retrieval pool / default coherence reference")
    p.add_argument("--reference", default=None)
    opt.add("labeled", parse_bool, False)
    opt.add("coherence_window", int, DEFAULT_WINDOW, flag="--window")
    opt.add("coherence_top_n", int, DEFAULT_TOP_N, flag="--top-n")
    opt.add("eval_fractions", parse_floats, list(DEFAULT_FRACTIONS), flag="--fractions")

    p = new_command("topics", _cmd_topics, "print each topic's top words")
    p.add_argument("--out", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=10)

    p = new_command("nn", _cmd_nn, "print a word's nearest neighbors")
    p.add_argument("--model", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, default=5)

    p = new_command("synth", _cmd_synth, "generate a synthetic source/target family")
    p.add_argument("--out", default=None)
    _Options(p).add_fields(SyntheticSpec, SYNTH_KEYS)

    p = new_command("experiment", _cmd_experiment, "run a full experiment from a config file")
    # its --config is the experiment file, which parse_config reads and checks
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None, help="overrides the config's seed")
    p.add_argument("--out", default=None, help="overrides the config's out")

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.options is not None:
            if args.config:
                args.options.load(args.config)
                # parse again so the file's values become defaults and explicit flags win
                args = parser.parse_args(argv)
            # a rejected value names its flag or --config entry, before any file is read
            check_settings({key: getattr(args, key) for key in args.options.casts},
                           lambda key: args.options.origin(args, key))
        return args.fn(args)
    except (TopicxferError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
