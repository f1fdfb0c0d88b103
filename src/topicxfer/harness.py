"""Experiment runner: end-to-end pipelines for source training, KB export,
transfer training with hyperparameter grids, zero-shot and data-augmentation
baselines, and report emission.

Experiment config files are line-oriented ``key = value`` with
``source.<id>.<key>`` namespacing (no nesting).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
from dataclasses import astuple, dataclass, field, replace

from . import corpus as corpuslib
from .errors import ConfigError, CorpusError, TopicxferError
from .evaluate import (DEFAULT_FRACTIONS, DEFAULT_TOP_N, DEFAULT_WINDOW,
                       EvalReport, all_topics, check_fractions, check_top_n,
                       check_window, coherence, model_vector_fn, perplexity,
                       retrieval_precision)
from .fileio import format_float, parse_entry, read_kv, settings, write_lines
from .model import TRAIN_KEYS, TrainConfig, save_model, train
from .transfer import (SourceWeight, TransferSpec, build_kb, check_source_id, check_weights,
                       load_kb, make_transfer_context, save_kb)

# the transfer views ("lvt" local, "gvt" global) each transfer mode trains with
MODE_VIEWS = {"lvt": ("lvt",), "gvt": ("gvt",), "mvt": ("lvt", "gvt")}
DEFAULT_TRANSFER_MODE = "mvt"
UNION_MODES = ("zero-shot", "data-augment")
MODES = ("baseline", *MODE_VIEWS, *UNION_MODES)
DEFAULT_LAMBDA_GRID = (0.1, 0.5, 1.0)
DEFAULT_GAMMA_GRID = (0.1, 0.01, 0.001)


# the rules of the stages that use these settings, by config key (experiment
# files and CLI --config), so they can be checked before any loading or training
SETTING_CHECKS = {
    "min_freq": lambda v: corpuslib.check_vocabulary_limits(min_freq=v),
    "max_vocab": lambda v: corpuslib.check_vocabulary_limits(max_vocab=v),
    "eval_fractions": check_fractions, "coherence_window": check_window,
    "coherence_top_n": check_top_n, "lambda_grid": check_weights,
    "gamma_grid": check_weights, "lam": lambda v: check_weights([v]),
    "gamma": lambda v: check_weights([v]),
}


def check_settings(values, origin=str):
    """Check each {key: value} that has a SETTING_CHECKS rule; an error names origin(key)."""
    for key, check in SETTING_CHECKS.items():
        if key in values:
            parse_entry(origin(key), values[key], check)


@dataclass
class SourceConfig:
    source_id: str
    corpus_path: str | None = None
    kb_path: str | None = None
    lam_override: float | None = None
    gamma_override: float | None = None

    def __post_init__(self):
        check_source_id(self.source_id)
        if (self.corpus_path is None) == (self.kb_path is None):
            raise ConfigError(
                f"source.{self.source_id}: give exactly one of a corpus path or a KB path")
        for key, weight in (("lambda", self.lam_override), ("gamma", self.gamma_override)):
            if weight is not None:
                check_weights([weight], f"source.{self.source_id}.{key}: transfer weights")


@dataclass
class ExperimentConfig:
    mode: str
    target_train: str
    target_test: str
    out_dir: str
    target_validation: str | None = None
    labeled: bool = True
    sources: list[SourceConfig] = field(default_factory=list)
    train: TrainConfig = field(default_factory=TrainConfig)
    min_freq: int = 1
    max_vocab: int | None = None
    lambda_grid: list[float] = field(default_factory=lambda: list(DEFAULT_LAMBDA_GRID))
    gamma_grid: list[float] = field(default_factory=lambda: list(DEFAULT_GAMMA_GRID))
    eval_fractions: list[float] = field(default_factory=lambda: list(DEFAULT_FRACTIONS))
    coherence_window: int = DEFAULT_WINDOW
    coherence_top_n: int = DEFAULT_TOP_N
    coherence_reference: str | None = None
    gvt_mask_oov: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown mode {self.mode!r}, expected one of {MODES}")
        if self.mode != "baseline" and not self.sources:
            raise ConfigError(f"mode: {self.mode!r} requires at least one source")
        views = MODE_VIEWS.get(self.mode, ())
        for view, grid in (("lvt", "lambda_grid"), ("gvt", "gamma_grid")):
            if view in views and not getattr(self, grid):
                raise ConfigError(f"{grid}: must be non-empty for mode {self.mode!r}")
        if views and self.target_validation is None:
            raise ConfigError(f"target.validation: mode {self.mode!r} needs a validation split")
        for src in self.sources:
            if self.mode in UNION_MODES and src.kb_path is not None:
                raise ConfigError(f"source.{src.source_id}: mode {self.mode!r} needs a "
                                  "source corpus, not a prebuilt KB")
        check_settings(vars(self))


# the ExperimentConfig fields whose config key differs from the field name;
# the keys of train are TrainConfig's and those of sources are source.<id>.<key>
EXPERIMENT_KEYS = {"target_train": "target.train", "target_validation": "target.validation",
                   "target_test": "target.test", "out_dir": "out"}


def parse_config(path):
    """Parse an experiment config file into an ExperimentConfig."""
    entries = read_kv(path, error=ConfigError)

    sources = {}
    plain = {}
    for key, value in entries.items():
        if key.startswith("source."):
            parts = key.split(".", 2)
            if len(parts) != 3:
                raise ConfigError(f"{path}: malformed source key {key!r}")
            _, sid, attr = parts
            parse_entry(f"{path}: {key}", sid, check_source_id)
            sources.setdefault(sid, {})[attr] = value
        else:
            plain[key] = value

    train_config = TrainConfig()
    for name, key, cast, _ in settings(TrainConfig, TRAIN_KEYS):
        if key in plain:
            # replace() reruns TrainConfig's checks, so a range error names its key
            train_config = parse_entry(f"{path}: {key}", plain.pop(key),
                                       lambda raw: replace(train_config, **{name: cast(raw)}))

    known = {key: (name, cast) for name, key, cast, _ in
             settings(ExperimentConfig, EXPERIMENT_KEYS) if name not in ("sources", "train")}
    values = {}
    for key, value in plain.items():
        if key not in known:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        name, cast = known[key]
        values[name] = parse_entry(f"{path}: {key}", value, cast)
    for required in ("mode", "target.train", "target.test", "out"):
        if known[required][0] not in values:
            raise ConfigError(f"{path}: missing required key {required!r}")

    source_kwargs = {}
    for sid in sorted(sources):
        attrs = sources[sid]
        unknown = set(attrs) - {"corpus", "kb", "lambda", "gamma"}
        if unknown:
            raise ConfigError(f"{path}: unknown source key(s) {sorted(unknown)} for {sid!r}")
        weights = {attr: parse_entry(f"{path}: source.{sid}.{attr}", attrs[attr], float)
                   for attr in ("lambda", "gamma") if attr in attrs}
        source_kwargs[sid] = dict(corpus_path=attrs.get("corpus"), kb_path=attrs.get("kb"),
                                  lam_override=weights.get("lambda"),
                                  gamma_override=weights.get("gamma"))

    # the SourceConfig and ExperimentConfig checks name their key; add the file
    try:
        return ExperimentConfig(
            sources=[SourceConfig(sid, **kwargs) for sid, kwargs in source_kwargs.items()],
            train=train_config, **values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def candidate_grid(config):
    """The shared (lambda, gamma) candidate list for the config's mode; a view
    the mode does not use has weight 0, and a mode without views has no list."""
    views = MODE_VIEWS.get(config.mode)
    if views is None:
        return []
    return list(itertools.product(config.lambda_grid if "lvt" in views else [0.0],
                                  config.gamma_grid if "gvt" in views else [0.0]))


def transfer_context(kbs, vocabulary, mode, weights, n_topics, gvt_mask_oov=False):
    """The context that trains with mode's views at per-source (id, lambda,
    gamma) weights; a view whose weights are all zero is off, and with every
    view off there is no context (None)."""
    sources = [SourceWeight(*w) for w in weights]
    views = MODE_VIEWS[mode]
    spec = TransferSpec(sources, lvt_enabled="lvt" in views and any(s.lam > 0 for s in sources),
                        gvt_enabled="gvt" in views and any(s.gamma > 0 for s in sources),
                        gvt_mask_oov=gvt_mask_oov)
    if not (spec.lvt_enabled or spec.gvt_enabled):
        return None
    return make_transfer_context(kbs, vocabulary, spec, n_topics)


def grid_search(train_corpus, validation, kbs, config, candidates):
    """Train one model per candidate; select the minimum validation perplexity.

    Ties keep the first-listed candidate.  Returns
    (best_index, table, best_params, best_stats, best_ctx) where table rows
    are (lam, gamma, validation_ppl).
    """
    if not candidates:
        raise ConfigError("grid search needs at least one candidate")
    if validation is None:
        raise ConfigError("grid search needs a validation corpus")
    table = []
    best = None
    for index, (lam, gamma) in enumerate(candidates):
        # a source's fixed lambda or gamma wins over the candidate's
        weights = [(s.source_id, lam if s.lam_override is None else s.lam_override,
                    gamma if s.gamma_override is None else s.gamma_override)
                   for s in config.sources]
        ctx = transfer_context(kbs, train_corpus.vocabulary, config.mode, weights,
                               config.train.n_topics, config.gvt_mask_oov)
        params, stats = train(train_corpus, config.train, ctx, validation)
        val_ppl = min(s.validation_ppl for s in stats)
        table.append((lam, gamma, val_ppl))
        if best is None or val_ppl < best[1]:
            best = (index, val_ppl, params, stats, ctx)
    return best[0], table, best[2], best[3], best[4]


def _fingerprint(config, ctx):
    """Stable hash of the effective experiment: data, training, eval, active transfer.

    Only the sources of ctx's per-view weights leave a trace (their weights
    and their corpus or KB path), so a transfer
    mode whose weights all resolved to zero (ctx None) fingerprints
    identically to the baseline.
    """
    lines = [
        f"target.train={config.target_train}",
        f"target.validation={config.target_validation}",
        f"target.test={config.target_test}",
        f"labeled={config.labeled}",
        f"mode_family={'union' if config.mode in UNION_MODES else 'target'}",
        f"includes_target_train={config.mode != 'zero-shot'}",
        f"min_freq={config.min_freq}",
        f"max_vocab={config.max_vocab}",
        f"eval_fractions={config.eval_fractions}",
        f"coherence={config.coherence_window},{config.coherence_top_n},{config.coherence_reference}",
    ]
    lines.append("train=" + ",".join(str(v) for v in astuple(config.train)))
    if config.mode in UNION_MODES:
        for src in config.sources:
            lines.append(f"union_source={src.source_id},{src.corpus_path}")
    if ctx is not None:
        sources = {src.source_id: src for src in config.sources}
        for sid in sorted(ctx.lvt_weights.keys() | ctx.gvt_weights.keys()):
            lines.append(f"transfer={sid},{ctx.lvt_weights.get(sid, 0.0)},"
                         f"{ctx.gvt_weights.get(sid, 0.0)}")
            lines.append(f"source_data={sid},{sources[sid].corpus_path},{sources[sid].kb_path}")
        lines.append(f"gvt_mask_oov={config.gvt_mask_oov}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:16]


def load_target(train_path, validation_path, labeled, min_freq=1, max_vocab=None):
    """The target training corpus, which builds the vocabulary, and the
    validation split on that vocabulary (None without a validation path)."""
    train_corpus = corpuslib.load_corpus_file(train_path, labeled=labeled,
                                              min_freq=min_freq, max_vocab=max_vocab)
    validation = None
    if validation_path is not None:
        validation = corpuslib.load_corpus_file(
            validation_path, vocabulary=train_corpus.vocabulary, labeled=labeled,
            split="validation")
    return train_corpus, validation


def load_eval_corpora(vocabulary, test_path, reference_path, pool_path, labeled, pool=None):
    """The corpora evaluate_model scores: (test, coherence reference, retrieval
    pool or None, ingestion audit rows).  The test split and the pool are
    encoded on the model's vocabulary; there is no pool without labels.  A
    pool given is pool_path already read on that vocabulary, so it is not
    read again."""
    test = corpuslib.load_corpus_file(test_path, vocabulary=vocabulary,
                                      labeled=labeled, split="test")
    reference = corpuslib.load_corpus_file(reference_path, labeled=labeled)
    audit = [("eval", "target_test", len(test)), ("eval", "coherence_reference", len(reference))]
    if not labeled or pool_path is None:
        pool = None
    else:
        if pool is None:
            pool = corpuslib.load_corpus_file(pool_path, vocabulary=vocabulary, labeled=True)
        audit.append(("eval", "retrieval_pool", len(pool)))
    return test, reference, pool, audit


def evaluate_model(params, vocabulary, ctx, test, reference, pool,
                   fractions=DEFAULT_FRACTIONS, window=DEFAULT_WINDOW, top_n=DEFAULT_TOP_N):
    """Score a model: test perplexity, topic coherence over the reference
    corpus and, with a pool, retrieval of the test documents from the pool.

    Returns the report without its fingerprint.
    """
    ppl = perplexity(params, test, ctx)
    topics = all_topics(params, vocabulary, top_n)
    coh = coherence(topics, reference, window=window, top_n=top_n)
    ir = []
    if pool is not None:
        ir = retrieval_precision(pool, test, model_vector_fn(params, ctx), fractions)
    return EvalReport(ppl, coh, ir)


def _prepare_kbs(config, out_dir, audit):
    """Build (train + export) or load each source knowledge base."""
    kbs = []
    for src in config.sources:
        with _stage(f"preparing knowledge base {src.source_id!r}"):
            if src.kb_path is not None:
                kbs.append(load_kb(src.kb_path, src.source_id))
                audit.append(("kb", f"source:{src.source_id}", 0))
                continue
            source_corpus = corpuslib.load_corpus_file(
                src.corpus_path, labeled=config.labeled,
                min_freq=config.min_freq, max_vocab=config.max_vocab)
            audit.append(("kb", f"source:{src.source_id}", len(source_corpus)))
            params, _ = train(source_corpus, config.train)
            kb = build_kb(params, source_corpus.vocabulary, src.source_id)
            save_kb(kb, os.path.join(out_dir, f"kb.{src.source_id}"))
            kbs.append(kb)
    return kbs


def _union_corpus(parts, labeled, min_freq, max_vocab):
    """Encode (name, raw_docs, labels) parts against the vocabulary of their union.

    Returns (merged training corpus, [(name, encoded document count)]).  A
    union vocabulary longer than max_vocab is an error, not a truncation.
    """
    vocabulary = corpuslib.build_vocabulary(
        [doc for _, docs, _ in parts for doc in docs], min_freq=min_freq)
    if max_vocab is not None and len(vocabulary) > max_vocab:
        raise ConfigError(
            f"vocabulary union holds {len(vocabulary)} tokens, above the configured "
            f"maximum {max_vocab}")
    names = None
    if labeled:
        # every part numbers its labels the same way: by first appearance
        names = list(dict.fromkeys(lab for _, _, labels in parts for lab in labels))
    encoded = [(name, corpuslib.encode_corpus(docs, labels, vocabulary, label_names=names))
               for name, docs, labels in parts]
    merged = corpuslib.Corpus(vocabulary, [doc for _, part in encoded for doc in part.documents],
                              label_names=names, split="train")
    return merged, [(name, len(part)) for name, part in encoded]


def _write_train_log(path, stats):
    def line(s):
        parts = [f"epoch {s.epoch}", f"loss {format_float(s.train_loss)}"]
        if s.validation_ppl is not None:
            parts.append(f"val_ppl {format_float(s.validation_ppl)}")
        for sid in sorted(s.gvt_residuals):
            parts.append(f"residual.{sid} {format_float(s.gvt_residuals[sid])}")
        return " ".join(parts)

    write_lines(path, map(line, stats))


def _write_selection(path, table, best_index):
    lines = [f"candidate {i} lam {format_float(lam)} gamma {format_float(gamma)} "
             f"val_ppl {format_float(ppl)}" for i, (lam, gamma, ppl) in enumerate(table)]
    write_lines(path, lines + [f"selected {best_index}"])


@contextlib.contextmanager
def _stage(name):
    """Prefix errors escaping an experiment stage with the stage name."""
    try:
        yield
    except TopicxferError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except OSError as exc:
        raise CorpusError(f"{name}: {exc}") from exc


def _write_audit(path, audit):
    write_lines(path, (f"{role} {name} {count}" for role, name, count in audit))


def run_experiment(config):
    """Run one experiment end to end; persists artifacts and returns the report."""
    os.makedirs(config.out_dir, exist_ok=True)
    audit = []
    ctx = None
    selection = None
    validation = None
    candidates = candidate_grid(config)

    if config.mode in UNION_MODES:
        parts = []
        with _stage("loading training corpora"):
            for src in config.sources:
                raw_docs, labels = corpuslib.read_raw_file(src.corpus_path,
                                                           labeled=config.labeled)
                parts.append((f"source:{src.source_id}", raw_docs, labels))
            if config.mode == "data-augment":
                raw_docs, labels = corpuslib.read_raw_file(config.target_train,
                                                           labeled=config.labeled)
                parts.append(("target_train", raw_docs, labels))
            train_corpus, per_part = _union_corpus(parts, config.labeled, config.min_freq,
                                                   config.max_vocab)
        for name, count in per_part:
            audit.append(("train", name, count))
    else:
        with _stage("loading target corpora"):
            train_corpus, validation = load_target(
                config.target_train, config.target_validation, config.labeled,
                config.min_freq, config.max_vocab)
        audit.append(("train", "target_train", len(train_corpus)))
    vocabulary = train_corpus.vocabulary
    # every topic lists coherence_top_n words; checked before any KB or model is trained
    parse_entry("coherence_top_n", config.coherence_top_n,
                lambda n: check_top_n(n, len(vocabulary)))
    # and every corpus the evaluation scores is read before then too
    with _stage("loading evaluation corpora"):
        # outside the union modes the pool is target.train on its own vocabulary
        test, reference, pool, eval_audit = load_eval_corpora(
            vocabulary, config.target_test, config.coherence_reference or config.target_train,
            config.target_train, config.labeled,
            pool=None if config.mode in UNION_MODES else train_corpus)
    if candidates:
        kbs = _prepare_kbs(config, config.out_dir, audit)
    audit.append(("train", "total", len(train_corpus)))

    if candidates:
        with _stage("grid search"):
            best_index, table, params, stats, ctx = grid_search(
                train_corpus, validation, kbs, config, candidates)
        selection = (table, best_index)
    else:
        with _stage("training"):
            params, stats = train(train_corpus, config.train, None, validation)

    with _stage("evaluating"):
        report = evaluate_model(params, vocabulary, ctx, test, reference, pool,
                                config.eval_fractions, config.coherence_window,
                                config.coherence_top_n)
    audit.extend(eval_audit)
    report.fingerprint = _fingerprint(config, ctx)

    save_model(params, vocabulary, os.path.join(config.out_dir, "model"),
               seed=config.train.seed,
               lvt_matrix=None if ctx is None else ctx.lvt_matrix)
    report.save(os.path.join(config.out_dir, "report.txt"))
    _write_train_log(os.path.join(config.out_dir, "train_log.txt"), stats)
    _write_audit(os.path.join(config.out_dir, "ingestion.txt"), audit)
    if selection is not None:
        _write_selection(os.path.join(config.out_dir, "selection.txt"), *selection)
    return report
