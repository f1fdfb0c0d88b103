"""Corpus ingestion: vocabularies, index-encoded documents, and the line-based file format.

A corpus file holds one document per line.  In labeled mode each line is
``label<TAB>token token ...``; in unlabeled mode the whole line is tokens.
A vocabulary file holds one token per line (index = line number).
"""

from __future__ import annotations

import collections
import re
from dataclasses import dataclass

import numpy as np

from .errors import CorpusError
from .fileio import write_lines

SPLITS = ("train", "validation", "test")


# a whitespace-free run from its first to its last letter or digit: [^\W_] matches
# exactly what str.isalnum() accepts and \s exactly what str.split() splits on
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?")


def tokenize(text):
    """Lowercase, split on whitespace, trim non-alphanumeric edges, drop empties."""
    return _TOKEN.findall(text.lower())


class Vocabulary:
    """Ordered set of distinct tokens with mutually inverse token<->index maps."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if not tokens:
            raise CorpusError("empty vocabulary")
        self._tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}
        if len(self._index) != len(tokens):
            dupes = [t for t, n in collections.Counter(tokens).items() if n > 1]
            raise CorpusError(f"duplicate vocabulary tokens: {dupes[:5]}")

    def __len__(self):
        return len(self._tokens)

    def __contains__(self, token):
        return token in self._index

    def __iter__(self):
        return iter(self._tokens)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    @property
    def tokens(self):
        return list(self._tokens)

    def index(self, token):
        try:
            return self._index[token]
        except KeyError:
            raise CorpusError(f"token not in vocabulary: {token!r}") from None

    def token(self, index):
        return self._tokens[index]

    def save(self, path):
        write_lines(path, self._tokens)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        try:
            return cls(tokens)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None


def word_indices(words, empty_message):
    """words as a contiguous int64 (D,) array; CorpusError for any other shape or dtype.

    An empty input raises CorpusError(empty_message).  Floats and bools are
    refused rather than truncated to indices.
    """
    arr = np.asarray(words)
    if arr.ndim != 1:
        raise CorpusError(f"word indices must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise CorpusError(empty_message)
    if arr.dtype.kind not in "iu":
        raise CorpusError(f"word indices must be integers, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


@dataclass
class Document:
    """One encoded document: vocabulary indices in order, optional label index."""

    words: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.words = word_indices(self.words, "documents must contain at least one word index")

    def __len__(self):
        return int(self.words.size)


@dataclass
class Corpus:
    """Encoded documents sharing one vocabulary, tagged with a split name."""

    vocabulary: Vocabulary
    documents: list[Document]
    label_names: list[str] | None = None
    split: str = "train"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise CorpusError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        k = len(self.vocabulary)
        for doc in self.documents:
            if doc.words.min(initial=0) < 0 or doc.words.max(initial=0) >= k:
                raise CorpusError("document word index out of vocabulary range")
            if doc.label is not None:
                if self.label_names is None or not 0 <= doc.label < len(self.label_names):
                    raise CorpusError("document label index out of range")

    def __len__(self):
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    @property
    def labeled(self):
        return self.label_names is not None

    def label_of(self, doc):
        """Label string for a document of this corpus (None when unlabeled)."""
        if doc.label is None:
            return None
        return self.label_names[doc.label]

    def decode(self, doc):
        return [self.vocabulary.token(i) for i in doc.words]


def check_vocabulary_limits(min_freq=1, max_vocab=None):
    if min_freq < 1:
        raise CorpusError("min_freq must be >= 1")
    if max_vocab is not None and max_vocab < 1:
        raise CorpusError("max_vocab must be >= 1")


def build_vocabulary(raw_docs, min_freq=1, max_vocab=None):
    """Build a vocabulary from tokenized documents.

    Keeps tokens with corpus frequency >= min_freq, ordered by descending
    frequency then ascending token, truncated to the max_vocab most frequent.
    """
    if not raw_docs:
        raise CorpusError("cannot build a vocabulary from zero documents")
    check_vocabulary_limits(min_freq, max_vocab)
    counts = collections.Counter()
    for doc in raw_docs:
        counts.update(doc)
    kept = [(tok, n) for tok, n in counts.items() if n >= min_freq]
    if not kept:
        raise CorpusError("empty vocabulary: every token fell below min_freq")
    kept.sort(key=lambda item: (-item[1], item[0]))
    if max_vocab is not None:
        kept = kept[:max_vocab]
    return Vocabulary([tok for tok, _ in kept])


def encode_corpus(raw_docs, labels, vocabulary, split="train", label_names=None):
    """Map tokenized documents onto vocabulary indices.

    Out-of-vocabulary tokens are dropped, and so are documents that become
    empty.  When label_names is given, any label outside it is an ingestion
    error; otherwise label names are collected in order of first appearance.
    """
    if labels is not None and len(labels) != len(raw_docs):
        raise CorpusError("labels and documents must align one-to-one")
    names = name_index = None
    if labels is not None:
        names = list(dict.fromkeys(labels) if label_names is None else label_names)
        name_index = {n: i for i, n in enumerate(names)}
        for lab in labels:
            if lab not in name_index:
                raise CorpusError(f"label not in label set: {lab!r}")

    documents = []
    index = vocabulary._index
    for pos, doc in enumerate(raw_docs):
        idx = [index[t] for t in doc if t in index]
        if idx:
            label = name_index[labels[pos]] if labels is not None else None
            documents.append(Document(np.array(idx, dtype=np.int64), label))
    return Corpus(vocabulary, documents, label_names=names, split=split)


def read_raw_file(path, labeled=False):
    """Parse a corpus file into (tokenized docs, labels or None)."""
    raw_docs = []
    labels = [] if labeled else None
    with open(path, encoding="utf-8") as fh:
        # the newline is whitespace to tokenize and never part of a label
        for lineno, line in enumerate(fh, start=1):
            if labeled:
                if "\t" not in line:
                    raise CorpusError(
                        f"{path}: line {lineno}: expected 'label<TAB>tokens'"
                    )
                label, line = line.split("\t", 1)
                labels.append(label)
            raw_docs.append(tokenize(line))
    if not raw_docs:
        raise CorpusError(f"{path}: file contains no documents")
    return raw_docs, labels


def load_corpus_file(path, vocabulary=None, labeled=False, split="train",
                     min_freq=1, max_vocab=None):
    """Load a corpus file, building a vocabulary unless one is supplied.

    A file none of whose documents holds a vocabulary word is a CorpusError.
    """
    raw_docs, labels = read_raw_file(path, labeled=labeled)
    if vocabulary is None:
        vocabulary = build_vocabulary(raw_docs, min_freq=min_freq, max_vocab=max_vocab)
    corpus = encode_corpus(raw_docs, labels, vocabulary, split=split)
    if not corpus.documents:
        raise CorpusError(f"{path}: no document holds a word of the vocabulary")
    return corpus


def write_corpus_file(corpus, path):
    """Write a corpus back out in the line format (labels included when present)."""
    def line(doc):
        text = " ".join(corpus.decode(doc))
        return f"{corpus.label_of(doc)}\t{text}" if corpus.labeled else text

    write_lines(path, map(line, corpus.documents))
