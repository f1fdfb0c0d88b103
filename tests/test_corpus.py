import collections
import re
import sys

import numpy as np
import pytest

from topicxfer.corpus import (Document, Vocabulary, build_vocabulary,
                              encode_corpus, load_corpus_file, read_raw_file,
                              tokenize, write_corpus_file)
from topicxfer.errors import CorpusError


def test_tokenize_lowercases_and_trims_edges():
    assert tokenize("Hello, World!  (x1)") == ["hello", "world", "x1"]
    assert tokenize("--- ...") == []
    assert tokenize("don't STOP") == ["don't", "stop"]


def _trim_oracle(token):
    """The per-character edge trim tokenize() is specified by."""
    start, end = 0, len(token)
    while start < end and not token[start].isalnum():
        start += 1
    while end > start and not token[end - 1].isalnum():
        end -= 1
    return token[start:end]


def _tokenize_oracle(text):
    return [tok for tok in map(_trim_oracle, text.lower().split()) if tok]


def test_tokenize_matches_split_and_trim_oracle_on_unicode_fuzz():
    # ASCII punctuation and "_", an Arabic-Indic digit, a superscript, a Roman
    # numeral, a capital sharp s, a combining accent, NBSP, an ideographic
    # space, and a dotted capital I whose lowercase is two code points
    alphabet = list("aZ9 \t\n!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~") + [
        "\u0663", "\u00b2", "\u2164", "\u1e9e", "\u0301", "\u00a0", "\u3000", "\u0130"]
    rng = np.random.default_rng(1909)
    for _ in range(5000):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 25)))
        assert tokenize(text) == _tokenize_oracle(text), repr(text)


def test_token_pattern_classes_match_isalnum_and_split_on_every_code_point():
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"[^\W_]", chars) == list(filter(str.isalnum, chars))
    # every code point occurs once, so equal pieces mean equal separator sets
    assert re.split(r"\s+", chars) == chars.split()


def test_vocabulary_roundtrip_maps():
    vocab = Vocabulary(["b", "a", "c"])
    for i, tok in enumerate(vocab):
        assert vocab.index(tok) == i
        assert vocab.token(i) == tok
    assert "a" in vocab and "z" not in vocab
    with pytest.raises(CorpusError):
        Vocabulary(["a", "a"])
    with pytest.raises(CorpusError):
        Vocabulary([])


@pytest.mark.parametrize("words, message", [
    (np.array([1.5, 2.0]), "must be integers, got dtype float64"),
    ([1.0, 2.0], "must be integers, got dtype float64"),
    (np.array([True, False]), "must be integers, got dtype bool"),
    (np.array([[1, 2], [3, 4]]), r"must be one-dimensional, got shape \(2, 2\)"),
    (np.int64(3), r"must be one-dimensional, got shape \(\)"),
    ([], "documents must contain at least one word index"),
])
def test_document_rejects_non_integer_or_non_vector_words(words, message):
    with pytest.raises(CorpusError, match=message):
        Document(words)


def test_document_words_are_contiguous_int64():
    doc = Document(np.arange(10)[::2])
    assert doc.words.dtype == np.int64 and doc.words.flags.c_contiguous
    assert doc.words.tolist() == [0, 2, 4, 6, 8]


def test_build_vocabulary_frequency_threshold():
    vocab = build_vocabulary([["a", "b", "a"], ["a", "c"]], min_freq=2, max_vocab=10)
    assert vocab.tokens == ["a"]


def test_build_vocabulary_singleton():
    assert build_vocabulary([["x"]], min_freq=1, max_vocab=1).tokens == ["x"]


def test_build_vocabulary_matches_frequency_count_oracle(rng):
    words = [f"t{i}" for i in range(12)]
    docs = [[words[rng.integers(0, 12)] for _ in range(rng.integers(3, 15))]
            for _ in range(20)]
    vocab = build_vocabulary(docs, min_freq=2, max_vocab=5)
    # independent oracle: brute-force counting with the same ordering rule
    counts = collections.Counter(tok for doc in docs for tok in doc)
    expect = sorted((t for t, n in counts.items() if n >= 2),
                    key=lambda t: (-counts[t], t))[:5]
    assert vocab.tokens == expect


def test_build_vocabulary_all_filtered_is_error():
    with pytest.raises(CorpusError, match="empty vocabulary"):
        build_vocabulary([["a"], ["b"]], min_freq=3)


def test_build_vocabulary_deterministic():
    docs = [["b", "a"], ["a", "c", "b"], ["c"]]
    assert build_vocabulary(docs).tokens == build_vocabulary(docs).tokens


def test_encode_drops_oov_tokens():
    vocab = Vocabulary(["a", "b"])
    corpus = encode_corpus([["a", "b", "z"]], None, vocab)
    assert list(corpus.documents[0].words) == [0, 1]


def test_encode_drops_fully_oov_documents():
    vocab = Vocabulary(["a"])
    corpus = encode_corpus([["z", "z"], ["a"]], None, vocab)
    assert [list(doc.words) for doc in corpus.documents] == [[0]]


def test_encode_lengths_match_recount_oracle(rng):
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    pool = [f"w{i}" for i in range(9)]  # 3 of these are OOV
    docs = [[pool[rng.integers(0, 9)] for _ in range(rng.integers(1, 12))]
            for _ in range(10)]
    corpus = encode_corpus(docs, None, vocab)
    expected_lengths = [sum(1 for t in doc if t in vocab) for doc in docs]
    expected_lengths = [n for n in expected_lengths if n > 0]
    assert [len(d) for d in corpus.documents] == expected_lengths


def test_encode_decoding_recovers_invocab_subsequence(rng):
    vocab = Vocabulary(["a", "b", "c"])
    raw = [["a", "z", "c", "b", "q", "a"]]
    corpus = encode_corpus(raw, None, vocab)
    assert corpus.decode(corpus.documents[0]) == ["a", "c", "b", "a"]


def test_encode_unknown_label_is_error():
    vocab = Vocabulary(["a"])
    with pytest.raises(CorpusError, match="label"):
        encode_corpus([["a"]], ["sports"], vocab, label_names=["tech"])


def test_encode_labels_number_by_first_appearance_or_the_given_names():
    vocab = Vocabulary(["a"])
    labels = ["tech", "sport", "tech", "misc"]
    corpus = encode_corpus([["a"]] * 4, labels, vocab)
    assert corpus.label_names == ["tech", "sport", "misc"]
    assert [doc.label for doc in corpus.documents] == [0, 1, 0, 2]
    given = encode_corpus([["a"]] * 4, labels, vocab, label_names=["misc", "sport", "tech"])
    assert [doc.label for doc in given.documents] == [2, 1, 2, 0]
    with pytest.raises(CorpusError, match="label not in label set: 'sport'"):
        encode_corpus([["a"]] * 4, labels, vocab, label_names=["tech"])


def test_load_labeled_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("sport\tgame win\ntech\tchip code\n")
    corpus = load_corpus_file(path, labeled=True)
    assert len(corpus) == 2
    assert corpus.label_names == ["sport", "tech"]
    assert corpus.label_of(corpus.documents[1]) == "tech"


def test_load_labeled_file_missing_tab_reports_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("onlylabel\n")
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus_file(path, labeled=True)


def test_corpus_file_roundtrip(tmp_path, rng):
    words = [f"w{i}" for i in range(15)]
    labels = ["x", "y", "z"]
    raw = [[words[rng.integers(0, 15)] for _ in range(rng.integers(1, 9))]
           for _ in range(50)]
    labs = [labels[rng.integers(0, 3)] for _ in range(50)]
    vocab = build_vocabulary(raw)
    corpus = encode_corpus(raw, labs, vocab)
    path = tmp_path / "c.txt"
    write_corpus_file(corpus, path)
    again = load_corpus_file(path, vocabulary=vocab, labeled=True)
    assert again.label_names == corpus.label_names
    assert len(again) == len(corpus)
    for a, b in zip(corpus.documents, again.documents):
        assert np.array_equal(a.words, b.words)
        assert corpus.label_of(a) == again.label_of(b)


def test_read_raw_file_unlabeled(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha beta\ngamma\n")
    docs, labels = read_raw_file(path)
    assert docs == [["alpha", "beta"], ["gamma"]]
    assert labels is None
