import numpy as np
import pytest

from topicxfer.errors import ConfigError
from topicxfer.synthetic import SyntheticSpec, generate_synthetic


def test_overlap_one_shares_ground_truth_topics():
    spec = SyntheticSpec(n_topics=3, vocab_size=30, source_docs=5,
                         target_train_docs=5, target_validation_docs=2,
                         target_test_docs=2, source_len=(5, 8), target_len=(4, 6),
                         overlap=1.0, seed=11)
    source, (train, _, _) = generate_synthetic(spec)
    np.testing.assert_array_equal(source.ground_truth, train.ground_truth)


def test_partial_overlap_shares_prefix_topics():
    spec = SyntheticSpec(n_topics=4, vocab_size=30, source_docs=5,
                         target_train_docs=5, target_validation_docs=2,
                         target_test_docs=2, source_len=(5, 8), target_len=(4, 6),
                         overlap=0.5, seed=11)
    source, (train, _, _) = generate_synthetic(spec)
    np.testing.assert_array_equal(source.ground_truth[:2], train.ground_truth[:2])
    assert not np.array_equal(source.ground_truth[2:], train.ground_truth[2:])


def test_fixed_length_range():
    spec = SyntheticSpec(n_topics=2, vocab_size=20, source_docs=10,
                         target_train_docs=10, target_validation_docs=3,
                         target_test_docs=3, source_len=(5, 5), target_len=(5, 5),
                         seed=0)
    source, triple = generate_synthetic(spec)
    for corpus in (source, *triple):
        assert all(len(d) == 5 for d in corpus)


def test_generation_is_seed_deterministic():
    spec = SyntheticSpec(n_topics=3, vocab_size=25, source_docs=8,
                         target_train_docs=8, target_validation_docs=2,
                         target_test_docs=2, source_len=(4, 9), target_len=(3, 6),
                         seed=77)
    s1, (t1, v1, e1) = generate_synthetic(spec)
    s2, (t2, v2, e2) = generate_synthetic(spec)
    for a, b in ((s1, s2), (t1, t2), (v1, v2), (e1, e2)):
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert np.array_equal(da.words, db.words)
            assert da.label == db.label


def test_documents_are_labeled_by_dominant_topic():
    spec = SyntheticSpec(n_topics=3, vocab_size=20, source_docs=6,
                         target_train_docs=6, target_validation_docs=2,
                         target_test_docs=2, source_len=(4, 6), target_len=(4, 6),
                         seed=5)
    source, _ = generate_synthetic(spec)
    assert source.label_names == ["topic0", "topic1", "topic2"]
    assert all(d.label in (0, 1, 2) for d in source)


def test_empirical_unigram_matches_mixture_marginal():
    # monte-carlo check against the analytic marginal; high mixture
    # concentration keeps per-document correlation small
    spec = SyntheticSpec(n_topics=3, vocab_size=50, source_docs=500,
                         target_train_docs=1, target_validation_docs=1,
                         target_test_docs=1, source_len=(20, 20), target_len=(5, 5),
                         mixture_concentration=5.0, word_concentration=0.2, seed=123)
    source, _ = generate_synthetic(spec)
    counts = np.zeros(spec.vocab_size)
    total = 0
    for doc in source:
        for w in doc.words:
            counts[w] += 1
        total += len(doc)
    assert total >= 10_000
    empirical = counts / total
    # the expected unigram distribution of a symmetric mixture: the mean topic row
    analytic = source.ground_truth.mean(axis=0)
    tv = 0.5 * np.abs(empirical - analytic).sum()
    assert tv < 0.05


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_topics=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(overlap=1.5)
    with pytest.raises(ConfigError):
        SyntheticSpec(source_len=(5, 3))
