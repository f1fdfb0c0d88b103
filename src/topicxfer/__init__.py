"""Neural autoregressive topic modeling with multi-view, multi-source knowledge transfer."""

from .corpus import (Corpus, Document, Vocabulary, build_vocabulary,
                     encode_corpus, load_corpus_file, tokenize,
                     write_corpus_file)
from .errors import ConfigError, CorpusError, NumericalError, TopicxferError
from .evaluate import (EvalReport, coherence, nearest_neighbors, perplexity,
                       retrieval_precision, top_words)
from .harness import ExperimentConfig, grid_search, parse_config, run_experiment
from .model import (ModelParams, TrainConfig, document_vector, forward,
                    gradients, init_params, load_model, loss, save_model,
                    train)
from .synthetic import SyntheticSpec, generate_synthetic
from .transfer import (KnowledgeBase, ProjectedKB, TransferSpec, build_kb,
                       gvt_gradients, gvt_penalty, load_embeddings_text,
                       load_kb, make_transfer_context, project_kb, save_kb)

__version__ = "0.1.0"
