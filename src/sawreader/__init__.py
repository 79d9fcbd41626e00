"""Cloze-style reading comprehension with subword-augmented word embeddings."""

from .bpe import (
    MergeRule,
    MergeTable,
    Segmentation,
    SubwordVocab,
    build_subword_vocab,
    segment_word,
    train_bpe,
)
from .data import PLACEHOLDER, ClozeExample, DatasetError, load_dataset, save_dataset
from .harness import (
    AttentionDump,
    EvalReport,
    build_pipeline,
    dump_attention,
    evaluate,
    new_model,
    sweep,
    sweep_csv,
)
from .reader import (
    AnswerDistribution,
    ReaderConfig,
    ReaderModel,
    answer,
    forward_batch,
    gated_attention_layer,
    load_model,
    save_model,
)
from .synth import SyntheticSpec, generate_synthetic
from .training import TrainConfig, TrainHistory, lr_schedule, train
from .vocab import (
    ShortList,
    Vocabulary,
    build_short_list,
    build_vocab,
    index_subwords,
)

__version__ = "0.1.0"
