"""Speaker anonymization and verification evaluation toolkit."""

__version__ = "0.1.0"

from .anonymize import AnonConfig, anonymize_corpus
from .embeddings import (
    Corpus,
    ScoreSet,
    TrialList,
    TrialPolicy,
    load_embeddings,
    load_scores,
    load_trials,
    make_trials,
    save_embeddings,
    save_scores,
    save_trials,
)
from .formant import ShiftConfig, WaveBuffer, anonymize_wav, lpc_analyze, warp_poles
from .harness import Condition, EvalRun, evaluate, render_report, run_condition
from .metrics import (
    DetCurve,
    MetricsReport,
    WerResult,
    compute_metrics,
    det_points,
    wer,
)
from .plda import (
    PldaModel,
    load_model,
    save_model,
    score_trials,
    train_plda,
)
from .synthgen import GenSpec, default_spec, generate, split
