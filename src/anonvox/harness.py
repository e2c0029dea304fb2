"""Evaluation harness: attack conditions, per-gender metrics, report rendering.

Three conditions describe what the attacker sees: ``oo`` scores original
enrollment against original trial data, ``oa`` anonymizes only the trial
side, ``aa`` anonymizes both sides. In ``aa`` the two sides use different
random-stream subset tags by default, so a speaker's enrollment and trial
pseudo-speakers differ. ``evaluate`` is the one entry point: it runs each
requested condition once, anonymizes each side once per subset tag, and
hands each condition's corpora to ``run_condition``, which scores them and
splits the metrics per gender.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import anonymize as anon
from .anonymize import AnonConfig
from .embeddings import GENDERS, Corpus, TrialList, _id_fault, _raise_first
from .metrics import MetricsReport, compute_metrics
from .plda import PldaModel, score_trials

_AA_NOTE = (
    "note: aa anonymizes embeddings only, and enrollment/trial pseudo-speakers are "
    "drawn from separate streams."
)


class Condition(enum.Enum):
    oo = "oo"
    oa = "oa"
    aa = "aa"

    @property
    def enroll_status(self) -> str:
        return "anonymized" if self is Condition.aa else "original"

    @property
    def trial_status(self) -> str:
        return "original" if self is Condition.oo else "anonymized"


_CONDITION_ORDER = {c: i for i, c in enumerate(Condition)}


@dataclass(frozen=True)
class EvalRun:
    dataset: str
    condition: Condition
    gender: str
    metrics: MetricsReport
    seed: int


def _gender_column(trials: TrialList, spk_gender: dict[str, str]) -> np.ndarray:
    """The enrollment speaker's gender for every trial."""
    return np.array([spk_gender[s] for s in trials.spk_vocab.tolist()], np.str_)[trials.spk_code]


def evaluate(conditions: list[Condition], enroll: Corpus, trial: Corpus, pool: Corpus,
             model: PldaModel, cfg: AnonConfig, trials: TrialList, dataset: str | None = None,
             same_tags: bool = False) -> tuple[list[EvalRun], Corpus | None, Corpus | None]:
    """Score ``trials`` under each distinct condition, in the order given.

    Each side is anonymized once per subset tag: the trial side with tag
    "trial" (``aa`` with ``same_tags`` uses "enroll"), the enrollment side
    with "enroll", whatever tag ``cfg`` carries. Returns the per-gender runs,
    the anonymized trial corpus that was scored (``aa``'s when ``aa`` ran,
    else ``oa``'s, else None) and the anonymized enrollment corpus (``aa``'s,
    else None). ``dataset`` defaults to the trial corpus name; it opens each
    records line, so it must pass the id rule.
    """
    # pseudo-speakers drawn from evaluation speakers would leak their identity
    shared = np.intersect1d(pool.spk_id, np.union1d(enroll.spk_id, trial.spk_id)).tolist()
    if shared:
        raise ValueError(f"{len(shared)} pool speaker(s) also in enrollment or trial data: "
                         + " ".join(shared[:5]) + (" ..." if len(shared) > 5 else ""))
    dataset = trial.name if dataset is None else dataset
    _raise_first([_id_fault([dataset], "dataset")])
    anonymized = {}  # (side, subset_tag) -> anonymized corpus

    def anonymize(side: str, corpus: Corpus, tag: str) -> Corpus:
        if (side, tag) not in anonymized:
            anonymized[side, tag] = anon.anonymize_corpus(
                corpus, pool, model, replace(cfg, subset_tag=tag)
            )
        return anonymized[side, tag]

    runs, scored = [], {}
    for condition in dict.fromkeys(conditions):
        enroll_c, trial_c = enroll, trial
        if condition is not Condition.oo:
            tag = "enroll" if same_tags and condition is Condition.aa else "trial"
            trial_c = anonymize("trial", trial, tag)
        if condition is Condition.aa:
            enroll_c = anonymize("enroll", enroll, "enroll")
        scored[condition] = enroll_c, trial_c
        runs.extend(run_condition(condition, enroll_c, trial_c, model, trials, dataset, cfg.seed))
    # aa's trial side takes precedence over oa's
    trial_anon = next((scored[c][1] for c in (Condition.aa, Condition.oa) if c in scored), None)
    enroll_anon = scored[Condition.aa][0] if Condition.aa in scored else None
    return runs, trial_anon, enroll_anon


def run_condition(condition: Condition, enroll: Corpus, trial: Corpus, model: PldaModel,
                  trials: TrialList, dataset: str, seed: int) -> list[EvalRun]:
    """Score the given (original or anonymized) corpora; return per-gender runs."""
    scores = score_trials(model, enroll, trial, trials)
    genders = _gender_column(trials, enroll.speaker_gender())
    runs = []
    for gender in GENDERS:
        keep = genders == gender
        score, is_target = scores.score[keep], trials.is_target[keep]
        n_target = int(is_target.sum())
        if n_target == 0 or n_target == len(is_target):
            warnings.warn(f"{condition.value}: skipped gender {gender}: {n_target} target and "
                          f"{len(is_target) - n_target} nontarget trials")
            continue
        runs.append(EvalRun(dataset, condition, gender, compute_metrics(score, is_target), seed))
    if not runs:
        raise ValueError("no gender subset had both target and nontarget trials")
    return runs


@dataclass(frozen=True)
class Report:
    table: str
    records: tuple[str, ...]


_COLUMNS = ("dataset", "gender", "enroll", "trial", "eer%", "min_cllr", "cllr")


def render_report(runs) -> Report:
    """Fixed-column text table plus one machine-readable line per run."""
    runs = list(runs)
    if not runs:
        raise ValueError("render_report needs at least one run")
    runs.sort(key=lambda r: (r.dataset, r.gender, _CONDITION_ORDER[r.condition]))

    rows = []
    records = []
    for r in runs:
        m = r.metrics
        rows.append(
            (
                r.dataset,
                r.gender,
                r.condition.enroll_status,
                r.condition.trial_status,
                f"{100.0 * m.eer:.2f}",
                f"{m.min_cllr:.3f}",
                f"{m.cllr:.3f}",
            )
        )
        records.append(
            f"{r.dataset} {r.gender} {r.condition.enroll_status} "
            f"{r.condition.trial_status} {m.eer:.6f} {m.min_cllr:.6f} {m.cllr:.6f} "
            f"{m.n_target} {m.n_nontarget} {r.seed}"
        )

    widths = [
        max(len(_COLUMNS[c]), max(len(row[c]) for row in rows)) for c in range(len(_COLUMNS))
    ]
    lines = [
        "  ".join(name.ljust(widths[c]) for c, name in enumerate(_COLUMNS)).rstrip()
    ]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    if any(r.condition is Condition.aa for r in runs):
        lines.append("")
        lines.append(_AA_NOTE)
    return Report(table="\n".join(lines) + "\n", records=tuple(records))
