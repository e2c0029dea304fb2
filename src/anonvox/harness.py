"""Evaluation harness: attack conditions, per-gender metrics, report rendering.

Three conditions describe what the attacker sees: ``oo`` scores original
enrollment against original trial data, ``oa`` anonymizes only the trial
side, ``aa`` anonymizes both sides. In ``aa`` the two sides use different
random-stream subset tags by default, so a speaker's enrollment and trial
pseudo-speakers differ.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import anonymize as anon
from .anonymize import AnonConfig
from .embeddings import Corpus, TrialList
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


def trial_tag(condition: Condition, same_tags: bool) -> str:
    """Subset tag of the anonymized trial side; ``aa`` with ``same_tags`` uses "enroll"."""
    return "enroll" if (same_tags and condition is Condition.aa) else "trial"


@dataclass(frozen=True)
class EvalRun:
    dataset: str
    condition: Condition
    gender: str
    metrics: MetricsReport
    provenance: dict


def _gender_column(trials: TrialList, spk_gender: dict[str, str]) -> np.ndarray:
    """The enrollment speaker's gender for every trial."""
    return np.array([spk_gender[s] for s in trials.spk_vocab.tolist()], np.str_)[trials.spk_code]


def run_condition(
    condition: Condition,
    enroll: Corpus,
    trial: Corpus,
    pool: Corpus,
    model: PldaModel,
    anon_cfg: AnonConfig,
    trial_list: TrialList,
    dataset: str | None = None,
    same_tags: bool = False,
    anonymized: dict[tuple[str, str], Corpus] | None = None,
) -> list[EvalRun]:
    """Score one condition and return per-gender metric runs.

    Anonymization subset tags are fixed to "enroll"/"trial" (or shared when
    ``same_tags``), overriding whatever tag the config carries. Anonymized
    corpora are stored in ``anonymized`` under ``(side, subset_tag)``, with
    side "enroll" or "trial", and reused from it: pass one dict to every
    condition of a run that shares the same corpora, pool, model and config.
    """
    memo = {} if anonymized is None else anonymized

    def anonymize(side: str, corpus: Corpus, tag: str) -> Corpus:
        if (side, tag) not in memo:
            memo[side, tag] = anon.anonymize_corpus(
                corpus, pool, model, replace(anon_cfg, subset_tag=tag)
            )
        return memo[side, tag]

    enroll_c, trial_c = enroll, trial
    if condition in (Condition.oa, Condition.aa):
        trial_c = anonymize("trial", trial, trial_tag(condition, same_tags))
    if condition is Condition.aa:
        enroll_c = anonymize("enroll", enroll, "enroll")

    scores = score_trials(model, enroll_c, trial_c, trial_list)
    genders = _gender_column(trial_list, enroll.speaker_gender())
    dataset = dataset if dataset is not None else trial.name

    runs = []
    for gender in ("F", "M"):
        keep = genders == gender
        score, is_target = scores.score[keep], trial_list.is_target[keep]
        n_target = int(is_target.sum())
        if n_target == 0 or n_target == len(is_target):
            print(
                f"note: {condition.value}: skipped gender {gender}: {n_target} target and "
                f"{len(is_target) - n_target} nontarget trials",
                file=sys.stderr,
            )
            continue
        provenance = {
            "dataset": dataset,
            "condition": condition.value,
            "gender": gender,
            "enroll_corpus": enroll.name,
            "trial_corpus": trial.name,
            "pool_corpus": pool.name,
            "dim": model.dim,
            "seed": anon_cfg.seed,
            "n_farthest": anon_cfg.n_farthest,
            "n_select": anon_cfg.n_select,
            "assignment": anon_cfg.assignment,
            "same_gender_pool": anon_cfg.same_gender_pool,
            "same_tags": same_tags,
            "n_trials": len(trial_list),
        }
        runs.append(
            EvalRun(
                dataset=dataset,
                condition=condition,
                gender=gender,
                metrics=compute_metrics(score, is_target),
                provenance=provenance,
            )
        )
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
            f"{m.n_target} {m.n_nontarget} {r.provenance['seed']}"
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
