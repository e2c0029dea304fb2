"""Span recording around anonvox's public functions, installed from outside.

``install`` rebinds each traced function in every ``anonvox.*`` namespace
that holds it, because ``cli`` and ``harness`` import names directly. A
span records its name, layer (the defining module), start, end, parent and
item counts read from the call's arguments or result. Spans stay in memory;
the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

# traced function names; any ``load_*`` / ``save_*`` function is traced too
TRACED = (
    "load_embeddings", "load_trials", "load_scores", "load_model",
    "save_embeddings", "save_trials", "save_scores", "save_model",
    "make_trials", "train_plda", "score_trials", "anonymize_corpus", "compute_metrics",
    "det_points", "wer", "run_condition", "render_report", "anonymize_wav", "lpc_analyze",
    "warp_poles", "read_wav", "write_wav", "generate", "split", "main",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _anon_counts(args, kwargs, result):
    """Sources ranked and pool rows compared, per the documented assignment rule."""
    corpus, pool = _arg(args, kwargs, 0, "corpus"), _arg(args, kwargs, 1, "pool")
    cfg = _arg(args, kwargs, 3, "cfg")
    pool_by_gender = {}
    for rec in pool.records:
        pool_by_gender[rec.gender] = pool_by_gender.get(rec.gender, 0) + 1
    if cfg.assignment == "per_speaker":
        sources = list({r.spk_id: r.gender for r in corpus.records}.values())
    else:
        sources = [r.gender for r in corpus.records]
    if cfg.same_gender_pool:
        rows = sum(pool_by_gender.get(g, 0) for g in sources)
    else:
        rows = len(sources) * len(pool.records)
    return {"sources": len(sources), "pool_rows": rows}


def _wav_counts(args, kwargs, result):
    wav, cfg = _arg(args, kwargs, 0, "wav"), _arg(args, kwargs, 1, "cfg")
    return {"frames": math.ceil(len(wav) / cfg.hop), "samples": len(wav)}


COUNTS = {
    "load_embeddings": lambda a, k, r: {"records": len(r)},
    "load_trials": lambda a, k, r: {"trials": len(r)},
    "load_scores": lambda a, k, r: {"scores": len(r)},
    "save_embeddings": _saved_bytes,
    "save_trials": _saved_bytes,
    "save_scores": _saved_bytes,
    "save_model": _saved_bytes,
    "make_trials": lambda a, k, r: {"trials": len(r)},
    "train_plda": lambda a, k, r: {"records": len(_arg(a, k, 0, "corpus"))},
    "score_trials": lambda a, k, r: {"trials": len(_arg(a, k, 3, "trials"))},
    "anonymize_corpus": _anon_counts,
    "compute_metrics": lambda a, k, r: {"scores": len(_arg(a, k, 0, "scores"))},
    "det_points": lambda a, k, r: {"scores": len(_arg(a, k, 0, "scores"))},
    "wer": lambda a, k, r: {"words": len(_arg(a, k, 0, "ref"))},
    "anonymize_wav": _wav_counts,
    "generate": lambda a, k, r: {"records": len(r[0])},
}

# per-call span names for functions whose calls differ in kind
NAMES = {
    "main": lambda a, k: "main." + (_arg(a, k, 0, "argv") or ["?"])[0],
    "run_condition": lambda a, k: "run_condition." + _arg(a, k, 0, "condition").value,
}


class Recorder:
    """In-memory span list; spans are dicts with name, layer, start, end, parent, counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.uncounted: set[str] = set()
        self._open: list[int] = []

    def wrap(self, fn, name: str, layer: str):
        count = COUNTS.get(name)
        naming = NAMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": naming(args, kwargs) if naming else name,
                "layer": layer,
                "start": self.clock(),
                "end": None,
                "parent": self._open[-1] if self._open else -1,
                "counts": {},
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._open.pop()
            if count is not None:
                try:
                    span["counts"] = count(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    self.uncounted.add(name)
            return result

        return traced


def _traced_name(attr: str) -> bool:
    return attr in TRACED or attr.startswith(("load_", "save_"))


def install(recorder: Recorder) -> list[str]:
    """Wrap every traced function in every loaded ``anonvox`` module.

    Returns the names from ``TRACED`` that no module defines, so a function
    removed from the program shows as unmeasured instead of failing the run.
    """
    wrappers = {}
    found = set()
    modules = [m for n, m in sys.modules.items() if n == "anonvox" or n.startswith("anonvox.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if not (_traced_name(attr) and inspect.isfunction(obj)):
                continue
            if not obj.__module__.startswith("anonvox"):
                continue
            if obj not in wrappers:
                wrappers[obj] = recorder.wrap(obj, obj.__name__, obj.__module__.rsplit(".", 1)[-1])
            setattr(module, attr, wrappers[obj])
            found.add(obj.__name__)
    return [name for name in TRACED if name not in found]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append((s["end"] - s["start"]) - covered)
    return out
