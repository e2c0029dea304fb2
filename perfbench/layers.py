"""Per-layer metrics derived from the spans of one traced run.

A layer is the anonvox module that defines a traced function. Times named
after a function are inclusive (the span's whole duration); ``<layer>.self_s``
is the layer's self time. The self times of all layers plus
``trace.unattributed_s`` add up to ``trace.run_s``.
"""

from __future__ import annotations

from spans import self_times

SUBCOMMANDS = ("synth", "make-trials", "train-plda", "anonymize-xvec", "anonymize-wav",
               "score", "eval", "det", "wer")
OP_LAYERS = ("embeddings", "plda", "anonymize", "metrics", "harness", "formant", "cli")

# (name, unit, better); the README maps each to the end-to-end metric it should move
PER_LAYER = [
    ("plda.score_trials_s", "s", "lower"),
    ("plda.trials_scored", "count", "lower"),
    ("plda.ns_per_trial", "ns", "lower"),
    ("plda.train_s", "s", "lower"),
    ("plda.load_model_s", "s", "lower"),
    ("anonymize.corpus_s", "s", "lower"),
    ("anonymize.corpus.calls", "count", "lower"),
    ("anonymize.sources_ranked", "count", "lower"),
    ("anonymize.pool_rows", "count", "lower"),
    ("anonymize.us_per_source", "us", "lower"),
    ("metrics.compute_s", "s", "lower"),
    ("metrics.scores_in", "count", "lower"),
    ("metrics.det_s", "s", "lower"),
    ("metrics.wer_s", "s", "lower"),
    ("embeddings.load_s", "s", "lower"),
    ("embeddings.save_s", "s", "lower"),
    ("embeddings.make_trials_s", "s", "lower"),
    ("embeddings.records_loaded", "count", "lower"),
    ("embeddings.trials_loaded", "count", "lower"),
    ("embeddings.bytes_written", "bytes", "lower"),
    ("harness.run_condition_s.oo", "s", "lower"),
    ("harness.run_condition_s.oa", "s", "lower"),
    ("harness.run_condition_s.aa", "s", "lower"),
    ("harness.render_s", "s", "lower"),
    ("formant.anonymize_wav_s", "s", "lower"),
    ("formant.frames", "count", "lower"),
    ("formant.us_per_frame", "us", "lower"),
    ("formant.lpc_s", "s", "lower"),
    ("formant.warp_s", "s", "lower"),
    ("formant.wav_io_s", "s", "lower"),
    ("synthgen.generate_s", "s", "lower"),
    ("synthgen.split_s", "s", "lower"),
    *((f"cli.main_s.{sub}", "s", "lower") for sub in SUBCOMMANDS),
    *((f"{layer}.self_s", "s", "lower") for layer in OP_LAYERS),
    ("trace.run_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("embeddings_per_s", "1/s", "higher"),
    ("rtf", "ratio", "lower"),
    ("fail_ratio", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Spans:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.self_s = self_times(spans)

    def dur(self, *names: str, layer: str | None = None, prefix: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self._pick(names, layer, prefix))

    def count(self, key: str, *names: str, layer: str | None = None,
              prefix: str | None = None) -> int:
        return sum(s["counts"].get(key, 0) for s in self._pick(names, layer, prefix))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def layer_self(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_s) if s["layer"] == layer)

    def _pick(self, names, layer, prefix):
        for s in self.spans:
            if prefix is not None:
                if s["layer"] == layer and s["name"].startswith(prefix):
                    yield s
            elif s["name"] in names:
                yield s


def op_metrics(spans: list[dict], run_s: float) -> dict[str, float]:
    """Layer metrics of one traced run of the timed commands."""
    t = _Spans(spans)
    m = {
        "plda.score_trials_s": t.dur("score_trials"),
        "plda.trials_scored": t.count("trials", "score_trials"),
        "plda.train_s": t.dur("train_plda"),
        "plda.load_model_s": t.dur("load_model"),
        "anonymize.corpus_s": t.dur("anonymize_corpus"),
        "anonymize.corpus.calls": t.calls("anonymize_corpus"),
        "anonymize.sources_ranked": t.count("sources", "anonymize_corpus"),
        "anonymize.pool_rows": t.count("pool_rows", "anonymize_corpus"),
        "metrics.compute_s": t.dur("compute_metrics"),
        "metrics.scores_in": t.count("scores", "compute_metrics"),
        "metrics.det_s": t.dur("det_points"),
        "metrics.wer_s": t.dur("wer"),
        "embeddings.load_s": t.dur(layer="embeddings", prefix="load_"),
        "embeddings.save_s": t.dur(layer="embeddings", prefix="save_"),
        "embeddings.make_trials_s": t.dur("make_trials"),
        "embeddings.records_loaded": t.count("records", "load_embeddings"),
        "embeddings.trials_loaded": t.count("trials", "load_trials"),
        "embeddings.bytes_written": t.count("bytes", layer="embeddings", prefix="save_"),
        "harness.run_condition_s.oo": t.dur("run_condition.oo"),
        "harness.run_condition_s.oa": t.dur("run_condition.oa"),
        "harness.run_condition_s.aa": t.dur("run_condition.aa"),
        "harness.render_s": t.dur("render_report"),
        "formant.anonymize_wav_s": t.dur("anonymize_wav"),
        "formant.frames": t.count("frames", "anonymize_wav"),
        "formant.lpc_s": t.dur("lpc_analyze"),
        "formant.warp_s": t.dur("warp_poles"),
        "formant.wav_io_s": t.dur("read_wav", "write_wav"),
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - sum(s["end"] - s["start"]
                                            for s in spans if s["parent"] < 0),
        "trace.spans": len(spans),
    }
    m["plda.ns_per_trial"] = _ratio(1e9 * m["plda.score_trials_s"], m["plda.trials_scored"])
    m["anonymize.us_per_source"] = _ratio(1e6 * m["anonymize.corpus_s"],
                                          m["anonymize.sources_ranked"])
    m["formant.us_per_frame"] = _ratio(1e6 * m["formant.anonymize_wav_s"], m["formant.frames"])
    for sub in SUBCOMMANDS:
        m[f"cli.main_s.{sub}"] = t.dur(f"main.{sub}")
    for layer in OP_LAYERS:
        m[f"{layer}.self_s"] = t.layer_self(layer)
    return m


def setup_metrics(spans: list[dict]) -> dict[str, float]:
    """Layer metrics of one traced set-up."""
    t = _Spans(spans)
    return {
        "synthgen.generate_s": t.dur("generate"),
        "synthgen.split_s": t.dur("split"),
        "cli.main_s.synth": t.dur("main.synth"),
    }
