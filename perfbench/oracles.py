"""Output checks written independently of anonvox: own file readers, a dense
Gaussian density-ratio scorer, the documented anonymizer rule, an edit
distance and sanity checks on audio. Each ``check_*`` returns a list of
problems; an empty list means the outputs passed.
"""

from __future__ import annotations

import hashlib
import struct
import wave
from pathlib import Path

import numpy as np

GENDERS = ("F", "M")
SCORE_TOL = 1e-5  # score files carry six decimals
RECORD_TOL = 2e-6  # records carry six decimals; allows one flip of the last digit
VECTOR_TOL = 1e-10
# EER(oa) bands. The README states [40%, 60%] for the default D=32 corpus. At
# D=64 the farthest-pool rule can overshoot past chance: EER(oa) is 48-59% at
# 200 speakers over seeds 0-31, 61-67% at 250 and 85-87% at 1000. So for
# D=64 only the privacy direction is checked here; reference.json pins the
# exact values of seeds 0-31.
DESK_OA_BAND = (0.40, 0.60)
STRESS_OA_BAND = (0.40, 1.0)


# ---------------------------------------------------------------- file readers


def read_xvec(path: Path):
    """Binary embeddings: (utt ids, speaker ids, genders, (N, D) matrix)."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"XVC1":
        raise ValueError(f"{path}: bad magic")
    dim, count = struct.unpack_from("<II", blob, 4)
    off = 12
    utts, spks, genders, rows = [], [], [], []
    for _ in range(count):
        for ids in (utts, spks):
            (n,) = struct.unpack_from("<H", blob, off)
            ids.append(blob[off + 2 : off + 2 + n].decode("utf-8"))
            off += 2 + n
        genders.append(GENDERS[blob[off]])
        rows.append(np.frombuffer(blob, dtype="<f8", count=dim, offset=off + 1))
        off += 1 + 8 * dim
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes")
    return utts, spks, genders, np.array(rows).reshape(count, dim)


def xvec_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return struct.unpack("<4sII", fh.read(12))[2]


def read_model(path: Path):
    blob = Path(path).read_bytes()
    if blob[:4] != b"PLD1":
        raise ValueError(f"{path}: bad magic")
    (d,) = struct.unpack_from("<I", blob, 4)
    v = np.frombuffer(blob, dtype="<f8", offset=8)
    if v.size != d + 2 * d * d:
        raise ValueError(f"{path}: wrong size for D={d}")
    return v[:d], v[d : d + d * d].reshape(d, d), v[d + d * d :].reshape(d, d)


def read_columns(path: Path) -> list[list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [ln.split() for ln in lines if ln.strip() and not ln.startswith("#")]


# --------------------------------------------------------------------- oracles


def dense_llr(model, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Row-wise log N([x1;x2]; same speaker) - log N(x1) - log N(x2), from the
    stacked 2D-dimensional covariance [[T, B], [B, T]], T = B + W."""
    mu, b, w = model
    t = b + w
    joint = np.block([[t, b], [b, t]])

    def logpdf(z, cov):
        _, logdet = np.linalg.slogdet(cov)
        quad = np.einsum("ij,ij->i", z, np.linalg.solve(cov, z.T).T)
        return -0.5 * (z.shape[1] * np.log(2 * np.pi) + logdet + quad)

    z1, z2 = np.atleast_2d(x1) - mu, np.atleast_2d(x2) - mu
    z1 = np.broadcast_to(z1, z2.shape) if z1.shape[0] == 1 else z1
    z2 = np.broadcast_to(z2, z1.shape) if z2.shape[0] == 1 else z2
    return logpdf(np.hstack([z1, z2]), joint) - logpdf(z1, t) - logpdf(z2, t)


def keyed_stream(seed: int, tag: str, key: str) -> np.random.Generator:
    """The stream documented in anonymize.py: sha256 of ``tag\\x1fkey``."""
    digest = hashlib.sha256(f"{tag}\x1f{key}".encode("utf-8")).digest()
    entropy = int.from_bytes(digest[:16], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, entropy]))


def pseudo_vector(source, pool_ids, pool_matrix, model, n_farthest, n_select, rng):
    """Mean of ``n_select`` rows drawn from the ``n_farthest`` pool rows with the
    lowest LLR against ``source``; ties go to the lower utterance id."""
    dist = -dense_llr(model, source, pool_matrix)
    order = sorted(range(len(pool_ids)), key=lambda i: (-dist[i], pool_ids[i]))
    top = np.array(order[:n_farthest])
    chosen = np.sort(top[rng.choice(n_farthest, size=n_select, replace=False)])
    return pool_matrix[chosen].mean(axis=0)


def edit_counts(ref: list[str], hyp: list[str]) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def expected_trials(enroll, trial) -> set[tuple[str, str, str]]:
    """Targets: same speaker; impostors: other speakers of the same gender."""
    e_utts, e_spks, e_gen, _ = enroll
    t_utts, t_spks, t_gen, _ = trial
    spk_gender = dict(zip(e_spks, e_gen))
    own = set(e_utts)
    out = set()
    for spk, g in spk_gender.items():
        for utt, tspk, tg in zip(t_utts, t_spks, t_gen):
            if tspk == spk and utt not in own:
                out.add((spk, utt, "target"))
            elif tspk != spk and tg == g:
                out.add((spk, utt, "nontarget"))
    return out


# ---------------------------------------------------------------------- checks


def check_records(records_path: Path, trials, spk_gender: dict, reference, oa_band) -> list[str]:
    """Six lines (oo/oa/aa x F/M): trial counts, reference values and, when
    ``oa_band`` is given, EER(oo) below 5% and EER(oa) inside the band."""
    problems = []
    rows = read_columns(records_path)
    cond = {("original", "original"): "oo", ("original", "anonymized"): "oa",
            ("anonymized", "anonymized"): "aa"}
    counts = {}
    for spk, _, label in trials:
        key = (spk_gender[spk], label)
        counts[key] = counts.get(key, 0) + 1
    seen = set()
    for row in rows:
        if len(row) != 10:
            return [f"records: malformed line {' '.join(row)!r}"]
        c, g = cond.get((row[2], row[3])), row[1]
        eer, n_tar, n_non = float(row[4]), int(row[7]), int(row[8])
        seen.add((c, g))
        if (n_tar, n_non) != (counts.get((g, "target"), 0), counts.get((g, "nontarget"), 0)):
            problems.append(f"records {c} {g}: counts {n_tar}/{n_non} differ from the trial list")
        if oa_band and c == "oo" and not eer < 0.05:
            problems.append(f"records oo {g}: EER {eer:.4f} not below 5%")
        if oa_band and c == "oa" and not oa_band[0] <= eer <= oa_band[1]:
            problems.append(f"records oa {g}: EER {eer:.4f} outside {oa_band}")
    if seen != {(c, g) for c in ("oo", "oa", "aa") for g in GENDERS}:
        problems.append(f"records: expected oo/oa/aa x F/M, got {sorted(seen)}")
    if reference is not None:
        want = [ln.split() for ln in reference]
        if len(want) != len(rows) or any(
            w[:4] + w[7:] != r[:4] + r[7:]
            or max(abs(float(a) - float(b)) for a, b in zip(w[4:7], r[4:7])) > RECORD_TOL
            for w, r in zip(want, rows)
        ):
            problems.append("records differ from the reference values for this seed")
    return problems


def check_anonymized(anon_path: Path, source, pool, model, n_farthest, n_select, *,
                     per_speaker: bool, same_gender: bool, tag: str, sample: int,
                     rng: np.random.Generator) -> list[str]:
    """Labels kept in order; a seeded sample of pseudo-vectors recomputed."""
    utts, spks, gens, x = source
    a_utts, a_spks, a_gens, ax = read_xvec(anon_path)
    if (a_utts, a_spks, a_gens) != (utts, spks, gens):
        return [f"{anon_path.name}: labels or order differ from the input"]
    p_utts, _, p_gens, p_x = pool
    keys = list(dict.fromkeys(spks)) if per_speaker else utts
    problems = []
    for k in rng.choice(len(keys), size=min(sample, len(keys)), replace=False):
        key = keys[k]
        rows = [i for i, s in enumerate(spks) if s == key] if per_speaker else [utts.index(key)]
        keep = [i for i, g in enumerate(p_gens) if not same_gender or g == gens[rows[0]]]
        want = pseudo_vector(x[rows].mean(axis=0), [p_utts[i] for i in keep], p_x[keep],
                             model, n_farthest, n_select, keyed_stream(0, tag, key))
        tol = VECTOR_TOL * max(1.0, np.max(np.abs(want)))
        if any(np.max(np.abs(ax[i] - want)) > tol for i in rows):
            problems.append(f"{anon_path.name}: pseudo-vector for {key!r} differs from the oracle")
    return problems


def check_wav(in_path: Path, out_path: Path) -> list[str]:
    """Same length, rate and format as the input; not silent; changed."""
    def read(path):
        with wave.open(str(path), "rb") as fh:
            params = (fh.getnchannels(), fh.getsampwidth(), fh.getframerate(), fh.getnframes())
            return params, np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2").astype(float)

    (p_in, x), (p_out, y) = read(in_path), read(out_path)
    problems = []
    if p_in != p_out or x.size != y.size:
        problems.append(f"wav: output {p_out} does not match input {p_in}")
    elif np.sqrt(np.mean(y * y)) < 0.01 * np.sqrt(np.mean(x * x)):
        problems.append("wav: output is silent")
    elif np.array_equal(x, y):
        problems.append("wav: output equals the input")
    return problems


def _check_det(det_path: Path, scores, labels) -> list[str]:
    """Every distinct score plus two sentinels; a sample of rates recomputed."""
    rows = np.array([[float(v) for v in r] for r in read_columns(det_path)])
    tar, non = scores[labels], scores[~labels]
    if rows.shape != (np.unique(scores).size + 2, 5):
        return [f"det: {rows.shape[0]} points for {np.unique(scores).size} distinct scores"]
    t = rows[:, 0]
    p_miss = np.searchsorted(np.sort(tar), t, side="left") / tar.size
    p_fa = 1.0 - np.searchsorted(np.sort(non), t, side="left") / non.size
    if np.max(np.abs(rows[:, 1] - p_fa)) > 1e-8 or np.max(np.abs(rows[:, 2] - p_miss)) > 1e-8:
        return ["det: operating points differ from the recomputed rates"]
    return []


def _cllr(tar: np.ndarray, non: np.ndarray) -> float:
    return 0.5 * (np.mean(np.logaddexp(0.0, -tar)) + np.mean(np.logaddexp(0.0, non))) / np.log(2.0)


def _check_desk(sizes, inp: Path, out: Path, enroll, trial, pool, reference, full,
                rng) -> list[str]:
    problems = []
    model = read_model(out / "model.plda")
    trials = [tuple(r) for r in read_columns(out / "trials.txt")]
    if len(trials) != len(set(trials)) or set(trials) != expected_trials(enroll, trial):
        problems.append("make-trials: trial list differs from the enumeration rule")
    scores = read_columns(out / "scores.txt")
    if [tuple(s[:2]) for s in scores] != [t[:2] for t in trials]:
        return problems + ["score: score file does not follow the trial list"]
    values = np.array([float(s[2]) for s in scores])
    labels = np.array([t[2] == "target" for t in trials])

    e_utts, e_spks, e_gen, e_x = enroll
    means = {s: e_x[[i for i, k in enumerate(e_spks) if k == s]].mean(axis=0) for s in set(e_spks)}
    t_index = {u: i for i, u in enumerate(trial[0])}
    idx = rng.choice(len(trials), size=min(256, len(trials)), replace=False)
    want = dense_llr(model, np.array([means[trials[i][0]] for i in idx]),
                     trial[3][[t_index[trials[i][1]] for i in idx]])
    worst = np.max(np.abs(values[idx] - want))
    if worst > SCORE_TOL:
        problems.append(f"score: max |score - dense oracle| {worst:.2e}")
    problems += _check_det(out / "det.txt", values, labels)

    spk_gender = dict(zip(e_spks, e_gen))
    problems += check_records(out / "records.txt", trials, spk_gender, reference,
                              DESK_OA_BAND if full else None)
    for row in read_columns(out / "records.txt"):
        if row[2:4] == ["original", "original"] and len(row) == 10:
            g = np.array([spk_gender[t[0]] == row[1] for t in trials])
            if abs(_cllr(values[g & labels], values[g & ~labels]) - float(row[6])) > SCORE_TOL:
                problems.append(f"records oo {row[1]}: Cllr differs from the score file's")
    for source, name in ((trial, "trial"), (enroll, "enroll")):
        problems += check_anonymized(out / "anon" / f"{name}_anon.xvec", source, pool, model,
                                     sizes.n_farthest, sizes.n_select, per_speaker=True,
                                     same_gender=False, tag=name, sample=6, rng=rng)

    refs = (inp / "ref.txt").read_text(encoding="utf-8").split("\n")
    hyps = (inp / "hyp.txt").read_text(encoding="utf-8").split("\n")
    pairs = [(r.split(), h.split()) for r, h in zip(refs, hyps) if r.strip()]
    rate = 100.0 * sum(edit_counts(r, h) for r, h in pairs) / sum(len(r) for r, _ in pairs)
    if f"WER {rate:.3f}%" not in (out / "stdout.txt").read_text(encoding="utf-8"):
        problems.append(f"wer: expected 'WER {rate:.3f}%' on stdout")
    return problems


def check_outputs(name: str, sizes, seed: int, inp: Path, out: Path, reference,
                  full: bool) -> list[str]:
    """All checks of one workload's outputs in ``out`` against its inputs in ``inp``.

    ``reference`` holds the records lines stored for this seed, or None;
    ``full`` turns on the EER bands, which hold only at the measured sizes.
    """
    rng = np.random.default_rng([seed, 3])
    if name == "wav-shift":
        return check_wav(inp / "in.wav", out / "out.wav")
    enroll, pool = read_xvec(inp / "enroll.xvec"), read_xvec(inp / "pool.xvec")
    if name == "stress-anon-utt":
        return check_anonymized(out / "anon.xvec", enroll, pool, read_model(inp / "model.plda"),
                                sizes.n_farthest, sizes.n_select, per_speaker=False,
                                same_gender=True, tag="", sample=16, rng=rng)
    trial = read_xvec(inp / "trial.xvec")
    if name == "desk-pipeline":
        return _check_desk(sizes, inp, out, enroll, trial, pool, reference, full, rng)
    problems = check_records(out / "records.txt", read_columns(inp / "trials.txt"),
                             dict(zip(enroll[1], enroll[2])), reference,
                             STRESS_OA_BAND if full else None)
    if "eer%" not in (out / "stdout.txt").read_text(encoding="utf-8"):
        problems.append("eval: no report table on stdout")
    return problems
