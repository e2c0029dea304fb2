#!/usr/bin/env python3
"""Desk-scale evaluation experiment on a synthetic corpus.

Generates a seeded corpus with known ground truth, trains the verification
model on the training split, and evaluates the embedding anonymizer under
the oo / oa / aa conditions, printing the per-gender report.
"""

import argparse
import time

from anonvox import (
    AnonConfig,
    Condition,
    default_spec,
    evaluate,
    generate,
    make_trials,
    render_report,
    split,
    train_plda,
)

DEFAULT_FRACTIONS = (0.595, 0.105, 0.1, 0.2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-speakers", type=int, default=200)
    parser.add_argument("--utts-per-speaker", type=int, default=10)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=15, help="EM iterations")
    parser.add_argument("--n-farthest", type=int, help="default: min(200, pool size)")
    parser.add_argument("--n-select", type=int, help="default: min(100, half of n-farthest)")
    args = parser.parse_args()

    start = time.monotonic()
    spec = default_spec(
        n_speakers=args.n_speakers,
        utts_per_speaker=args.utts_per_speaker,
        dim=args.dim,
        seed=args.seed,
    )
    corpus, _ = generate(spec)
    train, pool, enroll, trial = split(corpus, DEFAULT_FRACTIONS, seed=args.seed)
    print(
        f"corpus: {len(corpus)} embeddings -> train {len(train)}, pool {len(pool)}, "
        f"enroll {len(enroll)}, trial {len(trial)}"
    )
    model = train_plda(train, args.iterations)
    trials = make_trials(enroll, trial)
    print(f"trials: {trials.n_target} target, {trials.n_nontarget} nontarget")

    n_farthest = min(200, len(pool)) if args.n_farthest is None else args.n_farthest
    n_select = min(100, max(1, n_farthest // 2)) if args.n_select is None else args.n_select
    cfg = AnonConfig(n_farthest=n_farthest, n_select=n_select, seed=args.seed)
    runs, _, _ = evaluate(list(Condition), enroll, trial, pool, model, cfg, trials,
                          dataset=f"synth{args.seed}")
    print()
    print(render_report(runs).table)
    print(f"elapsed: {time.monotonic() - start:.1f}s")


if __name__ == "__main__":
    main()
