#!/usr/bin/env python3
"""Deep-tail estimate of Pr{PAPR > threshold} for the sparse Golay preamble.

The G=2 PHYDYAS configuration crosses 3 dB with probability on the order
of 1e-5, so resolving it needs millions of trials.  Runs in chunks and
reports a running estimate with a Wilson 95% interval.

Example:
    python3 scripts/long_tail.py --trials 10000000 --threshold 3.0
"""

import argparse
import time

import numpy as np

from fbmc_preamble.analysis import papr_samples, wilson_interval
from fbmc_preamble.cli import FILTER_NAMES, INPUT_ERRORS, positive_count
from fbmc_preamble.prototype import make_filter
from fbmc_preamble.sequences import sparse_golay_preamble
from fbmc_preamble.waveform import FrameConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--subcarriers", type=int, default=512)
    ap.add_argument("--channel-len", type=int, default=32)
    ap.add_argument("--guards", type=int, default=2)
    ap.add_argument("--filter", choices=FILTER_NAMES, default="phydyas4")
    ap.add_argument("--trials", type=positive_count, default=10_000_000)
    ap.add_argument("--threshold", type=float, default=3.0, help="PAPR in dB")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--report-every", type=positive_count, default=500_000)
    args = ap.parse_args()
    try:
        run(args)
    except INPUT_ERRORS as exc:
        ap.exit(1, f"error: {exc}\n")


def run(args) -> None:
    cfg = FrameConfig(subcarriers=args.subcarriers, guards=args.guards,
                      oversample=4, rng_seed=args.seed)
    filt = make_filter(args.filter, cfg.samples_per_symbol)
    preamble = sparse_golay_preamble(args.subcarriers, args.channel_len)

    hits = 0
    done = 0
    t0 = time.time()
    while done < args.trials:
        count = min(args.report_every, args.trials - done)
        # trials are keyed on the absolute index, so chunking does not
        # change the stream
        values = papr_samples(preamble, filt, cfg, trials=count, first_trial=done)
        hits += int(np.sum(values > args.threshold))
        done += count
        low, high = wilson_interval(hits, done)
        rate = done / (time.time() - t0)
        print(f"{done:>10d} trials: {hits} hits, Pr = {hits / done:.4e}, "
              f"95% interval [{low:.2e}, {high:.2e}] ({rate:,.0f} trials/s)", flush=True)

    print(f"final: Pr{{PAPR > {args.threshold} dB}} = {hits / done:.4e} "
          f"over {done} trials")


if __name__ == "__main__":
    main()
