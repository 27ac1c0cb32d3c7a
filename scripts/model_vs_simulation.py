#!/usr/bin/env python3
"""Analytic Rician exceedance model versus Monte Carlo simulation.

At a set of probe times across the analysis window, compares the
closed-form Pr{IAPR >= alpha} (Marcum Q of the preamble envelope nu(t)
and data-interference sigma(t)) against the empirical frequency over
random data realizations, with the empirical frequency's Wilson 95%
interval.

Example:
    python3 scripts/model_vs_simulation.py --guards 1 --trials 20000
"""

import argparse

import numpy as np

from fbmc_preamble.analysis import (RicianPointModel, average_power,
                                    iapr_exceedance, signal_at_times, wilson_interval)
from fbmc_preamble.cli import FILTER_NAMES, INPUT_ERRORS, positive_count
from fbmc_preamble.prototype import make_filter
from fbmc_preamble.sequences import sparse_golay_preamble
from fbmc_preamble.waveform import FrameConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--subcarriers", type=int, default=512)
    ap.add_argument("--channel-len", type=int, default=32)
    ap.add_argument("--guards", type=int, default=1)
    ap.add_argument("--filter", choices=FILTER_NAMES, default="phydyas4")
    ap.add_argument("--trials", type=positive_count, default=20_000)
    ap.add_argument("--alpha", type=float, default=None,
                    help="IAPR threshold (default: per-probe near-median value)")
    ap.add_argument("--seed", type=int, default=13)
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
    n = cfg.preamble_slot
    offsets = np.linspace(1.05, 2.80, 8)
    times = n / 2 + offsets

    s = signal_at_times(preamble, filt, cfg, times, args.trials)
    iapr = np.abs(s) ** 2 / average_power(args.subcarriers)

    print(f"{args.filter}, M={args.subcarriers}, G={args.guards}, "
          f"{args.trials} trials")
    print(f"{'t - nT/2':>9s} {'nu':>9s} {'sigma':>9s} {'alpha':>7s} "
          f"{'analytic':>10s} {'empirical':>10s} {'wilson95':>19s}")
    for j, t in enumerate(times):
        model = RicianPointModel.at_time(preamble, filt, cfg, float(t))
        alpha = args.alpha
        if alpha is None:
            alpha = (model.nu**2 + 2 * model.sigma**2) / model.p_avg
        analytic = iapr_exceedance(alpha, model)
        hits = int(np.sum(iapr[:, j] >= alpha))
        low, high = wilson_interval(hits, args.trials)
        print(f"{offsets[j]:>9.2f} {model.nu:>9.3f} {model.sigma:>9.3f} "
              f"{alpha:>7.3f} {analytic:>10.5f} {hits / args.trials:>10.5f} "
              f"{low:>9.5f} {high:>9.5f}")


if __name__ == "__main__":
    main()
