"""Command-line interface.

Subcommands: gen-golay, verify-gcp, bounds, papr, ccdf, model, compare,
filter-dump.  Curves go to CSV, reports and manifests to JSON; plotting is
left to external tools.  Exit codes: 0 success, 1 validation error (a file
that cannot be read or written included), 2 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (THRESHOLDS_DB, AnalysisError, RicianPointModel, average_power,
                       engine_processes, iapr_exceedance, monte_carlo_ccdf, papr_samples,
                       sigma0_papr_db, signal_at_times, wilson_interval, window_start_slot)
from .checks import check_real
from .prototype import FILTER_NAMES, FilterError, make_filter, papr_bound_sigma0
from .sequences import (GbfSpec, PhaseSequence, SequenceError, array_to_signs,
                        complex_from_json, complex_to_json, dj_pair, gcp_residual,
                        iamc_preamble, mseq_preamble, sparse_golay_preamble)
from .waveform import RNG_SCHEME, FrameConfig, FrameError
from .workers import cpu_count

# The paper's PAPR threshold: ccdf reports Pr{PAPR > 3 dB} as it runs.
TAIL_THRESHOLD_DB = 3.0
# Probe times of `model`, t - nT/2, across the preamble pulse's main lobe at
# overlap K = 4 (acceptance criterion 4(f)); `model` adds the window's shift.
MODEL_OFFSETS = np.linspace(1.05, 2.80, 8)
MODEL_COLUMNS = ("t - nT/2", "nu", "sigma", "alpha", "analytic", "empirical", "hits",
                 "wilson95_low", "wilson95_high")
# The checkout this package's source lies in, if it is run from one.
SOURCE_ROOT = Path(__file__).resolve().parents[2]
# The default of each --config key, a key some command reads; `trials` has
# one per command.  One file may serve every command, so a key is refused
# only if no command reads it.
OPTION_DEFAULTS = {"out_dir": ".", "seed": 0, "oversample": 4, "subcarriers": 512,
                   "guards": 3, "trials": None, "channel_len": 32}
CONFIG_KEYS = frozenset(OPTION_DEFAULTS)


class CliError(Exception):
    """Invalid command-line input that no library call checks."""


# Invalid input, reported as "error: ..." with exit code 1.
INPUT_ERRORS = (CliError, SequenceError, FilterError, FrameError, AnalysisError)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"expected comma-separated integers, not {text!r}")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    if not isinstance(config, dict):
        raise CliError(f"config file {path}: top level must be a JSON object")
    unknown = sorted(config.keys() - CONFIG_KEYS)
    if unknown:
        raise CliError(f"config file {path}: no command reads {', '.join(unknown)}; "
                       f"the keys are {', '.join(sorted(CONFIG_KEYS))}")
    return config


def _opt(args, name: str, default=None):
    """The flag's value, else the config file's, else `default`, which is
    OPTION_DEFAULTS[name] unless given.  Only a config value can fail the
    type check: argparse types the flags."""
    if default is None:
        default = OPTION_DEFAULTS[name]
    value = getattr(args, name, default)
    if type(value) is not type(default):
        raise CliError(f"config value {name}={value!r} must be of type "
                       f"{type(default).__name__}")
    return value


def _out_path(args, filename: str) -> Path:
    out = Path(_opt(args, "out_dir")) / filename
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _git_revision() -> str | None:
    """The commit checked out at SOURCE_ROOT, or None outside a git checkout
    (an installed package) or where git cannot say."""
    if not (SOURCE_ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SOURCE_ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _write_manifest(args, path: Path, config: dict, seed: int, outputs: list[str],
                    **run) -> None:
    """Writes what a command did and where it ran; `run` adds fields that
    describe how the command's work went."""
    import scipy        # only for its version: importing cli should not load it

    manifest = {
        "command": args.command,
        "config": config,
        "seed": seed,
        "library_version": __version__,
        "git_revision": _git_revision(),
        "rng_scheme": RNG_SCHEME,
        "duration_s": round(time.time() - args.started, 3),
        "outputs": outputs,
        **run,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "cpu_count": cpu_count()},
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _load_preamble(path: str) -> np.ndarray:
    """A sequence file, {re, im} or {modulus, phases}, as a complex array."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read sequence file {path}: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"sequence file {path} is not valid JSON: {exc}")
    if isinstance(obj, dict) and {"re", "im"} & obj.keys():
        return complex_from_json(text)
    if isinstance(obj, dict) and "phases" in obj:
        return PhaseSequence.from_json(text).to_complex()
    raise CliError(f"sequence file {path}: expected {{re,im}} or {{modulus,phases}}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_golay(args) -> tuple[int, dict]:
    spec = GbfSpec(q=args.q, mu=args.mu, pi=_int_list(args.pi),
                   b=_int_list(args.b), const=args.const, offset=args.offset)
    c_seq, d_seq = dj_pair(spec)
    c, d = c_seq.to_complex(), d_seq.to_complex()
    residual = gcp_residual(c, d)
    report = {
        "spec": json.loads(spec.to_json()),
        "c_phases": c_seq.phases.tolist(),
        "d_phases": d_seq.phases.tolist(),
        "c": json.loads(complex_to_json(c)),
        "d": json.loads(complex_to_json(d)),
        "max_complementarity_residual": residual,
    }
    if spec.q == 2:
        print(f"c = {array_to_signs(c)}")
        print(f"d = {array_to_signs(d)}")
    print(f"length {len(c)}, max |rho_c + rho_d| over nonzero shifts = {residual:.3e}")
    if args.out:
        out = _out_path(args, args.out)
        out.write_text(json.dumps(report, indent=2) + "\n")
        _write_manifest(args, out.with_suffix(".manifest.json"), report["spec"], 0,
                        [str(out)])
        print(f"wrote {out}")
    return 0, report


def cmd_verify_gcp(args) -> tuple[int, dict]:
    # NaN or a negative tolerance would fail every pair, and inf pass every one.
    check_real("--tol", args.tol, CliError)
    c, d = _load_preamble(args.file_c), _load_preamble(args.file_d)
    residual = gcp_residual(c, d)
    ok = residual <= args.tol
    print(f"max |rho_c + rho_d| = {residual:.3e} (tol {args.tol:g}): "
          f"{'GCP' if ok else 'NOT a GCP'}")
    return 0 if ok else 1, {"max_complementarity_residual": residual, "tol": args.tol,
                            "gcp": ok}


def cmd_bounds(args) -> tuple[int, dict]:
    name = args.filter
    filt = make_filter(name, 256)
    bound = papr_bound_sigma0(filt)
    print(f"{name} sigma0 PAPR bound: {bound:.4f} dB")
    return 0, {"filter": name, "bound_db": round(bound, 4)}


def _frame_config(args) -> FrameConfig:
    return FrameConfig(
        subcarriers=_opt(args, "subcarriers"),
        guards=_opt(args, "guards"),
        oversample=_opt(args, "oversample"),
        rng_seed=_opt(args, "seed"),
    )


def cmd_papr(args) -> tuple[int, dict]:
    cfg = _frame_config(args)
    preamble = _load_preamble(args.preamble_file)
    filt = make_filter(args.filter, cfg.samples_per_symbol)
    value = float(papr_samples(preamble, filt, cfg, trials=1)[0])
    print(f"PAPR over the preamble window: {value:.4f} dB "
          f"(G={cfg.guards}, M={cfg.subcarriers}, seed={cfg.rng_seed})")
    return 0, {"papr_db": round(value, 4), "config": cfg.to_json_dict()}


def _monte_carlo_run(args, default_trials: int):
    """What ccdf and model run: the frame, the preamble (that of
    `--preamble-file`, else the sparse Golay preamble with `--channel-len`
    pilots), the filter and the trial count; then the CSV path, resolved
    before the run so that an unusable output costs no engine time, and the
    configuration the manifest records."""
    cfg = _frame_config(args)
    if args.preamble_file is not None:
        preamble, source = (_load_preamble(args.preamble_file),
                            {"preamble_file": args.preamble_file})
    else:
        channel_len = _opt(args, "channel_len")
        preamble, source = (sparse_golay_preamble(cfg.subcarriers, channel_len),
                            {"preamble": "sparse-golay", "channel_len": channel_len})
    trials = _opt(args, "trials", default_trials)
    filt = make_filter(args.filter, cfg.samples_per_symbol)
    stem = args.out or f"{args.command}_{args.filter}_G{cfg.guards}"
    config = {**cfg.to_json_dict(), "filter": args.filter, "trials": trials, **source}
    return cfg, preamble, filt, trials, _out_path(args, stem + ".csv"), config


def cmd_ccdf(args) -> tuple[int, dict]:
    cfg, preamble, filt, trials, csv_path, config = _monte_carlo_run(args, 100_000)
    tail = int(np.flatnonzero(THRESHOLDS_DB == TAIL_THRESHOLD_DB)[0])

    def report(done, exceed, max_db):
        hits = int(exceed[tail])
        low, high = wilson_interval(hits, done)
        rate = done / (time.perf_counter() - engine_started)
        print(f"{done}/{trials} trials, {rate:,.0f} trials/s, max PAPR {max_db:.4f} dB, "
              f"{hits} hits > {TAIL_THRESHOLD_DB:g} dB, 95% interval "
              f"[{low:.2e}, {high:.2e}]", file=sys.stderr, flush=True)

    engine_started = time.perf_counter()
    result = monte_carlo_ccdf(preamble, filt, cfg, trials, progress=report)
    trials_per_s = trials / (time.perf_counter() - engine_started)
    result.write_csv(csv_path)
    json_path = csv_path.with_suffix(".json")
    json_path.write_text(result.to_json() + "\n")
    outputs = [str(csv_path), str(json_path)]
    _write_manifest(args, csv_path.with_suffix(".manifest.json"), config, cfg.rng_seed,
                    outputs, trials_per_s=round(trials_per_s, 1),
                    engine_processes=engine_processes(trials))
    print(f"{trials} trials, empirical max PAPR {result.max_papr_db:.4f} dB")
    print(f"wrote {csv_path}")
    return 0, {"trials": trials, "max_papr_db": result.max_papr_db, "outputs": outputs}


def cmd_model(args) -> tuple[int, list]:
    cfg, preamble, filt, trials, csv_path, config = _monte_carlo_run(args, 20_000)
    # The window's shift from K = 4 is 0.0 there, which keeps the offsets' bits.
    offsets = MODEL_OFFSETS + (window_start_slot(0, filt.overlap) - window_start_slot(0, 4)) / 2
    times = cfg.preamble_slot / 2 + offsets
    s = signal_at_times(preamble, filt, cfg, times, trials)
    iapr = np.abs(s) ** 2 / average_power(cfg.subcarriers)
    rows = []
    for j, t in enumerate(times):
        model = RicianPointModel.at_time(preamble, filt, cfg, float(t))
        # Near the local median, where the binomial error bar is tightest.
        alpha = (model.nu * model.nu + 2 * model.sigma**2) / model.p_avg
        hits = int(np.sum(iapr[:, j] >= alpha))
        low, high = wilson_interval(hits, trials)
        rows.append([f"{offsets[j]:.2f}", model.nu, model.sigma, alpha,
                     iapr_exceedance(alpha, model), hits / trials, hits,
                     float(low), float(high)])
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(MODEL_COLUMNS)
        w.writerows(rows)
    _write_manifest(args, csv_path.with_suffix(".manifest.json"), config, cfg.rng_seed,
                    [str(csv_path)])
    print(f"{args.filter}, M={cfg.subcarriers}, G={cfg.guards}, {trials} trials")
    print(f"{'t - nT/2':>9s} {'nu':>9s} {'sigma':>9s} {'alpha':>7s} "
          f"{'analytic':>10s} {'empirical':>10s} {'wilson95':>19s}")
    for offset, nu, sigma, alpha, analytic, empirical, _, low, high in rows:
        print(f"{offset:>9s} {nu:>9.3f} {sigma:>9.3f} {alpha:>7.3f} {analytic:>10.5f} "
              f"{empirical:>10.5f} {low:>9.5f} {high:>9.5f}")
    print(f"wrote {csv_path}")
    return 0, [dict(zip(MODEL_COLUMNS, row)) for row in rows]


def cmd_compare(args) -> tuple[int, dict]:
    subcarriers = _opt(args, "subcarriers")
    channel_len = _opt(args, "channel_len")
    oversample = _opt(args, "oversample")
    # Guards wide enough that no data symbol reaches the analysis window:
    # the sigma = 0 regime of the published comparison.
    cfg = FrameConfig(subcarriers=subcarriers, guards=6, oversample=oversample,
                      rng_seed=_opt(args, "seed"))
    filt = make_filter(args.filter, cfg.samples_per_symbol)
    preambles = {
        "sparse-golay": sparse_golay_preamble(subcarriers, channel_len),
        "sparse-mseq": mseq_preamble(subcarriers),
        "iam-c": iamc_preamble(subcarriers),
    }
    rows = dict(zip(preambles, sigma0_papr_db(list(preambles.values()), filt, cfg).tolist()))
    bound = papr_bound_sigma0(filt)
    print(f"sigma=0 preamble PAPR, {args.filter}, M={subcarriers}, "
          f"L_h={channel_len} (bound {bound:.4f} dB)")
    for name, value in rows.items():
        print(f"  {name:<14s} {value:.4f} dB")
    if args.out:
        out = _out_path(args, args.out)
        out.write_text(json.dumps({"bound_db": bound, "papr_db": rows}, indent=2) + "\n")
        _write_manifest(args, out.with_suffix(".manifest.json"),
                        {"filter": args.filter, "subcarriers": subcarriers,
                         "channel_len": channel_len, "oversample": oversample},
                        cfg.rng_seed, [str(out)])
    return 0, {"filter": args.filter, "subcarriers": subcarriers, "channel_len": channel_len,
               "bound_db": round(bound, 4),
               "papr_db": {k: round(v, 4) for k, v in rows.items()}}


def cmd_filter_dump(args) -> tuple[int, dict]:
    filt = make_filter(args.filter, args.samples_per_symbol)
    out = _out_path(args, args.out)
    filt.write_csv(out)
    _write_manifest(args, out.with_suffix(".manifest.json"),
                    {"filter": args.filter, "samples_per_symbol": filt.samples_per_symbol}, 0,
                    [str(out)])
    print(f"wrote {out} ({len(filt.taps)} taps, energy {filt.energy:.12f})")
    return 0, {"filter": args.filter, "samples_per_symbol": filt.samples_per_symbol,
               "taps": len(filt.taps), "energy": filt.energy, "output": str(out)}


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it is the larger part of a short
    command's time."""
    parser = argparse.ArgumentParser(
        prog="fbmc-preamble",
        description="Low-PAPR FBMC/OQAM preamble toolkit",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument("--oversample", type=int, default=None,
                        help="samples per symbol interval / subcarrier count")
    parser.add_argument("--out-dir", dest="out_dir", default=None)
    parser.add_argument("--json", action="store_true",
                        help="also print the result as one JSON line, last on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-golay", help="construct a Davis-Jedwab Golay pair")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--pi", required=True, help="permutation, e.g. 2,3,4,1")
    p.add_argument("--b", required=True, help="linear coefficients, e.g. 1,1,0,1")
    p.add_argument("--const", type=int, default=0)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--out", help="output JSON filename")
    p.set_defaults(func=cmd_gen_golay)

    p = sub.add_parser("verify-gcp", help="check complementarity of two sequences")
    p.add_argument("--file-c", required=True)
    p.add_argument("--file-d", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify_gcp)

    p = sub.add_parser("bounds", help="sigma=0 PAPR bound of a prototype filter")
    p.add_argument("--filter", choices=FILTER_NAMES, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("papr", help="preamble PAPR for one data realization")
    p.add_argument("--preamble-file", required=True)
    p.add_argument("--filter", choices=FILTER_NAMES, default="phydyas4")
    p.add_argument("--subcarriers", type=int, default=None)
    p.add_argument("--guards", type=int, default=None)
    p.set_defaults(func=cmd_papr)

    for name, func, help_text, out_help in [
            ("ccdf", cmd_ccdf, "Monte Carlo PAPR CCDF", "output stem (CSV + JSON + manifest)"),
            ("model", cmd_model, "Rician exceedance model vs Monte Carlo at 8 probe times",
             "output stem (CSV + manifest)")]:
        p = sub.add_parser(name, help=help_text)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--preamble-file", help="default: the sparse Golay preamble")
        source.add_argument("--channel-len", dest="channel_len", type=int, default=None,
                            help="pilots of the sparse Golay preamble (default 32)")
        p.add_argument("--filter", choices=FILTER_NAMES, default="phydyas4")
        p.add_argument("--subcarriers", type=int, default=None)
        p.add_argument("--guards", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", help=out_help)
        p.set_defaults(func=func)

    p = sub.add_parser("compare", help="PAPR of sparse Golay / m-sequence / IAM-C")
    p.add_argument("--filter", choices=FILTER_NAMES, default="phydyas4")
    p.add_argument("--subcarriers", type=int, default=None)
    p.add_argument("--channel-len", dest="channel_len", type=int, default=None)
    p.add_argument("--out", help="output JSON filename")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("filter-dump", help="export filter taps to CSV")
    p.add_argument("--filter", choices=FILTER_NAMES, required=True)
    p.add_argument("--samples-per-symbol", type=int, default=64)
    p.add_argument("--out", default="filter.csv")
    p.set_defaults(func=cmd_filter_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Runs one command.  Each `cmd_*` takes the parsed arguments, with the
    config file folded in and the start time as `started`, and returns its
    exit code and its report, which --json prints as the last line of
    stdout."""
    args = build_parser().parse_args(argv)
    try:
        # Flags beat the config file.  A key that neither sets is left off the
        # namespace, so that _opt tells a null in the file from an absent key.
        given = {k: v for k, v in vars(args).items() if v is not None or k not in CONFIG_KEYS}
        args = argparse.Namespace(**{**_load_config(args.config), **given},
                                  started=time.time())
        code, report = args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, np.linalg.LinAlgError, MemoryError, ChildProcessError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:      # a file it writes; ChildProcessError, also one, is above
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
