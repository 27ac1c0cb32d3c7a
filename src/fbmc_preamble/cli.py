"""Command-line interface.

Subcommands: gen-golay, verify-gcp, bounds, papr, ccdf, compare,
filter-dump.  Curves go to CSV, reports and manifests to JSON; plotting is
left to external tools.  Exit codes: 0 success, 1 validation error, 2
runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (AnalysisError, default_thresholds, engine_processes, monte_carlo_ccdf,
                       papr_samples)
from .prototype import FilterError, make_filter, papr_bound_sigma0
from .sequences import (GbfSpec, PhaseSequence, SequenceError, array_to_signs,
                        complex_from_json, complex_to_json, dj_pair, gcp_residual,
                        iamc_preamble, mseq_preamble, sparse_golay_preamble)
from .waveform import RNG_SCHEME, FrameConfig, FrameError
from .workers import cpu_count

FILTER_NAMES = ("phydyas3", "phydyas4", "hermite")
# The checkout this package's source lies in, if it is run from one.
SOURCE_ROOT = Path(__file__).resolve().parents[2]


class CliError(Exception):
    """Invalid command-line input that no library call checks."""


# Invalid input, reported as "error: ..." with exit code 1.
INPUT_ERRORS = (CliError, SequenceError, FilterError, FrameError, AnalysisError)


def positive_count(text: str) -> int:
    """argparse type of a count of trials: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


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
    return config


def _opt(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    value = config.get(name, default)
    if type(value) is not type(default):
        raise CliError(f"config value {name}={value!r} must be of type "
                       f"{type(default).__name__}")
    return value


def _out_path(args, config: dict, filename: str) -> Path:
    out_dir = Path(_opt(args, config, "out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / filename


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


def _write_manifest(path: Path, command: str, config: dict, seed: int,
                    started: float, outputs: list[str], **run) -> None:
    """Writes what a command did and where it ran; `run` adds fields that
    describe how the command's work went."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "library_version": __version__,
        "git_revision": _git_revision(),
        "rng_scheme": RNG_SCHEME,
        "duration_s": round(time.time() - started, 3),
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

def cmd_gen_golay(args, config: dict) -> int:
    started = time.time()
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
        out = _out_path(args, config, args.out)
        out.write_text(json.dumps(report, indent=2) + "\n")
        _write_manifest(out.with_suffix(".manifest.json"), "gen-golay",
                        report["spec"], 0, started, [str(out)])
        print(f"wrote {out}")
    return 0


def cmd_verify_gcp(args, config: dict) -> int:
    c, d = _load_preamble(args.file_c), _load_preamble(args.file_d)
    residual = gcp_residual(c, d)
    ok = residual <= args.tol
    print(f"max |rho_c + rho_d| = {residual:.3e} (tol {args.tol:g}): "
          f"{'GCP' if ok else 'NOT a GCP'}")
    return 0 if ok else 1


def cmd_bounds(args, config: dict) -> int:
    name = args.filter
    filt = make_filter(name, 256)
    bound = papr_bound_sigma0(filt)
    print(f"{name} sigma0 PAPR bound: {bound:.4f} dB")
    if args.json:
        print(json.dumps({"filter": name, "bound_db": round(bound, 4)}))
    return 0


def _frame_config(args, config: dict) -> FrameConfig:
    return FrameConfig(
        subcarriers=_opt(args, config, "subcarriers", 512),
        guards=_opt(args, config, "guards", 3),
        oversample=_opt(args, config, "oversample", 4),
        rng_seed=_opt(args, config, "seed", 0),
    )


def cmd_papr(args, config: dict) -> int:
    cfg = _frame_config(args, config)
    preamble = _load_preamble(args.preamble_file)
    filt = make_filter(args.filter, cfg.samples_per_symbol)
    value = float(papr_samples(preamble, filt, cfg, trials=1)[0])
    print(f"PAPR over the preamble window: {value:.4f} dB "
          f"(G={cfg.guards}, M={cfg.subcarriers}, seed={cfg.rng_seed})")
    if args.json:
        print(json.dumps({"papr_db": round(value, 4), "config": cfg.to_json_dict()}))
    return 0


def cmd_ccdf(args, config: dict) -> int:
    started = time.time()
    cfg = _frame_config(args, config)
    if args.preamble_file is not None:
        preamble = _load_preamble(args.preamble_file)
        source = {"preamble_file": args.preamble_file}
    else:
        channel_len = _opt(args, config, "channel_len", 32)
        preamble = sparse_golay_preamble(cfg.subcarriers, channel_len)
        source = {"preamble": "sparse-golay", "channel_len": channel_len}
    trials = _opt(args, config, "trials", 100_000)
    filt = make_filter(args.filter, cfg.samples_per_symbol)
    engine_started = time.perf_counter()
    result = monte_carlo_ccdf(preamble, filt, cfg, trials, default_thresholds())
    trials_per_s = trials / (time.perf_counter() - engine_started)
    stem = args.out or f"ccdf_{args.filter}_G{cfg.guards}"
    csv_path = _out_path(args, config, stem + ".csv")
    result.write_csv(csv_path)
    json_path = csv_path.with_suffix(".json")
    json_path.write_text(result.to_json() + "\n")
    _write_manifest(csv_path.with_suffix(".manifest.json"), "ccdf",
                    {**cfg.to_json_dict(), "filter": args.filter, "trials": trials,
                     **source},
                    cfg.rng_seed, started, [str(csv_path), str(json_path)],
                    trials_per_s=round(trials_per_s, 1),
                    engine_processes=engine_processes(trials))
    print(f"{trials} trials, empirical max PAPR {result.max_papr_db:.4f} dB")
    print(f"wrote {csv_path}")
    return 0


def cmd_compare(args, config: dict) -> int:
    started = time.time()
    subcarriers = _opt(args, config, "subcarriers", 512)
    channel_len = _opt(args, config, "channel_len", 32)
    oversample = _opt(args, config, "oversample", 4)
    # Guards wide enough that no data symbol reaches the analysis window:
    # the sigma = 0 regime of the published comparison.
    cfg = FrameConfig(subcarriers=subcarriers, guards=6, oversample=oversample,
                      rng_seed=_opt(args, config, "seed", 0))
    filt = make_filter(args.filter, cfg.samples_per_symbol)
    preambles = {
        "sparse-golay": sparse_golay_preamble(subcarriers, channel_len),
        "sparse-mseq": mseq_preamble(subcarriers),
        "iam-c": iamc_preamble(subcarriers),
    }
    rows = {name: float(papr_samples(p, filt, cfg, trials=1)[0])
            for name, p in preambles.items()}
    bound = papr_bound_sigma0(filt)
    print(f"sigma=0 preamble PAPR, {args.filter}, M={subcarriers}, "
          f"L_h={channel_len} (bound {bound:.4f} dB)")
    for name, value in rows.items():
        print(f"  {name:<14s} {value:.4f} dB")
    if args.json:
        print(json.dumps({"filter": args.filter, "subcarriers": subcarriers,
                          "channel_len": channel_len, "bound_db": round(bound, 4),
                          "papr_db": {k: round(v, 4) for k, v in rows.items()}}))
    if args.out:
        out = _out_path(args, config, args.out)
        out.write_text(json.dumps({"bound_db": bound, "papr_db": rows}, indent=2) + "\n")
        _write_manifest(out.with_suffix(".manifest.json"), "compare",
                        {"filter": args.filter, "subcarriers": subcarriers,
                         "channel_len": channel_len, "oversample": oversample},
                        _opt(args, config, "seed", 0), started, [str(out)])
    return 0


def cmd_filter_dump(args, config: dict) -> int:
    filt = make_filter(args.filter, args.samples_per_symbol)
    out = _out_path(args, config, args.out)
    filt.write_csv(out)
    print(f"wrote {out} ({len(filt.taps)} taps, energy {filt.energy:.12f})")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmc-preamble",
        description="Low-PAPR FBMC/OQAM preamble toolkit",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument("--oversample", type=int, default=None,
                        help="samples per symbol interval / subcarrier count")
    parser.add_argument("--out-dir", dest="out_dir", default=None)
    parser.add_argument("--json", action="store_true", help="also print JSON")
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

    p = sub.add_parser("ccdf", help="Monte Carlo PAPR CCDF")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preamble-file", help="default: the sparse Golay preamble")
    source.add_argument("--channel-len", dest="channel_len", type=int, default=None,
                        help="pilots of the sparse Golay preamble (default 32)")
    p.add_argument("--filter", choices=FILTER_NAMES, default="phydyas4")
    p.add_argument("--subcarriers", type=int, default=None)
    p.add_argument("--guards", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", help="output stem (CSV + JSON + manifest)")
    p.set_defaults(func=cmd_ccdf)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, np.linalg.LinAlgError, MemoryError, ChildProcessError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
