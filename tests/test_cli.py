import ast
import csv
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbmc_preamble import analysis, cli
from fbmc_preamble.analysis import (RicianPointModel, average_power, engine_processes,
                                    iapr_exceedance, monte_carlo_ccdf, signal_at_times,
                                    wilson_interval)
from fbmc_preamble.cli import main
from fbmc_preamble.prototype import make_filter
from fbmc_preamble.sequences import (GOLAY_C16, GOLAY_D16, complex_to_json,
                                     golay_seed, signs_to_array,
                                     sparse_golay_preamble)
from fbmc_preamble.waveform import RNG_SCHEME, FrameConfig

GOLAY32_FILE = "golay32.json"
README = Path(__file__).resolve().parent.parent / "README.md"
# A small sparse Golay problem for the Monte Carlo commands.
SMALL = ["--subcarriers", "64", "--channel-len", "16"]


def write_preamble(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(complex_to_json(np.asarray(values, dtype=complex)))
    return str(path)


class TestGenGolay:
    def test_prints_published_pair(self, capsys):
        rc = main(["gen-golay", "--q", "2", "--mu", "4", "--pi", "2,3,4,1",
                   "--b", "1,1,1,0", "--offset", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"c = {GOLAY_C16}" in out
        assert f"d = {GOLAY_D16}" in out
        assert "length 16" in out

    def test_writes_report_and_manifest(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "gen-golay", "--q", "2", "--mu", "3",
                   "--pi", "1,2,3", "--b", "0,0,0", "--out", "pair.json"])
        assert rc == 0
        report = json.loads((tmp_path / "pair.json").read_text())
        assert report["max_complementarity_residual"] < 1e-12
        assert len(report["c"]["re"]) == 8
        manifest = json.loads((tmp_path / "pair.manifest.json").read_text())
        assert manifest["command"] == "gen-golay"
        assert manifest["outputs"] == [str(tmp_path / "pair.json")]
        assert {"git_revision", "rng_scheme"} <= manifest.keys()

    def test_manifest_git_revision(self, tmp_path, monkeypatch):
        revision = cli._git_revision()
        if (cli.SOURCE_ROOT / ".git").exists() and shutil.which("git"):
            assert re.fullmatch("[0-9a-f]{40}", revision)
        # Outside a checkout, as an installed package is, there is none.
        monkeypatch.setattr(cli, "SOURCE_ROOT", tmp_path)
        assert main(["--out-dir", str(tmp_path), "gen-golay", "--q", "2", "--mu", "3",
                     "--pi", "1,2,3", "--b", "0,0,0", "--out", "pair.json"]) == 0
        manifest = json.loads((tmp_path / "pair.manifest.json").read_text())
        assert manifest["git_revision"] is None

    def test_odd_modulus_rejected(self, capsys):
        rc = main(["gen-golay", "--q", "3", "--mu", "2", "--pi", "1,2", "--b", "0,0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_modulus_past_int64_rejected(self, capsys):
        rc = main(["gen-golay", "--q", str(2**63), "--mu", "2", "--pi", "1,2", "--b", "0,0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_repeated_permutation_entry_rejected(self, capsys):
        rc = main(["gen-golay", "--q", "2", "--mu", "3", "--pi", "1,1,2",
                   "--b", "0,0,0"])
        assert rc == 1

    def test_non_integer_list_rejected(self, capsys):
        rc = main(["gen-golay", "--q", "2", "--mu", "2", "--pi", "a,b", "--b", "0,0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestVerifyGcp:
    def test_accepts_complementary_pair(self, tmp_path, capsys):
        fc = write_preamble(tmp_path, "c.json", signs_to_array(GOLAY_C16))
        fd = write_preamble(tmp_path, "d.json", signs_to_array(GOLAY_D16))
        rc = main(["verify-gcp", "--file-c", fc, "--file-d", fd])
        assert rc == 0
        assert "GCP" in capsys.readouterr().out

    def test_rejects_non_complementary_pair(self, tmp_path, capsys):
        fc = write_preamble(tmp_path, "c.json", np.ones(8))
        fd = write_preamble(tmp_path, "d.json", np.ones(8))
        rc = main(["verify-gcp", "--file-c", fc, "--file-d", fd])
        assert rc == 1
        assert "NOT a GCP" in capsys.readouterr().out

    def test_non_pair_prints_its_json_line_last(self, tmp_path, capsys):
        fc = write_preamble(tmp_path, "c.json", np.ones(8))
        assert main(["--json", "verify-gcp", "--file-c", fc, "--file-d", fc]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("NOT a GCP")
        assert json.loads(out[-1]) == {"max_complementarity_residual": 14.0, "tol": 1e-9,
                                       "gcp": False}

    @pytest.mark.parametrize("payload", [{"re": [1.0] * 4, "im": [0.0] * 3}, [1, 2],
                                         {"re": None, "im": None}])
    def test_malformed_file(self, tmp_path, capsys, payload):
        fc = write_preamble(tmp_path, "c.json", np.ones(4))
        fd = tmp_path / "d.json"
        fd.write_text(json.dumps(payload))
        rc = main(["verify-gcp", "--file-c", fc, "--file-d", str(fd)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file(self, tmp_path):
        fc = write_preamble(tmp_path, "c.json", np.ones(4))
        assert main(["verify-gcp", "--file-c", fc, "--file-d", "/nonexistent"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_refuses_a_tolerance_that_is_not_finite_and_non_negative(self, tmp_path, capsys,
                                                                      tol):
        # A true Golay pair: NaN and -1 would read "NOT a GCP", inf any pair a GCP.
        fc = write_preamble(tmp_path, "c.json", signs_to_array(GOLAY_C16))
        fd = write_preamble(tmp_path, "d.json", signs_to_array(GOLAY_D16))
        assert main(["verify-gcp", "--file-c", fc, "--file-d", fd, "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: --tol") and "GCP" not in out


class TestBounds:
    @pytest.mark.parametrize("name,value", [("phydyas4", 1.6349),
                                            ("phydyas3", 1.6933),
                                            ("hermite", 2.6730)])
    def test_known_bounds(self, capsys, name, value):
        rc = main(["--json", "bounds", "--filter", name])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{value:.4f} dB" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["bound_db"] == pytest.approx(value, abs=5e-4)

    def test_package_runs_as_a_module(self, tmp_path):
        # python -m fbmc_preamble runs __main__.py, which no other test imports.
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "fbmc_preamble", "--json", "bounds",
                               "--filter", "phydyas4"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1])["bound_db"] == 1.6349


class TestPapr:
    def test_sparse_golay_near_bound(self, tmp_path, capsys):
        pre = write_preamble(tmp_path, "pre.json", sparse_golay_preamble(512, 32))
        rc = main(["--json", "papr", "--preamble-file", pre,
                   "--subcarriers", "512", "--guards", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out.strip().splitlines()[-1])
        # sigma = 0 regime: the measurement sits essentially at the bound
        assert payload["papr_db"] == pytest.approx(1.6349, abs=0.02)

    def test_length_mismatch(self, tmp_path, capsys):
        pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
        rc = main(["papr", "--preamble-file", pre, "--subcarriers", "64"])
        assert rc == 1
        assert "length" in capsys.readouterr().err

    def test_energy_mismatch(self, tmp_path, capsys):
        pre = write_preamble(tmp_path, "pre.json", np.sqrt(2.0) * golay_seed(64))
        rc = main(["papr", "--preamble-file", pre, "--subcarriers", "64"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "energy" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
        rc = main(["--seed", seed, "papr", "--preamble-file", pre, "--subcarriers", "32"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("payload", [{"re": [1.0] * 16, "im": [0.0] * 15},
                                         {"re": [1.0] * 16}, [1, 2], 5,
                                         {"re": ["a"], "im": ["b"]},
                                         {"modulus": "x", "phases": [0]}])
    def test_malformed_preamble_file(self, tmp_path, capsys, payload):
        path = tmp_path / "pre.json"
        path.write_text(json.dumps(payload))
        rc = main(["papr", "--preamble-file", str(path), "--subcarriers", "16"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_preamble_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "pre.json"
        path.write_text('{"re": [1.0,')
        rc = main(["papr", "--preamble-file", str(path), "--subcarriers", "16"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not valid JSON" in err

    def test_odd_samples_per_symbol(self, tmp_path, capsys):
        pre = write_preamble(tmp_path, "pre.json", np.ones(13))
        rc = main(["--oversample", "3", "papr", "--preamble-file", pre,
                   "--subcarriers", "13"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_phase_sequence_input(self, tmp_path, capsys):
        path = tmp_path / "pre.json"
        path.write_text(json.dumps({"modulus": 2,
                                    "phases": [0] * 16}))
        rc = main(["--json", "papr", "--preamble-file", str(path),
                   "--subcarriers", "16", "--guards", "5"])
        assert rc == 0


class TestCcdf:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
        argv = ["--out-dir", str(tmp_path), "--seed", "3",
                "ccdf", "--preamble-file", pre, "--filter", "hermite",
                "--subcarriers", "32", "--guards", "2", "--trials", "64",
                "--out", "run"]
        assert main(argv) == 0
        first = (tmp_path / "run.csv").read_bytes()
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["trials"] == 64
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["command"] == "ccdf"
        assert manifest["seed"] == 3
        assert manifest["config"]["trials"] == 64
        assert manifest["trials_per_s"] > 0
        assert manifest["engine_processes"] == engine_processes(64)
        assert manifest["environment"]["cpu_count"] >= manifest["engine_processes"]
        assert set(manifest["environment"]) == {"python", "numpy", "scipy", "cpu_count"}
        assert manifest["rng_scheme"] == RNG_SCHEME
        assert "Philox4x64-10" in RNG_SCHEME
        assert manifest["git_revision"] == cli._git_revision()
        # same seed reproduces the curve byte for byte
        assert main(argv) == 0
        assert (tmp_path / "run.csv").read_bytes() == first

    def test_builtin_sparse_golay_preamble(self, tmp_path, capsys):
        argv = ["--out-dir", str(tmp_path), "ccdf", "--filter", "hermite",
                "--subcarriers", "64", "--guards", "2", "--trials", "64"]
        assert main(argv + ["--channel-len", "16"]) == 0
        stem = tmp_path / "ccdf_hermite_G2"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ccdf_hermite_G2.csv", "ccdf_hermite_G2.json", "ccdf_hermite_G2.manifest.json"]
        cfg = FrameConfig(subcarriers=64, guards=2)
        filt = make_filter("hermite", cfg.samples_per_symbol)
        expected = monte_carlo_ccdf(sparse_golay_preamble(64, 16), filt, cfg, 64)
        payload = json.loads(stem.with_suffix(".json").read_text())
        assert payload["exceed_count"] == expected.exceed_count.tolist()
        assert payload["max_papr_db"] == expected.max_papr_db
        config = json.loads(stem.with_suffix(".manifest.json").read_text())["config"]
        assert config["preamble"] == "sparse-golay" and config["channel_len"] == 16
        assert "preamble_file" not in config
        # Without --channel-len the paper's L_h = 32 is used.
        assert main(argv) == 0
        config = json.loads(stem.with_suffix(".manifest.json").read_text())["config"]
        assert config["channel_len"] == 32

    def test_preamble_file_excludes_channel_len(self, tmp_path, capsys):
        pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
        with pytest.raises(SystemExit) as exc:
            main(["ccdf", "--preamble-file", pre, "--channel-len", "16",
                  "--subcarriers", "32", "--trials", "16"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_channel_len_must_divide_subcarriers(self, capsys):
        rc = main(["ccdf", "--subcarriers", "64", "--channel-len", "24", "--trials", "16"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_out_stem_in_a_new_subdirectory(self, tmp_path, capsys):
        # The directory used to be missing when the run's CSV was written.
        assert main(["--out-dir", str(tmp_path), "ccdf", *SMALL, "--trials", "16",
                     "--out", "sub/run"]) == 0
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == [
            "run.csv", "run.json", "run.manifest.json"]

    def test_dead_engine_worker_is_a_runtime_failure(self, tmp_path, capsys, monkeypatch):
        def dead(*args, **kwargs):
            raise ChildProcessError("engine worker 1 exited with code -9")
        monkeypatch.setattr(cli, "monte_carlo_ccdf", dead)
        pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
        rc = main(["--out-dir", str(tmp_path), "ccdf", "--preamble-file", pre,
                   "--subcarriers", "32", "--trials", "64"])
        assert rc == 2
        assert "runtime failure: engine worker" in capsys.readouterr().err

    def test_bad_trials(self, tmp_path, capsys):
        pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
        rc = main(["ccdf", "--preamble-file", pre, "--subcarriers", "32",
                   "--trials", "0"])
        assert rc == 1

    def test_progress_reports_the_tail_interval(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "ccdf", *SMALL, "--guards", "2",
                     "--trials", "256"]) == 0
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("256/256 trials, ")
        # No hits at G = 2: a Wilson interval, upper end z^2 / (n + z^2), not "+/- 4e-153".
        assert "0 hits > 3 dB, 95% interval [0.00e+00, 1.48e-02]" in last

    def test_one_progress_line_per_shard(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_SHARD_TRIALS", 64)
        assert main(["--out-dir", str(tmp_path), "ccdf", *SMALL, "--guards", "1",
                     "--trials", "256", "--out", "run"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in lines] == ["64/256", "128/256", "192/256",
                                                       "256/256"]
        hits = [int(re.search(r"(\d+) hits > 3 dB", line).group(1)) for line in lines]
        assert hits == sorted(hits)
        with open(tmp_path / "run.csv", newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["threshold_db"] == "3.0000")
        assert hits[-1] == int(row["exceed_count"]) > 0


class TestModel:
    def test_rows_match_the_library(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "--seed", "13", "model", *SMALL,
                     "--guards", "1", "--trials", "256"]) == 0
        csv_path = tmp_path / "model_phydyas4_G1.csv"
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == cli.MODEL_COLUMNS
            rows = list(reader)
        assert len(rows) == 8
        cfg = FrameConfig(subcarriers=64, guards=1, rng_seed=13)
        filt = make_filter("phydyas4", cfg.samples_per_symbol)
        preamble = sparse_golay_preamble(64, 16)
        offsets = np.linspace(1.05, 2.80, 8)
        times = cfg.preamble_slot / 2 + offsets
        iapr = np.abs(signal_at_times(preamble, filt, cfg, times, 256)) ** 2 / average_power(64)
        for row, offset, t, probe in zip(rows, offsets, times, iapr.T):
            model = RicianPointModel.at_time(preamble, filt, cfg, float(t))
            alpha = (model.nu * model.nu + 2 * model.sigma**2) / model.p_avg
            hits = int(np.sum(probe >= alpha))
            low, high = wilson_interval(hits, 256)
            assert row["t - nT/2"] == f"{offset:.2f}"
            assert [float(row[k]) for k in ("nu", "sigma", "alpha", "analytic", "empirical",
                                            "wilson95_low", "wilson95_high")] == [
                model.nu, model.sigma, alpha, iapr_exceedance(alpha, model), hits / 256,
                float(low), float(high)]
            assert int(row["hits"]) == hits
            assert float(row["wilson95_low"]) <= hits / 256 <= float(row["wilson95_high"])
        manifest = json.loads(csv_path.with_suffix(".manifest.json").read_text())
        assert manifest["command"] == "model" and manifest["seed"] == 13
        assert manifest["outputs"] == [str(csv_path)]
        assert manifest["config"]["trials"] == 256
        assert manifest["config"]["channel_len"] == 16

    @pytest.mark.parametrize("name", ["phydyas4", "hermite"])
    @pytest.mark.parametrize("m", ["64", "96", "160"])
    def test_sigma_zero_rows_read_one(self, tmp_path, capsys, name, m):
        # At G = 6 no data slot reaches a probe, so |s|^2 / P_avg >= alpha
        # holds in every trial.  At M = 160 (phydyas4) and 96 (hermite) rows
        # used to read 0 in one column.
        assert main(["--out-dir", str(tmp_path), "--json", "model", "--filter", name,
                     "--subcarriers", m, "--channel-len", "32", "--guards", "6",
                     "--trials", "16"]) == 0
        rows = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert [(r["sigma"], r["analytic"], r["empirical"]) for r in rows] == [
            (0.0, 1.0, 1.0)] * 8

    def test_phydyas3_probes_move_with_the_window(self, tmp_path):
        # At K = 3 the pulse peaks at t - nT/2 = 1.5, half a symbol before
        # K = 4's, and the window is [0.5, 2.5).
        assert main(["--out-dir", str(tmp_path), "model", *SMALL, "--filter", "phydyas3",
                     "--trials", "16"]) == 0
        with open(tmp_path / "model_phydyas3_G3.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        offsets = cli.MODEL_OFFSETS - 0.5
        assert [row["t - nT/2"] for row in rows] == [f"{v:.2f}" for v in offsets]
        assert np.all((0.5 <= offsets) & (offsets < 2.5))
        cfg = FrameConfig(subcarriers=64, guards=3)
        filt = make_filter("phydyas3", cfg.samples_per_symbol)
        preamble = sparse_golay_preamble(64, 16)
        assert [float(row["nu"]) for row in rows] == [
            RicianPointModel.at_time(preamble, filt, cfg, float(t)).nu
            for t in cfg.preamble_slot / 2 + offsets]


    def test_short_preamble_file_refused_as_ccdf_refuses_it(self, tmp_path, capsys):
        # 32 entries at M = 64: model used to run and write a CSV.
        pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
        for command in ("ccdf", "model"):
            rc = main(["--out-dir", str(tmp_path), command, "--preamble-file", pre,
                       "--subcarriers", "64", "--trials", "16"])
            assert rc == 1
            assert capsys.readouterr().err == "error: preamble length 32 != 64 subcarriers\n"
        assert not list(tmp_path.glob("*.csv"))


BAD_INPUTS = [(command, globals_, args) for command in ("ccdf", "model")
              for globals_, args in ((["--seed", "-1"], []), ([], ["--subcarriers", "100"]),
                                     ([], ["--guards", "-1"]))]


class TestMonteCarloInput:
    """Input errors of the two Monte Carlo commands, ccdf and model."""

    @pytest.mark.parametrize("command, globals_, args", BAD_INPUTS,
                             ids=[f"{c}:{' '.join(g + a)}" for c, g, a in BAD_INPUTS])
    def test_reported_as_errors(self, tmp_path, capsys, command, globals_, args):
        rc = main(["--out-dir", str(tmp_path), *globals_, command, *SMALL, "--trials", "16",
                   *args])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, trials", [("ccdf", "0"), ("ccdf", "-1"),
                                                 ("model", "0"), ("model", "-3")])
    def test_trials_below_one(self, tmp_path, capsys, command, trials):
        rc = main(["--out-dir", str(tmp_path), command, *SMALL, "--trials", trials])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["ccdf", "model"])
    def test_unknown_filter(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, *SMALL, "--filter", "foo"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'foo'" in capsys.readouterr().err


class TestCompare:
    def test_golay_wins(self, capsys):
        rc = main(["--json", "compare", "--subcarriers", "64",
                   "--channel-len", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out.strip().splitlines()[-1])
        rows = payload["papr_db"]
        assert set(rows) == {"sparse-golay", "sparse-mseq", "iam-c"}
        assert rows["sparse-golay"] < rows["sparse-mseq"] < rows["iam-c"]
        assert rows["sparse-golay"] <= payload["bound_db"] + 0.02

    def test_every_filter_prints_the_three_preambles(self, capsys):
        for name in cli.FILTER_NAMES:
            assert main(["compare", "--filter", name, "--subcarriers", "64",
                         "--channel-len", "16"]) == 0
            rows = capsys.readouterr().out.splitlines()
            assert rows[0].startswith(f"sigma=0 preamble PAPR, {name}, M=64, L_h=16")
            assert [r.split()[0] for r in rows[1:]] == ["sparse-golay", "sparse-mseq", "iam-c"]

    # The JSON lines the engine's one-trial runs printed, per filter, at
    # M = 64 (L_h = 16) and M = 512 (L_h = 32).
    PINNED = {
        ("phydyas3", 64): '{"filter": "phydyas3", "subcarriers": 64, "channel_len": 16, '
                          '"bound_db": 1.6933, "papr_db": {"sparse-golay": 1.2844, '
                          '"sparse-mseq": 2.845, "iam-c": 9.0309}}',
        ("phydyas3", 512): '{"filter": "phydyas3", "subcarriers": 512, "channel_len": 32, '
                           '"bound_db": 1.6933, "papr_db": {"sparse-golay": 1.6933, '
                           '"sparse-mseq": 2.9962, "iam-c": 18.0618}}',
        ("phydyas4", 64): '{"filter": "phydyas4", "subcarriers": 64, "channel_len": 16, '
                          '"bound_db": 1.6349, "papr_db": {"sparse-golay": 1.226, '
                          '"sparse-mseq": 2.7895, "iam-c": 16.6864}}',
        ("phydyas4", 512): '{"filter": "phydyas4", "subcarriers": 512, "channel_len": 32, '
                           '"bound_db": 1.6349, "papr_db": {"sparse-golay": 1.6349, '
                           '"sparse-mseq": 2.9381, "iam-c": 25.7173}}',
        ("hermite", 64): '{"filter": "hermite", "subcarriers": 64, "channel_len": 16, '
                         '"bound_db": 2.673, "papr_db": {"sparse-golay": 2.2637, '
                         '"sparse-mseq": 3.7837, "iam-c": 17.7245}}',
        ("hermite", 512): '{"filter": "hermite", "subcarriers": 512, "channel_len": 32, '
                          '"bound_db": 2.673, "papr_db": {"sparse-golay": 2.673, '
                          '"sparse-mseq": 3.9733, "iam-c": 26.7554}}',
    }

    @pytest.mark.parametrize("name, m", list(PINNED))
    def test_json_is_pinned(self, capsys, name, m):
        assert main(["--json", "compare", "--filter", name, "--subcarriers", str(m),
                     "--channel-len", str(16 if m == 64 else 32)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == self.PINNED[name, m]

    def test_indivisible_lengths(self, capsys):
        rc = main(["compare", "--subcarriers", "100", "--channel-len", "33"])
        assert rc == 1

    def test_output_file(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "compare", "--subcarriers", "64",
                   "--channel-len", "16", "--out", "table.json"])
        assert rc == 0
        table = json.loads((tmp_path / "table.json").read_text())
        assert "papr_db" in table
        assert (tmp_path / "table.manifest.json").exists()


class TestFilterDump:
    def test_writes_taps(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "filter-dump", "--filter", "hermite",
                   "--samples-per-symbol", "16", "--out", "taps.csv"])
        assert rc == 0
        lines = (tmp_path / "taps.csv").read_text().strip().splitlines()
        assert lines[0] == "index,t,tap"
        assert len(lines) == 1 + 4 * 16

    def test_writes_a_manifest(self, tmp_path, capsys):
        # README promises a manifest from every command that writes files.
        rc = main(["--out-dir", str(tmp_path), "filter-dump", "--filter", "phydyas3",
                   "--samples-per-symbol", "8", "--out", "taps.csv"])
        assert rc == 0
        manifest = json.loads((tmp_path / "taps.manifest.json").read_text())
        assert manifest["command"] == "filter-dump"
        assert manifest["config"] == {"filter": "phydyas3", "samples_per_symbol": 8}
        assert manifest["seed"] == 0
        assert manifest["outputs"] == [str(tmp_path / "taps.csv")]
        assert manifest["rng_scheme"] == RNG_SCHEME


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"subcarriers": 32, "guards": 2,
                                        "trials": 16, "out_dir": str(tmp_path)}))
        pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
        rc = main(["--config", str(cfg_path), "ccdf", "--preamble-file", pre,
                   "--trials", "8", "--out", "cfgrun"])
        assert rc == 0
        payload = json.loads((tmp_path / "cfgrun.json").read_text())
        assert payload["trials"] == 8  # flag beats config file
        assert payload["config"]["subcarriers"] == 32  # config supplies the rest

    def test_unreadable_config(self, capsys):
        rc = main(["--config", "/nonexistent.json", "bounds", "--filter", "hermite"])
        assert rc == 1

    @pytest.mark.parametrize("config", [{"subcarriers": 16, "trials": "10"},
                                        {"subcarriers": 16.0}, {"subcarriers": None}])
    def test_wrong_value_type(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        pre = write_preamble(tmp_path, "pre.json", golay_seed(16))
        rc = main(["--config", str(cfg_path), "ccdf", "--preamble-file", pre,
                   "--out", "run"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_key_no_command_reads(self, tmp_path, capsys):
        # Misspelt keys used to run silently with the defaults.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"subcarrier": 64, "trails": 5, "guards": 2}))
        rc = main(["--config", str(cfg_path), "bounds", "--filter", "hermite"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no command reads subcarrier, trails;" in err

    def test_key_another_command_reads(self, tmp_path, capsys):
        # One file serves every command: compare runs at guards 6 whatever it says.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"subcarriers": 64, "channel_len": 16, "guards": 2,
                                        "trials": 16}))
        assert main(["--config", str(cfg_path), "compare"]) == 0

    def test_config_keys_are_the_keys_commands_read(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        read = {node.args[1].value for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_opt"}
        assert read == cli.CONFIG_KEYS

    def test_top_level_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        rc = main(["--config", str(cfg_path), "bounds", "--filter", "hermite"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


def json_argv(tmp_path) -> dict[str, list[str]]:
    """A quick run of every command, keyed by its name."""
    c = write_preamble(tmp_path, "c.json", signs_to_array(GOLAY_C16))
    d = write_preamble(tmp_path, "d.json", signs_to_array(GOLAY_D16))
    pre = write_preamble(tmp_path, "pre.json", golay_seed(32))
    return {
        "gen-golay": ["gen-golay", "--q", "2", "--mu", "3", "--pi", "1,2,3", "--b", "0,0,0",
                      "--out", "pair.json"],
        "verify-gcp": ["verify-gcp", "--file-c", c, "--file-d", d],
        "bounds": ["bounds", "--filter", "hermite"],
        "papr": ["papr", "--preamble-file", pre, "--subcarriers", "32"],
        "ccdf": ["ccdf", *SMALL, "--trials", "16"],
        "model": ["model", *SMALL, "--guards", "1", "--trials", "16"],
        "compare": ["compare", *SMALL],
        "filter-dump": ["filter-dump", "--filter", "hermite", "--samples-per-symbol", "8",
                        "--out", "taps.csv"],
    }


COMMANDS = ("gen-golay", "verify-gcp", "bounds", "papr", "ccdf", "model", "compare",
            "filter-dump")


def test_every_command_has_a_quick_run_here(tmp_path):
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(COMMANDS) == set(commands) == set(json_argv(tmp_path))


@pytest.mark.parametrize("command", COMMANDS)
def test_json_is_the_last_line_of_stdout(tmp_path, capsys, command):
    argv = json_argv(tmp_path)[command]
    assert main(["--out-dir", str(tmp_path), "--json", *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    payload = json.loads(out[-1])
    # Only that line is JSON: a table is not printed twice.
    assert all(not line.startswith(("{", "[")) for line in out[:-1])
    if command == "model":
        assert [row["t - nT/2"] for row in payload] == [f"{v:.2f}" for v in cli.MODEL_OFFSETS]
        with open(tmp_path / "model_phydyas4_G1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["hits"] for row in payload] == [int(row["hits"]) for row in rows]
    if command == "ccdf":
        stored = json.loads((tmp_path / "ccdf_phydyas4_G3.json").read_text())
        assert payload["max_papr_db"] == stored["max_papr_db"]
        assert payload["outputs"] == [str(tmp_path / f"ccdf_phydyas4_G3.{ext}")
                                      for ext in ("csv", "json")]


@pytest.mark.parametrize("command", ["ccdf", "model", "filter-dump", "gen-golay"])
def test_out_dir_that_is_a_file(tmp_path, capsys, command):
    # Used to end in a FileExistsError traceback.
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = json_argv(tmp_path)[command]
    assert main(["--out-dir", str(taken), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err


def test_output_file_that_is_a_directory(tmp_path, capsys):
    (tmp_path / "taps.csv").mkdir()
    assert main(["--out-dir", str(tmp_path), *json_argv(tmp_path)["filter-dump"]]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def readme_commands() -> list[list[str]]:
    """The arguments of every fbmc-preamble command in README's sh blocks,
    with continuation lines joined and the loop variables $f and $g set."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        block = block.replace("\\\n", " ").replace("$f", "phydyas4").replace("$g", "2")
        for line in block.splitlines():
            if "fbmc-preamble " in line and not line.lstrip().startswith("#"):
                command = line[line.index("fbmc-preamble "):].split(";")[0]
                commands.append(shlex.split(command, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 12
    for argv in commands:
        assert cli.build_parser().parse_args(argv).func is not None, argv
