import json
import re
import shutil

import numpy as np
import pytest

from fbmc_preamble import cli
from fbmc_preamble.analysis import engine_processes, monte_carlo_ccdf
from fbmc_preamble.cli import main
from fbmc_preamble.prototype import make_filter
from fbmc_preamble.sequences import (GOLAY_C16, GOLAY_D16, complex_to_json,
                                     golay_seed, signs_to_array,
                                     sparse_golay_preamble)
from fbmc_preamble.waveform import RNG_SCHEME, FrameConfig

GOLAY32_FILE = "golay32.json"


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
                                        {"subcarriers": 16.0}])
    def test_wrong_value_type(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        pre = write_preamble(tmp_path, "pre.json", golay_seed(16))
        rc = main(["--config", str(cfg_path), "ccdf", "--preamble-file", pre,
                   "--out", "run"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_top_level_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        rc = main(["--config", str(cfg_path), "bounds", "--filter", "hermite"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
