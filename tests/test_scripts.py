"""Smoke tests: each experiment script runs end to end on a tiny problem."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SMALL = ["--subcarriers", "64", "--channel-len", "16"]


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name))["main"]()


def test_model_vs_simulation(monkeypatch, capsys):
    run_script(monkeypatch, "model_vs_simulation.py", *SMALL, "--trials", "256")
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 8
    for row in rows:
        analytic, empirical, low, high = map(float, row.split()[4:8])
        assert 0.0 <= analytic <= 1.0
        assert 0.0 <= low <= empirical <= high <= 1.0


def test_long_tail(monkeypatch, capsys):
    run_script(monkeypatch, "long_tail.py", *SMALL, "--trials", "256",
               "--report-every", "128")
    out = capsys.readouterr().out
    assert "256 trials" in out
    # No hits at G = 2: a Wilson interval, upper end z^2 / (n + z^2), not "+/- 4e-153".
    assert "256 trials: 0 hits, Pr = 0.0000e+00, 95% interval [0.00e+00, 1.48e-02]" in out
    assert out.splitlines()[-1].startswith("final: Pr{PAPR > 3.0 dB}")



@pytest.mark.parametrize("args", [["--report-every", "0"], ["--trials", "0"],
                                  ["--report-every", "-5"], ["--trials", "-1"]])
def test_long_tail_refuses_counts_below_one(monkeypatch, capsys, args):
    # --report-every 0 used to loop for ever; --trials 0 divided by zero.
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "long_tail.py", *SMALL, *args)
    assert exit_info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_model_vs_simulation_refuses_trials_below_one(monkeypatch, capsys, trials):
    # Both used to end in a traceback from the library.
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "model_vs_simulation.py", *SMALL, "--trials", trials)
    assert exit_info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


BAD_INPUTS = [(script, args) for script in ("long_tail.py", "model_vs_simulation.py")
              for args in (["--seed", "-1"], ["--subcarriers", "100"], ["--guards", "-1"])]
BAD_INPUTS.append(("model_vs_simulation.py", ["--alpha", "-1"]))


@pytest.mark.parametrize("script, args", BAD_INPUTS,
                         ids=[f"{script}:{' '.join(args)}" for script, args in BAD_INPUTS])
def test_scripts_report_input_errors(monkeypatch, capsys, script, args):
    # Each of these used to end in a traceback from the library.
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, script, *SMALL, "--trials", "16", *args)
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("script", ["long_tail.py", "model_vs_simulation.py"])
def test_scripts_refuse_unknown_filter(monkeypatch, capsys, script):
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, script, *SMALL, "--filter", "foo")
    assert exit_info.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err
