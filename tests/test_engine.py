"""The Monte Carlo engine's data stream and its boundary checks.

The golden values were produced by the original per-cell engine.  A faster
engine must reproduce them exactly: the same data bits for every (seed,
trial, slot) cell and the same PAPR floats to the last bit, whatever the
chunk size.  Keys outside their ranges and preambles that build_frame
would refuse are refused here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmc_preamble.analysis import monte_carlo_ccdf, papr_samples
from fbmc_preamble.prototype import make_filter, phydyas_taps
from fbmc_preamble.sequences import golay_seed, sparse_golay_preamble
from fbmc_preamble.waveform import FrameConfig, FrameError, slot_data

# (subcarriers, rng_seed, trial, slot, data bits with 1 for +1)
GOLDEN_CELLS = [
    (64, 0, 0, 0, "0010000111101101100011101110010110000100001010010110110100110010"),
    (64, 0, 3, 7, "1000001101101000100000000011100110101001111110000000000001001110"),
    (64, 2**63 + 5, 12, 0,
     "1100010010110100010000001010000001110001001101111001010110110101"),
    (64, 2**64 - 1, 2**48 - 1, 65535,
     "0001110110001011100000001101001101110000110001001011001001001101"),
    (64, 123456789, 1000, 40,
     "0110101011101110001010101001001000101110111101011001111010011000"),
    (13, 7, 5, 65535, "1010110000010"),
    (2, 1, 0, 1, "00"),
]

# papr_samples of sparse_golay_preamble(512, 32), trials 0..7, rng_seed 0,
# oversample 4: the six paper configs.
GOLDEN_PAPR_DB = {
    ("phydyas4", 1): [9.50724173153896, 7.237110567957782, 7.380653744103778,
                      8.198361749574529, 6.048991945066069, 7.462566167366834,
                      6.628653087683583, 7.3879158832520435],
    ("phydyas4", 2): [1.6275755287412386, 1.6462405769216741, 1.6307540815117119,
                      1.6066297317216296, 1.6283621714450536, 1.6937458019063565,
                      1.617960410984654, 1.7059815145488035],
    ("phydyas4", 3): [1.6349117589478395, 1.6349113999130436, 1.6349116392695233,
                      1.6349110408782754, 1.6349121179825166, 1.6349115195913235,
                      1.6349122376607264, 1.6349125966954525],
    ("hermite", 1): [10.269453435532334, 7.448123794753735, 7.525940097525776,
                     8.480134140874732, 6.7615477567507565, 7.727538159606028,
                     6.588591461680019, 8.369336808375934],
    ("hermite", 2): [2.660474399437538, 2.665610607505901, 2.6724207256123527,
                     2.6695735910319778, 2.6609786187701943, 2.6656356255878415,
                     2.667304196504954, 2.6815413910302803],
    ("hermite", 3): [2.672977060568999, 2.6729520234561086, 2.672968714608106,
                     2.6729269864715173, 2.6730020971045447, 2.6729603692245547,
                     2.67301044253621, 2.6730354793123157],
}


def test_golden_slot_data_bits():
    for m, seed, trial, slot, bits in GOLDEN_CELLS:
        cfg = FrameConfig(subcarriers=m, guards=1, rng_seed=seed)
        a = slot_data(cfg, trial, slot)
        assert a.shape == (m,)
        assert "".join("1" if v > 0 else "0" for v in a) == bits, (m, seed, trial, slot)


def test_golden_papr_samples():
    preamble = sparse_golay_preamble(512, 32)
    for (name, guards), expected in GOLDEN_PAPR_DB.items():
        cfg = FrameConfig(subcarriers=512, guards=guards, oversample=4, rng_seed=0)
        filt = make_filter(name, cfg.samples_per_symbol)
        got = papr_samples(preamble, filt, cfg, 8)
        assert [float(v) for v in got] == expected, (name, guards)


@settings(max_examples=15, deadline=None)
@given(m=st.sampled_from([8, 12, 16, 32]), guards=st.integers(0, 3),
       name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
       oversample=st.integers(2, 4), seed=st.integers(0, 2**64 - 1),
       first_trial=st.integers(0, 2**48 - 40))
def test_chunk_size_does_not_change_papr_samples(m, guards, name, oversample, seed,
                                                 first_trial):
    cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample, rng_seed=seed)
    filt = make_filter(name, cfg.samples_per_symbol)
    preamble = golay_seed(m) if m & (m - 1) == 0 else np.ones(m)
    runs = [papr_samples(preamble, filt, cfg, 30, chunk=c, first_trial=first_trial)
            for c in (1, 7, 16, 256)]
    for other in runs[1:]:
        assert np.array_equal(runs[0], other)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 40), seed=st.integers(0, 2**64 - 1),
       trials=st.lists(st.integers(0, 2**48 - 1), min_size=1, max_size=6),
       slot=st.integers(0, 2**16 - 1))
def test_batched_slot_data_rows_equal_scalar_calls(m, seed, trials, slot):
    cfg = FrameConfig(subcarriers=m, guards=1, rng_seed=seed)
    batch = slot_data(cfg, np.array(trials), slot)
    assert batch.shape == (len(trials), m)
    for row, trial in zip(batch, trials):
        assert np.array_equal(row, slot_data(cfg, trial, slot))
    slots = slot_data(cfg, trials[0], np.array([slot, 0]))
    assert np.array_equal(slots[0], batch[0])
    assert np.array_equal(slots[1], slot_data(cfg, trials[0], 0))


class TestKeyRanges:
    """Out-of-range keys are refused instead of aliasing other cells."""

    @pytest.mark.parametrize("trial, slot", [(2**48 + 3, 7), (-1, 7), (3, 2**16 + 7),
                                             (3, -1), (np.array([0, 2**48]), 7)])
    def test_rejects_trial_and_slot(self, trial, slot):
        with pytest.raises(FrameError):
            slot_data(FrameConfig(subcarriers=8, guards=1), trial, slot)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed(self, seed):
        with pytest.raises(FrameError):
            slot_data(FrameConfig(subcarriers=8, guards=1, rng_seed=seed), 0, 0)

    def test_engine_rejects_trial_range_past_the_key(self):
        cfg = FrameConfig(subcarriers=16, guards=1, oversample=2)
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        with pytest.raises(FrameError):
            papr_samples(golay_seed(16), filt, cfg, 2, first_trial=2**48 - 1)


class TestPreambleCheck:
    """The engine applies build_frame's preamble check."""

    def setup_method(self):
        self.cfg = FrameConfig(subcarriers=64, guards=2, oversample=4)
        self.filt = phydyas_taps(4, self.cfg.samples_per_symbol)

    @pytest.mark.parametrize("preamble", [np.sqrt(2.0) * golay_seed(64), golay_seed(32),
                                          np.zeros(64)])
    def test_rejects_bad_preamble(self, preamble):
        with pytest.raises(FrameError):
            papr_samples(preamble, self.filt, self.cfg, 1)
        with pytest.raises(FrameError):
            monte_carlo_ccdf(preamble, self.filt, self.cfg, 1)
