"""Low-PAPR FBMC/OQAM preambles from binary Golay sequences."""

__version__ = "0.1.0"

from .analysis import (AnalysisWindow, CcdfResult, RicianPointModel, average_power,
                       iapr_exceedance, marcum_q1, monte_carlo_ccdf, nu_of_t, papr,
                       papr_samples, sigma2_of_t)
from .prototype import (PrototypeFilter, hermite_poly, hermite_taps, make_filter,
                        papr_bound_sigma0, phydyas_taps)
from .sequences import (GbfSpec, PhaseSequence, dj_pair, gcp_residual, golay_seed,
                        iamc_preamble, is_gcp, mseq_preamble, phase_transform,
                        sparse_golay_preamble, sparsify)
from .waveform import (FbmcGrid, FrameConfig, SampledSignal, build_frame,
                       slot_data, synthesize, transmultiplexer_response)
