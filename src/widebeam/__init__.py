"""Wideband analog beamforming codebooks under constant-modulus constraints.

Design side: equal-width virtual zone partition, a phased sub-array wide
beam as initializer, an ALM/ADMM polish, and steering shifts that replicate
one prototype across all zones.  Analysis side: the narrowband baseline
with its closed-form worst case, the 2/delta_omega performance ceiling, and
grid/Monte-Carlo evaluation harnesses.
"""

from .alm import SolverConfig, solve
from .array_model import (
    BeamVector,
    SystemConfig,
    composite_gain,
    dirichlet_power,
    steering_composite,
    wideband_beam_gain,
)
from .codebook import (
    Codebook,
    EvaluationReport,
    build_codebook,
    design_beam_for_aod,
    evaluate,
    shift_beam,
)
from .narrowband import (
    NarrowbandAnalysis,
    aligned_beam_wideband_gain,
    narrowband_codebook,
    prop1_worst_case,
    prop2_optimal_N,
    sweep,
)
from .prv import PrvPlan, prv_beam, prv_plan
from .storage import read_codebook, write_codebook
from .zones import (
    ZonePartition,
    divide_zones,
    prop3_upper_bound,
    virtual_interval,
)

__version__ = "0.1.0"

__all__ = [
    "BeamVector",
    "Codebook",
    "EvaluationReport",
    "NarrowbandAnalysis",
    "PrvPlan",
    "SolverConfig",
    "SystemConfig",
    "ZonePartition",
    "aligned_beam_wideband_gain",
    "build_codebook",
    "composite_gain",
    "design_beam_for_aod",
    "dirichlet_power",
    "divide_zones",
    "evaluate",
    "narrowband_codebook",
    "prop1_worst_case",
    "prop2_optimal_N",
    "prop3_upper_bound",
    "prv_beam",
    "prv_plan",
    "read_codebook",
    "shift_beam",
    "solve",
    "steering_composite",
    "sweep",
    "virtual_interval",
    "wideband_beam_gain",
    "write_codebook",
]
