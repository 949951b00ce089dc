"""Exact simulator and analysis toolkit for single-copy multiphoton GHZ
entanglement purification driven by hyperentangled (polarization x spatial
mode) inputs.

The ensemble engine (states/optics/noise/protocol) evolves labeled basis
states exactly; the dense density-matrix oracle cross-checks it; the
efficiency module covers fiber/detector bookkeeping; the CLI exposes
simulate / sweep / verify.

Importing the package imports every module except cli, so tools that wrap
module functions by name (perfbench/spans.py) find each one. numpy is
imported inside the functions that build arrays (the Hadamard-mode step and
the oracle), never at module level, so importing the package and running the
sparse modes or a sweep leaves it unloaded.
"""

__version__ = "0.1.0"

from . import records
from .efficiency import EfficiencyParams, p_one, p_two, ratio_R, sweep
from .noise import (
    BIT_FLIP,
    PHASE_FLIP,
    NoiseSpec,
    ensemble_from_specs,
    mix_general,
    mix_two,
    product_ensemble,
)
from .optics import (
    GATE_TABLE,
    apply_network,
    bit_flip_pol,
    hadamard_pol,
    hadamard_spatial,
)
from .oracle import ORACLE_MAX_PHOTONS, OracleResult, densify, network_unitary, oracle_run
from .protocol import (
    MODES,
    AcceptanceRule,
    PatternOutcome,
    ProtocolResult,
    closed_form_general,
    infer_flip_plan,
    phaseflip_plan,
    run_bitflip,
    run_general,
    run_phaseflip,
)
from .states import (
    H,
    KEEP,
    MODE1,
    MODE2,
    POL,
    PORT,
    SPATIAL,
    SWAP,
    V,
    Ensemble,
    PureState,
    bits,
    fidelity,
    make_ghz_pol,
    make_ghz_spatial,
    make_state,
    overlap,
    states_close,
    tensor_hyper,
)
