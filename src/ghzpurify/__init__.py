"""Exact simulator and analysis toolkit for single-copy multiphoton GHZ
entanglement purification driven by hyperentangled (polarization x spatial
mode) inputs.

The ensemble engine (states/optics/noise/protocol) evolves labeled basis
states exactly; the dense density-matrix oracle cross-checks it; the
efficiency module covers fiber/detector bookkeeping; the CLI exposes
simulate / sweep / verify.
"""

__version__ = "0.1.0"

from .efficiency import EfficiencyParams, p_one, p_two, ratio_R, sweep
from .noise import (
    BIT_FLIP,
    PHASE_FLIP,
    POLARIZATION,
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
    closed_form_fidelity_general,
    closed_form_fidelity_pair,
    closed_form_success_general,
    closed_form_success_pair,
    infer_flip_plan,
    merged_fidelity,
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
