"""Exact simulator and analysis toolkit for single-copy multiphoton GHZ
entanglement purification driven by hyperentangled (polarization x spatial
mode) inputs.

The ensemble engine (states/optics/noise/protocol) evolves labeled basis
states exactly; the dense density-matrix oracle cross-checks it; the
efficiency module covers fiber/detector bookkeeping; the CLI exposes
simulate / sweep / verify.

The package re-exports only the names of the README quick start
(make_ghz_pol, make_ghz_spatial, mix_two, product_ensemble, run_bitflip);
every other name is imported from the module that defines it: efficiency,
noise, optics, oracle, protocol, records, states or cli.

Importing the package imports every module except cli, so tools that wrap
module functions by name (perfbench/spans.py) find each one. numpy is
imported only inside the oracle's functions that build arrays, never at
module level, and no engine step or optics function builds one, so
importing the package and running any mode on any member, a sweep, or
the per-state optics, leaves it unloaded.
"""

__version__ = "0.1.0"

from . import efficiency, noise, optics, oracle, protocol, records, states
from .noise import mix_two, product_ensemble
from .protocol import run_bitflip
from .states import make_ghz_pol, make_ghz_spatial
