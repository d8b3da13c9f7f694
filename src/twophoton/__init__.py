"""Cavity-enhanced two-photon transition rates for a quantum dot under a
lateral electric field.

The package computes second-order (two-photon) absorption and emission
rates of a parity-broken quantum-dot transition placed in one or two
photonic-crystal nanocavity modes, along with the one-photon rate it
competes against. Sweeps over field strength or emitted frequency are
driven by YAML configs or the bundled preset and serialize to CSV/JSON
deterministically.

Each module's __all__ is the one list of its public names; all of them
are re-exported here.
"""

from .cavity import *
from .quantities import *
from .rates import *
from .presets import *
from .scenario import *
from .stark import *

__version__ = "0.1.0"
