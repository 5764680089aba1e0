"""Outage statistics for RIS-assisted UAV wireless links.

The library statistically characterizes the cascade gain of an N-element
reflecting surface under mixture-Gamma fading on both hops, the geometric
loss caused by receiver disorientation and beam misalignment, and
transceiver hardware imperfections, and evaluates outage probability in
closed form with quadrature and Monte Carlo oracles alongside.
"""

from .cascade import *
from .errors import *
from .fading import *
from .geometry import *
from .montecarlo import *
from .outage import *
from .scenario import *
from .sweep import *

__version__ = "0.1.0"

# each module's __all__ is its public API, and the package's is their union
__all__ = (cascade.__all__ + errors.__all__ + fading.__all__ + geometry.__all__
           + montecarlo.__all__ + outage.__all__ + scenario.__all__ + sweep.__all__)
