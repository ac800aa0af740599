"""Chaotic-map stream cipher toolkit.

A byte stream cipher whose keystream comes from iterating a 2-D chaotic
map (a torus cat-map variant or the Duffing map) keyed by the map's
(a, b) parameter pair, with the mixed plaintext fed back into the state.
The analysis half measures key space, plaintext/key sensitivity, key
identifiability over parameter grids, and known-plaintext attack
robustness, and renders the per-key report tables.
"""

# Each module's __all__ lists its public names; the package exports them all.
from . import analysis, cipher, maps
from .analysis import *  # noqa: F401,F403
from .cipher import *  # noqa: F401,F403
from .maps import *  # noqa: F401,F403

__all__ = maps.__all__ + cipher.__all__ + analysis.__all__

__version__ = "0.1.0"
