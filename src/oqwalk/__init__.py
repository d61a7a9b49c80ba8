"""Open quantum random walks: channel structure, asymptotics, simulation.

The package exports its modules; import names from them, for example
``from oqwalk import structure`` and ``structure.decompose(model)``.
"""

from . import asymptotics, channel, empirics, linalg, simulate, structure

__version__ = "0.5.0"
