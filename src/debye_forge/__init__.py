"""debye-forge: finite-temperature reduced Hartree-Fock crystals on periodic
lattices and the homogenized linearized Poisson-Boltzmann coefficients
(screening mass nu, permittivity matrix eps) extracted from them."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    Lattice,
    PeriodicField,
    PlaneWaveBasis,
    SupercellField,
    monkhorst_pack,
    reciprocal_lattice,
)
from .occupation import OccupationModel  # noqa: F401
