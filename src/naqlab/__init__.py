"""naqlab: a numerical lab for nonassociative quantum corrections.

Subpackages cover the associator correction series of nonassociative
operator powers, torsion/contorsion connection algebra, the closed-form
torsion-regularized point charge with its energy integrals, and the
shooting-method solution of the nonlinear gravitoelectric profile
equation.  Each submodule is imported on first access (``naqlab.charge``),
so ``import naqlab`` loads none of them.
"""

import importlib

__all__ = ["algebra", "charge", "geometry", "numerics", "shooting"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
