"""Holder-capped p-energy distances between metrics on simplicial meshes.

The package root exports only ``__version__``; import everything else from
its submodule (``dpmod.solver``, ``dpmod.families``, ``dpmod.mesh``, ...).
"""

__version__ = "0.1.0"
