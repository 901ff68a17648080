"""Steady-state transport through 1D lattices with edge states under weak dephasing.

The names live in the submodules (``edgesense.lattice``, ``leads``,
``master_eq``, ``observables``, ``config``, ``experiments``, ``cli``), so
``import edgesense`` loads none of them: ``python -m edgesense`` imports
this package before its ``__main__`` can set up the process.
"""

__version__ = "0.1.0"
