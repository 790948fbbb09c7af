"""Exact verification toolkit for cuspidal multiplicity identities.

Submodules, roughly bottom up:

- ``gf``: F_q and F_{q^2} on int codes, discrete logs and square roots
- ``rootdata``: twisted root data, Galois orbits, sign invariants
- ``groups``: GL2-scale matrix groups, tori, involutions, fixed Lie algebras
- ``dlchar``: conjugacy classes and certified cuspidal characters
- ``multiplicity``: epsilon characters and the two sides of the multiplicity
  identity
- ``cli``: the ``dlcusp`` command
"""

__version__ = "0.1.0"
