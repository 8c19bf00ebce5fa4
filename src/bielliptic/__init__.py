"""Exact lattice computations for moduli of sheaves on bielliptic surfaces.

Everything here is integer or rational arithmetic: surface invariants for
the seven families, the algebraic Mukai lattice and its canonical-cover
pullbacks, cohomological actions of the relative Fourier-Mukai transforms,
rank-2 wall lattices with their classification, non-emptiness/dimension/
singularity reports, and a brute-force oracle for the case enumerations.
"""
