"""Numerical Hodge theory and Witten deformation for the S^1-equivariant
de Rham complex on a catalog of circle-symmetric model manifolds."""

__version__ = "0.1.0"
