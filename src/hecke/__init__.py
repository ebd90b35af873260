"""Exact arithmetic for affine Hecke algebras with unequal parameters.

Root data and Weyl groups, the theta/T presentation with its cross relation,
rank-one mu-factors and intertwiners, and the parameter knowledge base
(label tables, classical families, transfer rules, case database).
"""

__version__ = "0.1.0"


class SizeLimitError(ValueError):
    """An input or an intermediate value exceeds a supported size cap."""
