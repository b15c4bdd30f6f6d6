"""Rank-metric codes of linearized polynomials over finite-field towers.

Library layout:

  fields   -- exact tower arithmetic F_p < F_q < F_{q^n}
  linpoly  -- q-polynomials: evaluation, composition, adjoint, rank
  codes    -- support/general codes, duals, adjoints, idealisers, distance
  moore    -- Moore matrices, determinants, independence and MRD criteria
  verify   -- scan/trinomial/witness engines, classification, certificates
  curves   -- plane-curve point counts tied to the {0,1,3} support
  cli      -- the `mrdcodes` command

The names in __all__ and the submodules resolve lazily, on first access
(PEP 562), so `import mrdcodes` loads no numpy and the `mrdcodes` command
can set up its environment before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    "CapExceeded": "fields", "FieldTower": "fields", "make_tower": "fields",
    "LinPoly": "linpoly",
    "GeneralCode": "codes", "IdealiserReport": "codes", "SupportCode": "codes",
    "gabidulin": "codes", "named_family": "codes",
    "Certificate": "verify", "classify": "verify", "exhaustive_scan": "verify",
    "gcd_filter": "verify", "hasse_weil_gap": "verify", "n9_witness": "verify",
    "shift_canonical": "verify", "shift_equivalent": "verify",
    "trinomial_criterion": "verify", "validate_certificate": "verify",
}
_SUBMODULES = ("_batch", "_linalg", "cli", "codes", "curves", "fields",
               "linpoly", "moore", "verify")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
