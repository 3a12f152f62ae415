"""Central tolerance bundle.

The CLI honors ``STEKLOV_TOL_<FIELD>`` environment overrides for every
field; a few thresholds are still literals in the modules that use them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    eigen_residual: float = 1e-9        # max ||A v - w v|| accepted per eigenpair
    assertion: float = 1e-8             # assertion-class comparisons in checks
    agreement: float = 1e-8             # cross-method agreement (sigma methods)
    harmonic_residual: float = 1e-10    # interior Laplacian residual, relative
    flow_residual: float = 1e-10        # transfer-recursion system residual
    resonance: float = 1e-12            # vanishing transfer coefficient cutoff
    sigma_witness: float = 1e-9         # witness flow value / positivity slack
    multiplicity: float = 1e-8          # eigenvalue grouping width
    vanishing: float = 1e-7             # eigenvector vanishing threshold
    dtn_symmetry: float = 1e-12         # DtN asymmetry bound
    dtn_rowsum: float = 1e-10           # DtN row-sum bound

    @classmethod
    def from_env(cls, env=None) -> "Tolerances":
        """Default bundle with STEKLOV_TOL_<FIELD> overrides applied."""
        env = os.environ if env is None else env
        overrides = {}
        for f in fields(cls):
            raw = env.get("STEKLOV_TOL_" + f.name.upper())
            if raw is not None:
                overrides[f.name] = float(raw)
        return replace(cls(), **overrides)


DEFAULT_TOLERANCES = Tolerances()
