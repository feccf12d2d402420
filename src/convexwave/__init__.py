"""convexwave: numerical laboratory for dispersive scaling in a model convex domain.

The package builds explicit quasimode and multiply-reflected-cusp fields for
the half-plane Laplacian d_x^2 + (1+x) d_y^2 with Dirichlet boundary, measures
their mixed space-time norms on grids, and regresses every scaling law against
the semiclassical parameter h.
"""

__version__ = "0.1.0"

from .airy import AiryZeros, ai, airy_branch, airy_zeros
from .fields import FrequencyWindow, TransverseGrid, WaveField
from .params import (
    AdmissiblePair,
    LossExponent,
    ParameterError,
    SemiclassicalParams,
    check_admissible,
    initial_data_regularity,
    loss_exponent,
    make_params,
    sharp_schrodinger_q,
    sharp_wave_q,
)

__all__ = [
    "__version__",
    "ai", "airy_branch", "airy_zeros", "AiryZeros",
    "FrequencyWindow", "TransverseGrid", "WaveField",
    "SemiclassicalParams", "AdmissiblePair", "LossExponent", "ParameterError",
    "make_params", "check_admissible", "loss_exponent", "initial_data_regularity",
    "sharp_wave_q", "sharp_schrodinger_q",
]
