"""Medical-cost analytics (Case study 1)."""

from .costs import (
    MedicalCosts,
    compute_medical_costs,
    cost_per_capita,
)

__all__ = [
    "MedicalCosts",
    "compute_medical_costs",
    "cost_per_capita",
]
