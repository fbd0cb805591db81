"""Exact-arithmetic toolkit for partition regularity: columns-condition
certificates, localized subrings of the rationals, truncated system
builders, and colouring searches."""

from .linalg import RatMatrix, parse_matrix
from .rado import (
    CCCertificate,
    FirstEntryReport,
    columns_condition,
    first_entries,
    verify_cc_certificate,
)
from .rings import (
    PrimeSet,
    Rat,
    format_rat,
    in_scaled_subring,
    in_subring,
    is_prime,
    padic_valuation,
    parse_prime_set,
    parse_rat,
    parse_rats,
    pigeonhole_subset,
)
from .search import (
    BudgetExceededError,
    Colouring,
    GroundSet,
    RadoNumberResult,
    log2_parity_colour,
    min_rado_number,
    monochromatic_solution,
)
from .systems import (
    CoefficientSchedule,
    SystemSpec,
    natural_solution_witness,
    parse_schedule,
    refute_over_subring,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CCCertificate",
    "CoefficientSchedule",
    "Colouring",
    "FirstEntryReport",
    "GroundSet",
    "PrimeSet",
    "RadoNumberResult",
    "Rat",
    "RatMatrix",
    "SystemSpec",
    "columns_condition",
    "first_entries",
    "format_rat",
    "in_scaled_subring",
    "in_subring",
    "is_prime",
    "log2_parity_colour",
    "min_rado_number",
    "monochromatic_solution",
    "natural_solution_witness",
    "padic_valuation",
    "parse_matrix",
    "parse_prime_set",
    "parse_rat",
    "parse_rats",
    "parse_schedule",
    "pigeonhole_subset",
    "refute_over_subring",
    "verify_cc_certificate",
]
