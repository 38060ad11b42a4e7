"""Sharp tail bounds for n events that are independent (n-1) at a time.

The package characterizes every probability measure under which each
subcollection of n-1 events out of n is mutually independent — a
one-parameter family around the product measure — and computes sharp upper
and lower bounds on P(at least k events occur) over that family.  A
brute-force oracle re-derives everything by dense enumeration at desk scale
(n <= 20), in float or exact rational arithmetic.

Typical use::

    from nearwise import from_raw, sharp_bounds

    profile = from_raw([0.1] * 8)
    report = sharp_bounds(profile, k=3)
    report.sharp_lower, report.exact_mutual, report.sharp_upper
"""

from .bounds import (
    BonferroniStatus,
    BoundReport,
    LllComparison,
    MakarovBounds,
    bonferroni_applicable,
    bound_reports,
    lll_comparison,
    makarov_bounds,
    probability_at_s,
    report_to_dict,
    sharp_bounds,
    tail_probabilities,
)
from .marginals import (
    MarginalError,
    MarginalProfile,
    from_raw,
    load_profile,
    profile_to_dict,
)
from .measures import (
    AtomicMeasure,
    CapExceededError,
    FeasibilityError,
    SInterval,
    build_measure,
    mask_indices,
    original_subset,
    s_interval,
    subset_labels,
    subset_mask,
)
from .oracle import (
    DEFAULT_SEED,
    ProfileCheck,
    SuiteReport,
    VerificationReport,
    check_profile,
    random_profiles,
    run_random_suite,
    verify_extremal_atoms,
    verify_measure,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "BonferroniStatus",
    "BoundReport",
    "CapExceededError",
    "DEFAULT_SEED",
    "FeasibilityError",
    "LllComparison",
    "MakarovBounds",
    "MarginalError",
    "MarginalProfile",
    "ProfileCheck",
    "SInterval",
    "SuiteReport",
    "VerificationReport",
    "bonferroni_applicable",
    "bound_reports",
    "build_measure",
    "check_profile",
    "from_raw",
    "lll_comparison",
    "load_profile",
    "makarov_bounds",
    "mask_indices",
    "original_subset",
    "probability_at_s",
    "profile_to_dict",
    "random_profiles",
    "report_to_dict",
    "run_random_suite",
    "s_interval",
    "subset_labels",
    "sharp_bounds",
    "subset_mask",
    "tail_probabilities",
    "verify_extremal_atoms",
    "verify_measure",
    "__version__",
]
