"""Distinguishing chromatic numbers of structured graph families.

Exact certificates for symmetry-breaking colorings: graph family
constructors, permutation-group utilities, a partition-backtrack
automorphism search, coloring verification and search, and the
expected-fixer certificate machinery, all over exact arithmetic.
"""

from .algebra import BigRational, FiniteField, binomial, field_new, least_prime_divisor, partition_count
from .coloring import (
    Coloring,
    chromatic_number,
    distinguishing_chromatic_number,
    enumerate_proper_colorings,
    is_distinguishing,
    is_proper,
    random_proper_coloring,
    split_color_class,
)
from .families import (
    kneser_complement,
    levi_graph,
    levi_order1,
    levi_tensor_krs,
    pg2,
    pgammal3_action,
    pgl3_action,
    scalar_translation_action,
    slope_graph,
    weak_power,
    weak_product,
)
from .graphcore import (
    AutResult,
    Graph,
    SearchTimeout,
    automorphism_group,
    color_preserving_automorphisms,
    is_automorphism,
    is_bipartite,
    is_connected,
    is_r_thin,
)
from .motion import (
    HalfPowerBound,
    MotionReport,
    exact_expected_fixers,
    favorable_fraction,
    levi_bound,
    lg1_bound,
    lovasz_schrijver_check,
    max_fixed_ksets,
    randomized_split_search,
    slope_mobius,
    weak_bound,
)
from .permgroup import (
    GroupSpec,
    closure,
    group_order,
    induced_action_on_ksets,
    orbit_count_on,
    wreath_action,
)
from .recipes import run_recipe
from .seeds import derive_seed

__version__ = "0.1.0"
