"""Stoimenow matchings: construction, pruned enumeration, Catalan-pattern
avoidance, exact generating functions, and constructive bijections."""

from .matching import (
    Arc,
    EMPTY,
    InvertedArc,
    Matching,
    NoSuchArc,
    NotPerfectMatching,
    format_arcs,
    irreducible_blocks,
    is_stoimenow,
    make_matching,
    parse_arcs,
    reduction_arc,
    reverse,
)
from .patterns import (
    Pattern,
    PatternSet,
    avoids_all,
    contains,
    parse_pattern_set,
    registry,
    reverse_pattern,
    reverse_pattern_set,
    standardize,
)
from .enumeration import (
    CountTable,
    MAX_ARCS,
    MAX_FISHBURN_ARCS,
    avoider_counts,
    count_avoiders,
    count_stoimenow,
    count_table,
    enumerate_stoimenow,
    fishburn_numbers,
    fishburn_oracle,
)
from .series import (
    DivByNonUnit,
    NonUnitDenominator,
    Polynomial,
    PowerSeries,
    RationalGF,
    SqrtNonUnit,
    gf_coefficients,
)
from .identities import (
    catalan_number,
    catalan_series,
    check_case_sums,
    check_f_equals_catalan,
    check_h_closed_forms,
    check_h_functional_equation,
    fibonacci,
    fibonacci_identity_check,
    gf_registry,
    h_series,
    multi_avoidance_rows,
    three_case_assembly,
)
from .posets import (
    Poset,
    UnknownForbiddenPoset,
    cover_relations,
    interval_type,
    omega,
    poset_contains,
)
from .bijections import (
    EmptyMatching,
    NotP2Avoiding,
    NotR4Avoiding,
    glue,
    matching_to_string,
    split,
    string_to_matching,
)

__version__ = "0.1.0"
