"""Exact Rees-presentation toolkit for cover ideals of finite simple graphs.

Build a graph with an explicit vertex priority, take its cover ideal,
present the Rees algebra by a reduced binomial basis, and certify the
x-condition, minimal generation of powers by standard monomials, linear
quotients, and (componentwise) linear resolutions.
"""

# in pipeline order, not alphabetical: compiling graphs.py first lowers the peak RSS
from .graphs import (
    Graph,
    Poset,
    attach,
    cameron_walker,
    cm_bipartite_from_poset,
    cone,
    graph_from_json,
    graph_to_json,
    is_chordal,
    is_connected,
    is_unmixed,
    maximal_independent_sets,
    minimal_vertex_covers,
    parse_construction,
    standard_family,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableUniverse,
    canonical_key,
    component,
    cover_ideal,
    parse_monomial,
    power,
    variable,
)
from .binomial_gb import (
    Binomial,
    GroebnerBasis,
    buchberger,
    oriented_binomial,
    reduce_binomial,
    s_pair,
    toric_kernel,
)
from .rees import (
    ReesPresentation,
    StandardMonomialSet,
    XConditionReport,
    minimal_generation_check,
    rees_presentation,
    standard_monomials,
    x_condition,
)
from .resolutions import (
    BettiTable,
    ComponentwiseReport,
    LinearQuotientsCertificate,
    betti_table,
    check_linear_quotients,
    find_linear_quotients_order,
    has_linear_resolution,
    is_componentwise_linear,
)
from .errors import (
    DegreeCapExceeded,
    GeneratorLimitExceeded,
    LatticeLimitExceeded,
    ResourceLimitExceeded,
)

__version__ = "0.1.0"
