"""AJAR: an aggregate-join query engine over semiring-annotated relations.

Queries carry an ordered prefix of aggregation operators; planning tests
which reorderings are equivalent, decomposes the query into unconstrained
GHD sub-problems, and executes with worst-case-optimal joins plus an
aggregating Yannakakis pass.
"""

from .errors import AjarError, ExtensionOverflow, InternalError, ParseError, QueryError
from .execution import (
    ExecStats,
    aggro_ghd_join,
    aggro_yannakakis,
    generic_join,
)
from .ghd import (
    Ghd,
    WidthReport,
    characteristic_hypergraphs,
    is_compatible,
    is_ghd,
    is_valid,
    optimal_ghd,
    split_products,
    stitch,
    top_map,
    width,
)
from .hypergraph import Edge, Hypergraph, connected_components, find_path
from .oracle import (
    RandomInstanceSpec,
    exhaustive_valid_ghds,
    naive_eval,
    semantic_equiv,
)
from .ordering import (
    AggregationOrdering,
    PrecedenceRelation,
    compute_prec,
    linear_extensions,
    test_equivalence,
)
from .planner import Plan, plan, run, transitive_closure
from .queries import ParsedQuery, parse_query, print_query
from .relations import (
    AnnotatedRelation,
    DomainRegistry,
    aggregate,
    join,
    product_aggregate,
    semijoin,
)
from .semirings import (
    INF,
    PRODUCT,
    SemiringSpec,
    builtin_semirings,
    check_laws,
    get_semiring,
    register_semiring,
)

__version__ = "0.1.0"
