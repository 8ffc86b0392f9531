"""knvex: exact computation and certification for vertex Turan problems in the Kneser cube."""

from .sets import (
    Family,
    binom_tail,
    complement,
    family_complement,
    family_from_text,
    family_to_text,
    kneser_adjacent,
    level_slice,
    upset,
)
from .patterns import (
    Bipartition,
    PatternGraph,
    bipartition,
    is_matching,
    make_pattern,
    odd_girth,
    parse_pattern,
)
from .freeness import (
    InducedKneser,
    contains_subgraph,
    is_free,
)
from .posets import (
    CollisionError,
    LaResult,
    Poset,
    butterfly,
    complete_three_level,
    contains_poset_copy,
    crown,
    e_of_poset,
    la,
    poset_copy_to_graph_copy,
    poset_from_bipartite,
)
from .constructions import (
    NamedConstruction,
    bip_lower,
    build_construction,
    clique_threshold_family,
    e2_two_level,
    matching_extremal,
    star_family,
    threshold_family,
    verify_construction,
)
from .cycle import (
    CycleConstructionError,
    CyclicPerm,
    IntervalSpec,
    cycle_upper_bound,
    cyclic_perms,
    double_count_check,
    is_interval,
    m_of_j,
    missing_image_check,
    restrict_to_intervals,
    shift_image,
    weight,
)
from .search import VexResult, max_family_avoiding, vex_bounds, vex_exact

__version__ = "0.1.0"
