"""Horofunction boundaries of locally finite graphs of linear growth.

Three layers of machinery:

* :mod:`horoscope.graphs` — rooted graphs, BFS spheres, Busemann tables,
  rays as vertex tuples, stabilized horofunction restrictions, rerooting;
* :mod:`horoscope.npartite` — layered graphs, Hall matchings, pruning,
  monotone reachability, the monotone path cover, sphere quotients;
* :mod:`horoscope.cayley` — built-in group families as Cayley graphs, the
  action on value maps, finite orbits and homomorphism witnesses to the
  integers.

The CLI (``horoscope`` / ``python -m horoscope``) ties them into
reproducible experiments; see :mod:`horoscope.cli`.
"""

from .cayley import (
    CayleyGraph,
    GroupSpec,
    HomomorphismWitness,
    OrbitResult,
    act,
    cayley_graph,
    extract_homomorphism,
    orbit_analysis,
)
from .errors import (
    AdditivityViolation,
    BudgetExhausted,
    DomainTooSmall,
    EmptyGraph,
    EmptySphere,
    GeneratorsDoNotGenerate,
    HoroscopeError,
    MalformedSpec,
    MalformedSubsequence,
    NoConstantSubsequence,
    NoMatching,
    NonConsecutiveEdge,
    NotGeodesic,
    NotInvariant,
    NotMonotone,
    PrefixTooShort,
    RayNotExtendable,
    RayTooShort,
    TrivialImage,
    UnequalLayers,
)
from .graphs import (
    BusemannTable,
    HorofunctionApprox,
    LayerDecomposition,
    RootedGraph,
    ValueMap,
    busemann,
    distance,
    enumerate_horofunction_restrictions,
    explicit_graph,
    extend_ray,
    horofunction_approx,
    layer_decomposition,
    reroot_ray,
    validate_ray,
    verify_symmetric,
)
from .matching import HallViolator, Matching, matching_or_violator
from .npartite import (
    CoverResult,
    HallFailureWitness,
    LayeredGraph,
    MonotonePath,
    Stride,
    TraceNode,
    build_layered,
    find_hall_failure,
    monotone_cover,
    monotone_reachability,
    monotone_to_ray,
    partition_by_matchings,
    prune_to_spanning,
    ray_to_monotone,
    spanning_intersection_minima,
    sphere_quotient,
)

__version__ = "0.1.0"
