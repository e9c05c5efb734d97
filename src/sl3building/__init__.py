"""Exact computational toolkit for the affine building of SL3 over Q_p.

Subpackages by theme:

* ``padic_linalg``: exact rational matrices, valuations and normal forms.
* ``building``: lattice-class vertices, vector distances, apartments,
  residue buildings.
* ``boundary``: flags at infinity, Schubert cells, sectors, retractions.
* ``dynamics``: strongly regular hyperbolic elements, north-south limits,
  limit-set samples, equicontinuity machinery.
* ``triples``: generic triples of chambers and the barycenter construction.
* ``stochastics``: harmonic sampling, random walks, strip growth.
* ``parabolics``: the explicit one-parameter family of Borel subgroups in
  generic position, verified exactly.
* ``cli``: seeded batch experiments with structured outputs.
"""

from .padic_linalg import (
    SingularMatrixError,
    ZeroValuationError,
    smith_exponents,
)
from .building import (
    Frame,
    LatticeVertex,
    ResidueChamber,
    dist2,
    distance_to_apartment,
    dominant,
    is_regular,
    opposition_involution,
    residue_projection,
    standard_vertex,
    vector_distance,
    weyl_dist2,
)
from .boundary import (
    Flag,
    HorizonExceededError,
    NotOppositeError,
    apartment_chambers,
    apartment_from_opposite,
    boundary_retraction,
    common_depth,
    is_opposite,
    retraction,
    sector_membership,
    weyl_distance,
)
from .dynamics import (
    GroupElement,
    LimitSetSample,
    SrhCertificate,
    SrhRejection,
    certify_srh,
    equicontinuity_check,
    equicontinuity_set_member,
    fixed_flag_fraction,
    limit_set_sample,
    make_srh,
    north_south_limit,
    partition_check,
    proximal_pair_check,
    schubert_avoidance_report,
    universal_contraction,
)
from .triples import (
    BarycenterResult,
    ChamberTriple,
    apartment_infinity_intersection,
    barycenter,
    construct_generic,
    distance_sum,
    is_antipodal,
    is_generic,
)
from .stochastics import (
    WalkConfig,
    WalkTrace,
    convergence_report,
    count_at_vector_distance,
    harmonic_sample,
    harmonic_sample_in_basis_set,
    run_walk,
    stationary_estimate,
    strip_growth,
)
from .sqrtsum import SqrtSum

__version__ = "0.1.0"
