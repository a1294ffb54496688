"""Semi-rigidity analysis toolkit.

Decides whether the kernel of a skew pairing on a vector space contains a
nonzero decomposable bivector, constructs matrix-tuple witnesses on regular
sl2 triples, analyzes commuting tuples through their joint spectra and trace
invariants, and ships a CLI plus a catalog of model pairings.
"""

__version__ = "0.1.0"

import os

# One OpenBLAS thread unless the caller set another count: OpenBLAS reads it
# when numpy is first imported, and with more threads the rounding of the
# float kernels, and with it a seeded report, depends on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .catalog import CatalogEntry, catalog_build
from .commuting import (
    JointSpectrum,
    MatrixTuple,
    NotCommutingError,
    RepAnalysis,
    Sl2Triple,
    chevalley_separates,
    chi,
    joint_spectrum,
    mu,
    regular_sl2_triple,
    rep_analysis,
    simultaneous_triangularize,
    trace_monomials,
)
from .exterior import (
    Bivector,
    KernelSubspace,
    SkewPairing,
    apply,
    bivector_rank,
    decomposable_exists_exact,
    dimension_criterion,
    kernel,
    wedge,
)
from .scalars import (
    IrrationalSpectrumError,
    PreconditionError,
    ScalarMode,
    eigenvalues,
    nullspace,
    rank,
)
from .verdict import (
    MuNonzeroError,
    SearchConfig,
    Verdict,
    WitnessVerificationError,
    construct_stable_point,
    decide,
    mu_zero_sampler,
    split_component_dimension,
    tuple_to_witness,
    witness_search,
    witness_to_tuple,
)
