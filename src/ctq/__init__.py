"""Total-concurrence entanglement measures for small quantum systems.

Exact values for bipartite pure states, trace-norm lower bounds for mixed
states, closed-form curves with convex lower envelopes for the isotropic
and exchange-invariant (Werner) families, and monogamy analysis for
multi-qubit and chain-network states.
"""

from .bounds import BoundReport, corollary1_bound, lower_bound_thm2, s_threshold, stationary_second_derivative
from .closedform import (
    CaseChord,
    ChiSigma,
    chi_sigma,
    convex_envelope,
    ctq_isotropic,
    eof_werner,
    isotropic_chord_params,
    oracle_min_schmidt,
    zeta_isotropic,
    zeta_werner,
)
from .exceptions import CtqError
from .measures import (
    classical_total_c2,
    concurrence_pure,
    ct_alpha_pure,
    ctq_pure,
    ctq_two_qubit_mixed,
    h_q,
    normalization_mu,
    q_concurrence_pure,
    total_concurrence_pure,
    wootters_concurrence_2qubit,
)
from .monogamy import (
    MonogamyReport,
    chain_concurrence,
    chain_ctq,
    chain_residual,
    example2_K,
    gen_schmidt_concurrences,
    monogamy_check,
)
from .qlinalg import (
    hermitian_spectrum,
    partial_trace,
    partial_transpose,
    realign,
    trace_norm,
)
from .states import (
    DensityMatrix,
    MultipartiteState,
    PureState,
    chain_state,
    gen_schmidt_3qubit,
    isotropic,
    load_state,
    max_entangled,
    pure_from_amplitudes,
    random_density,
    random_pure,
    save_state,
    schmidt_spectrum,
    state_from_dict,
    state_to_dict,
    werner,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
