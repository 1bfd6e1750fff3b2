"""Genuine tripartite nonlocality of three-qubit pure states.

Quantifies entanglement (concurrence, three-tangle, monogamy residual),
builds and maximizes the Svetlichny and Mermin operators, verifies the
closed-form maxima of the GHZ-class and W-class families, and simulates
finite-shot Born-rule experiments.
"""

from .qcore import (
    GhzClassParams,
    ThreeQubitPureState,
    UnitVector,
    ValidationError,
    WClassParams,
    X_HAT,
    Y_HAT,
    Z_HAT,
    expectation,
    ghz_state,
    haar_random_state,
    herm_eig,
    herm_eigenvalues,
    make_state,
    partial_trace,
    reduced_single,
    spin_observable,
    tensor3,
    w_state,
)
from .entanglement import (
    EntanglementProfile,
    concurrence_bipartition,
    concurrence_two_qubit,
    entanglement_profile,
    ghz_profile_closed,
    three_tangle,
    w_profile_closed,
)
from .bell import (
    ALGEBRAIC_CEILING,
    GhzClosedTerms,
    MeasurementSettings,
    SmaxReport,
    bell_operators,
    correlation_tensor,
    ghz_closed_terms,
    ghz_correlator_closed,
    optimal_settings_ghz,
    optimal_settings_w_symmetric,
    settings_from_vectors,
    settings_from_w_angles,
    smax_ghz_closed,
    smax_w,
    svetlichny_value,
    svetlichny_value_direct,
    w_correlator_closed,
    w_reduced_value,
)
from .optimize import (
    OptimizationConfig,
    OptimizationResult,
    VerificationRow,
    multistart_maximize,
    seesaw_maximize,
    verify_grid_ghz,
    verify_grid_w,
    w_params_for_sum,
    w_sum_max,
)
from .montecarlo import (
    ShotEstimate,
    estimate_correlator,
    estimate_svetlichny,
    outcome_distribution,
)

__version__ = "1.0.0"
