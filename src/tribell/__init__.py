"""Genuine tripartite nonlocality of three-qubit pure states.

Quantifies entanglement (concurrence, three-tangle, monogamy residual),
maximizes the Svetlichny value <S> over the measurement directions,
builds the Svetlichny operator and its Mermin halves as an 8x8 oracle,
verifies the closed-form maxima of the GHZ-class and W-class families,
and simulates finite-shot Born-rule experiments.
"""

from .qcore import (
    GhzClassParams,
    ThreeQubitPureState,
    ValidationError,
    WClassParams,
    expectation,
    ghz_state,
    haar_local_unitary,
    haar_random_state,
    herm_eig,
    spin_observable,
    tensor3,
    w_state,
)
from .entanglement import (
    EntanglementProfile,
    concurrence_two_qubit,
    entanglement_profile,
    entanglement_profiles,
    ghz_profile_closed,
    w_profile_closed,
)
from .bell import (
    ALGEBRAIC_CEILING,
    MeasurementSettings,
    SmaxReport,
    bell_operators,
    correlation_tensor,
    ghz_correlator_closed,
    optimal_settings_ghz,
    settings_from_vectors,
    settings_from_w_angles,
    smax_ghz_closed,
    smax_upper_bound,
    smax_w,
    svetlichny_value,
    svetlichny_value_direct,
    w_correlator_closed,
    w_reduced_value,
)
from .optimize import (
    OptimizationResult,
    VerificationRow,
    multistart_maximize,
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
