"""Simulator and causal diagnostics for entanglement-swapping Bell tests.

Modules: qcore (exact statevector operations), geometry (spacetime layouts
and boosted orderings), engine (trial generation and post-selection), toys
(classical collider constructions), analysis (CHSH, conditional-independence
tests, no-difference and fragility diagnostics, teleport channel demo), cli
(command-line interface), io (CSV/JSON artifacts).
"""

from .qcore import (
    BellOutcome,
    BsmStep,
    SpinMeasurement,
    StateVector,
    bell_state,
    bell_state_measurement,
    exact_branch_enumeration,
    fidelity,
    make_two_singlets,
    measure_spin,
    prob_spin_up,
    singlet,
)
from .geometry import (
    CausalRelation,
    EventLabel,
    GeometryClass,
    GeometryPreset,
    SpacetimeEvent,
    boosted_time_order,
    classify,
    classify_geometry,
    preset_by_name,
)
from .engine import (
    ExperimentConfig,
    Trials,
    exact_experiment_distribution,
    post_select,
    run_trials,
    trial_rng,
)
from .toys import (
    AcceptanceRule,
    run_rps,
    run_toy_collider,
    run_toy_source_variant,
    singlet_weight_rule,
)
from .analysis import (
    CHSHResult,
    CITestResult,
    CorrelatorTable,
    FragilityReport,
    NdaReport,
    TeleportReport,
    Verdict,
    chsh,
    correlators,
    exact_chsh,
    fragility,
    no_difference_check,
    teleport_channel_demo,
    test_conditional_independence,
)

__version__ = "0.1.0"
