"""Majority dynamics on Erdos-Renyi random graphs.

Fast synchronous simulation of the sign-of-neighbor-sum update, initial
opinion models with a day-one census, an exact binomial toolkit for the
finite-n probability facts the heuristics rest on, and a reproducible
Monte Carlo harness with a CLI front end.
"""

from .dynamics import (
    DayRecord,
    OpinionVector,
    Outcome,
    Trajectory,
    majority_step,
    run,
)
from .graph import (
    Graph,
    estimate_jumbledness,
    from_edges,
    load_graph,
    sample_gnp,
    save_graph,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    PSpec,
    Table,
    TrialRecord,
    bias_sweep,
    census_experiment,
    compute_aggregates,
    config_from_dict,
    config_to_dict,
    contraction_experiment,
    density_sweep,
    growth_ratio_experiment,
    load_config,
    run_experiment,
    write_report,
)
from .opinions import (
    CensusReport,
    OpinionModel,
    apply_swing,
    census,
    sample_fixed_discrepancy,
    sample_morning,
    sample_uniform,
    swing_count,
)
from .probkit import (
    PMF,
    BinomSpec,
    SweepResult,
    berry_esseen_gap,
    binom_diff_pmf,
    check_binom_shift,
    check_coupling,
    check_equality_prob,
    check_four_rv,
    chernoff_lower,
    chernoff_upper,
    phi,
    psi,
    psi_pair_bound_constant,
    run_lemma_sweeps,
)

__version__ = "0.1.0"
