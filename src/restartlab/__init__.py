"""Run-time prediction and restart policies for randomized quasigroup completion.

The package covers the full loop: generate satisfiable Latin-square completion
instances, solve them with a randomized backtracking solver that records search
features at every choice point, learn a Bayesian decision tree that predicts
whether a run will be short or long, and turn such predictions into restart
policies whose cost can be bounded analytically and checked by simulation.
"""

__version__ = "0.1.0"

from .latin import (
    HOLE,
    HoleSpec,
    PartialLatinSquare,
    StructureError,
    generate_complete,
    poke_holes,
)
from .solver import (
    ALLDIFF_REGIN,
    CUTOFF,
    FORWARD_CHECK,
    SOLVED,
    RunRecord,
    RunStats,
    SolverConfig,
    solve,
)
from .features import (
    FeatureSpec,
    SummaryVector,
    default_registry,
    normalize_for_multi,
    registry_hash,
    summarize,
    summary_columns,
)
from .learn import (
    Dataset,
    DecisionTreeModel,
    EvaluationReport,
    TuningResult,
    cascade_datasets,
    evaluate,
    grow_tree,
    label_by_median,
    marginal_model,
    tune_kappa,
)
from .policy import (
    UNBOUNDED,
    DynamicPolicy,
    EmpiricalRTD,
    FixedPolicy,
    LubyPolicy,
    ModelPredictor,
    PolicyStats,
    SyntheticPredictor,
    dynamic_expected_runs,
    dynamic_expected_run_length_ub,
    dynamic_expected_total_ub,
    expected_time_fixed,
    is_unbounded,
    optimal_fixed_cutoff,
    scan_dynamic_limits,
    simulate_policy,
)
from .harness import (
    MULTI_INSTANCE,
    SINGLE_INSTANCE,
    ExperimentSpec,
    find_heavy_tail_instance,
    run_experiment,
)
from .io import (
    DataFormatError,
    read_dataset,
    read_instance,
    read_model,
    read_report,
    read_rtd,
    write_dataset,
    write_instance,
    write_model,
    write_report,
    write_rtd,
)
