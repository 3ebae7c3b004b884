"""Wideband hybrid-array channel estimation with unfolded sparse Bayesian solvers."""

import os

# One BLAS thread unless the user picked a count: the per-tone products and M x M solves are
# too small to gain from more.  numpy reads this when it loads, so it must come first.
if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import (
    SystemConfig,
    default_config,
    desk_config,
    noise_var_from_snr_db,
    spawn_rng,
    subcarrier_freqs,
)
from .channel import (
    PathSet,
    build_channel,
    draw_paths,
    generate_dataset,
    steering_vector,
)
from .dictionaries import (
    FREQUENCY_DEPENDENT,
    FREQUENCY_INDEPENDENT,
    DictionarySet,
    build_dictionaries,
    reconstruct_channel,
)
from .measurement import (
    MeasurementOperator,
    PilotCombiner,
    assemble_operator,
    draw_combiner,
    observe_and_transform,
    operator_from_matrix,
)
from .sbl import (
    DivergenceError,
    EstimatorSpec,
    SblState,
    amp_e_step,
    classic_m_step,
    exact_e_step,
    init_state,
    run_estimator,
)
from .mstep import MStepNet, adam_update, build_features, load_checkpoint, mstep_forward, save_checkpoint
from .training import (
    TrainConfig,
    TrainingDivergence,
    TrainReport,
    generate_splits,
    train_layerwise,
    unroll_forward,
    write_report_csv,
)
from .evaluation import (
    SweepResult,
    average_nmse_db,
    flops_per_iteration,
    nmse,
    reconstruction_flops,
    run_sweep,
    standard_operator,
)

__version__ = "0.1.0"
