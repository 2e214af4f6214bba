"""qimpute: quantum-circuit cell embeddings for mixed-type tabular imputation.

The pipeline: mixed-type cells are encoded to angles of a simulated IQP
circuit; the circuit's Pauli-Z expectation vectors seed a small masked
transformer trained from scratch to reconstruct held-out cells; classical
baselines and a seeded benchmark harness sit alongside for comparison.
"""

from .baselines import (
    BaselineConfig,
    iterative_ridge_impute,
    iterative_ridge_with_trace,
    knn_impute,
    mean_mode_impute,
)
from .datasets import SyntheticDataset, make_toy_table, synth_healthcare_generate
from .encoding import (
    CellEmbedder,
    EmbedderVariant,
    PreprocessStats,
    TextEmbeddings,
    encode_column,
    fit_preprocessor,
    load_text_embeddings,
    make_angle_projection,
    project_to_angles,
    text_embed_hashing,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractViolation,
    CsvLoadError,
    FitError,
    QimputeError,
    TrainingDiverged,
)
from .experiment import (
    ExperimentConfig,
    MetricReport,
    ablation_suite,
    export_embeddings,
    prepare_split,
    run_experiment,
)
from .metrics import macro_f1_categorical, rmse_numeric, rmse_raw_per_column
from .model import (
    Batch,
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    loss_and_gradients,
    loss_value,
    predict_masked,
)
from .quantum import (
    IqpParams,
    StateVector,
    ZExpectations,
    apply_diagonal_phase,
    apply_hadamard_layer,
    circuit_state,
    iqp_embed,
    iqp_expectations,
    oracle_apply,
    z_expectations,
)
from .tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    Table,
    apply_mask,
    inject_mcar,
    load_csv,
    load_schema,
    missing_mask,
    save_csv,
    save_schema,
)
from .training import (
    AdamState,
    CheckpointBundle,
    TrainConfig,
    TrainResult,
    adam_step,
    impute_table,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
