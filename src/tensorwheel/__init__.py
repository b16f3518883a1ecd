"""Completion of sparse dynamic-network tensors by PID-controlled SGD
over a tensor wheel decomposition."""

from .errors import (
    BoundsError,
    DivergenceError,
    DomainError,
    DuplicateKeyError,
    ParameterError,
    ParseError,
    SizeCapError,
    StateError,
    TensorWheelError,
)
from .metrics import EvalReport, evaluate
from .pid_sgd import (
    HyperParams,
    PidState,
    TrainReport,
    compute_loss,
    pid_error,
    plain_sgd_step,
    sgd_step,
    train,
)
from .synthgen import SynthSpec, generate, holdout_set
from .tensor_store import (
    SparseTensor,
    SplitSpec,
    denormalize,
    ingest,
    normalize,
    split,
    write_coo,
)
from .twd_core import (
    Ranks,
    TwdFactors,
    init_factors,
    load_checkpoint,
    oracle_entry,
    reconstruct_entries,
    reconstruct_entry,
    reconstruct_full,
    save_checkpoint,
)

__version__ = "0.1.0"
