"""plexsim: a trace-driven discrete-event simulator and protocol library for
serverless federated learning.

The package implements the Plexus protocol (deterministic hash-based peer
sampling, bandwidth-biased aggregator election, success-fraction
aggregation) next to three baselines (centralized FL, D-PSGD, gossip
learning) over a shared WAN model with virtual time, so the four can be
compared on time-, communication-, and compute-to-accuracy.
"""

from .core import (
    Aggregate,
    DeviceProfile,
    GossipModel,
    Membership,
    ModelParameters,
    NodeId,
    Train,
    average_models,
    derive_rng,
    model_size_bytes,
)
from .sampler import SampleSchedule, aggregator, node_rank_key, sample
from .protocol import PlexusNode, ProtocolConfig, success_threshold
from .simnet import Engine, LatencyMatrix, SimulationError, assign_cities, compute_time, maxmin_rates
from .learning import (
    Dataset,
    DataPartition,
    EvalSplit,
    ModelSpec,
    PartitionScheme,
    TrainerConfig,
    evaluate_many,
    local_train,
    partition,
    synth_dataset,
)
from .baselines import (
    GossipNode,
    OnePeerExponential,
    RegularTopology,
    dpsgd_round,
    fl_round,
    gl_merge,
    make_regular_topology,
)
from .metrics import MetricsLedger, cta, round_duration_stats, rta, tta
from .config import ExperimentConfig, load_config
from .runner import build_world, run_experiment, run_single

__version__ = "0.1.0"
