"""camsched: CAM-quality-driven scheduling of low-light video enhancement
across a cluster of edge servers.

The package splits into quality assessment (camq), the latency/utility system
model (sysmodel), per-slot schedulers (sched), the slot-loop simulator (sim),
and file formats plus CLI (fileio, config, cli).
"""

from .camq import (
    QualityState,
    commit_slot,
    enhancement_quality,
    filter_cam,
    record_accuracy,
)
from .config import RunConfig, build_model, build_quality_state, emit_config, parse_config
from .errors import (
    CamSchedError,
    ConfigError,
    SearchSpaceError,
    ShapeMismatchError,
    TraceError,
    UnknownDeviceError,
    ValidationError,
)
from .fileio import emit_metrics, load_cam, load_trace, save_trace
from .sched import (
    BaselineResult,
    GaConfig,
    Individual,
    OracleResult,
    baseline_capacity,
    baseline_no_enhancement,
    brute_force,
    evolve,
    objective,
)
from .sim import (
    RunSummary,
    SlotData,
    SlotMetrics,
    SynthSpec,
    Trace,
    generate_synthetic,
    run,
    run_slot,
    summarize,
)
from .sysmodel import (
    Decision,
    EdgeServer,
    EnhancementProfile,
    FeasibilityReport,
    ModelConstants,
    SlotInput,
    SystemModel,
    check_feasibility,
    device_latency,
    server_loads,
)

__version__ = "0.1.0"
