"""Context-aware multi-model, multi-accelerator object-detection scheduling.

A trace-driven library and CLI: characterize detection models into a
confidence graph, predict per-model accuracy from one confidence score,
schedule (model, accelerator) pairs per frame under accuracy/energy/latency
knobs, manage model residency with LRU loading, and evaluate everything in
simulation against single-model and oracle baselines.
"""

from .catalog import (
    Accelerator,
    BoundingBox,
    Catalog,
    CharacterizationTrace,
    DetectionOutcome,
    FrameRecord,
    ModelProfile,
    builtin_catalog,
    energy_of,
    iou,
    load_catalog,
    load_trace,
    save_catalog,
    save_trace,
)
from .confidence_graph import (
    CoGraph,
    CostGraph,
    GraphNode,
    Prediction,
    PredictionMap,
    build_cograph,
    build_prediction_map,
    consolidate,
    load_prediction_map,
    neighborhood,
    normalize_invert,
    predict,
    save_prediction_map,
)
from .context import LastPatch, bbox_similarity
from .errors import CatalogError, ScenarioError, TraceError, ValidationError
from .images import GrayscaleImage, read_pgm, write_pgm
from .loader import AcceleratorMemory, LoadOutcome
from .scheduler import (
    Decision,
    NormalizedCosts,
    SchedulerConfig,
    SchedulerState,
    normalize_costs,
    schedule,
    update_momentum,
)
from .sim import (
    FrameResult,
    Policy,
    Scenario,
    SimulationReport,
    demo_scenario,
    gen_trace,
    load_scenario,
    metrics,
    oracle_choose,
    run,
    sweep,
    sweep_correlations,
)

__version__ = "0.1.0"
