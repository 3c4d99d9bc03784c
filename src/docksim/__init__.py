"""docksim: deterministic analysis toolkit for a 3-fold symmetric docking interface.

The package models one genderless docking interface end to end: the
wedge-and-pin locking mechanism, the petal face geometry and its capture
envelope, the coupling state machine, interface load screening, the power
and data buses that mate across the ring, and multi-module assemblies.
Everything is pure computation: no wall clock, no global state, identical
inputs give identical outputs.
"""

from .errors import (
    CalibrationError,
    DegenerateProfileError,
    DocksimError,
    FramingError,
    IndeterminateError,
    JamError,
    NotConnectedError,
    ParameterError,
    PortInUseError,
    ProtocolError,
    ScenarioError,
    StallError,
    UnreachableError,
    UnsupportedError,
)
from .mechanism import (
    MechanismParams,
    MovabilityReport,
    StrokeTrace,
    movability_margin,
    movability_report,
    required_rod_force,
    self_locking,
    simulate_stroke,
)
from .face import (
    Envelope,
    FaceProfile,
    Misalignment,
    REFERENCE_PROFILE,
    calibrate_profile,
    canonicalize,
    envelope_axis_limit,
    full_envelope,
    height_field,
    mate_feasible,
    rotate_misalignment_120,
    settle_height,
)
from .coupling import (
    CouplingConfig,
    Event,
    FAULT_KINDS,
    InterfaceState,
    PHASES,
    replay,
    step,
)
from .loads import (
    DUAL_LOCK_FACTOR,
    LoadEnvelope,
    LoadReport,
    StressEstimate,
    Wrench,
    check_load,
    component_loads,
    stress_estimate,
)
from .bus import (
    ChannelSet,
    Delivery,
    Frame,
    PowerBus,
    connect,
    contact_ring,
    send_frame,
)
from .assembly import (
    DockReport,
    Module,
    ModuleGraph,
    Pose,
    Port,
    ReconfigureReport,
    WrenchResult,
    mate_world_pose,
)
from .scenario import Scenario, load_scenario, parse_scenario, run

__version__ = "0.1.0"

__all__ = [
    "CalibrationError", "DegenerateProfileError", "DocksimError", "FramingError",
    "IndeterminateError", "JamError", "NotConnectedError", "ParameterError",
    "PortInUseError", "ProtocolError", "ScenarioError", "StallError",
    "UnreachableError", "UnsupportedError",
    "MechanismParams", "MovabilityReport", "StrokeTrace", "movability_margin",
    "movability_report", "required_rod_force", "self_locking", "simulate_stroke",
    "Envelope", "FaceProfile", "Misalignment", "REFERENCE_PROFILE",
    "calibrate_profile", "canonicalize", "envelope_axis_limit", "full_envelope",
    "height_field", "mate_feasible", "rotate_misalignment_120", "settle_height",
    "CouplingConfig", "Event", "FAULT_KINDS", "InterfaceState", "PHASES",
    "replay", "step",
    "DUAL_LOCK_FACTOR", "LoadEnvelope", "LoadReport", "StressEstimate", "Wrench",
    "check_load", "component_loads", "stress_estimate",
    "ChannelSet", "Delivery", "Frame", "PowerBus", "connect", "contact_ring",
    "send_frame",
    "DockReport", "Module", "ModuleGraph", "Pose", "Port", "ReconfigureReport",
    "WrenchResult", "mate_world_pose",
    "Scenario", "load_scenario", "parse_scenario", "run",
    "__version__",
]
