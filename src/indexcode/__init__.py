"""Exact LP bounds and executable coding schedules for unicast broadcast
with side information."""

from .analysis import (
    BoundsReport,
    PreconditionError,
    Theorem2Report,
    bounds_report,
    is_planar,
)
from .coding import (
    CodingAction,
    ScheduleError,
    TransmissionSchedule,
    clique_schedule,
    cyclic_schedule,
)
from .enumeration import (
    CapExceeded,
    Cycle,
    PartialClique,
    enumerate_cycles,
    enumerate_partial_cliques,
)
from .gf256 import mds_rows
from .instance import (
    Instance,
    InstanceError,
    InstanceFormatError,
    InstanceValidationError,
    PacketType,
    is_uniprior,
    make_instance,
    parse_instance,
    total_weight,
    validate_instance,
)
from .lp import (
    Constraint,
    LinearProgram,
    NodeLimitExceeded,
    SolveResult,
    solve_ilp,
    solve_lp,
    transpose,
    verify_certificate,
)
from .programs import build_P2, build_P5
from .simulate import DecodeReport, simulate

__version__ = "0.1.0"
