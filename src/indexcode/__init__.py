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
    Transmission,
    TransmissionSchedule,
    clique_schedule,
    cycle_to_clique,
    cyclic_schedule,
)
from .enumeration import (
    CapExceeded,
    Cycle,
    PartialClique,
    enumerate_cycles,
    enumerate_partial_cliques,
    extract_cycles_from_clique,
    split_digraph_cycles,
)
from .gf256 import mds_rows
from .instance import (
    Instance,
    InstanceError,
    InstanceFormatError,
    InstanceValidationError,
    PacketType,
    SplitDigraph,
    build_split_digraph,
    is_uniprior,
    make_instance,
    parse_instance,
    serialize_instance,
    to_digraph,
    to_undirected,
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
from .programs import (
    build_P1,
    build_P2,
    build_P3,
    build_P3_star,
    build_P4,
    build_P4_star,
    build_P5,
    build_P6,
    verify_duality,
)
from .simulate import DecodeFailure, DecodeReport, simulate

__version__ = "0.1.0"
