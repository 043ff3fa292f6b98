"""Active contact-rich pose estimation of a movable rigid object.

A particle-filter belief over the object's pose is updated from
semantically labeled point observations; an expected-information field
over the workspace drives a kernel-interpolated sampling MPC that gathers
contact information while keeping the object reachable.
"""

from .belief import BeliefParams, BeliefState
from .discrepancy import DiscrepancyParams
from .geometry import ParticleSet, Pose, ScalarField, Shape, Workspace, mug_shape
from .infogain import InfoFields, ReachabilityModel, build_info_fields, build_reachability
from .planner import PaddleRobot, Planner, PlannerParams, PlanningContext
from .semantics import SemanticCloud, Semantics, SensorModel
from .sim import Metrics, Scenario, World, run_episode

__all__ = [
    "BeliefParams",
    "BeliefState",
    "DiscrepancyParams",
    "InfoFields",
    "Metrics",
    "PaddleRobot",
    "ParticleSet",
    "Planner",
    "PlannerParams",
    "PlanningContext",
    "Pose",
    "ReachabilityModel",
    "ScalarField",
    "Scenario",
    "SemanticCloud",
    "Semantics",
    "SensorModel",
    "Shape",
    "Workspace",
    "World",
    "build_info_fields",
    "build_reachability",
    "mug_shape",
    "run_episode",
]
