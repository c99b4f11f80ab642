from .disturbances import GustSpec, GustTracker, ImpulseSpec, gust_velocity, impulse_noise
from .flapping import CG, CP, BiFwmav, DoubleIntegrator, bifwmav_force_moment, flapping_actuator
from .hexacopter import Hexacopter, hexacopter_mixing, rotor_forces_moments
from .rigid_body import (
    GRAVITY,
    InertiaSet,
    dcm_inertial_to_body,
    kinetic_energy,
    rigid_body_step,
)

__all__ = [
    "GustSpec",
    "GustTracker",
    "ImpulseSpec",
    "gust_velocity",
    "impulse_noise",
    "CG",
    "CP",
    "BiFwmav",
    "DoubleIntegrator",
    "bifwmav_force_moment",
    "flapping_actuator",
    "Hexacopter",
    "hexacopter_mixing",
    "rotor_forces_moments",
    "GRAVITY",
    "InertiaSet",
    "dcm_inertial_to_body",
    "kinetic_energy",
    "rigid_body_step",
]
