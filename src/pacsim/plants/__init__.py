from .disturbances import GustSpec, GustTracker, ImpulseSpec, gust_velocity, impulse_noise
from .flapping import CG, CP, BiFwmav, DoubleIntegrator
from .hexacopter import Hexacopter
from .rigid_body import GRAVITY, InertiaSet, rigid_body_step

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
    "Hexacopter",
    "GRAVITY",
    "InertiaSet",
    "rigid_body_step",
]
