"""Evolving hyperplane-fuzzy controller, MAV plant surrogates and benchmark harness."""

from .controller import (
    DIM,
    ControllerConfig,
    ParsimoniousController,
    PalmNetwork,
    network_output,
    p_matrix,
)
from .pid import PidConfig, PidController

__all__ = [
    "ControllerConfig",
    "ParsimoniousController",
    "p_matrix",
    "DIM",
    "PalmNetwork",
    "network_output",
    "PidConfig",
    "PidController",
]

__version__ = "0.1.0"
