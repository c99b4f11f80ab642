"""Evolving hyperplane-fuzzy controller, MAV plant surrogates and benchmark harness."""

from .controller import (
    ControllerConfig,
    ParsimoniousController,
    p_matrix,
)
from .palm import DIM, N_INPUTS, PalmNetwork, network_output
from .pid import PidConfig, PidController

__all__ = [
    "ControllerConfig",
    "ParsimoniousController",
    "p_matrix",
    "DIM",
    "N_INPUTS",
    "PalmNetwork",
    "network_output",
    "PidConfig",
    "PidController",
]

__version__ = "0.1.0"
