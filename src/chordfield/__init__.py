"""Chord control fields for one-step distribution transport.

Estimates a smoothed, low-energy editing field from two time-queries of a
shared-noise Monte Carlo proxy, applies it in a single Euler step, and ships
the verification suite that checks the construction's contraction, accuracy
and risk properties on analytic Gaussian-mixture flows.

Time convention, fixed package-wide: t = 0 is the clean data end of the
noising path (alpha(0) = 1, sigma(0) = 0) and t = 1 the noise end; velocity
fields are reported in the generation direction (toward the data of their
condition).
"""

from .backbone import (
    BackboneModel,
    GaussianMixtureCondition,
    delta_drift,
    marginal_moments,
    observable,
    posterior_x0,
    velocity,
)
from .chord import (
    ChordParams,
    SmoothingKernel,
    chord_field,
    kernel_smooth,
    surrogate_objective,
    window_minimizer,
)
from .diagnostics import (
    DiagnosticsReport,
    bb_energy,
    consistency_proxy,
    global_error_sweep,
    lte_check,
    projection_energy_gap,
    risk_experiment,
)
from .errors import (
    DegeneratePosteriorError,
    DivergenceError,
    DomainError,
    IllConditionedMapError,
)
from .preset_lib import load_preset
from .proxy import ProxyField, SharedNoiseBatch, noising_sample, proxy_field
from .schedules import Schedule, coefficient, derivatives
from .transport import (
    ParticleSet,
    TransportResult,
    chordedit,
    chordedit_multi_noise,
    proximal_refine,
)

__version__ = "0.1.0"

__all__ = [
    "BackboneModel",
    "ChordParams",
    "DegeneratePosteriorError",
    "DiagnosticsReport",
    "DivergenceError",
    "DomainError",
    "GaussianMixtureCondition",
    "IllConditionedMapError",
    "ParticleSet",
    "ProxyField",
    "Schedule",
    "SharedNoiseBatch",
    "SmoothingKernel",
    "TransportResult",
    "bb_energy",
    "chord_field",
    "chordedit",
    "chordedit_multi_noise",
    "coefficient",
    "consistency_proxy",
    "delta_drift",
    "derivatives",
    "global_error_sweep",
    "kernel_smooth",
    "load_preset",
    "lte_check",
    "marginal_moments",
    "noising_sample",
    "observable",
    "posterior_x0",
    "projection_energy_gap",
    "proximal_refine",
    "proxy_field",
    "risk_experiment",
    "surrogate_objective",
    "velocity",
    "window_minimizer",
]
