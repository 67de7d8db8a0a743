"""Environment & lifecycle scenario engine.

``trajectory`` defines the seeded per-device environment
trajectories threaded through the oracle and fleet layers; it is
imported eagerly.  ``conformance`` (the committed conformance corpus
and its checker) sits *above* the fleet layer and is intentionally
not re-exported here: importing it from this package's namespace
would create an import cycle with :mod:`repro.fleet`, which consumes
trajectory specs.  Import it as the submodule
``repro.scenario.conformance``.
"""

from repro.scenario.trajectory import (
    AgingDrift,
    EnvironmentSample,
    EnvironmentTrajectory,
    TemperatureCycle,
    TemperatureRamp,
    TrajectorySpec,
    VoltageNoise,
)

__all__ = [
    "AgingDrift",
    "EnvironmentSample",
    "EnvironmentTrajectory",
    "TemperatureCycle",
    "TemperatureRamp",
    "TrajectorySpec",
    "VoltageNoise",
]
