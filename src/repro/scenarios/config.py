"""Scenario configs: driver × trip plan × fleet, composable with faults.

A :class:`ScenarioConfig` bundles one :class:`~repro.scenarios.driver.DriverSpec`,
one :class:`~repro.scenarios.trip_plans.TripPlanSpec` and one
:class:`~repro.scenarios.vehicle.VehicleCohortSpec` under a scenario seed.
It is a :class:`~repro.config.SerializableConfig` like the fault suite, so
a scenario travels through JSON inside a
:class:`~repro.eval.runner.RunnerConfig`, ships to evaluation workers as
plain data, and composes freely with a
:class:`~repro.faults.suite.FaultSuiteConfig` — scenario × fault × driver
sweeps are pure configuration.

Resolution is deterministic in ``(scenario.seed, trip_index)``: the same
scenario always produces the same drivers, vehicles, route, limits and
stops, whichever backend or ordering runs the trips.

The all-default :class:`ScenarioConfig` is a proven no-op: legacy driver
passthrough, no route/limit/stop overrides, the paper's vehicle with a
perfectly aligned mount — the evaluation output is bit-identical to a run
with no scenario at all (pinned by ``tests/scenarios``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from ..config import SerializableConfig, config_from_dict
from ..errors import ConfigurationError
from ..roads.profile import RoadProfile
from ..vehicle.driver import DriverProfile
from ..vehicle.params import VehicleParams
from .driver import DriverSpec, driver_spec, driver_style_names
from .trip_plans import TripPlanSpec, trip_plan, trip_plan_names
from .vehicle import VehicleCohortSpec, vehicle_cohort

__all__ = [
    "ResolvedTrip",
    "ScenarioConfig",
    "SCENARIOS",
    "scenario_by_name",
    "scenario_names",
]


@dataclass(frozen=True)
class ResolvedTrip:
    """Everything scenario resolution decided for one trip.

    ``vehicle is None`` means "keep the default vehicle object" (the
    bit-identity path); ``speed_zones`` / ``stops`` are empty for the
    passthrough plan.
    """

    driver: DriverProfile
    vehicle: VehicleParams | None
    mount_yaw: float
    speed_zones: tuple[tuple[float, float, float], ...]
    stops: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ScenarioConfig(SerializableConfig):
    """One named scenario: who drives what, where, under which seed."""

    name: str = "default"
    driver: DriverSpec = field(default_factory=DriverSpec)
    trip_plan: TripPlanSpec = field(default_factory=TripPlanSpec)
    vehicles: VehicleCohortSpec = field(default_factory=VehicleCohortSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name cannot be empty")

    @property
    def is_noop(self) -> bool:
        """Whether this scenario changes nothing about an evaluation."""
        return (
            self.driver.is_legacy
            and self.trip_plan.is_passthrough
            and self.vehicles.is_default
        )

    def route_for(self, profile: RoadProfile) -> RoadProfile:
        """The route this scenario evaluates on.

        The passthrough plan keeps the caller's ``profile``; a real plan
        builds its own road, deterministic in the scenario seed.
        """
        if self.trip_plan.is_passthrough:
            return profile
        return self.trip_plan.build_route(self.seed)

    def resolve_trip(self, trip_index: int, base_driver: DriverProfile) -> ResolvedTrip:
        """Resolve trip ``trip_index``: driver, vehicle, mount, limits, stops.

        ``base_driver`` is the runner's historical per-trip driver, which
        the legacy driver spec passes through unchanged.
        """
        vehicle, yaw = self.vehicles.resolve(self.seed, trip_index)
        plan = self.trip_plan
        return ResolvedTrip(
            driver=self.driver.resolve(self.seed, trip_index, base_driver),
            vehicle=vehicle,
            mount_yaw=yaw,
            speed_zones=() if plan.is_passthrough else plan.speed_zones(),
            stops=() if plan.is_passthrough else plan.stops(self.seed),
        )

    def with_driver(self, style_name: str) -> "ScenarioConfig":
        """This scenario driven by a different registered style."""
        return replace(self, driver=driver_spec(style_name))

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Rebuild from plain data, with registry-name shorthand.

        On top of the generic contract (unknown keys rejected naming the
        valid ones), the ``driver`` / ``trip_plan`` / ``vehicles`` values
        may be registry-name strings; unknown names are rejected listing
        the registered alternatives, and unknown keys additionally list
        the scenario / driver-style / trip-plan registries so a typo'd
        sweep file fails with everything needed to fix it.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"ScenarioConfig spec must be a mapping, got {type(data).__name__}"
            )
        valid = [f.name for f in dataclasses.fields(cls)]
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {unknown} for ScenarioConfig; valid keys are "
                f"{valid}; registered scenarios: {scenario_names()}; driver "
                f"styles: {driver_style_names()}; trip plans: {trip_plan_names()}"
            )
        coerced = dict(data)
        for key, lookup in (
            ("driver", driver_spec),
            ("trip_plan", trip_plan),
            ("vehicles", vehicle_cohort),
        ):
            value = coerced.get(key)
            if isinstance(value, str):
                coerced[key] = lookup(value)
        return config_from_dict(cls, coerced)


#: Named scenarios — the library the accuracy grid sweeps. ``default``
#: is the pre-scenario evaluation exactly; the rest pair a trip plan
#: with a fleet (the grid varies the driver axis on top).
SCENARIOS: dict[str, ScenarioConfig] = {
    "default": ScenarioConfig(),
    "suburban-commute": ScenarioConfig(
        name="suburban-commute",
        driver=driver_spec("normal"),
        trip_plan=trip_plan("suburban-commute"),
        vehicles=vehicle_cohort("mixed-fleet"),
        seed=1,
    ),
    "highway-run": ScenarioConfig(
        name="highway-run",
        driver=driver_spec("normal"),
        trip_plan=trip_plan("highway-run"),
        vehicles=vehicle_cohort("mixed-fleet"),
        seed=2,
    ),
    "stop-and-go": ScenarioConfig(
        name="stop-and-go",
        driver=driver_spec("safe"),
        trip_plan=trip_plan("stop-and-go"),
        vehicles=vehicle_cohort("rideshare-sedans"),
        seed=3,
    ),
}


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


def scenario_by_name(name: str) -> ScenarioConfig:
    """Look a scenario up by name; unknown names fail loudly."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; valid scenarios are {scenario_names()}"
        ) from None
