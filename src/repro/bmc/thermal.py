"""Thermal management: sensor fusion and closed-loop fan control (§4.6).

Each socket has a large fanned heatsink with four additional case-fan
ports; a dozen temperature sensors are readable through the BMC.  The
model: first-order thermal RC per component (power in, airflow-
dependent thermal resistance out) plus a PI fan controller running in
BMC firmware, stepped at the telemetry period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..params import ThermalParams


class ThermalNode:
    """One component's temperature state."""

    def __init__(self, name: str, params: ThermalParams | None = None):
        self.name = name
        self.params = params or ThermalParams()
        self.temperature_c = self.params.ambient_c

    def step(self, power_w: float, fan_fraction: float, dt_s: float) -> float:
        """Advance the RC model by ``dt_s`` and return the temperature."""
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        p = self.params
        steady = p.ambient_c + power_w * p.theta(fan_fraction)
        tau = p.theta(fan_fraction) * p.capacitance_j_per_c
        # Exponential approach to the steady-state temperature.
        alpha = 1.0 - 2.718281828 ** (-dt_s / tau)
        self.temperature_c += (steady - self.temperature_c) * alpha
        return self.temperature_c


@dataclass
class FanController:
    """PI controller: holds the hottest sensor at the setpoint."""

    setpoint_c: float = 70.0
    kp: float = 0.05
    ki: float = 0.004
    min_fraction: float = 0.15   # fans never fully stop
    _integral: float = field(default=0.0, repr=False)
    fraction: float = field(default=0.15, repr=False)

    def update(self, hottest_c: float, dt_s: float) -> float:
        """One control step; returns the commanded fan fraction."""
        error = hottest_c - self.setpoint_c
        self._integral = min(max(self._integral + error * dt_s, -50.0), 200.0)
        raw = self.kp * error + self.ki * self._integral
        self.fraction = min(1.0, max(self.min_fraction, self.min_fraction + raw))
        return self.fraction


class ThermalZone:
    """Several nodes cooled by one fan bank under one controller."""

    def __init__(self, nodes: List[ThermalNode], controller: FanController | None = None):
        if not nodes:
            raise ValueError("a zone needs at least one node")
        self.nodes = nodes
        self.controller = controller or FanController()
        self.history: List[Dict[str, float]] = []

    def step(self, power_by_node: Dict[str, float], dt_s: float) -> Dict[str, float]:
        """Advance all nodes one step under the current fan command."""
        temps = {}
        for node in self.nodes:
            temps[node.name] = node.step(
                power_by_node.get(node.name, 0.0), self.controller.fraction, dt_s
            )
        hottest = max(temps.values())
        fan = self.controller.update(hottest, dt_s)
        record = dict(temps)
        record["fan"] = fan
        self.history.append(record)
        return temps

    def run(self, power_by_node: Dict[str, float], duration_s: float, dt_s: float = 0.5):
        """Run at constant load; returns the final temperatures."""
        steps = max(1, int(duration_s / dt_s))
        temps: Dict[str, float] = {}
        for _ in range(steps):
            temps = self.step(power_by_node, dt_s)
        return temps

    @property
    def hottest_c(self) -> float:
        return max(node.temperature_c for node in self.nodes)


def enzian_thermal_zone() -> ThermalZone:
    """The two sockets under the case-fan bank."""
    return ThermalZone(
        [
            ThermalNode("cpu", ThermalParams(theta_still_c_per_w=0.75)),
            ThermalNode("fpga", ThermalParams(theta_still_c_per_w=0.85)),
        ]
    )
