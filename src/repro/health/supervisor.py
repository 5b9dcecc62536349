"""The platform supervisor: wires health machinery onto live parts.

One :class:`HealthSupervisor` owns the per-subsystem state machines,
the watchdog, the circuit breakers, the degradation policies, and the
machine-level recovery orchestrator.  It is built by
:class:`repro.platform.EnzianMachine` when the config tree's ``health``
section is enabled -- and *only* then: with ``health.enabled = False``
(the default) no supervisor exists, every hook stays ``None``, and the
twin is bit-identical to a build without this package.

Arming is per-surface, mirroring :class:`repro.faults.FaultInjector`:
``arm_power`` / ``arm_boot`` at machine construction, ``arm_telemetry``
when a telemetry service is created, ``arm_eci`` / ``breaker_for`` by
whoever owns a transport or net path (the chaos soak, a test, an
application harness).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from .breaker import CircuitBreaker
from .config import HealthConfig
from .orchestrator import RecoveryOrchestrator
from .policy import EciDegradationPolicy, PowerDegradationPolicy
from .state import HealthStateMachine
from .watchdog import Watchdog, WatchdogHandle

#: Kernel-time window within which a supervised sim activity (link
#: pump, traffic source) must show progress.
ECI_DEADLINE_NS = 25_000.0
#: Board-clock deadline for boot milestones (a §4.4 sequence that stops
#: emitting milestones for this long has wedged).
BOOT_DEADLINE_S = 120.0
#: Board-clock deadline between telemetry sweeps.
TELEMETRY_DEADLINE_S = 10.0

#: Net-path (TCP/RDMA/reliable) circuit breakers: consecutive failures
#: before a breaker opens, kernel time an open breaker waits before
#: letting a probe through, and probes admitted in HALF_OPEN before the
#: verdict (the first failure re-opens; that many successes close).
BREAKER_FAILURES = 3
BREAKER_RESET_NS = 10_000_000.0
BREAKER_PROBES = 1


class HealthSupervisor:
    """Owns and arms the platform's health machinery."""

    def __init__(self, config: Optional[HealthConfig] = None, obs=None):
        from ..obs import NULL_REGISTRY

        self.config = config if config is not None else HealthConfig(enabled=True)
        self.obs = obs if obs is not None else NULL_REGISTRY
        #: Deterministic jitter source for recovery backoff.
        self.rng = random.Random(self.config.seed)
        self.watchdog = Watchdog(obs=obs)
        self.subsystems: Dict[str, HealthStateMachine] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.power_policy: Optional[PowerDegradationPolicy] = None
        self.eci_policy: Optional[EciDegradationPolicy] = None
        self.orchestrator: Optional[RecoveryOrchestrator] = None
        self._boot_heartbeat: Optional[WatchdogHandle] = None

    # -- state machines ------------------------------------------------------

    def health_of(
        self, subsystem: str, clock: Optional[Callable[[], float]] = None
    ) -> HealthStateMachine:
        """Get-or-create the state machine for ``subsystem``."""
        machine = self.subsystems.get(subsystem)
        if machine is None:
            machine = HealthStateMachine(subsystem, obs=self.obs, clock=clock)
            self.subsystems[subsystem] = machine
        return machine

    # -- arming --------------------------------------------------------------

    def arm_power(self, power) -> PowerDegradationPolicy:
        """Brown-out/OTP throttling on the BMC power manager."""
        health = self.health_of("power", clock=lambda: power.clock.now_s)
        self.power_policy = PowerDegradationPolicy(power, health, obs=self.obs)
        return self.power_policy

    def arm_boot(self, boot) -> HealthStateMachine:
        """Stage-retry health tracking + milestone heartbeat on the boot."""
        health = self.health_of("boot", clock=lambda: boot.clock.now_s)
        if health.wedged:
            # Re-arming after a failed boot (the BMC re-sequence path):
            # the fresh orchestrator starts its life RECOVERING.
            health.recovering("boot orchestrator rebuilt")
        boot.health = health
        if self._boot_heartbeat is not None:
            # A rebuilt orchestrator replaces the old handle; retire it
            # so a later check_board cannot stall a dead monitor.
            self._boot_heartbeat.complete()
        boot.heartbeat = self._boot_heartbeat = self.watchdog.watch_board(
            "boot", BOOT_DEADLINE_S
        )
        boot.heartbeat.beat(boot.clock.now_s)
        return health

    def arm_telemetry(self, telemetry) -> WatchdogHandle:
        """Sweep heartbeat + after-sequencing brown-out observation."""
        handle = self.watchdog.watch_board("telemetry", TELEMETRY_DEADLINE_S)
        policy = self.power_policy
        clock = telemetry.manager.clock

        def hook(label: str, rail: str, sample) -> None:
            handle.beat(clock.now_s)
            if policy is not None:
                policy.observe(label, rail, sample)

        telemetry.health_hook = hook
        return handle

    def arm_eci(self, transport, kernel) -> EciDegradationPolicy:
        """CRC-storm lane renegotiation on an ECI link transport."""
        health = self.health_of("eci.link", clock=lambda: kernel.now)
        self.eci_policy = EciDegradationPolicy(
            transport, kernel, health, obs=self.obs
        )
        return self.eci_policy

    def watch_traffic(
        self,
        kernel,
        name: str,
        probe: Callable[[], object],
        subsystem: str = "eci.link",
    ) -> WatchdogHandle:
        """Kernel-time progress watchdog over a sim activity."""
        return self.watchdog.watch_kernel(
            kernel,
            name,
            ECI_DEADLINE_NS,
            probe,
            health=self.health_of(subsystem),
        )

    def breaker_for(self, name: str, clock: Callable[[], float]) -> CircuitBreaker:
        """Get-or-create the circuit breaker guarding a net path."""
        breaker = self.breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name,
                clock,
                failure_threshold=BREAKER_FAILURES,
                reset_ns=BREAKER_RESET_NS,
                half_open_probes=BREAKER_PROBES,
                obs=self.obs,
            )
            self.breakers[name] = breaker
        return breaker

    # -- machine-level recovery ----------------------------------------------

    def recover_machine(self, machine) -> bool:
        """Escalate a machine that failed to reach RUNNING.

        The ladder: (1) retry the power-on as-is; (2) clear every
        latched rail fault, power fully down, and bring the machine
        back up; (3) rebuild the boot orchestrator (BMC re-sequence)
        and run the §4.4 sequence from scratch.  Bounded attempts and
        deterministic jittered backoff come from
        :class:`RecoveryOrchestrator`, seeded by the config.
        """
        health = self.health_of(
            "machine", clock=lambda: machine.power.clock.now_s
        )
        if machine.running:
            return True
        health.fail("machine did not reach RUNNING")
        self.orchestrator = RecoveryOrchestrator(
            machine.power.clock,
            rng=self.rng,
            health=health,
            obs=self.obs,
        )

        def prepare() -> None:
            # Subsystems left FAILED by the crashed bring-up (boot, power)
            # must re-enter the ladder through RECOVERING, or their own
            # success paths would attempt the illegal FAILED -> HEALTHY
            # edge mid-retry.
            for sub in self.subsystems.values():
                if sub.wedged:
                    sub.recovering("machine recovery attempt")

        def attempt_power_on() -> bool:
            prepare()
            machine.power_on()
            return machine.running

        def reinit() -> bool:
            prepare()
            for rail in machine.power.regulators:
                machine.power.clear_faults(rail)
            machine.power.power_down()
            machine.power_on()
            return machine.running

        def resequence() -> bool:
            prepare()
            machine.reinit_boot()
            for rail in machine.power.regulators:
                machine.power.clear_faults(rail)
            machine.power_on()
            return machine.running

        return self.orchestrator.run(
            [
                ("component-retry", attempt_power_on),
                ("subsystem-reinit", reinit),
                ("bmc-resequence", resequence),
            ]
        )

    # -- reporting -----------------------------------------------------------

    @property
    def wedged(self) -> bool:
        """True when any subsystem sits in terminal FAILED."""
        return any(m.wedged for m in self.subsystems.values())

    def states(self) -> Dict[str, str]:
        return {name: m.state.value for name, m in self.subsystems.items()}

    def report(self) -> Dict[str, object]:
        """One dict a soak harness can embed: states, stalls, breakers."""
        return {
            "states": self.states(),
            "stalls": list(self.watchdog.stalls),
            "breakers": {
                name: b.state.value for name, b in self.breakers.items()
            },
            "wedged": self.wedged,
        }
