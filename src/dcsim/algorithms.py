"""Built-in resource-management algorithms.

These are the plug-ins the engine invokes through the runtime view:
placement heuristics (best-fit / worst-fit by RAM), the periodic migration
optimizers (consolidation and load balancing), the free-server power
manager, and two autoscalers: React, a threshold rule, and Reg, which
extrapolates the request rate with a sliding-window regression line. All
of them are pure functions of their inputs and configuration, and all
return adaptation actions: the placements a server id, the others a list.
The optimizers and the power manager read the snapshot; the autoscalers
read their tier's offered rate and instances and return ``ScaleOut`` and
``ScaleIn`` actions for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .correspondence import (
    AdaptationAction,
    Migrate,
    PowerOff,
    PowerOn,
    RuntimeModelSnapshot,
    ScaleIn,
    ScaleOut,
    ServerView,
)
from .model import POWER_ON, VmFlavor, VmState, check_scalars

PLACEMENT_ALGORITHMS = ("best-fit-ram", "worst-fit-ram")
OPTIMIZER_ALGORITHMS = ("consolidation", "load-balance", "none")
AUTOSCALER_ALGORITHMS = ("react", "reg", "none")


@dataclass(frozen=True)
class ReactConfig:
    upper_utilization: float = 1.0  # scale out above this fraction of capacity
    lower_utilization: float = 0.3  # instances below this are under-utilized

    def __post_init__(self):
        check_scalars(self)
        if not 0 < self.upper_utilization <= 1:
            raise ValueError("upper_utilization must be in (0, 1]")
        if not 0 < self.lower_utilization <= 1:
            raise ValueError("lower_utilization must be in (0, 1]")
        if self.lower_utilization >= self.upper_utilization:
            raise ValueError("lower_utilization must be below upper_utilization")


@dataclass(frozen=True)
class RegConfig:
    window: int = 10  # samples in the regression window
    upper_threshold: float = 0.9
    lower_threshold: float = 0.5

    def __post_init__(self):
        check_scalars(self)
        if self.window < 2:
            raise ValueError(f"window must be an integer >= 2, got {self.window!r}")
        if not 0 < self.upper_threshold <= 1:
            raise ValueError("upper_threshold must be in (0, 1]")
        if not 0 < self.lower_threshold <= 1:
            raise ValueError("lower_threshold must be in (0, 1]")
        if self.lower_threshold >= self.upper_threshold:
            raise ValueError("lower_threshold must be below upper_threshold")


@dataclass(frozen=True)
class AlgorithmConfig:
    placement: str = "best-fit-ram"
    optimizer: str = "none"
    autoscaler: str = "none"
    power_manager_enabled: bool = False
    spare_servers: int = 0
    react: ReactConfig = field(default_factory=ReactConfig)
    reg: RegConfig = field(default_factory=RegConfig)
    imbalance_threshold: float = 1024.0  # MiB gap that triggers a balancing move

    def __post_init__(self):
        check_scalars(self)
        if self.placement not in PLACEMENT_ALGORITHMS:
            raise ValueError(f"unknown placement algorithm {self.placement!r}")
        if self.optimizer not in OPTIMIZER_ALGORITHMS:
            raise ValueError(f"unknown optimizer algorithm {self.optimizer!r}")
        if self.autoscaler not in AUTOSCALER_ALGORITHMS:
            raise ValueError(f"unknown autoscaler algorithm {self.autoscaler!r}")
        if self.spare_servers < 0:
            raise ValueError(f"spare_servers must be an integer >= 0, got {self.spare_servers!r}")
        if not math.isfinite(self.imbalance_threshold):
            raise ValueError("imbalance_threshold must be finite")

    @classmethod
    def from_dict(cls, obj: dict) -> "AlgorithmConfig":
        kwargs = dict(obj)
        if "react" in kwargs:
            kwargs["react"] = ReactConfig(**kwargs["react"])
        if "reg" in kwargs:
            kwargs["reg"] = RegConfig(**kwargs["reg"])
        return cls(**kwargs)


# --- placement ---------------------------------------------------------------


def _feasible(snapshot: RuntimeModelSnapshot, vm: VmFlavor) -> list[ServerView]:
    return [
        s
        for s in snapshot.servers
        if s.power_state == POWER_ON and s.free_ram >= vm.ram
    ]


def place_best_fit_ram(snapshot: RuntimeModelSnapshot, vm: VmFlavor) -> str | None:
    """Tightest feasible server by free RAM; ties go to the smallest id.

    Returns None when no powered-on server fits the flavor.
    """
    candidates = _feasible(snapshot, vm)
    if not candidates:
        return None
    return min(candidates, key=lambda s: (s.free_ram, s.id)).id


def place_worst_fit_ram(snapshot: RuntimeModelSnapshot, vm: VmFlavor) -> str | None:
    """Emptiest feasible server by free RAM; ties go to the smallest id."""
    candidates = _feasible(snapshot, vm)
    if not candidates:
        return None
    return min(candidates, key=lambda s: (-s.free_ram, s.id)).id


PLACEMENT_FUNCTIONS = {
    "best-fit-ram": place_best_fit_ram,
    "worst-fit-ram": place_worst_fit_ram,
}


# --- periodic optimizers -------------------------------------------------------


def _vms_by_host(snapshot: RuntimeModelSnapshot) -> dict[str, list]:
    by_host: dict[str, list] = {s.id: [] for s in snapshot.servers}
    for vm in snapshot.vms:
        if vm.host in by_host and vm.state is VmState.RUNNING:
            by_host[vm.host].append(vm)
    return by_host


def optimize_consolidation(snapshot: RuntimeModelSnapshot) -> list[AdaptationAction]:
    """Try to empty the least-loaded server onto the other occupied ones.

    Picks the non-empty powered-on server with the fewest VMs (ties: most
    free RAM, then id) and emits migrations only if *every* VM on it fits
    best-fit onto the other occupied powered-on servers, tracking residual
    capacity as assignments are made. Restricting targets to occupied
    servers guarantees each enacted plan reduces the occupied-server count,
    so the optimizer can never shuttle VMs back and forth; one source per
    invocation bounds migration churn.
    """
    by_host = _vms_by_host(snapshot)
    on = [s for s in snapshot.servers if s.power_state == POWER_ON]
    sources = [s for s in on if by_host[s.id]]
    if len(sources) < 2:
        return []
    source = min(sources, key=lambda s: (len(by_host[s.id]), -s.free_ram, s.id))
    residual = {s.id: s.free_ram for s in sources if s.id != source.id}
    moves: list[AdaptationAction] = []
    vms = sorted(by_host[source.id], key=lambda v: (-v.flavor.ram, v.id))
    for vm in vms:
        fits = [sid for sid, free in residual.items() if free >= vm.flavor.ram]
        if not fits:
            return []
        target = min(fits, key=lambda sid: (residual[sid], sid))
        residual[target] -= vm.flavor.ram
        moves.append(Migrate(vm.id, source.id, target))
    return moves


def optimize_load_balance(
    snapshot: RuntimeModelSnapshot, imbalance_threshold: float
) -> list[AdaptationAction]:
    """Move one VM from the fullest to the emptiest server when the free-RAM
    gap exceeds the threshold and the move does not invert the imbalance."""
    by_host = _vms_by_host(snapshot)
    on = [s for s in snapshot.servers if s.power_state == POWER_ON]
    if len(on) < 2:
        return []
    fullest = min(on, key=lambda s: (s.free_ram, s.id))
    emptiest = min(on, key=lambda s: (-s.free_ram, s.id))
    gap = emptiest.free_ram - fullest.free_ram
    if fullest.id == emptiest.id or gap <= imbalance_threshold:
        return []
    movable = [
        vm
        for vm in by_host[fullest.id]
        if vm.flavor.ram <= emptiest.free_ram and vm.flavor.ram <= gap / 2
    ]
    if not movable:
        return []
    vm = min(movable, key=lambda v: (-v.flavor.ram, v.id))
    return [Migrate(vm.id, fullest.id, emptiest.id)]


OPTIMIZER_FUNCTIONS = {
    "consolidation": lambda snapshot, config: optimize_consolidation(snapshot),
    "load-balance": lambda snapshot, config: optimize_load_balance(
        snapshot, config.imbalance_threshold
    ),
    "none": lambda snapshot, config: [],
}


def manage_power(
    snapshot: RuntimeModelSnapshot, spare_servers: int
) -> list[AdaptationAction]:
    """Turn off empty servers beyond the spare pool; replenish it when short.

    Spares are retained in ascending id order. Powered-off servers are only
    woken while fewer than ``spare_servers`` empty powered-on servers exist.
    """
    hosted: dict[str, int] = {s.id: 0 for s in snapshot.servers}
    for vm in snapshot.vms:
        if vm.host in hosted:
            hosted[vm.host] += 1
    empty_on = sorted(
        s.id
        for s in snapshot.servers
        if s.power_state == POWER_ON and hosted[s.id] == 0
    )
    actions: list[AdaptationAction] = []
    if len(empty_on) > spare_servers:
        actions.extend(PowerOff(sid) for sid in empty_on[spare_servers:])
    elif len(empty_on) < spare_servers:
        off = sorted(s.id for s in snapshot.servers if s.power_state != POWER_ON)
        needed = spare_servers - len(empty_on)
        actions.extend(PowerOn(sid) for sid in off[:needed])
    return actions


# --- autoscalers ----------------------------------------------------------------


def react_decide(
    app_id: str,
    rate: float,
    instance_ids: tuple[str, ...],
    per_instance_capacity: float,
    config: ReactConfig,
) -> list[ScaleOut | ScaleIn]:
    """Threshold-rule autoscaling of tier ``app_id``: out by one on
    overload, in by one when at least two instances run under-utilized."""
    n = len(instance_ids)
    if n < 1:
        raise ValueError("react_decide requires at least one instance")
    if rate > n * per_instance_capacity * config.upper_utilization:
        return [ScaleOut(app_id)]
    utilization = (rate / n) / per_instance_capacity
    if n >= 2 and utilization < config.lower_utilization:
        return [ScaleIn(app_id, max(instance_ids))]
    return []


def fit_rate_trend(history: list[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least-squares line rate(t) = slope * t + intercept."""
    n = len(history)
    mean_t = sum(t for t, _ in history) / n
    mean_r = sum(r for _, r in history) / n
    sxx = sum((t - mean_t) ** 2 for t, _ in history)
    if sxx == 0:
        return 0.0, mean_r
    sxy = sum((t - mean_t) * (r - mean_r) for t, r in history)
    slope = sxy / sxx
    return slope, mean_r - slope * mean_t


def reg_decide(
    app_id: str,
    rate: float,
    instance_ids: tuple[str, ...],
    per_instance_capacity: float,
    history: list[tuple[float, float]],
    config: RegConfig,
    horizon: float,
) -> list[ScaleOut | ScaleIn]:
    """Regression-based autoscaling of tier ``app_id``.

    Fits a least-squares line through the last ``window`` rate samples and
    sizes the pool for the rate predicted one ``horizon`` ahead: on
    overload it scales out to the predicted requirement, and once the
    current rate falls below the lower threshold it scales in to the
    predicted requirement. That eagerness is what makes it thrash on
    falling load.
    """
    n = len(instance_ids)
    if n < 1:
        raise ValueError("reg_decide requires at least one instance")
    window = list(history[-config.window:])
    while len(window) < 2:
        last_t = window[-1][0] if window else 0.0
        window.append((last_t, rate))
    slope, intercept = fit_rate_trend(window)
    predicted = max(0.0, slope * (window[-1][0] + horizon) + intercept)
    required = max(1, math.ceil(predicted / per_instance_capacity))
    if rate > n * per_instance_capacity * config.upper_threshold:
        return [ScaleOut(app_id)] * max(1, required - n)
    if rate < n * per_instance_capacity * config.lower_threshold and required < n:
        return [ScaleIn(app_id, i) for i in sorted(instance_ids, reverse=True)[: n - required]]
    return []


# --- synthetic workload ----------------------------------------------------------


def gen_seasonal_workload(
    peak: float,
    periods: int,
    duration: float,
    noise_low: float,
    noise_high: float,
    seed: int,
    step: float = 5.0,
) -> list[tuple[float, float]]:
    """Raised-cosine seasonal request-rate series with additive uniform noise.

    The pattern repeats ``periods`` times over ``duration`` seconds, rising
    from zero to ``peak`` and back each period; rates are clamped at zero.
    Deterministic for a fixed seed.
    """
    if not 0 < peak < math.inf:
        raise ValueError("peak must be finite and > 0")
    if not 1 <= periods < math.inf:
        raise ValueError("periods must be finite and >= 1")
    if not (math.isfinite(noise_low) and math.isfinite(noise_high)):
        raise ValueError("noise bounds must be finite")
    if noise_low > noise_high:
        raise ValueError("noise_low must not exceed noise_high")
    if not (0 < step < math.inf and 0 < duration < math.inf):
        raise ValueError("step and duration must be finite and > 0")
    rng = random.Random(seed)
    series = []
    t = 0.0
    while t < duration:
        base = peak * 0.5 * (1.0 - math.cos(2.0 * math.pi * periods * t / duration))
        rate = max(0.0, base + rng.uniform(noise_low, noise_high))
        series.append((t, rate))
        t += step
    return series
