"""Beverton-Holt harvesting benchmark with scenario-dependent growth.

Stock dynamics: next stock = growth(stock, scenario) - harvest, with
growth(x) = (1+r) x / (1 + (r/K) x) for scenario parameters r (intrinsic
growth) and K (carrying capacity).  The two constraint components are the
stock itself and the harvest, so thresholds are (stock floor, harvest
floor) pairs.  The surplus sigma(x) = growth(x) - x is the harvest that
holds the stock at x; it vanishes at 0 and K and peaks at the maximum
sustainable yield stock K / (1 + sqrt(1+r)).

Closed forms of the infinite-horizon threshold sets, single-scenario and
robust, are provided for comparison plots and tests.  Their boundary is
H(x) = max over s in [x, x_max] of min_w sigma_w(s): a harvest floor up to
H(x) is held forever by keeping the stock at the maximizing s (growth is
increasing, so any stock y >= s grows to at least s + sigma_w(s)), and a
harvest floor above it drains the stock below x under the adversary that
always picks the scenario of smallest surplus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import IntervalControlSpace, SystemSpec

__all__ = [
    "FisheryParams",
    "robust_boundary",
    "build_fishery_system",
]


@dataclass(frozen=True)
class FisheryParams:
    """Per-scenario growth parameters plus the harvest bound.

    ``m_big`` feeds the terminal constraint (terminal stock, m_big): large
    enough that no admissible harvest floor ever binds the second terminal
    component, so the terminal condition reduces to a stock floor.
    """

    r: dict
    K: dict
    u_max: float = 40.0
    m_big: float = 1.0e6
    scenarios: tuple = ("a", "b")

    def __post_init__(self):
        for w in self.scenarios:
            if w not in self.r or w not in self.K:
                raise ValueError(f"missing growth parameters for scenario {w!r}")
            if self.r[w] <= 0 or self.K[w] <= 0:
                raise ValueError("growth rate and carrying capacity must be positive")
        if self.u_max <= 0:
            raise ValueError("harvest bound must be positive")

    @staticmethod
    def default(r_a: float = 0.39, r_b: float = 2.0, K_a: float = 90.0,
                K_b: float = 50.0, u_max: float = 40.0,
                m_big: float = 1.0e6, scenarios: tuple = ("a", "b")) -> "FisheryParams":
        return FisheryParams(r={"a": r_a, "b": r_b}, K={"a": K_a, "b": K_b},
                             u_max=u_max, m_big=m_big, scenarios=scenarios)

    def growth(self, x, w):
        """Stock recruitment (1+r) x / (1 + (r/K) x) of scenario w; requires
        stock x >= 0.  Fixed points at 0 and K; strictly increasing and
        concave in between."""
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0):
            raise ValueError("negative stock passed to the growth map")
        r, K = self.r[w], self.K[w]
        return (1.0 + r) * xa / (1.0 + (r / K) * xa)

    def surplus(self, x, w):
        """Equilibrium harvest at stock x: growth minus standing stock."""
        return self.growth(x, w) - np.asarray(x, dtype=float)

    def msy_stock(self, w) -> float:
        """Stock maximizing the surplus: K / (1 + sqrt(1+r))."""
        return self.K[w] / (1.0 + np.sqrt(1.0 + self.r[w]))

    def msy_harvest(self, w) -> float:
        """Maximum sustainable yield K (sqrt(1+r) - 1)^2 / r, the surplus at
        its peak."""
        r = self.r[w]
        return self.K[w] * (np.sqrt(1.0 + r) - 1.0) ** 2 / r


def _crossing(params: FisheryParams, v, w) -> float:
    """Positive stock where the growth maps (hence the surpluses) of
    scenarios v and w agree, NaN if there is none: equating
    (1+r_v) s / (1 + (r_v/K_v) s) with the same for w and dividing by s."""
    rv, kv, rw, kw = params.r[v], params.K[v], params.r[w], params.K[w]
    den = (1.0 + rw) * rv / kv - (1.0 + rv) * rw / kw
    s = (rv - rw) / den if den != 0.0 else float("nan")
    return s if s > 0.0 else float("nan")


def robust_boundary(params: FisheryParams, xi: float, x: float,
                    scenarios: tuple | None = None) -> float:
    """H(x) = max over s in [max(x, 0), x_max] of min_w sigma_w(s), with
    x_max = min(xi, K_w over the scenarios); NaN when x > x_max.

    It is the largest harvest floor sustainable at infinite horizon with
    stock floor x.  Each surplus is concave, so their minimum is concave
    and peaks at an end of the interval, at an MSY stock or at a stock
    where two surpluses cross; H is the best of those candidates,
    evaluated exactly.
    """
    scen = tuple(scenarios) if scenarios is not None else params.scenarios
    x_max = min(xi, *(params.K[w] for w in scen))
    if x > x_max:
        return float("nan")
    lo = max(float(x), 0.0)
    candidates = [lo, x_max, *(params.msy_stock(w) for w in scen),
                  *(_crossing(params, v, w) for i, v in enumerate(scen)
                    for w in scen[i + 1:])]
    return max(min(float(params.surplus(s, w)) for w in scen)
               for s in candidates if lo <= s <= x_max)


class _FisheryDynamics:
    """next stock = growth(max(stock, 0)) - harvest.

    A harvest that overshoots the grown stock leaves a negative next stock.
    Growth treats it as extinct (growth of 0 is 0), so the stock after it
    is minus the next harvest, and it stays at 0 only under zero harvest.
    This keeps exact rollouts and the oracles defined; the stock
    constraint flags every such state.  Grid solvers read negative images
    through the clamped value table, capped by the constraints at the
    exact image (see ``dp``).
    """

    def __init__(self, params: FisheryParams):
        self.params = params

    def __call__(self, k, x, u, w):
        xa = np.asarray(x, dtype=float)
        alive = np.maximum(xa, 0.0)
        return self.params.growth(alive, w) - u


class _FisheryStageConstraint:
    def __init__(self, params: FisheryParams):
        self.params = params

    def __call__(self, k, x, u):
        xa = np.asarray(x, dtype=float)
        if xa.ndim == 0:
            return np.asarray([float(xa), float(u)])
        out = np.empty((len(xa), 2))
        out[:, 0] = xa
        out[:, 1] = u
        return out


class _FisheryTerminal:
    def __init__(self, params: FisheryParams):
        self.params = params

    def __call__(self, x):
        xa = np.asarray(x, dtype=float)
        if xa.ndim == 0:
            return np.asarray([float(xa), self.params.m_big])
        out = np.empty((len(xa), 2))
        out[:, 0] = xa
        out[:, 1] = self.params.m_big
        return out


def build_fishery_system(params: FisheryParams, horizon: int,
                         scenarios: tuple | None = None) -> SystemSpec:
    """SystemSpec for the harvesting benchmark.

    Stage constraints are (stock, harvest); the terminal constraint is
    (stock, m_big).  Pass a ``scenarios`` subset (e.g. ("b",)) for the
    single-scenario variants used in robust-versus-deterministic
    comparisons.
    """
    scen = tuple(scenarios) if scenarios is not None else params.scenarios
    for w in scen:
        if w not in params.scenarios:
            raise ValueError(f"unknown scenario {w!r}")
    return SystemSpec(
        horizon=horizon,
        state_dim=1,
        threshold_dim=2,
        dynamics=_FisheryDynamics(params),
        stage_constraints=_FisheryStageConstraint(params),
        terminal_constraint=_FisheryTerminal(params),
        control_space=IntervalControlSpace(0.0, params.u_max),
        scenario_sets=tuple(scen for _ in range(horizon + 1)),
        time_invariant=True,
        batchable=True,
    )
