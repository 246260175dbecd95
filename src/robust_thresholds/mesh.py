"""Discretization layer: state grid, control mesh, threshold rays, reachability.

The state grid is a rectilinear box with uniformly spaced nodes per
dimension.  Queries outside the box are clamped componentwise before
interpolation (the model itself is exact).  A clamped read alone says
nothing about how far outside the box the query lay, so ``dp`` caps every
read at an out-of-box image by what the constraints allow at the exact
image, folding the caps into its compiled constraint tables.  Multilinear
interpolation is the default; nearest-node is available so that
finite-state test systems evaluate with zero discretization error.  The
mode is set only in ``dp.compile_system``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import SystemSpec

__all__ = [
    "UnpopulatedNodeError",
    "StateGrid",
    "ControlMesh",
    "ThresholdRayMesh",
    "threshold_ray_mesh",
    "ReachableSets",
    "build_reachable_sets",
    "interpolate",
]

INTERP_MODES = ("multilinear", "nearest")


class UnpopulatedNodeError(RuntimeError):
    """An interpolation query touched a node that was never populated.

    This is an internal consistency failure (bad reachable-set bookkeeping),
    not a numeric result.
    """


@dataclass(frozen=True)
class StateGrid:
    """Uniform rectilinear grid over a box.  Nodes are in C order."""

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        object.__setattr__(self, "counts", np.atleast_1d(np.asarray(self.counts, dtype=int)))
        if not (self.lower.shape == self.upper.shape == self.counts.shape):
            raise ValueError("lower, upper and counts must have matching shapes")
        if np.any(self.upper <= self.lower):
            raise ValueError("grid needs lower < upper in every dimension")
        if np.any(self.counts < 2):
            raise ValueError("grid needs at least 2 nodes per dimension")

    def __eq__(self, other):
        if not isinstance(other, StateGrid):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("lower", "upper", "counts"))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def spacing(self) -> np.ndarray:
        return (self.upper - self.lower) / (self.counts - 1)

    @cached_property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    def axis_coords(self, d: int) -> np.ndarray:
        return self.lower[d] + self.spacing[d] * np.arange(self.counts[d])

    def node_coordinates(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), C order."""
        axes = [self.axis_coords(d) for d in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contains(self, x) -> bool:
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(xa >= self.lower - 1e-12) and np.all(xa <= self.upper + 1e-12))

    def clamp(self, points: np.ndarray) -> np.ndarray:
        return np.clip(points, self.lower, self.upper)

    def corner_offsets(self, mode: str) -> np.ndarray:
        """Flat-index offsets of the corners ``locate`` returns, relative to
        corner 0 of the cell: (2**dim,) in multilinear mode, (1,) zeros in
        nearest mode."""
        if mode == "nearest":
            return np.zeros(1, dtype=np.intp)
        bits = np.array(list(itertools.product((0, 1), repeat=self.dim)))
        return np.ravel_multi_index(tuple(bits.T), tuple(self.counts)).astype(np.intp)

    def locate(self, points: np.ndarray, mode: str):
        """Corner node indices and weights for a batch of query points.

        points: (B, dim).  Returns (idx, w) with shape (B, 2**dim) for
        multilinear mode and (B, 1) for nearest mode; weights sum to one per
        row.  Points are clamped into the box first.
        """
        if mode not in INTERP_MODES:
            raise ValueError(f"unknown interpolation mode {mode!r}")
        pts = self.clamp(np.asarray(points, dtype=float).reshape(-1, self.dim))
        t = (pts - self.lower) / self.spacing  # in [0, counts-1] per dim
        if mode == "nearest":
            # midpoint ties go to the upper node
            near = np.minimum(np.floor(t + 0.5).astype(np.int64), self.counts - 1)
            flat = np.ravel_multi_index(tuple(near.T), tuple(self.counts))
            return flat.reshape(-1, 1), np.ones((len(pts), 1))
        # lo <= counts - 2 keeps every cell inside the grid, so corner j
        # is corner 0 plus the fixed offset of ``corner_offsets``
        lo = np.minimum(np.floor(t).astype(np.int64), self.counts - 2)
        frac = t - lo
        base = np.ravel_multi_index(tuple(lo.T), tuple(self.counts))
        idx = base[:, None] + self.corner_offsets(mode)
        wts = np.empty(idx.shape)
        for j, bits in enumerate(itertools.product((0, 1), repeat=self.dim)):
            w = np.ones(len(pts))
            for d, b in enumerate(bits):
                w = w * (frac[:, d] if b else 1.0 - frac[:, d])
            wts[:, j] = w
        return idx, wts


@dataclass(frozen=True)
class ControlMesh:
    """Finite sample of the control space used by all grid-based solvers."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("control mesh is empty")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def validate_against(self, sys: SystemSpec) -> None:
        for u in self.values:
            if not sys.control_space.contains(u):
                raise ValueError(f"control mesh value {u!r} outside the control space")

    @staticmethod
    def uniform(lower: float, upper: float, count: int) -> "ControlMesh":
        if count < 1:
            raise ValueError("control mesh count must be >= 1")
        if count == 1:
            return ControlMesh((float(lower),))
        return ControlMesh(tuple(np.linspace(lower, upper, count)))


def threshold_ray_mesh(d: float, n_d: int, anchors) -> "ThresholdRayMesh":
    """Axis-sweep mesh of thresholds pinned at large anchors.

    For each axis j the mesh holds the points whose j-th coordinate sweeps
    {0, d, 2d, ..., n_d*d} while every other coordinate sits at its anchor.
    With anchors large enough, every point lies outside the sustainable set
    and projects onto the weak Pareto front.  Exact duplicates are dropped.
    """
    if d <= 0:
        raise ValueError("ray mesh spacing d must be > 0")
    if n_d < 0:
        raise ValueError("ray mesh count must be >= 0")
    anchors = np.atleast_1d(np.asarray(anchors, dtype=float))
    if np.any(anchors <= 0):
        raise ValueError("ray mesh anchors must be strictly positive")
    m = len(anchors)
    points, sweeps, seen = [], [], set()
    for axis in range(m):
        members = []
        for j in range(n_d + 1):
            c = anchors.copy()
            c[axis] = j * d
            key = tuple(c)
            if key in seen:
                continue
            seen.add(key)
            members.append(len(points))
            points.append(c)
        sweeps.append((axis, tuple(members)))
    return ThresholdRayMesh(points=np.asarray(points), sweeps=tuple(sweeps))


@dataclass(frozen=True)
class ThresholdRayMesh:
    """Threshold rays produced by :func:`threshold_ray_mesh`.

    ``sweeps`` keeps, per axis, the row indices of ``points`` belonging to
    that axis sweep in increasing order of the swept coordinate; front code
    uses it for ordering diagnostics.
    """

    points: np.ndarray
    sweeps: tuple

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ReachableSets:
    """Per-stage node masks: masks[n] marks grid nodes the stage-n solve needs.

    There are N+2 masks; the last one covers the terminal table.  Under
    multilinear interpolation the sets over-approximate the exact
    reachable tube by whole cells.

    ``selectors[n]`` picks the rows of ``masks[n]`` out of a per-node
    array, computed once: ``slice(None)`` when every node is marked, a
    slice for one contiguous node range, else an index array.  Slices
    yield views, which keeps every arithmetic lane of a sweep free of the
    NaN that marks unpopulated nodes (NaN lanes are dramatically slower).

    The sets are closed under a compiled system when every stage-n read
    from a node of ``masks[n]`` lands in ``masks[n+1]``.  Sets that mark
    every node (``full``) are closed under any compiled system;
    ``build_reachable_sets`` records the one it was built from in
    ``closed_under``.  Other sets built by hand carry no such guarantee.
    """

    grid: StateGrid
    masks: np.ndarray  # (N+2, n_nodes) bool
    closed_under: object = field(default=None, repr=False, compare=False)
    selectors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "selectors", tuple(_row_selector(m) for m in self.masks))

    @cached_property
    def full(self) -> bool:
        """True when every mask marks every node."""
        return bool(self.masks.all())

    @cached_property
    def nested(self) -> int:
        """Number of leading masks that form a chain of node sets,
        masks[0] <= masks[1] <= ... <= masks[nested - 1]."""
        grows = ~(self.masks[:-1] & ~self.masks[1:]).any(axis=1)
        return 1 + (len(grows) if grows.all() else int(np.argmin(grows)))

    def indices(self, stage: int) -> np.ndarray:
        return np.flatnonzero(self.masks[stage])

    def to_rows(self):
        """(stage, node index, coordinates...) rows for CSV export."""
        coords = self.grid.node_coordinates()
        rows = []
        for n in range(self.masks.shape[0]):
            for i in self.indices(n):
                rows.append((n, int(i), *coords[i]))
        return rows


def _row_selector(mask: np.ndarray):
    rows = np.flatnonzero(mask)
    if len(rows) == len(mask):
        return slice(None)
    if len(rows) and rows[-1] - rows[0] + 1 == len(rows):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _require_compiled_from(compiled, sys: SystemSpec, grid: StateGrid,
                          controls: ControlMesh) -> None:
    """Raise ValueError unless ``compiled`` was built from (sys, grid,
    controls).  Identical objects pass without a comparison."""
    for name, given, built in (("system", sys, compiled.sys), ("grid", grid, compiled.grid),
                               ("control mesh", controls, compiled.controls)):
        if given is not built and given != built:
            raise ValueError(f"the {name} passed differs from the compiled one")


def build_reachable_sets(xi, grid: StateGrid, sys: SystemSpec, controls: ControlMesh,
                         *, compiled) -> ReachableSets:
    """Forward pass marking every node any stage-n interpolation can touch.

    ``compiled`` is the ``dp.CompiledSystem`` of (sys, grid, controls); its
    cell bases and corner offsets give the corners of the one-step images,
    and its interpolation mode decides the corners of xi.  Stage 0 holds
    the corners of the cell covering xi; stage n+1 collects the corners of
    every cell touched by a one-step image of a stage-n node under any
    (control, scenario) pair.  The result over-approximates the exact
    reachable tube by whole cells, which is cheap and keeps every later
    interpolation query inside populated territory.
    """
    _require_compiled_from(compiled, sys, grid, controls)
    if not grid.contains(xi):
        raise ValueError(f"initial state {xi!r} outside the grid box")
    masks = np.zeros((sys.horizon + 2, grid.n_nodes), dtype=bool)
    idx0, _ = grid.locate(np.atleast_2d(np.asarray(xi, dtype=float)), mode=compiled.interp)
    masks[0, idx0] = True
    offsets = compiled.offsets[1:]  # corner 0 is offset 0
    for n in range(sys.horizon + 1):
        # mark corner 0 of every touched cell; every other corner is a
        # shift of those marks
        masks[n + 1, compiled.stage(n).base[_row_selector(masks[n])]] = True
        if len(offsets):
            hit = masks[n + 1].copy()
            for off in offsets:
                masks[n + 1, off:] |= hit[:grid.n_nodes - off]
    return ReachableSets(grid=grid, masks=masks, closed_under=compiled)


def interpolate(table, x) -> float:
    """Value of a populated node table at state x (clamped into the box).

    ``table`` needs attributes grid / values / interp (see
    ``dp.ValueTable``); with interp "nearest" the nearest node's value is
    returned.  Touching an unpopulated (NaN) node raises
    UnpopulatedNodeError.
    """
    grid: StateGrid = table.grid
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    idx, wts = grid.locate(pts, mode=table.interp)
    corners = table.values[idx]
    if np.isnan(corners).any():
        raise UnpopulatedNodeError(
            f"query at {x!r} touches unpopulated nodes of stage-{table.stage} table")
    out = (corners * wts).sum(axis=-1)
    return float(out[0]) if np.ndim(x) <= 1 and np.asarray(x).size == grid.dim else out
