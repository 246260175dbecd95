"""Maximin backward dynamic programming over a discretized system.

For a threshold vector c the stage-n value at a grid node x follows the
recursion

    V_n(x) = max over mesh controls u of
             min( worst-case over scenario elements w of V_{n+1}(F_n(x,u,w)),
                  stage slack at (x, u) )

with V_{N+1} equal to the terminal slack, where the stage slack is the
smallest componentwise gap between the stage constraint vector and c, and
likewise for the terminal slack.  The root value W(xi, c) = V_0(xi) decides
membership: c is robustly sustainable from xi exactly when W >= 0, and the
weak Pareto front is its zero level set.

The same sweep also runs with arbitrary per-stage score arrays instead of
slacks; the constrained problems behind the strong Pareto front reuse it
with infeasible state-control pairs masked to a large negative sentinel
(min/max propagate the sentinel, nothing ever sums it with real payoffs
except interpolation weights in [0, 1]).  Every score form is a min of
nondecreasing per-component maps of the constraint vector, applied alike
to stage and terminal constraints.

Dynamics are evaluated exactly, but value tables live on the grid box, so
an image F_n(x,u,w) outside the box is read through the clamped table
(see ``mesh.StateGrid.locate``).  That read alone would credit a fishery
stock driven below zero with the value of stock zero.  Each out-of-box
read is therefore capped by what the next stage's own constraints allow
at the exact image y: the score of theta(y) when the next stage is
terminal, else the score of the best-case vector G(y) = max over mesh
controls u' of g_{n+1}(y, u') (componentwise).  V_{n+1}(y) never exceeds
that score, so the cap is a valid upper bound.  The sweeps take the min
over scenarios of the reads and the stage score alike, so the compiled
system folds each cap vector into the constraint vector of its (x, u) by
a componentwise min, which scores bit for bit as the min of the two
scores.  A threshold then touches only scores.

One backward loop serves both the optimizing sweep (``sweep_scores``) and
the evaluation of a fixed policy (``sweep_policy``): evaluating a policy
is the same max over a one-control set, each row reading only the cells of
its chosen control, which the kernel takes from the policy's row of
control indices.  Every stage runs one kernel, compiled from
``_kernel.c`` on first import (see ``_load_kernel``) and called through
``ctypes``, which releases the interpreter lock while it runs.  Corner j
of the grid cell an image falls in is node base + offsets[j]:
``StateGrid.locate`` keeps every cell inside the grid, so the offsets
follow from the grid strides alone, and the compiled system stores one
intp ``base`` per (node, control, scenario) instead of 2**dim corner
indices.  The kernel fuses the whole stage: per cell it sums the weighted
corner values corner by corner, V[c0] * w0 + V[c1] * w1 + ... (under
nearest-node interpolation the one corner has weight exactly 1 and is read
as it is), takes the minimum over scenarios in scenario order, then with
the stage score, and the maximum over controls with its argmax.

A sweep runs K thresholds at once in one (N+2, n_nodes, K) table: row n
holds V_n of every threshold, one lane each, NaN on every node outside
R_n, so NaN alone marks the unpopulated nodes of a table.  Four lanes run
as one vector, which reads each cell's base and weights, 24 bytes under
two corners, once for all four; any other K runs lane by lane.  The
kernel builds the slack scores min_i (g_i - c_i) of each lane itself from
the constraint table, in the operation order of ``_slack``, so no score
array is built per threshold.  ``weak_front`` solves its ray mesh four
thresholds per sweep; every single solve
(``backward_recursion``, ``sweep_scores``, ``sweep_policy``) is a sweep
with K = 1.  A lane's float operations do not depend on the other lanes,
so each lane equals its own K = 1 solve bit for bit.

The kernel's rules for signed zeros and NaN are stated, not inherited
from numpy's reductions.  A minimum is that of ``np.minimum``, which
returns its second argument when the two compare equal, so
minimum(0.0, -0.0) is -0.0, and propagates NaN.  The maximum over
controls runs in control order with a strict >: a tie keeps the first
control and its value, and NaN, once met, sticks.  (numpy's max reduction
follows no such sequential rule on arrays of signed zeros.)  A NaN result
means the stage read a node that was never populated, and the kernel
reports it.

An optimizing sweep runs the kernel only on the rows whose inputs
changed.  Say stage n repeats stage n+1: both have one stage table and
one score array, R_n <= R_{n+1}, and the reachable sets are closed under
the compiled system, so every stage-j read from R_j lands in R_{j+1}.
``build_reachable_sets`` guarantees closure for the system it was built
from, and sets marking every node under any; other hand-built sets sweep
every row.  The support of a row is every node base + offsets over its
controls, scenarios and corners, zero-weight corners included: 0 * NaN is
NaN, and a changed value can flip the sign of a zero sum.  If V_{n+1}
equals V_{n+2} bit for bit on a row's support, in every lane, stage n
runs on that row the float operations stage n+1 ran on it (the kernel's
operations on a row do not depend on the other rows swept), so V_n there
is V_{n+1} bit for bit and the argmax is stage n+1's: the row is copied.
The rows left form a window.  On R_{n+1}, which holds the support of every
row of R_n, V_{n+1} differs from V_{n+2} only on the rows stage n+1 swept,
the others being copies; there the two are compared as int64, since
-0.0 == 0.0 as floats, for the first and the last changed node of any
lane, so a batch's window is the hull over its lanes.  Two support
envelopes per stage table, built on first use, bound each row's support:
the running max from the first row of each row's highest support node,
and the running min from the last row of each row's lowest.  Bisecting
them gives the hull of the rows whose support range meets the span from
the first changed node to the last.  Where the envelopes show that no
change within the swept rows could exclude a row, as on most small tabular
systems, the changed nodes are not located: only their absence is tested.
A flat-index range holds a row's support in any dimension, so the hull is
exact there too, but only slice rows are windowed: rows given by an index
array (2-D reachable sets) are swept whole unless no node changed.  The
fixed-point exit is the empty window: when no node changed and every
lower stage repeats stage n+1 as well, each lower stage j gets V_{n+1} on
R_j and, with a policy, stage n+1's choices there, and the loop stops.
Policy evaluation runs every stage.

Everything here is deterministic: control ties resolve to the lowest mesh
index, so repeated runs reproduce tables bitwise.
"""

from __future__ import annotations

import ctypes
import os
import tempfile
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .mesh import (ControlMesh, ReachableSets, StateGrid, UnpopulatedNodeError,
                   _require_compiled_from, interpolate)
from .model import SystemSpec, as_threshold

__all__ = [
    "NEG_INF",
    "ValueTable",
    "CompiledSystem",
    "compile_system",
    "backward_recursion",
    "solve_batch",
    "batch_values",
    "robust_value",
    "solve_value",
    "membership",
]

# Finite stand-in for "infeasible"; only ever flows through min/max and
# convex interpolation, so it cannot overflow.  Values at or below
# NEG_INF_CUTOFF are treated as infeasibility markers.
NEG_INF = -1.0e9
NEG_INF_CUTOFF = NEG_INF / 2.0


@dataclass
class ValueTable:
    """Stage-n values on grid nodes for one threshold (NaN = never populated)."""

    stage: int
    grid: StateGrid
    values: np.ndarray
    interp: str

    @property
    def populated(self) -> np.ndarray:
        return ~np.isnan(self.values)


# -- discretization compiled once, reused across thresholds ----------------


@dataclass
class _StageArrays:
    # corner j of the cell an image falls in is node base + offsets[j]
    # (``StateGrid.corner_offsets``); weights are corner-last, so the
    # kernel weights its gathered stencil rows in one contiguous pass
    base: np.ndarray        # (n_nodes, n_u, n_w) intp
    corner_w: np.ndarray    # (n_nodes, n_u, n_w, C) float64
    offsets: np.ndarray     # (C,) intp, shared by every stage
    # constraints on the last axis, already capped componentwise by the
    # cap vector of every out-of-box image of (node, control)
    g_vals: np.ndarray      # (n_nodes, n_u, m)
    # the exact image of every (node, control, scenario) that leaves the
    # grid box, sorted by node
    out_pts: np.ndarray     # (n_out, dim)

    @cached_property
    def envelopes(self) -> tuple[list, list] | None:
        """Support envelopes of the rows, as lists for ``bisect``: the
        running max from the first row of each row's highest support node,
        and the running min from the last row of each row's lowest.  The
        support of a row is every corner node base + offsets of its controls
        and scenarios, zero-weight corners included.  None when the first
        row's support reaches the last node and the last row's the first,
        so that no window can exclude a row.  Built on first use."""
        flat = self.base.reshape(len(self.base), -1)
        hi = np.maximum.accumulate(flat.max(axis=1)) + self.offsets.max()
        lo = np.minimum.accumulate(flat.min(axis=1)[::-1])[::-1] + self.offsets.min()
        if hi[0] == len(hi) - 1 and lo[-1] == 0:
            return None
        return hi.tolist(), lo.tolist()

    @cached_property
    def kernel_inputs(self) -> tuple:
        """Addresses of ``offsets``, ``base``, ``corner_w`` (None for one
        corner, which the kernel never weights) and ``g_vals`` for the
        compiled kernel, checked and taken once."""
        n, n_u, n_w = self.base.shape
        C = len(self.offsets)
        return (_address(self.offsets, np.intp, (C,)),
                _address(self.base, np.intp, (n, n_u, n_w)),
                _address(self.corner_w, np.float64, (n, n_u, n_w, C)) if C > 1 else None,
                _address(self.g_vals, np.float64, (n, n_u, self.g_vals.shape[2])))

    @property
    def corner_idx(self) -> np.ndarray:
        """Corner node indices (C, n_nodes, n_u, n_w), built on each access
        from ``base`` and ``offsets``; the solver never reads it."""
        return self.offsets[:, None, None, None] + self.base


class CompiledSystem:
    """Transition/constraint tables of (system, grid, control mesh) pairs.

    Building these costs one pass over node x control x scenario tuples and
    is independent of the threshold, so every threshold solve afterwards is
    pure array arithmetic.  ``interp`` ("multilinear" or "nearest") is
    chosen here and nowhere else.  Time-invariant systems share one table
    across stages; the last stage gets its own constraint table only when
    its terminal caps differ from the caps of the others.
    """

    def __init__(self, sys: SystemSpec, grid: StateGrid, controls: ControlMesh,
                 interp: str = "multilinear"):
        if grid.dim != sys.state_dim:
            raise ValueError("grid dimension does not match the system state dimension")
        controls.validate_against(sys)
        self.sys = sys
        self.grid = grid
        self.controls = controls
        self.interp = interp
        self.offsets = grid.corner_offsets(interp)
        self._nodes = grid.node_coordinates()
        horizon = sys.horizon
        if sys.time_invariant:
            last, pairs = self._build_stage(0)
            shared = self._fold_caps(replace(last, g_vals=last.g_vals.copy()), pairs, 0)
            self._fold_caps(last, pairs, horizon)
            if np.array_equal(last.g_vals, shared.g_vals):
                last = shared
            self._stages = [shared] * horizon + [last]
        else:
            self._stages = [self._fold_caps(*self._build_stage(k), k)
                            for k in range(horizon + 1)]
        self.theta_vals = self._terminal_at(self._nodes)

    # internal evaluation helpers ------------------------------------------------

    def _batch(self, pts: np.ndarray):
        return pts[:, 0] if self.sys.state_dim == 1 else pts

    def _one(self, row: np.ndarray):
        return float(row[0]) if self.sys.state_dim == 1 else row

    def _images(self, k: int, u, w) -> np.ndarray:
        sys = self.sys
        if sys.batchable:
            y = np.asarray(sys.dynamics(k, self._batch(self._nodes), u, w), dtype=float)
        else:
            y = np.asarray([np.atleast_1d(sys.step(k, self._one(row), u, w))
                            for row in self._nodes], dtype=float)
        return y.reshape(len(self._nodes), self.grid.dim)

    def _constraints_at(self, k: int, pts: np.ndarray, u) -> np.ndarray:
        sys = self.sys
        if sys.batchable:
            g = np.asarray(sys.stage_constraints(k, self._batch(pts), u), dtype=float)
        else:
            g = np.asarray([sys.stage_constraint(k, self._one(row), u)
                            for row in pts], dtype=float)
        return g.reshape(len(pts), sys.threshold_dim)

    def _terminal_at(self, pts: np.ndarray) -> np.ndarray:
        sys = self.sys
        if sys.batchable:
            th = np.asarray(sys.terminal_constraint(self._batch(pts)), dtype=float)
        else:
            th = np.asarray([sys.terminal(self._one(row)) for row in pts], dtype=float)
        return th.reshape(len(pts), sys.threshold_dim)

    def _build_stage(self, k: int) -> tuple[_StageArrays, np.ndarray]:
        """Stage-k arrays, and the flat (node, control) index of each
        out-of-box image, which only ``_fold_caps`` reads."""
        sys, grid = self.sys, self.grid
        n_u, n_w = len(self.controls), len(sys.scenario_sets[k])
        n = len(self._nodes)
        base = np.empty((n, n_u, n_w), dtype=np.intp)
        corner_w = np.empty((n, n_u, n_w, len(self.offsets)))
        g_vals = np.empty((n, n_u, sys.threshold_dim))
        images = np.empty((n, n_u, n_w, grid.dim))
        for j, u in enumerate(self.controls.values):
            g_vals[:, j, :] = self._constraints_at(k, self._nodes, u)
            for s, w in enumerate(sys.scenario_sets[k]):
                images[:, j, s] = self._images(k, u, w)
            # one batch per control: a whole stage at once would allocate
            # tens of megabytes of temporaries on the default grid
            idx, wts = grid.locate(images[:, j], mode=self.interp)
            base[:, j] = idx[:, 0].reshape(n, n_w)
            corner_w[:, j] = wts.reshape(n, n_w, -1)
        node, ctrl, scen = np.nonzero(
            ((images < grid.lower) | (images > grid.upper)).any(axis=-1))
        sa = _StageArrays(base=base, corner_w=corner_w, offsets=self.offsets,
                          g_vals=g_vals, out_pts=images[node, ctrl, scen])
        return sa, node * n_u + ctrl

    def _fold_caps(self, sa: _StageArrays, pair: np.ndarray, n: int) -> _StageArrays:
        """Fold each out-of-box cap of stage n into ``sa.g_vals`` in place
        and return ``sa``: theta(y) for n = N, else G(y) = max over mesh
        controls of g_{n+1}(y, .), componentwise min into the vector of its
        (x, u), whose flat index is ``pair``."""
        pts = sa.out_pts
        if not len(pts):
            return sa
        if n == self.sys.horizon:
            cap = self._terminal_at(pts)
        else:
            cap = self._constraints_at(n + 1, pts, self.controls.values[0])
            for u in self.controls.values[1:]:
                cap = np.maximum(cap, self._constraints_at(n + 1, pts, u))
        # entries are sorted by node, so each (node, control) pair is one run
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        flat = sa.g_vals.reshape(-1, sa.g_vals.shape[-1])  # a view: g_vals is contiguous
        flat[pair[first]] = np.minimum(flat[pair[first]],
                                       np.minimum.reduceat(cap, first, axis=0))
        return sa

    def stage(self, k: int) -> _StageArrays:
        return self._stages[k]

    # threshold-dependent score construction --------------------------------

    def _scores(self, score):
        """Per-stage (n_nodes, n_u) and terminal (n_nodes,) scores of a
        nondecreasing map of constraint vectors (last axis).  Each distinct
        constraint table is scored once (time-invariant systems share one
        across stages)."""
        scored: dict = {}
        stage = []
        for sa in self._stages:
            key = id(sa.g_vals)
            if key not in scored:
                scored[key] = score(sa.g_vals)
            stage.append(scored[key])
        return stage, score(self.theta_vals)

    def slack_scores(self, c: np.ndarray):
        """Per-stage (n_nodes, n_u) and terminal arrays of min_i (g_i - c_i)."""
        return self._scores(lambda g: _slack(g, c))

    def masked_component_scores(self, c: np.ndarray, comp: int):
        """Scores for the component-`comp` constrained maximin problem.

        A state-control pair scores its comp-th constraint value when the
        whole constraint vector clears c, and the infeasibility sentinel
        otherwise; same for terminal states.  The vector clears c exactly
        when its slack is >= 0: the sign of a float difference is exact,
        and NaN fails both tests.
        """
        return self._scores(lambda g: np.where(_slack(g, c) >= 0, g[..., comp], NEG_INF))

    def component_scores(self, comp: int):
        """Raw per-component constraint values (used for policy rollup)."""
        return self._scores(lambda g: np.ascontiguousarray(g[..., comp]))


def compile_system(sys: SystemSpec, grid: StateGrid, controls: ControlMesh,
                   interp: str = "multilinear") -> CompiledSystem:
    return CompiledSystem(sys, grid, controls, interp)


def _slack(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """min_i (g_i - c_i) over the constraint (last) axis of g and c, one
    component at a time; the two broadcast against each other."""
    out = np.subtract(g[..., 0], c[..., 0])
    for i in range(1, g.shape[-1]):
        np.minimum(out, np.subtract(g[..., i], c[..., i]), out=out)
    return out


# -- the compiled stage kernel ---------------------------------------------

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE = _SOURCE.with_name("__pycache__")
CC = "cc"
# no -ffast-math or -Ofast: the kernel must keep IEEE semantics, signed
# zeros and NaN included, and no contraction may fuse a product and a sum
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _build_kernel(cache: Path) -> Path:
    """The kernel library in ``cache``, compiled there first when no library
    of this source, compiler command and machine exists.  The compiler
    writes a temporary file, which then replaces the target in one step, so
    a concurrent import sees either no library or a whole one."""
    source = _SOURCE.read_bytes()
    key = zlib.crc32(" ".join([os.uname().machine, CC, *CFLAGS]).encode() + source)
    target = cache / f"_kernel-{key:08x}.so"
    if target.exists():
        return target
    import subprocess  # only a cache miss runs the compiler

    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix="_kernel-", suffix=".tmp")
    os.close(fd)
    command = [CC, *CFLAGS, "-o", tmp, "-x", "c", "-"]
    shown = f"{' '.join(command)} < {_SOURCE}"
    try:
        proc = subprocess.run(command, input=source, capture_output=True)
        if proc.returncode:
            raise ImportError(f"building the stage kernel failed: {shown}\n"
                              + proc.stderr.decode(errors="replace"))
        os.replace(tmp, target)
    except OSError as exc:
        raise ImportError(f"building the stage kernel failed: {shown}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


class _Stage(ctypes.Structure):
    """``struct stage`` of ``_kernel.c``, field for field."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "V", "out", "choices", "base", "cw", "offsets", "scores", "g", "c", "fixed",
        "rows")] + [(name, ctypes.c_ssize_t) for name in (
            "r0", "r1", "n_u", "n_w", "C", "K", "m")]


def _load_kernel(cache: Path):
    """``rt_stage`` of the kernel library built in ``cache``."""
    fn = ctypes.CDLL(str(_build_kernel(cache))).rt_stage
    fn.argtypes = [ctypes.POINTER(_Stage)]
    fn.restype = ctypes.c_int
    return fn


_rt_stage = _load_kernel(_CACHE)


def _stage_kernel(stage: _Stage, n: int) -> None:
    """Run the compiled kernel on ``stage``, stage n of a sweep: rows
    r0..r1 (of ``stage.rows`` if set), K lanes.  Raises
    UnpopulatedNodeError when a result is NaN, which only a touched node
    that was never populated gives, or when a policy leaves a row without
    a control."""
    flag = _rt_stage(stage)
    if flag == 1:
        raise UnpopulatedNodeError(f"stage-{n} sweep touched unpopulated next-stage nodes")
    if flag:
        raise UnpopulatedNodeError(f"policy gap on reachable nodes at stage {n}")


def _address(a: np.ndarray, dtype, shape: tuple) -> int:
    """Address of ``a`` after checking that the kernel may read it as a
    C-contiguous array of ``dtype`` and ``shape``."""
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"kernel input of dtype {a.dtype} and shape {a.shape} is not "
                         f"a C-contiguous {np.dtype(dtype)} array of shape {shape}")
    return a.ctypes.data


# -- core sweeps ------------------------------------------------------------


_EMPTY = slice(0, 0)


def _window(vals: np.ndarray, V_next: np.ndarray, swept, rows, sa: _StageArrays):
    """The rows of ``rows`` that stage n must sweep when it repeats stage
    n+1, which computed ``vals`` from ``V_next`` on the rows ``swept``;
    both hold K lanes per row, and a row changed if any lane did.

    ``_EMPTY`` when ``vals`` equals ``V_next`` on ``swept`` bit for bit.
    Else the hull of the rows whose support range, by the envelopes of
    ``sa``, meets the span of the changed nodes; ``rows`` itself when that
    is every row, when no change within ``swept`` could exclude a row, or
    when ``rows`` or ``swept`` is an index array.
    """
    if isinstance(swept, slice) and isinstance(rows, slice) and sa.envelopes:
        hi, lo = sa.envelopes
        r0, r1, _ = rows.indices(len(hi))
        s0, s1, _ = swept.indices(len(hi))
        # else no change within swept moves either end of the hull
        if hi[r0] < s1 - 1 or lo[r1 - 1] > s0:
            # as integers: -0.0 == 0.0 as floats, yet a sum may keep the sign
            changed = (vals.view(np.int64) !=
                       V_next[s0:s1].view(np.int64)).nonzero()[0].tolist()
            if not changed:
                return _EMPTY
            a = max(r0, bisect_left(hi, s0 + changed[0]))
            b = min(r1, bisect_right(lo, s0 + changed[-1]))
            return rows if (a, b) == (r0, r1) else slice(a, b) if a < b else _EMPTY
    return _EMPTY if vals.tobytes() == V_next[swept].tobytes() else rows


def _sweep(compiled: CompiledSystem, reach: ReachableSets, T: np.ndarray,
           scores: list | None, c: np.ndarray | None, fixed: np.ndarray | None,
           choices: np.ndarray | None) -> None:
    """Backward maximin sweep into ``T``, (N+2, n_nodes, K), whose last row
    already holds the terminal scores and which is NaN on every node of
    the other rows.

    The stage-n score is ``scores[n]`` (n_nodes, n_u), shared by the K
    lanes, or, with ``scores`` None, the slack of lane k's threshold
    ``c[:, k]`` (``c`` is (m, K)).  A policy ``fixed`` (N+1, n_nodes)
    restricts each row to its one chosen control, so the max over one
    control evaluates the policy.  ``choices`` (N+1, n_nodes, K), if
    given, receives the argmax controls.
    """
    sys, n_nodes = compiled.sys, compiled.grid.n_nodes
    K = T.shape[2]
    T_at = _address(T, np.float64, (sys.horizon + 2, n_nodes, K))
    row = n_nodes * K * 8
    stage = _Stage(K=K, C=len(compiled.offsets), n_u=len(compiled.controls),
                   m=sys.threshold_dim)
    if c is not None:
        stage.c = _address(c, np.float64, (sys.threshold_dim, K))
    if fixed is not None:
        fixed_at = _address(fixed, np.int32, (sys.horizon + 1, n_nodes))
    if choices is not None:
        choices_at = _address(choices, np.int32, (sys.horizon + 1, n_nodes, K))
    addresses = {}  # id -> address of each score and row array, taken once per sweep

    def at(a: np.ndarray, dtype, *shape) -> int:
        if id(a) not in addresses:
            addresses[id(a)] = _address(a, dtype, shape)
        return addresses[id(a)]

    def repeats(j: int, n: int) -> bool:
        """Stage j runs the operator of stage n: stage arrays and scores."""
        return compiled.stage(j) is compiled.stage(n) and (
            scores is None or scores[j] is scores[n])

    closed = fixed is None and (reach.closed_under is compiled or reach.full)
    swept = loaded = None
    for n in range(sys.horizon, -1, -1):
        rows, sa = reach.selectors[n], compiled.stage(n)
        window = rows
        if closed and n < sys.horizon and n + 1 < reach.nested and repeats(n + 1, n):
            # stage n repeats stage n+1, which differs from stage n+2 only
            # on the rows ``swept``: every row outside the window copies
            # stage n+1 (module docstring)
            window = _window(T[n + 1, swept], T[n + 2], swept, rows, sa)
            if window is _EMPTY and all(repeats(j, n) for j in range(n)):
                where = reach.masks[:n + 1, :, None]
                np.copyto(T[:n + 1], T[n + 1], where=where)
                if choices is not None:
                    np.copyto(choices[:n + 1], choices[n + 1], where=where)
                break
            if window is not rows:
                T[n, rows] = T[n + 1, rows]
                if choices is not None:
                    choices[n, rows] = choices[n + 1, rows]
        swept = window
        if window is _EMPTY:  # every row copied: nothing for the kernel
            continue
        if sa is not loaded:
            stage.offsets, stage.base, stage.cw, stage.g = sa.kernel_inputs
            stage.n_w = sa.base.shape[2]
            loaded = sa
        stage.V, stage.out = T_at + (n + 1) * row, T_at + n * row
        if scores is not None:
            stage.scores = at(scores[n], np.float64, n_nodes, stage.n_u)
        if fixed is not None:
            stage.fixed = fixed_at + n * n_nodes * 4
        if choices is not None:
            stage.choices = choices_at + n * n_nodes * K * 4
        if isinstance(window, slice):
            stage.rows = None
            stage.r0, stage.r1, _ = window.indices(n_nodes)
        else:
            stage.rows = at(window, np.intp, len(window))
            stage.r0, stage.r1 = 0, len(window)
        _stage_kernel(stage, n)


def sweep_scores(compiled: CompiledSystem, reach: ReachableSets,
                 stage_scores: list[np.ndarray], terminal_score: np.ndarray,
                 *, want_policy: bool = True):
    """Backward optimization sweep; returns (tables, choices or None).

    ``choices[n, i]`` is the index into ``compiled.controls`` attaining the
    max at stage n and node i, -1 on nodes the sweep never populated.
    """
    T = _terminal(compiled, reach, terminal_score)
    choices = (np.full((compiled.sys.horizon + 1, compiled.grid.n_nodes, 1), -1,
                       dtype=np.int32) if want_policy else None)
    _sweep(compiled, reach, T, stage_scores, None, None, choices)
    return _tables(compiled, T), None if choices is None else choices[..., 0]


def sweep_policy(compiled: CompiledSystem, reach: ReachableSets,
                 choices: np.ndarray, stage_scores: list[np.ndarray],
                 terminal_score: np.ndarray):
    """Backward evaluation sweep of the feedback policy ``choices`` (as
    ``sweep_scores`` returns them)."""
    T = _terminal(compiled, reach, terminal_score)
    _sweep(compiled, reach, T, stage_scores, None,
           np.ascontiguousarray(choices, dtype=np.int32), None)
    return _tables(compiled, T)


def _terminal(compiled: CompiledSystem, reach: ReachableSets,
              terminal_score: np.ndarray) -> np.ndarray:
    """A one-lane NaN table holding ``terminal_score`` on the terminal set."""
    T = np.full((compiled.sys.horizon + 2, compiled.grid.n_nodes, 1), np.nan)
    rows = reach.selectors[-1]
    T[-1, rows, 0] = terminal_score[rows]
    return T


def _tables(compiled: CompiledSystem, T: np.ndarray) -> list[ValueTable]:
    """The value tables of a one-lane table ``T``, as views of it."""
    return [ValueTable(n, compiled.grid, T[n, :, 0], compiled.interp) for n in range(len(T))]


# -- public solver entry points ---------------------------------------------


def solve_batch(compiled: CompiledSystem, reach: ReachableSets, thresholds) -> np.ndarray:
    """The tables V_0..V_{N+1} of K thresholds, ``thresholds`` (K, m), on
    the reachable sets ``reach``, solved in one sweep: an (N+2, n_nodes, K)
    array whose lane k is ``backward_recursion`` of threshold k bit for
    bit, NaN off the reachable sets."""
    cs = np.atleast_2d(np.asarray(thresholds, dtype=float))
    if not len(cs):
        raise ValueError("a batch needs at least one threshold")
    return _solve(compiled, reach,
                  np.stack([as_threshold(c, compiled.sys.threshold_dim) for c in cs]))


def _solve(compiled: CompiledSystem, reach: ReachableSets, cs: np.ndarray) -> np.ndarray:
    """``solve_batch`` of the checked thresholds ``cs`` (K, m)."""
    T = np.full((compiled.sys.horizon + 2, compiled.grid.n_nodes, len(cs)), np.nan)
    rows = reach.selectors[-1]
    T[-1, rows] = _slack(compiled.theta_vals[rows][:, None, :], cs)
    _sweep(compiled, reach, T, None, np.ascontiguousarray(cs.T), None, None)
    return T


def batch_values(xi, compiled: CompiledSystem, tables: np.ndarray) -> np.ndarray:
    """W(xi, c) of every lane of ``tables``, as ``solve_batch`` returns
    them: per lane, bit for bit ``robust_value`` of its own tables, with one
    ``locate`` call for all lanes."""
    pts = np.atleast_2d(np.asarray(xi, dtype=float))
    idx, wts = compiled.grid.locate(pts, mode=compiled.interp)
    out = np.empty(tables.shape[2])
    for k in range(len(out)):
        # the float operations of ``mesh.interpolate``
        corners = tables[0, :, k][idx]
        if np.isnan(corners).any():
            raise UnpopulatedNodeError(
                f"query at {xi!r} touches unpopulated nodes of stage-0 table")
        out[k] = (corners * wts).sum(axis=-1)[0]
    return out


def backward_recursion(compiled: CompiledSystem, reach: ReachableSets,
                       c) -> list[ValueTable]:
    """Value tables V_0..V_{N+1} for threshold c on the reachable sets
    ``reach``."""
    return _tables(compiled, _solve(
        compiled, reach, as_threshold(c, compiled.sys.threshold_dim)[None]))


def robust_value(xi, tables: list[ValueTable]) -> float:
    """W(xi, c) read off the stage-0 table."""
    return interpolate(tables[0], xi)


def solve_value(xi, c, sys: SystemSpec, grid: StateGrid, controls: ControlMesh, *,
                compiled: CompiledSystem, reach: ReachableSets) -> float:
    """Build the tables for c and return W(xi, c); ``compiled`` must have
    been built from (sys, grid, controls)."""
    _require_compiled_from(compiled, sys, grid, controls)
    return robust_value(xi, backward_recursion(compiled, reach, c))


def membership(xi, c, sys: SystemSpec, grid: StateGrid, controls: ControlMesh, *,
               tol: float = 0.0, compiled: CompiledSystem,
               reach: ReachableSets) -> bool:
    """True iff W(xi, c) >= -tol; tol defaults to exact zero."""
    if tol < 0:
        raise ValueError("membership tolerance must be >= 0")
    return solve_value(xi, c, sys, grid, controls, compiled=compiled,
                       reach=reach) >= -tol
