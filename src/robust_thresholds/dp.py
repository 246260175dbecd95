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
is the same max over a one-control set, each row gathering only the cells
of its chosen control.  Every stage runs one kernel.  Corner j of the
grid cell an image falls in is node base + offsets[j]: ``StateGrid.locate``
keeps every cell inside the grid, so the offsets follow from the grid
strides alone, and the compiled system stores one intp ``base`` per
(node, control, scenario) instead of 2**dim corner indices.  Each stage
builds the stencil table S[k, j] = V[k + offsets[j]] of the next-stage
values and gathers whole rows of it with one ``take`` on ``base``.  The
interpolation weights are stored corner-last, so the gathered block is
weighted in one contiguous pass; the corners are then summed in place in
corner order, which gives the products and sums of a corner-by-corner
accumulation.  Under nearest-node interpolation there is one corner, of
weight exactly 1, so the gather reads V directly and skips the product.  The kernel then takes the minimum over
scenarios and with the stage score.  The scenario axis, like the
constraint axis of the score builders, is short (two entries on the
fishery), so every minimum over it is taken slice by slice with
``np.minimum``: a ufunc reduction over a 2-element axis costs an order of
magnitude more than the elementwise minimum of its two slices.  The float
operations are the same either way, so tables are bitwise those of a
plain ``.min(axis=-1)``.

The gathered block and the per-stage result live in one scratch buffer
per thread and compiled system (``CompiledSystem._scratch``), kept across
sweeps: ``weak_front`` may solve in several threads on one compiled
system, and a fresh block per sweep faults in megabytes of new pages on
every solve.  The slack scores, built before a sweep, take their
per-component differences through the same buffer.

A sweep writes one (N+2, n_nodes) array: row n is V_n, NaN on every node
outside R_n, so NaN alone marks the unpopulated nodes of a table, and the
tables it returns are views of its rows.

An optimizing sweep runs the kernel only on the rows whose inputs
changed.  Say stage n repeats stage n+1: both have one stage table and
one score array, R_n <= R_{n+1}, and the reachable sets are closed under
the compiled system, so every stage-j read from R_j lands in R_{j+1}.
``build_reachable_sets`` guarantees closure for the system it was built
from, and sets marking every node under any; other hand-built sets sweep
every row.  The support of a row is every node base + offsets over its
controls, scenarios and corners, zero-weight corners included: 0 * NaN is
NaN, and a changed value can flip the sign of a zero sum.  If V_{n+1}
equals V_{n+2} bit for bit on a row's support, stage n runs on that row the float
operations stage n+1 ran on it (the kernel's operations on a row do not
depend on the other rows swept), so V_n there is V_{n+1} bit for bit and
the argmax is stage n+1's: the row is copied.  The rows left form a
window.  On R_{n+1}, which holds the support of every row of R_n, V_{n+1}
differs from V_{n+2} only on the rows stage n+1 swept, the others being
copies; there the two are compared as int64, since -0.0 == 0.0 as
floats, for the first and the last changed node.  Two support envelopes
per stage table, built on first use, bound each row's support: the
running max from the first row of each row's highest support node, and
the running min from the last row of each row's lowest.  Bisecting them
gives the hull of the rows whose support range meets the span from the
first changed node to the last.  Where the envelopes show that no change
within the swept rows could exclude a row, as on most small tabular
systems, the changed nodes are not located: only their absence is tested.
A flat-index range holds a row's support in any dimension, so the hull is
exact there too, but only slice rows are windowed: rows given by an index
array (2-D reachable sets) are swept whole unless no node changed.  The
fixed-point exit is the empty window: when no node changed and every
lower stage repeats stage n+1 as well, each lower stage j gets V_{n+1} on
R_j and, with a policy, stage n+1's choices there, and the loop stops.
Policy evaluation runs every stage.

The same argument runs along the threshold axis.  ``ThresholdSequence``
solves a run of thresholds, as ``weak_front`` walks its ray mesh, in place
in one (N+2, n_nodes) table: when stage n of threshold c' is swept, row n
still holds V_n of the previous threshold c on the same reachable sets.
A row of R_n whose score row is unchanged bit for bit, and whose support
saw no change from V_{n+1}(c) to V_{n+1}(c'), would run the float
operations it ran for c, so it keeps V_n(c): no copy is needed at all.
The score rows are compared as int64 once per distinct score array, with
the slacks of c rebuilt in the kernel scratch, so no second set of score
arrays is kept.  The changed nodes of V_{n+1} are found, as int64 too, at
the moment stage n+1 overwrites its rows: on the rows it swept and on the
rows it copied from stage n+2, the rows it kept being unchanged.  The
threshold window of stage n is the hull of the rows whose score row
changed and of the rows whose support range, by the same envelopes,
meets the span of those changed nodes.  A row outside the stage window
copies stage n+1, a row outside the threshold window keeps its value, and
the kernel runs on the intersection of the two windows, again a slice;
both kinds of row hold exactly the value the kernel would compute.  So
stage n-1 compares stage n with stage n+1 on every row that did not copy.
The first solve of a sequence, one on other reachable sets and one after
a solve that raised (which leaves the table half overwritten) sweep in
full.

Everything here is deterministic: control ties resolve to the lowest mesh
index, so repeated runs reproduce tables bitwise.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

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
    "ThresholdSequence",
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
        # per control, the stage kernel's scratch at its largest stage: the
        # gathered corners of every (row, scenario) and one result per row
        n_w = max(len(om) for om in sys.scenario_sets)
        self._scratch_per_control = grid.n_nodes * (n_w * len(self.offsets) + 1)
        self._local = threading.local()

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

    def _scratch(self, n_ctrl: int) -> np.ndarray:
        """Flat stage-kernel scratch for sweeps over ``n_ctrl`` controls per
        row.  Each thread keeps one buffer per compiled system, grown on
        demand and reused by every later sweep: a block this size allocated
        per sweep is mapped fresh and faults in page by page each time, and
        ``weak_front`` solves in several threads at once."""
        size = self._scratch_per_control * n_ctrl
        buf = getattr(self._local, "buf", None)
        if buf is None or len(buf) < size:
            buf = self._local.buf = np.empty(size)
        return buf

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
        # no sweep runs while scores are built, so the differences can go
        # through this thread's kernel scratch
        buf = self._scratch(len(self.controls))
        return self._scores(lambda g: _slack(g, c, buf, np.empty(g.shape[:-1])))

    def masked_component_scores(self, c: np.ndarray, comp: int):
        """Scores for the component-`comp` constrained maximin problem.

        A state-control pair scores its comp-th constraint value when the
        whole constraint vector clears c, and the infeasibility sentinel
        otherwise; same for terminal states.  The vector clears c exactly
        when its slack is >= 0: the sign of a float difference is exact,
        and NaN fails both tests.
        """
        buf = self._scratch(len(self.controls))
        return self._scores(lambda g: np.where(
            _slack(g, c, buf, np.empty(g.shape[:-1])) >= 0, g[..., comp], NEG_INF))

    def component_scores(self, comp: int):
        """Raw per-component constraint values (used for policy rollup)."""
        return self._scores(lambda g: g[..., comp])

    def _moved_rows(self, stage_scores: list, c: np.ndarray) -> dict:
        """For each distinct array of the slack scores ``stage_scores``, by
        id, the sorted rows where it differs from the slack scores of the
        threshold c, compared as int64.  The slacks of c are rebuilt one
        array at a time in this thread's kernel scratch, which holds two."""
        buf = self._scratch(len(self.controls))
        moved = {}
        for sa, new in zip(self._stages, stage_scores):
            if id(new) not in moved:
                old = _slack(sa.g_vals, c, buf,
                             buf[new.size:2 * new.size].reshape(new.shape))
                moved[id(new)] = np.flatnonzero(
                    (new.view(np.int64) != old.view(np.int64)).any(axis=1))
        return moved


def compile_system(sys: SystemSpec, grid: StateGrid, controls: ControlMesh,
                   interp: str = "multilinear") -> CompiledSystem:
    return CompiledSystem(sys, grid, controls, interp)


def _slack(g: np.ndarray, c: np.ndarray, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """min_i (g_i - c_i) over the constraint (last) axis of g, into
    ``out``, one component at a time, each difference taken into the head
    of the flat scratch ``buf``: no temporary of g's size, nor of one
    component's."""
    np.subtract(g[..., 0], c[0], out=out)
    diff = buf[:out.size].reshape(out.shape)
    for i in range(1, g.shape[-1]):
        np.minimum(out, np.subtract(g[..., i], c[i], out=diff), out=out)
    return out


# -- core sweeps ------------------------------------------------------------


def _stage_kernel(V: np.ndarray, base: np.ndarray, cw: np.ndarray | None,
                  offsets: np.ndarray, scores: np.ndarray,
                  buf: np.ndarray) -> np.ndarray:
    """min(worst case over scenarios of the interpolated V, stage scores).

    ``base`` (..., n_w) holds corner 0 of each cell and ``cw`` (..., n_w, C)
    the corner-last weights (None for a single corner); ``scores`` and the
    result have the shape of ``base`` without the scenario axis.  Rows of
    the stencil S[k, j] = V[k + offsets[j]] are gathered at ``base``,
    weighted and summed corner by corner, V[c0] * w0 + V[c1] * w1 + ...;
    a single corner (nearest node) has weight exactly 1 and is read from V
    as it is.  The minima over the short scenario axis are taken slice by
    slice.  NaN from any touched unpopulated node propagates into the
    result (weights never cancel it).  ``buf`` is the flat scratch of
    ``CompiledSystem._scratch``; the result lives in it until the next call
    on the same buffer.
    """
    size = base.size * len(offsets)
    # bases are in range by construction; mode "raise" would gather into
    # a temporary copy of ``out``
    if len(offsets) == 1:
        acc = buf[:size].reshape(base.shape)
        V.take(base, out=acc, mode="clip")
    else:
        n = len(V)
        S = np.empty((n, len(offsets)))
        for j, off in enumerate(offsets):
            S[:n - off, j] = V[off:]
            S[n - off:, j] = np.nan  # never read: every cell lies inside the grid
        G = buf[:size].reshape(cw.shape)
        S.take(base, axis=0, out=G, mode="clip")
        G *= cw
        acc = G[..., 0]
        for j in range(1, len(offsets)):
            acc += G[..., j]
    q = buf[size:size + scores.size].reshape(scores.shape)
    if acc.shape[-1] == 1:
        np.copyto(q, acc[..., 0])
    else:
        np.minimum(acc[..., 0], acc[..., 1], out=q)
        for s in range(2, acc.shape[-1]):
            np.minimum(q, acc[..., s], out=q)
    return np.minimum(q, scores, out=q)


_EMPTY = slice(0, 0)


def _window(vals: np.ndarray, V_next: np.ndarray, swept, rows, sa: _StageArrays):
    """The rows of ``rows`` that stage n must sweep when it repeats stage
    n+1, which computed ``vals`` from ``V_next`` on the rows ``swept``.

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


def _changed(old: np.ndarray, new: np.ndarray, seg):
    """(first, last) node where ``new`` differs from ``old``, compared as
    int64, on the rows ``seg`` of a stage; None where none does."""
    d = (old.view(np.int64) != new.view(np.int64)).nonzero()[0]
    if not len(d):
        return None
    if isinstance(seg, slice):
        return (seg.start or 0) + int(d[0]), (seg.start or 0) + int(d[-1])
    return int(seg[d[0]]), int(seg[d[-1]])


def _join(a, b):
    return b if a is None else a if b is None else (min(a[0], b[0]), max(a[1], b[1]))


def _moved_window(span, moved: np.ndarray, rows, sa: _StageArrays):
    """The rows of ``rows`` whose stage result may differ from the previous
    threshold's: the hull of the rows in ``moved`` (sorted), whose score
    row changed, and of the rows whose support range, by the envelopes of
    ``sa``, meets ``span``, the first and last node of the stage above
    that changed (None for none).  ``rows`` itself when rows is an index
    array and anything changed."""
    if not isinstance(rows, slice):
        return rows if span or len(moved) else _EMPTY
    r0, r1, _ = rows.indices(len(sa.base))
    hulls = []
    i, j = np.searchsorted(moved, (r0, r1))
    if i < j:
        hulls.append((int(moved[i]), int(moved[j - 1]) + 1))
    if span and sa.envelopes:
        hi, lo = sa.envelopes
        hulls.append((bisect_left(hi, span[0]), bisect_right(lo, span[1])))
    elif span:
        hulls.append((r0, r1))
    hulls = [h for h in hulls if h[0] < h[1]]
    if not hulls:
        return _EMPTY
    a, b = max(r0, min(h[0] for h in hulls)), min(r1, max(h[1] for h in hulls))
    return rows if (a, b) == (r0, r1) else slice(a, b) if a < b else _EMPTY


def _meet(live, w, rows):
    """Intersection of two windows of ``rows``."""
    if live is _EMPTY or w is _EMPTY:
        return _EMPTY
    if live is rows or w is rows:
        return w if live is rows else live
    a, b = max(live.start, w.start), min(live.stop, w.stop)
    return slice(a, b) if a < b else _EMPTY


def _outside(w, live, rows, n_nodes: int):
    """The slices of the window ``w`` that lie outside the window ``live``
    of ``rows``."""
    if live is rows or w is _EMPTY:
        return ()
    if live is _EMPTY:
        return (w,)
    p, q, _ = w.indices(n_nodes)
    return tuple(seg for seg in (slice(p, min(q, live.start)), slice(max(p, live.stop), q))
                 if seg.start < seg.stop)


def _sweep(compiled: CompiledSystem, reach: ReachableSets,
           stage_scores: list[np.ndarray], terminal_score: np.ndarray,
           fixed: np.ndarray | None, want_policy: bool, T: np.ndarray,
           moved: dict | None):
    """Backward maximin sweep into ``T``, (N+2, n_nodes); returns (tables,
    argmax choices or None).

    With ``fixed`` None every row maximizes over the whole control mesh.
    A policy's ``fixed`` choices restrict each row to its one chosen
    control: the kernel then sees a control axis of length one, and the
    max over it evaluates the policy.

    With ``moved`` None every row of every stage is written, and ``T`` is
    NaN off the reachable sets.  Else, for an optimizing sweep without a
    policy, ``T`` holds the tables of the previous threshold on the same
    sets and ``moved`` gives, by id of each score array, the rows whose
    score row changed since: a row that is outside the threshold window
    keeps the previous threshold's value (module docstring).
    """
    sys, grid = compiled.sys, compiled.grid
    n_nodes = grid.n_nodes
    choices = (np.full((sys.horizon + 1, n_nodes), -1, dtype=np.int32)
               if want_policy else None)
    rows = reach.selectors[sys.horizon + 1]
    if moved is not None:
        span = _changed(T[-1, rows], terminal_score[rows], rows)
    T[-1, rows] = terminal_score[rows]
    buf = compiled._scratch(len(compiled.controls) if fixed is None else 1)
    closed = fixed is None and (reach.closed_under is compiled or reach.full)
    for n in range(sys.horizon, -1, -1):
        rows, sa, scores = reach.selectors[n], compiled.stage(n), stage_scores[n]
        live = rows  # the rows that do not copy stage n+1
        if (closed and n < sys.horizon and n + 1 < reach.nested
                and compiled.stage(n + 1) is sa and stage_scores[n + 1] is scores):
            # stage n repeats stage n+1, which differs from stage n+2 only
            # within ``vals`` on the rows ``swept``: every row outside the
            # window copies stage n+1 (module docstring)
            window = _window(vals, T[n + 2], swept, rows, sa)
            if window is _EMPTY and all(compiled.stage(j) is sa and stage_scores[j] is scores
                                        for j in range(n)):
                np.copyto(T[:n + 1], T[n + 1], where=reach.masks[:n + 1])
                if want_policy:
                    np.copyto(choices[:n + 1], choices[n + 1], where=reach.masks[:n + 1])
                break
            if window is not rows and moved is None:
                T[n, rows] = T[n + 1, rows]
                if want_policy:
                    choices[n, rows] = choices[n + 1, rows]
            live = window
        swept = live
        if moved is not None:
            # the rows of the threshold window copy stage n+1 or run the
            # kernel; the others keep the previous threshold's values
            moving = _moved_window(span, moved[id(scores)], rows, sa)
            span = None
            for seg in _outside(moving, live, rows, n_nodes):
                span = _join(span, _changed(T[n, seg], T[n + 1, seg], seg))
                T[n, seg] = T[n + 1, seg]
            swept = _meet(live, moving, rows)
        if swept is not _EMPTY:
            if fixed is None:
                cells = (swept,)
            else:
                p = fixed[n][swept]
                # an index of -1 would silently read the last control
                if np.any(p < 0):
                    raise UnpopulatedNodeError(f"policy gap on reachable nodes at stage {n}")
                # each row's chosen cells only, shape (rows, 1, n_w)
                cells = (np.arange(n_nodes)[swept], p, None)
            # a single corner has weight 1 and the kernel never reads it
            cw = sa.corner_w[cells] if len(sa.offsets) > 1 else None
            q = _stage_kernel(T[n + 1], sa.base[cells], cw, sa.offsets, scores[cells], buf)
            vals = q.max(axis=-1)
            if np.isnan(vals).any():
                raise UnpopulatedNodeError(
                    f"stage-{n} sweep touched unpopulated next-stage nodes")
            if want_policy:
                choices[n][swept] = q.argmax(axis=-1)
            if moved is not None:
                span = _join(span, _changed(T[n, swept], vals, swept))
            T[n, swept] = vals
        if moved is not None:
            # stage n differs from stage n+1 only on the rows it did not copy
            vals, swept = T[n, live], live
        elif swept is _EMPTY:  # every row copied: nothing for the kernel
            vals = T[n, swept]
    return [ValueTable(n, grid, T[n], compiled.interp) for n in range(len(T))], choices


def sweep_scores(compiled: CompiledSystem, reach: ReachableSets,
                 stage_scores: list[np.ndarray], terminal_score: np.ndarray,
                 *, want_policy: bool = True):
    """Backward optimization sweep; returns (tables, choices or None).

    ``choices[n, i]`` is the index into ``compiled.controls`` attaining the
    max at stage n and node i, -1 on nodes the sweep never populated.
    """
    return _sweep(compiled, reach, stage_scores, terminal_score, None, want_policy,
                  _nan_table(compiled), None)


def sweep_policy(compiled: CompiledSystem, reach: ReachableSets,
                 choices: np.ndarray, stage_scores: list[np.ndarray],
                 terminal_score: np.ndarray):
    """Backward evaluation sweep of the feedback policy ``choices`` (as
    ``sweep_scores`` returns them)."""
    return _sweep(compiled, reach, stage_scores, terminal_score, choices, False,
                  _nan_table(compiled), None)[0]


def _nan_table(compiled: CompiledSystem) -> np.ndarray:
    return np.full((compiled.sys.horizon + 2, compiled.grid.n_nodes), np.nan)


# -- public solver entry points ---------------------------------------------


def backward_recursion(compiled: CompiledSystem, reach: ReachableSets,
                       c) -> list[ValueTable]:
    """Value tables V_0..V_{N+1} for threshold c on the reachable sets
    ``reach``."""
    stage_scores, terminal = compiled.slack_scores(
        as_threshold(c, compiled.sys.threshold_dim))
    return sweep_scores(compiled, reach, stage_scores, terminal, want_policy=False)[0]


class ThresholdSequence:
    """The tables of ``backward_recursion`` for a run of thresholds, bit
    for bit, each solved in place in the previous solve's table.

    One (N+2, n_nodes) table serves every solve.  A solve on the reachable
    sets of the solve before it, which completed, sweeps only the rows of
    the threshold window (module docstring); any other solve, the first
    one and any after a solve that raised included, sweeps in full.  The
    tables returned are views of the shared table, valid until the next
    solve.  One sequence serves one thread at a time.
    """

    def __init__(self, compiled: CompiledSystem):
        self.compiled = compiled
        self._T = _nan_table(compiled)
        self._last = None  # (reach, threshold) of the tables in _T

    def tables(self, reach: ReachableSets, c) -> list[ValueTable]:
        """Value tables V_0..V_{N+1} for threshold c on the reachable sets
        ``reach``, as views of the shared table."""
        compiled = self.compiled
        c = as_threshold(c, compiled.sys.threshold_dim).copy()
        stage_scores, terminal = compiled.slack_scores(c)
        last, self._last = self._last, None
        if last is not None and last[0] is reach:
            moved = compiled._moved_rows(stage_scores, last[1])
        else:
            moved = None
            self._T.fill(np.nan)
        tables = _sweep(compiled, reach, stage_scores, terminal, None, False,
                        self._T, moved)[0]
        self._last = reach, c
        return tables


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
