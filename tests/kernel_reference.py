"""The numpy stage kernel, kept as the reference of the compiled one.

``stage_kernel`` is the numpy kernel the sweeps ran before the compiled
kernel replaced it, without its scratch buffer: whole rows of the stencil
S[k, j] = V[k + offsets[j]] gathered at ``base``, weighted and summed
corner by corner, then the minimum over the scenarios slice by slice and
with the stage scores, each an ``np.minimum``.  ``control_max`` takes the
maximum over controls by the rule the compiled kernel states: control
order, strict >, NaN sticky.  numpy's own max reduction follows no
sequential rule on signed zeros, so the reference does not use it.
"""

from __future__ import annotations

import numpy as np


def stage_kernel(V: np.ndarray, base: np.ndarray, cw: np.ndarray | None,
                 offsets: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """min(worst case over scenarios of the interpolated V, stage scores)
    for one lane V (n_nodes,).

    ``base`` (..., n_w) holds corner 0 of each cell and ``cw`` (..., n_w,
    C) the corner-last weights (None for a single corner, read from V as
    it is); ``scores`` and the result have the shape of ``base`` without
    the scenario axis.
    """
    if len(offsets) == 1:
        acc = V.take(base)
    else:
        n = len(V)
        S = np.full((n, len(offsets)), np.nan)  # the NaN tail is never read
        for j, off in enumerate(offsets):
            S[:n - off, j] = V[off:]
        G = S.take(base, axis=0) * cw
        acc = G[..., 0].copy()
        for j in range(1, len(offsets)):
            acc += G[..., j]
    q = acc[..., 0].copy()
    for s in range(1, acc.shape[-1]):
        q = np.minimum(q, acc[..., s])
    return np.minimum(q, scores)


def control_max(q: np.ndarray):
    """(max, argmax) over the last axis in index order: a strictly greater
    entry or a NaN replaces the running max, so ties keep the first index
    and its value, and NaN, once met, sticks."""
    best = q[..., 0].copy()
    arg = np.zeros(best.shape, dtype=np.int32)
    for u in range(1, q.shape[-1]):
        up = (q[..., u] > best) | np.isnan(q[..., u])
        best = np.where(up, q[..., u], best)
        arg = np.where(up, np.int32(u), arg)
    return best, arg


def slack(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """min_i (g_i - c_i) over the last axis, component by component, each
    minimum an ``np.minimum`` of the running value and the next gap."""
    out = g[..., 0] - c[0]
    for i in range(1, g.shape[-1]):
        out = np.minimum(out, g[..., i] - c[i])
    return out
