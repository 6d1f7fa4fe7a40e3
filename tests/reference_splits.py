"""The d = 1 TV splitter on the full grid: the reference for `divergences._sign_change_splits`.

It evaluates the log-ratio on every node of np.linspace(-R, R, 2049) for
every pair, the search's grid at R <= 64, so a test can hold the pruned
search to these roots, bit for bit.
"""

import numpy as np

from gmdiv.divergences import _TV_GRID, _groups, brentq
from gmdiv.mixtures import log_densities


def log_ratio(p_env, q_env, members, X, counts):
    """log p - log q of pair members[i] at the i-th segment of X, from one kernel call per mixture batch."""
    (logp,) = log_densities([p_env[members]], X, counts)
    (logq,) = log_densities([q_env[members]], X, counts)
    return logp - logq


def dense_splits(p_env, q_env, R):
    """Roots of log p_i - log q_i bracketed on every grid node, and their count per pair."""
    m = R.size
    counts = np.full(m, _TV_GRID)
    nodes = np.arange(_TV_GRID)
    found = []  # per group: pair, node index, left end, right end (inf for a root on a node)
    for g in _groups(counts):
        members = np.arange(m)[g]
        grid = np.linspace(-R[g], R[g], _TV_GRID, axis=1)
        X = grid.reshape(-1, 1)
        sign = np.sign(log_ratio(p_env, q_env, members, X, counts[g])).reshape(members.size, _TV_GRID)
        bi, bj = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
        # sign of the nearest nonzero value at or after each node (0 if none)
        nxt = np.minimum.accumulate(np.where(sign != 0, nodes, _TV_GRID - 1)[:, ::-1], axis=1)
        ahead = np.take_along_axis(sign, nxt[:, ::-1], axis=1)
        ni, nj = np.nonzero((sign[:, 1:-1] == 0) & (sign[:, :-2] * ahead[:, 1:-1] < 0))
        nj += 1
        found.append((members[bi], bj + 0.5, grid[bi, bj], grid[bi, bj + 1]))
        found.append((members[ni], nj, grid[ni, nj], np.full(ni.size, np.inf)))
    pair, position, left, right = (np.concatenate(v) for v in zip(*found))
    on_node = right == np.inf
    bracket_pair = pair[~on_node]
    roots = left.copy()
    roots[~on_node] = brentq(
        lambda x, which: log_ratio(p_env, q_env, bracket_pair[which], x[:, None], np.ones(which.size, dtype=int)),
        left[~on_node],
        right[~on_node],
        xtol=1e-13,
    )
    roots = roots[np.lexsort((position, pair))]
    return roots, np.bincount(pair, minlength=m)
