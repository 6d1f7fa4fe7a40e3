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
    """Roots of log p_i - log q_i bracketed where f < 0 flips between grid neighbours, and their count per pair."""
    m = R.size
    counts = np.full(m, _TV_GRID)
    found = []  # per group: pair, node index, left end, right end
    for g in _groups(counts):
        members = np.arange(m)[g]
        grid = np.linspace(-R[g], R[g], _TV_GRID, axis=1)
        X = grid.reshape(-1, 1)
        negative = (log_ratio(p_env, q_env, members, X, counts[g]) < 0).reshape(members.size, _TV_GRID)
        bi, bj = np.nonzero(negative[:, :-1] != negative[:, 1:])
        found.append((members[bi], bj, grid[bi, bj], grid[bi, bj + 1]))
    pair, position, left, right = (np.concatenate(v) for v in zip(*found))
    roots = brentq(
        lambda x, which: log_ratio(p_env, q_env, pair[which], x[:, None], np.ones(which.size, dtype=int)),
        left,
        right,
        xtol=1e-13,
    )
    roots = roots[np.lexsort((position, pair))]
    return roots, np.bincount(pair, minlength=m)
