"""The d = 1 TV splitter on the whole grid: the reference for `divergences._sign_change_splits`.

It evaluates the log-ratio on every node of the search's grid, the
multiples of 1/128 in [-ceil(R), ceil(R)], for every pair, so a test can
hold the pruned search to these roots, bit for bit.
"""

import numpy as np

from gmdiv.divergences import _groups, brentq
from gmdiv.mixtures import log_densities


def log_ratio(p_env, q_env, members, X, counts):
    """log p - log q of pair members[i] at the i-th segment of X, from one kernel call per mixture batch."""
    (logp,) = log_densities([p_env[members]], X, counts)
    (logq,) = log_densities([q_env[members]], X, counts)
    return logp - logq


def dense_splits(p_env, q_env, R):
    """Roots of log p_i - log q_i in (-R_i, R_i), bracketed where f < 0 flips between grid neighbours, and their count per pair."""
    m = R.size
    C = np.ceil(R)
    counts = 256 * C.astype(int) + 1
    found = []  # per group: pair, left end, right end
    for g in _groups(counts):
        members = np.arange(m)[g]
        pair = np.repeat(members, counts[g])
        k = np.arange(pair.size) - np.repeat(np.cumsum(counts[g]) - counts[g], counts[g])
        x = k / 128 - C[pair]
        negative = log_ratio(p_env, q_env, members, x[:, None], counts[g]) < 0
        flip = (negative[:-1] != negative[1:]) & (pair[:-1] == pair[1:])
        found.append((pair[:-1][flip], x[:-1][flip], x[1:][flip]))
    pair, left, right = (np.concatenate(v) for v in zip(*found))
    roots = brentq(
        lambda x, which: log_ratio(p_env, q_env, pair[which], x[:, None], np.ones(which.size, dtype=int)),
        left,
        right,
        xtol=1e-13,
    )
    inside = (-R[pair] < roots) & (roots < R[pair])
    return roots[inside], np.bincount(pair[inside], minlength=m)
