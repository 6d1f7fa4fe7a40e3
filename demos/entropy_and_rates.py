"""Covering numbers of a mixture family and the two entropy rate objectives.

A family of unit Gaussians with means on a grid is covered greedily at a
range of radii; the batch objective eps^2 + log(N_loc)/n and the
sequential objective n eps^2 + log(N) are then minimized over the grid.
Local counts use ball covers at half radius, with the sup taken over the
supplied eta grid only.  Every cover reads one Hellinger table, so each
pair of candidates is integrated once.  The last block
Monte-Carlo-measures the batch risk of the net MLE on the same family;
the measurement is reported with a confidence half-width, never asserted
against the rate objective.
"""

import numpy as np

from gmdiv import (
    Compact,
    GaussianMixture,
    HellingerTable,
    batch_risk_mc,
    greedy_cover,
    local_covering_number,
    rate_functional,
)


def main():
    thetas = np.linspace(-1.5, 1.5, 13)
    candidates = [GaussianMixture.from_atoms([[t]], tag=Compact(2.0)) for t in thetas]
    table = HellingerTable(candidates)
    eps_grid = [0.05, 0.1, 0.2, 0.3, 0.5]
    n = 200

    sizes, local_sizes = [], []
    print(f"{'eps':>5} {'N':>4} {'N_loc':>6} {'batch obj':>10} {'seq obj':>9}")
    for eps in eps_grid:
        n_cov = len(greedy_cover(table, eps))
        n_loc = max(local_covering_number(table, eps, eps_grid), 1)
        sizes.append(n_cov)
        local_sizes.append(n_loc)
        print(
            f"{eps:>5.2f} {n_cov:>4} {n_loc:>6} "
            f"{eps**2 + np.log(n_loc) / n:>10.4f} {n * eps**2 + np.log(n_cov):>9.2f}"
        )

    batch = rate_functional(eps_grid, local_sizes, n, local=True)
    seq = rate_functional(eps_grid, sizes, n, local=False)
    print(f"\nbatch objective minimized at eps = {batch.eps_star}: {batch.value:.4f}")
    print(f"sequential objective minimized at eps = {seq.eps_star}: {seq.value:.2f}")

    net = greedy_cover(table, 0.2)
    mc = batch_risk_mc(candidates[::4], net, n=n, trials=8, seed=0)
    print(
        f"\nnet-MLE batch risk over {len(candidates[::4])} worst-case candidates "
        f"(n={n}): {mc['risk']:.4f} +/- {mc['half_width']:.4f} (H^2, 95% band)"
    )


if __name__ == "__main__":
    main()
