"""Sequential prediction with a Bayesian mixture over a Hellinger net.

The forecaster starts from a uniform prior over the net and reweights by
likelihood after each observation.  Its cumulative log loss is exactly
-log of the mixture's marginal likelihood, so it can exceed the best single
net element's by at most log(net size), pathwise, no matter what the stream
is; when the stream actually comes from a net element the cumulative regret
against the truth obeys the same budget at every step.  The forecaster
returns that regret step by step (`cum_regret`).  In the trace below the
posterior weight of the true element takes over and the regret flattens
just under the log(N) ceiling: once the true element carries all the
weight, the mixture has paid exactly its prior's -log(1/N) and no more.
"""

import math

from gmdiv import Compact, GaussianMixture, HellingerTable, greedy_cover, sequential_forecaster


def main():
    thetas = [-1.5, -0.5, 0.5, 1.5]
    candidates = [GaussianMixture.from_atoms([[t]], tag=Compact(2.0)) for t in thetas]
    net = greedy_cover(HellingerTable(candidates), 0.01)
    truth_idx = 2
    truth = net.elements[truth_idx]

    stream = truth.sample(120, seed=31)
    res = sequential_forecaster(net, stream, true_density=truth)
    print(f"net size {len(net)}, budget log N = {math.log(len(net)):.3f}")
    print(f"{'step':>5} {'w(true)':>8} {'cum regret':>11}")
    for t in (0, 1, 2, 5, 10, 20, 40, 80, 119):
        print(f"{t:>5} {res.predictive_weights[t, truth_idx]:>8.3f} {res.cum_regret[t]:>11.4f}")
    print(f"\nfinal regret vs truth:       {res.cum_regret[-1]:.4f}")
    print(f"final regret vs best expert: {res.regret_vs_best:.4f}  (<= {math.log(len(net)):.4f})")


if __name__ == "__main__":
    main()
