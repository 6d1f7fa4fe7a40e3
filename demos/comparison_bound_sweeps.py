"""How loose are the comparison constants in practice?

Each sweep draws seeded random mixture pairs from the class a bound
applies to, computes both sides, and records lhs/rhs.  A max ratio of,
say, 1e-4 means the certified constant over-covers the worst sampled pair
by a factor of ten thousand; the point of the sweep is the zero-failure
column, not tightness.

The KL >= H^2 and chi^2 >= KL orderings are checked on every instance as
a free by-product.
"""

from gmdiv import BoundId, Compact, InstanceFamily, Subgaussian, verify_sweep

CONFIGS = [
    (BoundId.Thm1, InstanceFamily(Compact(2.0), d=1), "KL <= 5154 (M^2 v d) H^2"),
    (BoundId.Thm2, InstanceFamily(Compact(1.0), d=1), "KL <= 200 M^2 H^2 + 16 H^2 log(1/H^2)"),
    (BoundId.Thm3, InstanceFamily(Subgaussian(0.5), d=1), "KL <= 1660056 (1/(1-K)^3 v 8d^3) H^2"),
    (BoundId.Thm5, InstanceFamily(Subgaussian(2.0), d=1), "KL <= (10240 K^4 + 652) H^2 log(4/H^2)"),
    (BoundId.ChiSqThm, InstanceFamily(Compact(2.0), d=1), "chi2 <= 2 e^{50 (M^2 v d)} H^2"),
    (BoundId.TVfromL2, InstanceFamily(Compact(2.0), d=1), "TV <= (8 sqrt(M) + 2 log^{1/4}(1/L2)) L2"),
    (BoundId.L2fromTV, InstanceFamily(Compact(2.0), d=1), "L2 <= (log^{1/4}(1/TV) v 3) TV"),
]


def main():
    n = 100
    print(f"{'bound':>9} {'failures':>8} {'ordering':>8} {'max lhs/rhs':>12}   statement")
    for i, (bound, family, text) in enumerate(CONFIGS):
        rep = verify_sweep(bound, family, n=n, seed=100 + i)
        print(
            f"{bound.value:>9} {rep.failures:>8} {rep.ordering_failures:>8} "
            f"{rep.max_ratio:>12.3e}   {text}"
        )


if __name__ == "__main__":
    main()
