#!/usr/bin/env python3
"""Conservativity dichotomy for the quantum birth process.

Compares two rate families at a fixed resolvent parameter: with linearly
growing rates the escape defect vanishes as the truncation grows, while for
geometric rates it converges to the positive arrival product.  The defect of
the chain truncated at N is the partial arrival product over its N levels,
printed in exponent format so that small defects show.  The product itself is
known only to its bracket [value - width, value], so defect - value is printed
only where it exceeds the bracket width.
"""

import argparse

from semigroup_lab import arrival_laplace, arrival_partial_product
from semigroup_lab.rates import parse_rate_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rates", default=["poly:1:1", "geom:2"], nargs="+",
                    help="rate specs to compare")
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--dims", type=int, nargs="+",
                    default=[10, 20, 40, 80, 160])
    args = ap.parse_args()

    for spec_text in args.rates:
        rates = parse_rate_spec(spec_text)
        bracket = arrival_laplace(rates, args.lam)
        print(f"\nrates {spec_text}: arrival product in "
              f"[{bracket.value - bracket.width:.12g}, {bracket.value:.12g}] "
              f"(bracket width {bracket.width:.1e})")
        print(f"{'N':>6}  {'defect(N)':>16}  {'defect - value':>22}")
        for dim in args.dims:
            defect = arrival_partial_product(rates, args.lam, 0, dim)
            gap = defect - bracket.value
            # defect(N) >= product >= value - width: a gap within the width
            # resolves nothing
            column = f"{gap:.3e}" if gap > bracket.width else "within bracket width"
            print(f"{dim:>6}  {defect:>16.9e}  {column:>22}")


if __name__ == "__main__":
    main()
