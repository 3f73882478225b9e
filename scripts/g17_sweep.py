#!/usr/bin/env python3
"""Byte sweep of the vectorized %.17g encoder against Python's formatter.

Draws --values seeded values, a batch of 10**6 at a time: random 64-bit
patterns (the finite ones), normals scaled by 10**[-308, 308], subnormals,
integers and quarters, and exact 17-digit rounding ties in every decade
that has them (k from -8 to 15).  Each batch is written as CSV rows by
`g17.csv_blocks` and by Python's `%` formatter, half of its rows as '%.17g'
cells and half as '%.17g%+.17gj' cells of (real, imaginary) pairs, and the
two texts must be equal byte for byte; the first differing cell is printed
and the exit status is 1.
"""

import argparse
import sys
import time

import numpy as np

from semigroup_lab import g17


def batch(rng, size):
    """About `size` values, a third of them bit patterns and a third scaled
    normals."""
    third = size // 3
    bits = rng.integers(0, 2 ** 64, third, dtype=np.uint64).view(np.float64)
    k = rng.integers(-8, 16, third // 4)  # ties: odd multiples of 2**(k - 17) in decade k
    lo = np.ceil(2.0 ** 17 * 5.0 ** k)
    lo += lo % 2 == 0
    hi = np.minimum(10 * 2.0 ** 17 * 5.0 ** k, 2.0 ** 53)
    ties = (lo + 2 * np.floor(rng.random(k.size) * np.ceil((hi - lo) / 2))) * 2.0 ** (k - 17)
    with np.errstate(over="ignore"):  # a few scaled normals overflow; they are dropped
        scaled = rng.standard_normal(third) * 10.0 ** rng.uniform(-308, 308.3, third)
    values = np.concatenate([
        bits, scaled,
        rng.integers(1, 2 ** 52, third // 4).view(np.float64),
        rng.integers(-2 ** 53, 2 ** 53, third // 4) * rng.choice([1.0, 0.25], third // 4),
        ties, -ties])
    values = values[np.isfinite(values)]
    return values[:values.size // 1000 * 1000].reshape(-1, 1000)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--values", type=int, default=10 ** 7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    start, done = time.perf_counter(), 0
    while done < args.values:
        values = batch(rng, min(10 ** 6, args.values - done))
        half = values.shape[0] // 2
        for rows, cell, width in ((values[:half], "%.17g", 1),
                                  (values[half:], "%.17g%+.17gj", 2)):
            got = b"".join(g17.csv_blocks(rows, width))
            line = ",".join([cell] * (1000 // width)) + "\n"
            want = "".join(line % tuple(row) for row in rows.tolist()).encode()
            if got != want:
                cells = zip(got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
                print("mismatch:", next((a, b) for a, b in cells if a != b))
                sys.exit(1)
        done += max(values.size, 1)
    print(f"{done} values byte-identical to Python's formatter in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
