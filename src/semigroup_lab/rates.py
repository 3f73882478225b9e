"""Birth-rate sequences and the text grammar used by the CLI and configs.

Grammar (numbers are decimal, optional exponent, strictly positive, finite):

    poly:<c>:<p>      mu_n = c * (n+1)**p
    geom:<a>          mu_n = a**n
    const:<c>         mu_n = c
    list:<v1>,<v2>,.. explicit rates; queries past the end are errors

Parsing emits errors with a character offset.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .operators import NonFiniteError

_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")


class RateSpecError(ValueError):
    """Malformed rate-spec text; `offset` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class RateRangeError(IndexError):
    """Query beyond the range on which the rates are defined."""


class RateSequence:
    """Base for positive rate sequences mu_0, mu_1, ...: each family writes
    mu once, in `mu_array(start, count)`; `mu(n)` is its one-element case."""

    def mu(self, n: int) -> float:
        return float(self.mu_array(n, 1)[0])

    def finite_mu_array(self, start: int, count: int) -> np.ndarray:
        """mu_array(start, count), refused with NonFiniteError at the first
        rate that is not finite, such as a**n beyond the float range."""
        with np.errstate(over="ignore"):
            mu = self.mu_array(start, count)
        if not np.isfinite(mu).all():
            n = int(np.flatnonzero(~np.isfinite(mu))[0])
            raise NonFiniteError(f"refusing the non-finite rate mu_{start + n} = {mu[n]}")
        return mu

    def first_nonfinite(self, levels: int) -> Optional[int]:
        """The first n < levels whose mu_n is not finite, or None, bisected
        from the top level in O(log levels) reads: only a run of top levels
        can overflow, in a monotone family from a finite mu_0 as in a list,
        whose rates are finite (and which raises RateRangeError when shorter
        than levels)."""
        def overflows(n: int) -> bool:
            with np.errstate(over="ignore"):
                return not math.isfinite(self.mu(n))

        if not overflows(levels - 1):
            return None
        return bisect.bisect_left(range(levels), True, key=overflows)

    def inverse_tail(self, start: int) -> float:
        """Upper bound on sum_{j >= start} 1/mu_j, non-increasing in start and
        finite whenever the true sum converges (so inf certifies divergence).

        For explicit lists only the listed range is summed; there is no tail
        to bound.
        """
        raise NotImplementedError


PowerSums = Callable[[int], tuple]


class MonotoneRates(RateSequence):
    """A family with mu_n monotone in n from a finite mu_0, so that ratios
    lam/mu_n are monotone too and only a run of top levels can overflow, and
    with the power sums of ratios that vary in closed form (constant ratios,
    whose log sum is count * log1p(x), have none)."""

    def power_sums(self, lam: float, start: int, count: int) -> PowerSums:
        """k -> (pieces, bound): float pieces that sum to S_k / k, S_k =
        sum_{j=start}^{start+count-1} (lam/mu_j)^k, and a bound on the error
        of that sum, for k >= 1."""
        raise NotImplementedError


def _check_index(n: int, count: int = 0) -> int:
    """Start index n of a run of `count` rates; both must be nonnegative."""
    n = int(n)
    if n < 0:
        raise RateRangeError(f"rate index must be nonnegative, got {n}")
    if count < 0:
        raise RateRangeError(f"rate count must be nonnegative, got {count}")
    return n


@dataclass(frozen=True)
class PolynomialRates(MonotoneRates):
    """mu_n = c * (n+1)**p."""

    c: float
    p: float

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 < self.p < math.inf):
            raise ValueError("polynomial rates need finite c > 0 and p > 0")

    def mu_array(self, start: int, count: int) -> np.ndarray:
        _check_index(start, count)
        return self.c * (np.arange(start, start + count) + 1.0) ** self.p

    def inverse_tail(self, start: int) -> float:
        _check_index(start)
        if self.p <= 1:
            return math.inf
        # sum_{j>=s} (j+1)^{-p} <= integral_s^inf x^{-p} dx, valid for s >= 1
        s = max(start, 1)
        head = sum(1.0 / self.mu(j) for j in range(start, s))
        return head + s ** (1.0 - self.p) / ((self.p - 1.0) * self.c)

    def power_sums(self, lam: float, start: int, count: int) -> PowerSums:
        """S_k = (lam/c)^k sum_{m=a}^b m^(-s), s = pk, m = j + 1, by
        Euler-Maclaurin through the B4 term (DLMF 2.10.1), with b - a exact.
        m^(-s) is completely monotone, so the remainder lies between 0 and the
        B6 term, and below its b = inf value (lam/c)^k (s)_5 / (30240 a^(s+5))."""
        with np.errstate(over="ignore"):
            x = lam / self.mu(start)
        p = self.p
        a, b = start + 1.0, start + float(count)
        log_r = -math.log1p((count - 1) / a)  # log(a/b)
        lead = x * a  # (lam/c) a^(1-p)

        def power_sum(k: int) -> tuple[list, float]:
            s = p * k
            coef = lead * x ** (k - 1) / k  # (lam/c)^k a^(1-s) / k
            r_s = math.exp(s * log_r)  # (a/b)^s
            integral = -log_r if s == 1 else -math.expm1((s - 1) * log_r) / (s - 1)
            ends = ((1 + r_s) / 2 + s / 12 * (1 / a - r_s / b)
                    - s * (s + 1) * (s + 2) / 720 * (a ** -3 - r_s / b ** 3)) / a
            b6 = s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240 / a ** 6
            return [coef * integral, coef * ends], coef * b6

        return power_sum


@dataclass(frozen=True)
class GeometricRates(MonotoneRates):
    """mu_n = a**n."""

    a: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError("geometric rates need a finite a > 0")

    def mu_array(self, start: int, count: int) -> np.ndarray:
        _check_index(start, count)
        return self.a ** np.arange(start, start + count, dtype=float)

    def inverse_tail(self, start: int) -> float:
        _check_index(start)
        if self.a <= 1:
            return math.inf
        return self.a ** (-start) / (1.0 - 1.0 / self.a)

    def power_sums(self, lam: float, start: int, count: int) -> PowerSums:
        """S_k is a geometric series: from the largest ratio x, at either end,
        the ratios fall by q = a^(-1) or a per level, whichever is below 1
        (a = 1, constant ratios, has q = 1 and no such closed form)."""
        with np.errstate(over="ignore"):
            x = max(lam / self.mu(start), lam / self.mu(start + count - 1))
        log_q = -abs(math.log(self.a))

        def power_sum(k: int) -> tuple[list, float]:
            return [x ** k * math.expm1(count * k * log_q) / math.expm1(k * log_q) / k], 0.0

        return power_sum


@dataclass(frozen=True)
class ConstantRates(MonotoneRates):
    """mu_n = c."""

    c: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError("constant rates need a finite c > 0")

    def mu_array(self, start: int, count: int) -> np.ndarray:
        _check_index(start, count)
        return np.full(count, self.c)

    def inverse_tail(self, start: int) -> float:
        _check_index(start)
        return math.inf


@dataclass(frozen=True)
class ExplicitRates(RateSequence):
    """A finite list of rates with no tail; never extrapolates."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("explicit rate list must be non-empty")
        if any(not 0 < v < math.inf for v in self.values):
            raise ValueError("explicit rates must all be positive and finite")
        object.__setattr__(self, "_hash", hash(self.values))

    def __hash__(self) -> int:
        # computed once: the trajectory sampler's rate cache hashes its key
        # per chunk, and a long list would cost O(len) each time
        return self._hash

    def mu_array(self, start: int, count: int) -> np.ndarray:
        _check_index(start, count)
        if start + count > len(self.values):
            raise RateRangeError(
                f"rate range [{start}, {start + count}) beyond explicit list "
                f"of length {len(self.values)}"
            )
        return np.array(self.values[start:start + count])

    def inverse_tail(self, start: int) -> float:
        _check_index(start)
        return sum(1.0 / v for v in self.values[start:])


def _parse_number(text: str, offset: int, what: str) -> float:
    token = text.strip()
    if not token:
        raise RateSpecError(f"empty {what}", offset)
    if not _NUMBER.match(token):
        raise RateSpecError(f"malformed number {token!r} in {what}", offset)
    value = float(token)
    if not 0 < value < math.inf:
        raise RateSpecError(f"{what} must be positive and finite, got {token!r}", offset)
    return value


def parse_rate_spec(text: str) -> RateSequence:
    """Parse the rate grammar; raises RateSpecError with a character offset."""
    if not isinstance(text, str):
        raise RateSpecError("rate spec must be a string", 0)
    head, sep, rest = text.partition(":")
    if not sep:
        raise RateSpecError(f"missing ':' after rate kind in {text!r}", len(text))
    body_at = len(head) + 1
    if head == "poly":
        c_text, sep2, p_text = rest.partition(":")
        if not sep2:
            raise RateSpecError("poly needs two parameters 'poly:<c>:<p>'", len(text))
        c = _parse_number(c_text, body_at, "poly coefficient")
        p = _parse_number(p_text, body_at + len(c_text) + 1, "poly exponent")
        return PolynomialRates(c=c, p=p)
    if head == "geom":
        return GeometricRates(a=_parse_number(rest, body_at, "geometric ratio"))
    if head == "const":
        return ConstantRates(c=_parse_number(rest, body_at, "constant rate"))
    if head == "list":
        if not rest.strip():
            raise RateSpecError("empty rate list", body_at)
        values = []
        at = body_at
        for item in rest.split(","):
            values.append(_parse_number(item, at, "list entry"))
            at += len(item) + 1
        return ExplicitRates(values=tuple(values))
    raise RateSpecError(f"unknown rate kind {head!r}", 0)
