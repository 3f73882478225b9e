"""The quantum birth process on finite truncations.

A particle on the levels 0, 1, 2, ... jumps from n to n+1 at rate mu_n.  The
quantum version is the standard generator with K = diag(-mu_n/2) and a single
jump operator L|n> = sqrt(mu_n)|n+1>, acting entrywise as

    (G rho)[n, m] = -(mu_n + mu_m)/2 * rho[n, m]
                    + sqrt(mu_{n-1} mu_{m-1}) * rho[n-1, m-1].

Because the jump moves indices strictly upward, the resolvent of the full
generator can be summed in closed form: entry (n, m) only involves finitely
many entries of the input, via products of factors

    sqrt(mu_{n-j} mu_{m-j}) / (lambda + (mu_{n-j} + mu_{m-j})/2) < 1.

This makes the closed form exact on the truncation and provides the oracle
for every other resolvent route in the package.

The domain probes read one band at a time: the q-th offset diagonal as a 1-D
array, band[n] = <n|rho|n+q>, which is np.diagonal(rho, q) for a matrix.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bands import band_solve, map_bands
from .generators import StandardGeneratorSpec
from .operators import as_operator, as_operator_stack
from .rates import ExplicitRates, GeometricRates, MonotoneRates, RateRangeError, \
    RateSequence, _check_index

_MAX_FACTORS = 10 ** 7
# factors multiplied before a closed-form tail may take over, and the share of
# the head's log sum within which the tail is certified, in at most _MAX_TERMS
# terms of its series
_HEAD = 2 ** 12
_TAIL_TOL = 2.0 ** -60
_MAX_TERMS = 64


@dataclass(frozen=True)
class ArrivalBracket:
    """Truncated infinite product: the tail of exact factors left after
    n_factors puts it in [value - width, value].  n_factors counts the factors
    the value represents: past a head of 2^12, poly, geom and const factors
    enter as a certified closed-form log sum.  At a floor exit, width =
    value: the first partial product <= the floor within the head, or a
    whole product at or below it.  Not covered: the rounding of the value,
    exp of the factors' log1p sum rounded once, within (4 + L) 2^-52
    relative of their exact product, L = -log(value) (poly:1:3 at lambda = 1:
    1.3e-16, one ulp, against a width of 1.0e-12), at either exit."""

    value: float
    width: float
    n_factors: int


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of the moderate-growth probe |1 - mu_{n+q}/mu_n| <= c/n."""

    moderate: bool
    c_of_q: dict
    uniform_c: float
    witness: Optional[tuple]


@dataclass(frozen=True)
class BandDecayTable:
    """Band functional of a resolvent output along n, with its geometric
    envelope sum_k gamma^k r_{n-k}."""

    q: int
    gamma: float
    n_values: tuple
    f_values: tuple
    envelope: tuple


@dataclass(frozen=True)
class LeadingColumnReport:
    """Deviation of the resolvent's first nonzero column from the
    one-dimensional formula (lambda + mu_m/2 - K)^{-1} rho|m>."""

    column: int
    max_deviation: float


def birth_generator(rates: RateSequence, dim: int) -> StandardGeneratorSpec:
    """Truncated birth generator: diagonal K, single raising jump.

    The jump out of the top level is cut (absorbing truncation), which keeps
    the generator dissipative, with equality on levels below dim-1.
    """
    if dim < 2:
        raise ValueError("need at least two levels")
    mu = rates.mu_array(0, dim)
    k = np.diag(-0.5 * mu).astype(complex)
    l = np.zeros((dim, dim), dtype=complex)
    l[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(mu[:-1])
    return StandardGeneratorSpec(K=k, jumps=(l,))


class BirthBandGenerator:
    """The truncated birth generator's action entrywise, O(dim^2):
    -(mu_n + mu_m)/2 * rho[n, m] plus sqrt(mu_{n-1}) rho[n-1, m-1] sqrt(mu_{m-1}),
    with the jump out of the top level cut.  Products are taken in
    birth_generator's order, so on finite input the two agree bit for bit up
    to the sign of a zero; its matrix is birth_generator's.  A stack of
    operators, shape (..., dim, dim), maps slice by slice, each slice bit for
    bit its own call."""

    def __init__(self, rates: RateSequence, dim: int):
        if dim < 2:
            raise ValueError("need at least two levels")
        self.rates, self.dim = rates, dim
        mu = rates.mu_array(0, dim)
        self._half = -0.5 * mu
        self._sqrt = np.sqrt(mu[:-1])

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = as_operator_stack(rho)
        if rho.shape[-1] != self.dim:
            raise ValueError(f"operator dim {rho.shape[-1]} does not match dim {self.dim}")
        half, s = self._half, self._sqrt
        # half*rho + rho*half and (s*rho)*s, each result stored into its left
        # operand: three arrays of rho's size are made, not five
        out = half[:, None] * rho
        out += rho * half[None, :]
        jump = s[:, None] * rho[..., :-1, :-1]
        jump *= s[None, :]
        out[..., 1:, 1:] += jump
        return out

    def superop_matrix(self, dim: int):
        if dim != self.dim:
            raise ValueError(f"operator dim {dim} does not match dim {self.dim}")
        return birth_generator(self.rates, dim).superop_matrix(dim)


def no_event_resolvent(rates: RateSequence, lam: float, rho: np.ndarray) -> np.ndarray:
    """Resolvent of the no-event part alone: entrywise division by
    lambda + (mu_n + mu_m)/2."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    rho = as_operator(rho)
    mu = rates.mu_array(0, rho.shape[0])
    return rho / (lam + 0.5 * (mu[:, None] + mu[None, :]))


def birth_resolvent(rates: RateSequence, lam: float, rho: np.ndarray) -> np.ndarray:
    """Closed-form resolvent of the full birth generator.

    Entry (n, m) is the finite sum over k <= min(n, m) of the product weights
    applied to rho[n-k, m-k], divided by lambda + (mu_n + mu_m)/2.  Exact on
    all represented entries because inflow only moves indices upward.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    rho = as_operator(rho)
    dim = rho.shape[0]
    mu = rates.mu_array(0, dim)
    level = np.arange(dim)
    # row i of band d sits at levels (i, i + d); padding rows get a clamped level
    mu_m = mu[np.minimum(level[:, None] + level, dim - 1)]
    return map_bands(rho, lambda bands: _solve_bands(lam, mu[:, None], mu_m, bands))


def _solve_bands(lam: float, mu_n: np.ndarray, mu_m: np.ndarray,
                 source: np.ndarray) -> np.ndarray:
    """Solve (lambda - G) X = source down axis 0 of a band array whose row i
    holds the levels with rates (mu_n, mu_m), one level above row i - 1."""
    # sqrt before multiplying: mu_n*mu_m overflows long before sqrt*sqrt
    weight = np.roll(np.sqrt(mu_n) * np.sqrt(mu_m), 1, axis=0)
    return band_solve(source, weight, lam + 0.5 * (mu_n + mu_m))


def _log1p_sums(rates: RateSequence, lam: float, n_start: int, count: int,
                floor: float) -> tuple[float, Optional[int]]:
    """The log1p sum of 1/(1 + lambda/mu_j) over `count` factors from
    j = n_start, a head or a whole list, in one pairwise sum, and None; or
    at the first partial product <= floor, found on the running sum, the
    math.fsum of the logs so far, whose product may lie an ulp above the
    floor, and the factors they hold.  A rate that overflows is a factor of
    1, a ratio that overflows a factor of 0."""
    with np.errstate(over="ignore"):
        logs = np.log1p(lam / rates.mu_array(n_start, count))
    small = np.flatnonzero(np.exp(-np.cumsum(logs)) <= floor)
    if small.size:
        k = int(small[0]) + 1
        return math.fsum(logs[:k].tolist()), k
    return float(logs.sum()), None


def _tail_terms(rates: MonotoneRates, lam: float, start: int, count: int,
                tol: float) -> list:
    """Terms that sum to sum_{j=start}^{start+count-1} log1p(lam/mu_j) in closed
    form within tol; FloatingPointError, naming start, where none is.

    Constant ratios give count * log1p(x).  Otherwise the alternating series
    sum_k (-1)^(k+1) S_k / k, S_k = sum_j (lam/mu_j)^k from rates.power_sums,
    is cut after the first K whose cut, at most x^K S_1 / (K+1) with x the
    largest ratio, and every power sum's error bound so far are <= tol.
    Beside the head of _arrival_product x <= 1/4 and S_1 <= count x, at most
    count / (0.875 _HEAD) of the head's sum, so for count < 2^26 the cut
    meets _TAIL_TOL of that sum by K = 35.  The bounds grow with count, so a
    shorter tail from the same start is certified if this one is."""
    with np.errstate(over="ignore"):
        x, x_end = lam / rates.mu(start), lam / rates.mu(start + count - 1)
    if x == x_end:  # constant ratios: const, geom:1, or a tail of one factor
        return [count * math.log1p(x)]
    x_max = max(x, x_end)
    power_sum = rates.power_sums(lam, start, count)
    terms, worst = [], 0.0
    for k in range(1, _MAX_TERMS + 1):
        pieces, remainder = power_sum(k)
        if k == 1:
            first = math.fsum(pieces)
        terms += pieces if k % 2 else [-v for v in pieces]
        worst = max(worst, remainder)
        if worst <= tol and x_max ** k * first / (k + 1) <= tol:
            return terms
    raise FloatingPointError(f"no closed-form tail of the arrival product from level "
                             f"{start} is certified within {_MAX_TERMS} terms")


def _arrival_product(rates: RateSequence, lam: float, n_start: int,
                     count: int, floor: float) -> tuple[float, int, bool]:
    """(product, factors represented, whether it stopped at the floor) of
    1/(1 + lambda/mu_j) from j = n_start, to `count` factors or the first
    partial product <= floor.  Each partial product is exp(-s), s the log1p
    sum of its factors, so it is rounded once, subnormal or not.

    _log1p_sums multiplies a list, or a count <= _HEAD, whole; else a head of
    _HEAD factors where the ratios lambda/mu_j are largest, the first or, for
    falling rates, the last.  The rest is a closed-form tail, added to the
    head's sum by math.fsum, certified to _TAIL_TOL of the head's sum.  It
    sees no ratio above 1/4: were the head's ratio nearest it above 1/4, all
    of the head's would be, their log sum would pass _HEAD log1p(1/4) = 914 >
    745 and the head's product would reach 0, a floor exit.  A floor exit in
    a closing head, whose partial product bounds the whole one, or a whole
    product at or below the floor, is one at `count`."""
    _check_index(n_start, count)
    rest = count - _HEAD if count > _HEAD and isinstance(rates, MonotoneRates) else 0
    head_start, rest_start = n_start, n_start + _HEAD
    with np.errstate(over="ignore"):
        if rest and rates.mu(n_start + count - 1) < rates.mu(n_start):
            head_start, rest_start = n_start + rest, n_start
    total, stop = _log1p_sums(rates, lam, head_start, count - rest, floor)
    if stop is not None and head_start > n_start:
        stop = count
    if stop is None and rest:
        total = math.fsum((total, *_tail_terms(rates, lam, rest_start, rest,
                                                _TAIL_TOL * total)))
        if math.exp(-total) <= floor:
            stop = count
    return math.exp(-total), (count if stop is None else stop), stop is not None


def arrival_partial_product(rates: RateSequence, lam: float, n_start: int,
                            count: int) -> float:
    """Product of 1/(1 + lambda/mu_j) over exactly `count` factors from j = n_start:
    the Laplace transform of the time to climb through these levels, so with
    count = N - n_start the defect of the chain truncated at N from level n_start.
    A poly, geom or const product, rising or falling, multiplies about 2^12
    factors, at its largest ratios, and costs O(1) in count beyond them, by
    the closed-form tail of _arrival_product."""
    if not lam >= 0:
        raise ValueError("lambda must be nonnegative")
    return _arrival_product(rates, lam, n_start, count, 0.0)[0]  # 0 stays 0


def arrival_laplace(rates: RateSequence, lam: float, n_start: int = 0,
                    tail_tol: float = 1e-12) -> ArrivalBracket:
    """Laplace transform of the arrival-at-infinity density, the infinite product
    prod_{j >= n_start} 1/(1 + lambda/mu_j), enclosed in [value - width, value].

    It is exactly 0 when sum_j 1/mu_j diverges (conservative case).  Otherwise
    the product runs over the first J factors, J bisected for the tail bound
    lambda * sum_{j >= J} 1/mu_j to certify the bracket to tail_tol, or up to
    the first partial product <= tail_tol, or the whole J-factor product
    where a closed-form tail brings it to tail_tol or below (the floor exits,
    [0, value]); RuntimeError when none can happen within _MAX_FACTORS
    factors.  Of the J factors (poly:1:3 at lambda = 1: 707,107) about 2^12
    are multiplied and the rest summed in closed form, as _arrival_product
    says.  An explicit list is multiplied whole and must leave a provably
    negligible tail.
    """
    if not lam >= 0:
        raise ValueError("lambda must be nonnegative")
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    if lam == 0:
        return ArrivalBracket(value=1.0, width=0.0, n_factors=0)
    if isinstance(rates, ExplicitRates):
        count = len(rates.values) - n_start
        if count <= 0:
            raise RateRangeError(f"explicit list has no rates from {n_start} on")
        product = arrival_partial_product(rates, lam, n_start, count)
        if product > tail_tol:
            raise RateRangeError(f"explicit rate list too short: partial product "
                                 f"{product:.3e} over {count} factors leaves a tail "
                                 "that is not provably negligible")
        return ArrivalBracket(value=product, width=product, n_factors=count)
    if math.isinf(rates.inverse_tail(n_start)):
        return ArrivalBracket(value=0.0, width=0.0, n_factors=0)
    # the tail bound is non-increasing: bisect for the first certified count
    first = 1 + bisect.bisect_left(range(1, _MAX_FACTORS + 1), True, key=lambda k:
                                   lam * rates.inverse_tail(n_start + k) < tail_tol)
    last = min(first, _MAX_FACTORS)
    # 1/(1+x) >= exp(-x) for x >= 0: no partial product falls below exp(-lam *
    # inverse_tail(n_start)), and a neglected tail lies in [exp(-its bound), 1]
    if first <= _MAX_FACTORS or math.exp(-lam * rates.inverse_tail(n_start)) <= tail_tol:
        product, n_factors, floored = _arrival_product(rates, lam, n_start, last, tail_tol)
        if floored:
            return ArrivalBracket(value=product, width=product, n_factors=n_factors)
        if first <= _MAX_FACTORS:
            width = -product * math.expm1(-lam * rates.inverse_tail(n_start + last))
            return ArrivalBracket(value=product, width=width, n_factors=last)
    raise RuntimeError(f"no certified bracket after {_MAX_FACTORS} factors")


def conservativity_defect(rates: RateSequence, lam: float, rho: np.ndarray) -> float:
    """Normalization loss tr rho - lambda tr R_lambda rho over the truncation
    carried by rho.  The truncation cuts the jump out of the top level N-1, so
    tr G X = -mu_{N-1} X[N-1, N-1] and the loss is the flux
    mu_{N-1} <N-1|R_lambda rho|N-1>, read off without forming a difference."""
    resolved = birth_resolvent(rates, lam, rho)
    return float(rates.mu(resolved.shape[0] - 1) * resolved[-1, -1].real)


def band_functional(rates: RateSequence, band: np.ndarray, q: int,
                    n_probe: int):
    """Probe the limit of F(n) = (mu_n + mu_{n+q})/2 * band[n] along the
    q-th band band[n] = <n|rho|n+q>.

    The limit exists for every generator-domain element; it vanishes on the
    no-event domain and picks out the normalization flux for q = 0.  Returns
    (F(n_probe), converged) where converged means the probe lies within 1e-2
    of the half-way point n_probe // 2.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if n_probe < 2:
        raise ValueError("n_probe must be at least 2")
    band = _as_band(band)
    if n_probe >= band.size:
        raise RateRangeError(f"probe {n_probe} outside stored band of length {band.size}")
    mu = rates.mu_array(0, n_probe + q + 1)

    def f(n: int) -> complex:
        return 0.5 * (mu[n] + mu[n + q]) * band[n]

    estimate = f(n_probe)
    return estimate, bool(abs(estimate - f(n_probe // 2)) < 1e-2)


def domain_band(rates: RateSequence, q: int, length: int) -> np.ndarray:
    """The band 2/(mu_n + mu_{n+q}), n < length, of the domain element
    sum_n 2/(mu_n + mu_{n+q}) |n><n+q|."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return 2.0 / (rates.mu_array(0, length) + rates.mu_array(q, length))


def band_domain_element(rates: RateSequence, q: int, dim: int) -> np.ndarray:
    """Band matrix sum_n 2/(mu_n + mu_{n+q}) |n><n+q| on the truncation.

    For q = 0 this is the diagonal state with entries 1/mu_n whose trace
    grows to the expected explosion time; under moderate rate growth it lies
    in the generator domain with unit normalization flux.
    """
    if dim <= q:
        raise ValueError("truncation too small for the requested band")
    return np.diag(domain_band(rates, q, dim - q).astype(complex), q)


def _as_band(band: np.ndarray) -> np.ndarray:
    band = np.asarray(band)
    if band.ndim != 1:
        raise ValueError("a band is a 1-D offset diagonal, np.diagonal(rho, q)")
    return band


def am_gm_gap(a: float, b: float) -> float:
    """(sqrt(a) - sqrt(b))^2 / (a + b): the arithmetic/geometric mean gap
    1 - 2 sqrt(ab)/(a+b), bounded by (1 - b/a)^2."""
    if not (a > 0 and b > 0):
        raise ValueError("arguments must be positive")
    return (math.sqrt(a) - math.sqrt(b)) ** 2 / (a + b)


def moderate_growth_report(rates: RateSequence, q_max: int, n_max: int
                           ) -> GrowthReport:
    """Probe n * |1 - mu_{n+q}/mu_n| for q = 1..q_max, n = 1..n_max.

    `c_of_q[q]` is the largest probed value.  The sequence counts as moderate
    when it plateaus: the maximum over the last decade of n must not exceed
    1.05 times the running bound established before it (per q).  Reports a
    per-q constant, the uniform constant over all probed q, and a violating
    (q, n) pair when not moderate.
    """
    if q_max < 1 or n_max < 20:
        raise ValueError("need q_max >= 1 and n_max >= 20")
    c_of_q = {}
    moderate = True
    witness = None
    cutoff = n_max // 10
    for q in range(1, q_max + 1):
        n = np.arange(1, n_max + 1)
        ratios = rates.mu_array(1 + q, n_max) / rates.mu_array(1, n_max)
        values = n * np.abs(1.0 - ratios)
        c_of_q[q] = float(values.max())
        early = float(values[:cutoff].max())
        late = float(values[cutoff:].max())
        if late > 1.05 * early:
            moderate = False
            if witness is None:
                n_bad = int(cutoff + 1 + np.argmax(values[cutoff:]))
                witness = (q, n_bad)
    return GrowthReport(moderate=moderate, c_of_q=c_of_q,
                        uniform_c=float(max(c_of_q.values())), witness=witness)


def geometric_band_decay(rates: RateSequence, q: int, lam: float,
                         band: np.ndarray, n_values: Sequence[int]
                         ) -> BandDecayTable:
    """Decay table of the band functional along the resolvent output of the
    q-th band band[n] = <n|rho|n+q>, for geometrically growing rates
    mu_n = a^n; the band reads as zero past its end.

    Every product factor on the q-th band is bounded by
    gamma = 2 a^{q/2} / (1 + a^q) < 1, so F(n) is dominated by the
    convolution envelope sum_k gamma^k |band[n-k]| and decays to zero.
    """
    if not isinstance(rates, GeometricRates):
        raise TypeError("geometric_band_decay requires geometric rates")
    if q < 1:
        raise ValueError("q must be at least 1")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    a = rates.a
    gamma = 2.0 * a ** (q / 2.0) / (1.0 + a ** q)
    band = _as_band(band)
    n_sorted = sorted(_check_index(v) for v in n_values)
    length = n_sorted[-1] + 1 if n_sorted else 0
    source = np.zeros(length, dtype=complex)
    source[:band.size] = band[:length]
    mu = rates.mu_array(0, length + q)
    resolved = _solve_bands(lam, mu[:length], mu[q:], source)
    envelope = band_solve(np.abs(source), gamma, 1.0)
    f_values = tuple(float(abs(0.5 * (mu[n] + mu[n + q]) * resolved[n]))
                     for n in n_sorted)
    return BandDecayTable(q=q, gamma=gamma, n_values=tuple(n_sorted),
                          f_values=f_values,
                          envelope=tuple(float(envelope[n]) for n in n_sorted))


def leading_column_report(rates: RateSequence, lam: float, rho: np.ndarray
                          ) -> LeadingColumnReport:
    """Check the column identity behind "no new pure states".

    With m the smallest index for which rho|m> != 0, the resolvent column
    R_lambda rho |m> must equal (lambda + mu_m/2 - K)^{-1} rho|m>, i.e. the
    k = 0 term alone survives.
    """
    rho = as_operator(rho)
    cols = np.abs(rho).sum(axis=0)
    nonzero = np.nonzero(cols)[0]
    if nonzero.size == 0:
        raise ValueError("rho must be nonzero")
    m = int(nonzero[0])
    dim = rho.shape[0]
    mu = rates.mu_array(0, dim)
    resolved = birth_resolvent(rates, lam, rho)[:, m]
    expected = rho[:, m] / (lam + 0.5 * (mu[m] + mu))
    return LeadingColumnReport(column=m,
                               max_deviation=float(np.abs(resolved - expected).max()))
