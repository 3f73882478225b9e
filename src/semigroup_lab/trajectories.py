"""Stochastic realization of the birth process, plus the half-sided shift
arrival-density demo.

Trajectories are drawn in blocks of _BLOCK; the trajectories of one block
draw in turn from one deterministic stream keyed by (master_seed, block id).
Identical keys reproduce identical blocks no matter in which order or on how
many workers the blocks are drawn.

iter_trajectories draws each block's standard exponentials _DRAWS at a time
and hands them out in order, so a trajectory costs no Generator call of its
own.  Generator.standard_exponential fills its values one after another from
the bit generator and keeps no state between calls, so each trajectory gets
the bits it would get from the Generator itself; what the block's last
trajectory leaves of a draw is dropped with the block.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bands import band_solve
from .operators import as_operator
from .rates import RateSequence

_CHUNK = 64
_BLOCK = 4096
_DRAWS = 2 ** 15  # standard exponentials per Generator call: 256 KB
_RATE_CHUNKS_MAX = 128


class BiasCheckError(RuntimeError):
    """Trajectory truncation bias is not negligible against the Monte Carlo
    standard error; increase max_jumps."""


@dataclass(frozen=True)
class TrajectoryStreams:
    """Splittable, counter-addressable random streams for trajectories:
    stream(b) serves the trajectories of block b, keyed by
    (master_seed, block id)."""

    master_seed: int

    def stream(self, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=(index,))
        )


class TrajectorySample(NamedTuple):
    """One trajectory: an immutable named tuple that unpacks as (jump_times,
    final_level, exploded_within_horizon, horizon).  It is built at a
    tuple's cost, 0.3-0.5 us against 1.2 us for a frozen slots dataclass on
    a 2-core host, once per trajectory."""

    jump_times: np.ndarray
    final_level: int
    exploded_within_horizon: bool
    horizon: float


@dataclass(frozen=True)
class ShiftArrivalTable:
    """Arrival density |psi(t)|^2 of the half-sided shift at the origin."""

    times: np.ndarray
    density: np.ndarray
    cumulative: np.ndarray
    norm_sq: float


class _BufferedExponentials:
    """The standard_exponential(n) of one Generator, drawn _DRAWS at a time:
    the next n values of its stream.  A request that runs past a draw joins
    that draw's tail to the head of the next."""

    __slots__ = ("_rng", "_draw", "_next")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._draw = np.empty(0)
        self._next = 0

    def standard_exponential(self, n: int) -> np.ndarray:
        start = self._next
        self._next = end = start + n
        if end <= self._draw.size:
            return self._draw[start:end]
        tail = self._draw[start:]
        self._draw = self._rng.standard_exponential(max(_DRAWS, n - tail.size))
        self._next = n - tail.size
        return np.concatenate((tail, self._draw[:self._next]))


# (id(rates), level, count) -> (rates, read-only rates chunk), oldest first
_rate_chunks: dict = {}


def _rate_chunk(rates: RateSequence, level: int, count: int) -> np.ndarray:
    """rates.finite_mu_array(level, count), shared read-only between calls;
    a NonFiniteError is raised again on every call, never cached.

    The cache is keyed by the identity of `rates`, so a lookup runs neither
    its __hash__ nor its __eq__; each entry holds `rates` itself, so that id
    cannot pass to another object while the entry lives.  It keeps the
    _RATE_CHUNKS_MAX newest entries.
    """
    key = (id(rates), level, count)
    entry = _rate_chunks.get(key)
    if entry is not None:
        return entry[1]
    mu = rates.finite_mu_array(level, count)
    mu.flags.writeable = False
    if len(_rate_chunks) >= _RATE_CHUNKS_MAX:
        del _rate_chunks[next(iter(_rate_chunks))]
    _rate_chunks[key] = (rates, mu)
    return mu


def sample_trajectory(rates: RateSequence, n_start: int, horizon: float,
                      max_jumps: int, rng: np.random.Generator
                      ) -> TrajectorySample:
    """Draw one trajectory: holding times E/mu_n with E standard exponential.

    Stops at the horizon (which may be infinite, but not NaN) or after
    max_jumps jumps; the explosion flag is set when the max_jumps-th jump
    still falls inside the horizon.  A rate that is not finite would give
    holding times of 0 up to the jump cap; it is refused with NonFiniteError
    naming its level.  Each chunk of rates, at the levels n_start + k*_CHUNK,
    comes from a bounded cache keyed by (id(rates), level, count).  `rng` is
    a Generator, or anything whose standard_exponential(n) returns the next
    n values of a stream.  The jump times own their data: a trajectory that
    stops inside a chunk keeps a copy of its prefix, not a view that would
    hold the whole chunk alive.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if max_jumps < 1:
        raise ValueError("max_jumps must be at least 1")
    start = level = int(n_start)
    chunk = min(_CHUNK, max_jumps)
    # np.add.accumulate is ndarray.cumsum, bit for bit, without its dispatch
    times = np.add.accumulate(rng.standard_exponential(chunk)
                              / _rate_chunk(rates, level, chunk))
    # the jump times are non-decreasing, so a chunk lies inside the horizon
    # (a tie counts as inside) when its last time does
    if times[-1] > horizon:
        n_in = int(times.searchsorted(horizon, "right"))
        return TrajectorySample(times[:n_in].copy(), level + n_in, False, horizon)
    level += chunk
    if chunk == max_jumps:
        return TrajectorySample(times, level, True, horizon)
    parts = [times]
    while level - start < max_jumps:
        chunk = min(_CHUNK, max_jumps - (level - start))
        cum = np.add.accumulate(rng.standard_exponential(chunk)
                                / _rate_chunk(rates, level, chunk))
        cum += parts[-1][-1]  # non-decreasing from the last jump time
        if cum[-1] > horizon:
            n_in = int(cum.searchsorted(horizon, "right"))
            parts.append(cum[:n_in])
            return TrajectorySample(np.concatenate(parts), level + n_in, False, horizon)
        parts.append(cum)
        level += chunk
    return TrajectorySample(np.concatenate(parts), level, True, horizon)


def iter_trajectories(rates: RateSequence, n_start: int, horizon: float,
                      max_jumps: int, streams: TrajectoryStreams,
                      count: int) -> Iterator[TrajectorySample]:
    """Draw `count` trajectories one at a time: trajectory i is drawn from
    stream i // _BLOCK, after the earlier trajectories of its block, through
    that stream's _DRAWS-value draws."""
    for first in range(0, count, _BLOCK):
        rng = _BufferedExponentials(streams.stream(first // _BLOCK))
        for _ in range(min(_BLOCK, count - first)):
            yield sample_trajectory(rates, n_start, horizon, max_jumps, rng)


def sample_trajectories(rates: RateSequence, n_start: int, horizon: float,
                        max_jumps: int, streams: TrajectoryStreams,
                        count: int) -> list:
    """The trajectories of iter_trajectories, as a list."""
    return list(iter_trajectories(rates, n_start, horizon, max_jumps, streams, count))


def _mean_se(values: np.ndarray):
    """Sample mean and its standard error (0 for a single sample)."""
    if not values.size:
        raise ValueError("no samples")
    se = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), float(se)


def empirical_laplace(samples: Iterable[TrajectorySample],
                      lams: Iterable[float], rates: RateSequence) -> list:
    """Monte Carlo estimates of E[exp(-lambda T)] over explosion times T, one
    per lambda of `lams`, from one pass over the samples.

    `samples` may be any iterable, iter_trajectories among them: each sample
    leaves only its end time (8 B) and, if it hit the jump cap, a count on
    its final level behind, so the samples need not be held at once.

    Trajectories stopped by the horizon contribute the one-sided upper bound
    exp(-lambda * horizon), per the estimator's contract.  Trajectories that
    hit the jump cap truncate the explosion time; their mean residual
    holding time (bounded by the inverse-rate tail) must stay below the
    standard error at every lambda, otherwise BiasCheckError is raised.

    Returns [(mean, standard_error)], in the order of `lams`.
    """
    lams = list(lams)
    if not lams:
        raise ValueError("no lambda")
    if not all(lam >= 0 for lam in lams):
        raise ValueError("lambda must be nonnegative")
    ends = array("d")
    levels = Counter()
    for times, level, exploded, horizon in samples:
        if exploded:
            ends.append(times[-1])
            levels[level] += 1
        else:
            ends.append(horizon)
    ends = np.frombuffer(ends)
    # the unobserved tail of each truncated explosion time shifts
    # exp(-lam T) by at most lam * inverse_tail(final level)
    tail = sum(n * rates.inverse_tail(level) for level, n in levels.items())
    estimates = []
    for lam in lams:
        mean, se = _mean_se(np.exp(-lam * ends))
        bias = lam * tail / ends.size
        if lam > 0 and bias > max(se, 1e-15):
            raise BiasCheckError(
                f"truncation bias bound {bias:.3e} exceeds standard error {se:.3e}; "
                "increase max_jumps or the horizon"
            )
        estimates.append((mean, se))
    return estimates


def n_event_laplace_term(rates: RateSequence, lam: float, k: int,
                         rho: np.ndarray) -> float:
    """Laplace weight of the k-event sector: tr(R0 (P R0)^k rho) for the
    birth model.  Weight starting on level s sits on level s + i after i
    events, so one sweep over i serves every s inside the truncation."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    rho = as_operator(rho)
    if rho.shape[0] < 2 or not lam > 0:
        raise ValueError("need at least two levels and a positive lambda")
    mu = rates.mu_array(0, rho.shape[0])
    level = np.arange(k + 1)[:, None] + np.arange(rho.shape[0] - k)
    source = np.zeros(level.shape)
    source[0] = np.diagonal(rho).real[:level.shape[1]]
    return float(band_solve(source, mu[level - 1], lam + mu[level])[-1].sum())


def event_count_estimator(samples: Sequence[TrajectorySample], lam: float,
                          k: int):
    """Monte Carlo companion of n_event_laplace_term:
    mean of (exp(-lam T_k) - exp(-lam T_{k+1}))/lam with T_0 = 0 and jump
    times capped at the horizon.  Returns (mean, standard_error)."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")

    def capped(s: TrajectorySample, j: int) -> float:  # T_j
        return s.horizon if j > len(s.jump_times) else s.jump_times[j - 1] if j else 0.0

    t = np.array([(capped(s, k), capped(s, k + 1)) for s in samples]).reshape(-1, 2)
    return _mean_se((np.exp(-lam * t[:, 0]) - np.exp(-lam * t[:, 1])) / lam)


def shift_arrival_density(psi: Sequence[complex], h: float) -> ShiftArrivalTable:
    """Arrival density of the half-sided shift at the origin.

    `psi` holds samples of the wave function on the uniform grid x_i = i*h.
    The density at time t is |psi(t)|^2 (the shifted boundary value) and its
    cumulative never exceeds the squared norm of psi.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size < 2:
        raise ValueError("psi must be a vector of at least two samples")
    if not h > 0:
        raise ValueError("grid spacing must be positive")
    times = h * np.arange(psi.size)
    density = np.abs(psi) ** 2
    norm_sq = float(np.trapezoid(density, dx=h))
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(times))]
    )
    return ShiftArrivalTable(times=times, density=density,
                             cumulative=cumulative, norm_sq=norm_sq)
