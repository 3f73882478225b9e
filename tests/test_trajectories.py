import math
import warnings

import numpy as np
import pytest

from semigroup_lab import (
    BiasCheckError,
    NonFiniteError,
    TrajectorySample,
    TrajectoryStreams,
    arrival_laplace,
    birth_resolvent,
    empirical_laplace,
    event_count_estimator,
    iter_trajectories,
    matrix_unit,
    n_event_laplace_term,
    sample_trajectories,
    sample_trajectory,
    shift_arrival_density,
)
from semigroup_lab.rates import ConstantRates, ExplicitRates, GeometricRates, \
    PolynomialRates
from semigroup_lab import trajectories
from semigroup_lab.trajectories import _BLOCK, _CHUNK, _DRAWS, \
    _BufferedExponentials, _rate_chunk

GEO = GeometricRates(2.0)
SEED = 20260810


# per-sample loops: the reference the array estimators are checked against
def loop_sample_trajectory(rates, n_start, horizon, max_jumps, rng):
    """One trajectory, chunk by chunk, as a list of views joined at the end:
    the reference for sample_trajectory's draws."""
    parts = []
    level = int(n_start)
    t = 0.0
    while level - n_start < max_jumps:
        chunk = min(_CHUNK, max_jumps - (level - n_start))
        mu = rates.finite_mu_array(level, chunk)
        cum = t + np.cumsum(rng.standard_exponential(chunk) / mu)
        n_in = int(np.searchsorted(cum, horizon, side="right"))
        parts.append(cum[:n_in])
        level += n_in
        if n_in < chunk:
            return TrajectorySample(jump_times=np.concatenate(parts),
                                    final_level=level,
                                    exploded_within_horizon=False,
                                    horizon=horizon)
        t = cum[-1]
    return TrajectorySample(jump_times=np.concatenate(parts), final_level=level,
                            exploded_within_horizon=True, horizon=horizon)


def loop_empirical_laplace(samples, lam, rates):
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not samples:
        raise ValueError("no samples")
    values = np.empty(len(samples))
    bias = 0.0
    for i, s in enumerate(samples):
        if s.exploded_within_horizon:
            values[i] = math.exp(-lam * s.jump_times[-1])
            bias += lam * rates.inverse_tail(s.final_level)
        else:
            values[i] = math.exp(-lam * s.horizon)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    bias /= len(samples)
    if lam > 0 and bias > max(se, 1e-15):
        raise BiasCheckError("truncation bias bound exceeds standard error")
    return mean, se


def loop_event_count_estimator(samples, lam, k):
    values = np.empty(len(samples))
    for i, s in enumerate(samples):
        t_k = s.jump_times[k - 1] if k >= 1 and len(s.jump_times) >= k else (
            0.0 if k == 0 else s.horizon)
        t_next = s.jump_times[k] if len(s.jump_times) >= k + 1 else s.horizon
        values[i] = (math.exp(-lam * t_k) - math.exp(-lam * t_next)) / lam
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, se


def mixed_samples():
    """Exploded (three final levels), horizon-stopped and jump-free samples,
    interleaved."""
    streams = TrajectoryStreams(master_seed=SEED)
    groups = [sample_trajectories(GEO, n_start, 50.0, 12, streams, 300)
              for n_start in (0, 2, 5)]
    groups.append(sample_trajectories(ConstantRates(3.0), 0, 1.5, 200, streams, 300))
    groups.append([TrajectorySample(jump_times=np.array([]), final_level=0,
                                    exploded_within_horizon=False, horizon=0.25)] * 7)
    mixed = [s for group in zip(*groups[:4]) for s in group] + groups[4]
    assert len({s.final_level for s in mixed if s.exploded_within_horizon}) == 3
    assert sum(not s.exploded_within_horizon for s in mixed) == 307
    return mixed


class TestSampling:
    def test_reproducibility(self):
        streams = TrajectoryStreams(master_seed=7)
        a = sample_trajectory(GEO, 0, 10.0, 16, streams.stream(3))
        b = sample_trajectory(GEO, 0, 10.0, 16, streams.stream(3))
        assert np.array_equal(a.jump_times, b.jump_times)
        assert a.final_level == b.final_level

    def test_order_independence(self):
        streams = TrajectoryStreams(master_seed=11)
        forward = [sample_trajectory(GEO, 0, 10.0, 16, streams.stream(i))
                   for i in range(8)]
        backward = [sample_trajectory(GEO, 0, 10.0, 16, streams.stream(i))
                    for i in reversed(range(8))][::-1]
        for a, b in zip(forward, backward):
            assert np.array_equal(a.jump_times, b.jump_times)

    def test_invariants(self):
        streams = TrajectoryStreams(master_seed=5)
        for i in range(50):
            s = sample_trajectory(GEO, 0, 30.0, 16, streams.stream(i))
            assert np.all(np.diff(s.jump_times) > 0)
            assert s.final_level == len(s.jump_times)
            if s.exploded_within_horizon:
                assert len(s.jump_times) == 16
                assert s.jump_times[-1] <= s.horizon

    def test_explosion_time_mean(self):
        # holding times are Exp(2^-n): the total is sum 2^-n = 2 on average
        streams = TrajectoryStreams(master_seed=SEED)
        samples = sample_trajectories(GEO, 0, 50.0, 16, streams, 20_000)
        totals = np.array([s.jump_times[-1] for s in samples
                           if s.exploded_within_horizon])
        assert len(totals) == 20_000
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        truncation = 2.0 ** -15  # mean holding time beyond the jump cap
        assert abs(totals.mean() - (2.0 - truncation)) <= 3.0 * se

    def test_poisson_jump_count(self):
        rates = ConstantRates(3.0)
        streams = TrajectoryStreams(master_seed=SEED)
        horizon = 2.0
        samples = sample_trajectories(rates, 0, horizon, 200, streams, 20_000)
        counts = np.array([len(s.jump_times) for s in samples])
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - 3.0 * horizon) <= 3.0 * se

    def test_validates_arguments(self):
        streams = TrajectoryStreams(master_seed=0)
        with pytest.raises(ValueError):
            sample_trajectory(GEO, 0, 0.0, 5, streams.stream(0))
        with pytest.raises(ValueError):
            sample_trajectory(GEO, 0, 1.0, 0, streams.stream(0))
        # a NaN horizon compares false with every jump time: linear rates
        # would run to the jump cap and be flagged as exploded
        with pytest.raises(ValueError, match="horizon must be positive"):
            sample_trajectory(PolynomialRates(1, 1), 0, math.nan, 100, streams.stream(0))

    def test_infinite_horizon_runs_to_the_jump_cap(self):
        s = sample_trajectory(PolynomialRates(1, 1), 0, math.inf, 100,
                              TrajectoryStreams(master_seed=0).stream(0))
        assert s.final_level == len(s.jump_times) == 100
        assert s.exploded_within_horizon

    @pytest.mark.parametrize("n_start, level", [(1030, 1030), (1000, 1024)])
    def test_overflowed_rate_refused_by_level(self, n_start, level):
        # mu_n = 2**n is inf from n = 1024; its holding times would all be 0
        # refused on every call: the failed rate chunk is never cached
        rng = TrajectoryStreams(master_seed=0).stream(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                with pytest.raises(NonFiniteError, match=f"mu_{level} = inf"):
                    sample_trajectory(GEO, n_start, 50.0, 100_000, rng)


def same_trajectory(a, b):
    return (np.array_equal(a.jump_times, b.jump_times)
            and a.final_level == b.final_level
            and a.exploded_within_horizon == b.exploded_within_horizon)


LINEAR = PolynomialRates(1.0, 1.0)
FIELDS = ("jump_times", "final_level", "exploded_within_horizon", "horizon")


def tie(rates, k, max_jumps):
    """A row whose horizon is the k-th jump time of the first trajectory
    that stream 0 draws for it: that jump ties with the horizon."""
    rng = TrajectoryStreams(master_seed=SEED).stream(0)
    times = loop_sample_trajectory(rates, 0, math.inf, max_jumps, rng).jump_times
    return rates, 0, float(times[k - 1]), max_jumps


# a tie at the end of a full first chunk, with one chunk and with two, and
# ties inside the first and the second chunk
TIES = [tie(GEO, 64, 64), tie(GEO, 64, 65), tie(LINEAR, 10, 64), tie(LINEAR, 100, 500)]


class TestSamplerMatchesLoop:
    # (rates, n_start, horizon, max_jumps): jump caps around and past one
    # chunk, horizons that stop linear rates inside the first, second and
    # later chunks, no horizon at all, a later start, an explicit list, and
    # horizons on a jump time
    @pytest.mark.parametrize("rates, n_start, horizon, max_jumps", [
        *[(GEO, 0, 50.0, m) for m in (1, 63, 64, 65, 130, 500)],
        (LINEAR, 0, 2.0, 500),
        (LINEAR, 0, 4.5, 500),
        (LINEAR, 0, math.inf, 130),
        (GEO, 7, 50.0, 130),
        (ExplicitRates(tuple(1.0 + 0.5 * j for j in range(100))), 0, 4.0, 100),
        *TIES,
    ])
    def test_same_draws_as_the_loop(self, rates, n_start, horizon, max_jumps):
        seed = TrajectoryStreams(master_seed=SEED)
        rng, ref_rng = seed.stream(0), seed.stream(0)
        for _ in range(200):
            s = sample_trajectory(rates, n_start, horizon, max_jumps, rng)
            ref = loop_sample_trajectory(rates, n_start, horizon, max_jumps, ref_rng)
            assert same_trajectory(s, ref)
            assert s.horizon == ref.horizon and type(s.final_level) is int
            # a view of a longer chunk would keep that whole chunk alive, and
            # a record with a __dict__ would cost one more object per sample
            assert s.jump_times.flags.owndata and not hasattr(s, "__dict__")
            # an immutable record that unpacks in field order
            assert s._fields == FIELDS
            assert all(a is getattr(s, name) for a, name in zip(s, FIELDS))
            with pytest.raises(AttributeError):
                s.final_level = 0

    @pytest.mark.parametrize("rates, n_start, horizon, max_jumps", TIES)
    def test_a_tie_with_the_horizon_counts_as_inside(self, rates, n_start, horizon,
                                                     max_jumps):
        s = sample_trajectory(rates, n_start, horizon, max_jumps,
                              TrajectoryStreams(master_seed=SEED).stream(0))
        assert horizon in s.jump_times and s.jump_times[-1] == horizon

    def test_horizon_stops_inside_the_first_and_second_chunk(self):
        rng = TrajectoryStreams(master_seed=SEED).stream(0)
        stops = {sample_trajectory(LINEAR, 0, 4.5, 500, rng).final_level // _CHUNK
                 for _ in range(200)}
        assert {0, 1} <= stops


class TestBlockStreams:
    def test_prefix_stable_across_counts(self):
        streams = TrajectoryStreams(master_seed=SEED)
        longer = sample_trajectories(GEO, 0, 10.0, 16, streams, 2 * _BLOCK)
        shorter = sample_trajectories(GEO, 0, 10.0, 16, streams, _BLOCK + 10)
        assert len(shorter) == _BLOCK + 10
        assert all(map(same_trajectory, longer, shorter))

    def test_block_drawn_from_its_own_stream_alone(self):
        streams = TrajectoryStreams(master_seed=11)
        samples = sample_trajectories(GEO, 0, 10.0, 16, streams, 2 * _BLOCK + 100)
        rng = streams.stream(1)
        block = [sample_trajectory(GEO, 0, 10.0, 16, rng) for _ in range(_BLOCK)]
        assert all(map(same_trajectory, samples[_BLOCK:2 * _BLOCK], block))
        assert not same_trajectory(samples[0], block[0])

    def test_list_is_the_generator_drawn_out(self):
        # 2 * _BLOCK + 100 samples cross both block boundaries
        streams = TrajectoryStreams(master_seed=11)
        count = 2 * _BLOCK + 100
        samples = sample_trajectories(GEO, 0, 10.0, 16, streams, count)
        drawn = iter_trajectories(GEO, 0, 10.0, 16, streams, count)
        for s, d in zip(samples, drawn, strict=True):
            assert s.jump_times.tobytes() == d.jump_times.tobytes()
            assert (s.final_level, s.exploded_within_horizon, s.horizon) == (
                d.final_level, d.exploded_within_horizon, d.horizon)

    def test_rate_chunk_is_shared_and_read_only(self):
        mu = _rate_chunk(GEO, 3, 64)
        assert mu is _rate_chunk(GEO, 3, 64)
        assert np.array_equal(mu, GEO.mu_array(3, 64))
        with pytest.raises(ValueError, match="read-only"):
            mu[0] = 0.0


class UnhashableGeometric(GeometricRates):
    """Geometric rates that refuse to be hashed or compared."""

    def __eq__(self, other):
        raise AssertionError("__eq__ called")

    def __hash__(self):
        raise AssertionError("__hash__ called")


class TestBufferedDraws:
    # max_jumps 60 does not divide 2**15, so trajectory 546's request spans
    # a refill; 65 and 100 leave partial last chunks; linear rates stop at
    # horizon 4.5 in later chunks; horizon 1e-9 stops every trajectory in
    # its first chunk
    @pytest.mark.parametrize("rates, n_start, horizon, max_jumps", [
        (GEO, 0, 50.0, 60),
        (GEO, 0, 50.0, 65),
        (GEO, 0, 50.0, 100),
        (LINEAR, 0, 4.5, 500),
        (GEO, 0, 1e-9, 60),
        (GEO, 7, 50.0, 60),
    ])
    def test_same_trajectories_as_the_generator(self, rates, n_start, horizon,
                                                max_jumps):
        streams = TrajectoryStreams(master_seed=SEED)
        count = _BLOCK + 10
        drawn = list(iter_trajectories(rates, n_start, horizon, max_jumps,
                                       streams, count))
        ref = []
        for block in range(2):
            rng = streams.stream(block)
            ref += [sample_trajectory(rates, n_start, horizon, max_jumps, rng)
                    for _ in range(min(_BLOCK, count - block * _BLOCK))]
        assert len(drawn) == count
        for d, r in zip(drawn, ref):
            assert d.jump_times.tobytes() == r.jump_times.tobytes()
            assert d[1:] == r[1:]
        assert all(d.jump_times.flags.owndata for d in drawn)

    def test_a_request_across_a_refill_owns_its_times(self):
        # every trajectory explodes, so each draws exactly 60 values, and
        # trajectory 546 draws values 32760-32819 of its block: across the
        # first refill
        drawn = list(iter_trajectories(GEO, 0, 50.0, 60,
                                       TrajectoryStreams(master_seed=SEED), 547))
        assert all(s.exploded_within_horizon for s in drawn)
        assert 546 * 60 < _DRAWS < 547 * 60
        assert drawn[546].jump_times.flags.owndata

    def test_requests_across_refills_are_one_draw(self):
        # sizes that end exactly on a refill, span one, and exceed one draw
        sizes = [_DRAWS - 5, 5, 60, _DRAWS - 100, 3 * _DRAWS, 1, 64]
        buffered = _BufferedExponentials(np.random.default_rng(SEED))
        parts = [buffered.standard_exponential(n) for n in sizes]
        assert [p.size for p in parts] == sizes
        whole = np.random.default_rng(SEED).standard_exponential(sum(sizes))
        assert np.concatenate(parts).tobytes() == whole.tobytes()


class TestRateChunkCache:
    def test_identity_key_runs_no_hash_or_eq(self):
        rng, ref_rng = (TrajectoryStreams(master_seed=SEED).stream(0) for _ in range(2))
        rates = UnhashableGeometric(2.0)
        for _ in range(3):
            s = sample_trajectory(rates, 0, 50.0, 100, rng)
            assert same_trajectory(s, sample_trajectory(GEO, 0, 50.0, 100, ref_rng))

    def test_equal_distinct_objects_get_equal_chunks(self):
        a, b = GeometricRates(2.0), GeometricRates(2.0)
        assert a == b and a is not b
        mu_a, mu_b = _rate_chunk(a, 5, 64), _rate_chunk(b, 5, 64)
        assert mu_a is not mu_b and mu_a.tobytes() == mu_b.tobytes()

    def test_bounded_oldest_out(self, monkeypatch):
        monkeypatch.setattr(trajectories, "_rate_chunks", {})
        objects = [GeometricRates(2.0) for _ in range(129)]
        for rates in objects:
            _rate_chunk(rates, 0, 8)
        cache = trajectories._rate_chunks
        assert len(cache) == 128
        assert (id(objects[0]), 0, 8) not in cache
        # each entry holds its rates object, so its id cannot be reused
        assert all(cache[(id(r), 0, 8)][0] is r for r in objects[1:])


class TestEmpiricalLaplace:
    def test_lambda_zero_exact(self):
        streams = TrajectoryStreams(master_seed=3)
        samples = sample_trajectories(GEO, 0, 20.0, 16, streams, 100)
        [(mean, se)] = empirical_laplace(samples, [0.0], GEO)
        assert mean == 1.0

    def test_matches_product_formula(self):
        streams = TrajectoryStreams(master_seed=SEED)
        samples = sample_trajectories(GEO, 0, 50.0, 20, streams, 50_000)
        [(mean, se)] = empirical_laplace(samples, [1.0], GEO)
        product = arrival_laplace(GEO, 1.0).value
        assert se <= 1.5e-3
        assert abs(mean - product) <= 3.0 * se

    def test_no_explosion_bounded_by_horizon(self):
        # linear rates never explode: every trajectory runs into the horizon
        # and the estimate is pinned at its upper bound exp(-lambda*horizon)
        rates = PolynomialRates(1.0, 1.0)
        streams = TrajectoryStreams(master_seed=4)
        samples = sample_trajectories(rates, 0, 6.0, 4000, streams, 200)
        assert not any(s.exploded_within_horizon for s in samples)
        [(mean, _)] = empirical_laplace(samples, [1.0], rates)
        assert mean == pytest.approx(math.exp(-6.0), abs=1e-15)

    def test_bias_check_rejects_short_runs(self):
        streams = TrajectoryStreams(master_seed=6)
        samples = sample_trajectories(GEO, 0, 50.0, 3, streams, 500)
        with pytest.raises(BiasCheckError):
            empirical_laplace(samples, [1.0], GEO)

    def test_standard_error_scaling(self):
        # quadrupling the sample count halves the standard error (within 20%)
        streams = TrajectoryStreams(master_seed=SEED)
        samples = sample_trajectories(GEO, 0, 50.0, 16, streams, 40_000)
        [(_, se_small)] = empirical_laplace(samples[:10_000], [1.0], GEO)
        [(_, se_large)] = empirical_laplace(samples, [1.0], GEO)
        assert se_large == pytest.approx(0.5 * se_small, rel=0.2)


EPS = np.finfo(float).eps


def bias_message(estimator, samples, lam):
    """The BiasCheckError message of one estimate, or None if it passes."""
    try:
        estimator(samples, lam, GEO)
    except BiasCheckError as exc:
        return str(exc)
    return None


class TestArrayEstimators:
    # np.exp and math.exp may differ in the last place, so each value may
    # move by a few eps (eps / lambda for an event-count difference)
    def test_empirical_laplace_matches_loop(self):
        samples = mixed_samples()
        lams = (0.0, 0.3, 1.0, 2.0)
        estimates = empirical_laplace(samples, lams, GEO)
        assert len(estimates) == len(lams)
        for lam, (mean, se) in zip(lams, estimates):
            ref_mean, ref_se = loop_empirical_laplace(samples, lam, GEO)
            assert mean == pytest.approx(ref_mean, rel=1e-15, abs=4 * EPS)
            assert se == pytest.approx(ref_se, rel=1e-15, abs=4 * EPS)

    def test_lambda_list_matches_one_call_per_lambda(self):
        # bit for bit: the gather over the samples is shared, not the values
        samples = mixed_samples()
        lams = [2.0, 0.0, 0.3, 1.0]
        assert empirical_laplace(samples, lams, GEO) == [
            empirical_laplace(samples, [lam], GEO)[0] for lam in lams]

    def test_one_pass_over_a_generator_gives_the_list_bits(self):
        samples = mixed_samples()
        lams = [2.0, 0.0, 0.3, 1.0]
        assert empirical_laplace((s for s in samples), lams, GEO) == \
            empirical_laplace(samples, lams, GEO)
        streams = TrajectoryStreams(master_seed=SEED)
        drawn = iter_trajectories(GEO, 0, 50.0, 20, streams, 3000)
        assert empirical_laplace(drawn, lams, GEO) == empirical_laplace(
            sample_trajectories(GEO, 0, 50.0, 20, streams, 3000), lams, GEO)

    def test_bias_check_matches_loop(self):
        # the loop oracle raises for the shortest jump caps and the largest
        # lambdas only; a list raises the message of its first failing lambda
        streams = TrajectoryStreams(master_seed=6)
        lams = [0.0, 0.5, 1.0, 4.0]
        raised = []
        for max_jumps in range(3, 13):
            samples = sample_trajectories(GEO, 0, 50.0, max_jumps, streams, 500)
            messages = [bias_message(empirical_laplace, samples, [lam]) for lam in lams]
            for lam, message in zip(lams, messages):
                loop = bias_message(loop_empirical_laplace, samples, lam)
                assert (loop is None) == (message is None), (max_jumps, lam)
            first = next((m for m in messages if m is not None), None)
            assert bias_message(empirical_laplace, samples, lams) == first
            drawn = iter_trajectories(GEO, 0, 50.0, max_jumps, streams, 500)
            assert bias_message(empirical_laplace, drawn, lams) == first
            raised.append([m is not None for m in messages])
        assert raised[0] == [False, True, True, True]
        assert raised[-1] == [False, False, False, True]

    def test_lambda_list_is_checked(self):
        samples = mixed_samples()
        with pytest.raises(ValueError, match="no lambda"):
            empirical_laplace(samples, [], GEO)
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            empirical_laplace(samples, [1.0, math.nan], GEO)

    def test_bias_bound_reads_one_tail_per_final_level(self, monkeypatch):
        samples = mixed_samples()
        levels = []
        tail = GeometricRates.inverse_tail

        def counted(rates, start):
            levels.append(start)
            return tail(rates, start)

        monkeypatch.setattr(GeometricRates, "inverse_tail", counted)
        empirical_laplace(samples, [0.5, 1.0, 2.0], GEO)
        assert sorted(levels) == [12, 14, 17]

    def test_event_count_matches_loop(self):
        samples = mixed_samples()
        for lam in (0.5, 1.0, 3.0):
            for k in (0, 1, 2, 5, 11, 12, 13, 40):
                mean, se = event_count_estimator(samples, lam, k)
                ref_mean, ref_se = loop_event_count_estimator(samples, lam, k)
                assert mean == pytest.approx(ref_mean, rel=1e-15, abs=4 * EPS / lam)
                assert se == pytest.approx(ref_se, rel=1e-15, abs=4 * EPS / lam)

    def test_single_sample_and_empty_input(self):
        sample = mixed_samples()[-1:]
        assert empirical_laplace(sample, [1.0], GEO)[0][1] == 0.0
        assert event_count_estimator(sample, 1.0, 2)[1] == 0.0
        with pytest.raises(ValueError, match="no samples"):
            empirical_laplace([], [1.0], GEO)
        with pytest.raises(ValueError, match="no samples"):
            empirical_laplace(iter([]), [1.0], GEO)
        with pytest.raises(ValueError, match="no samples"):
            event_count_estimator([], 1.0, 0)
        with pytest.raises(ValueError, match="k must be nonnegative"):
            event_count_estimator(sample, 1.0, -1)


class TestEventCountTerms:
    def test_no_event_term_diagonal(self):
        for n in (0, 2, 5):
            term = n_event_laplace_term(GEO, 1.0, 0, matrix_unit(n, n, 8))
            assert term == pytest.approx(1.0 / (1.0 + GEO.mu(n)), rel=1e-12)

    def test_one_event_term_composition(self):
        term = n_event_laplace_term(GEO, 1.0, 1, matrix_unit(0, 0, 8))
        expected = GEO.mu(0) / ((1.0 + GEO.mu(0)) * (1.0 + GEO.mu(1)))
        assert term == pytest.approx(expected, rel=1e-12)

    def test_partial_sums_converge_to_resolvent_trace(self):
        rho = matrix_unit(0, 0, 60)
        target = np.trace(birth_resolvent(GEO, 1.0, rho)).real
        partial = 0.0
        partials = []
        for k in range(45):
            partial += n_event_laplace_term(GEO, 1.0, k, rho)
            partials.append(partial)
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        assert abs(partials[-1] - target) <= 1e-8

    def test_monte_carlo_agreement(self):
        streams = TrajectoryStreams(master_seed=SEED)
        samples = sample_trajectories(GEO, 0, 50.0, 8, streams, 50_000)
        rho = matrix_unit(0, 0, 30)
        for k in range(4):
            analytic = n_event_laplace_term(GEO, 1.0, k, rho)
            est, se = event_count_estimator(samples, 1.0, k)
            assert abs(est - analytic) <= 3.0 * se


class TestShiftArrival:
    def test_compact_support_full_capture(self):
        h = 0.005
        x = h * np.arange(round(10.0 / h) + 1)
        psi = np.where((x >= 1.0) & (x <= 2.0), np.sin(math.pi * (x - 1.0)), 0.0)
        table = shift_arrival_density(psi, h)
        assert table.cumulative[-1] == pytest.approx(table.norm_sq, abs=1e-6)

    def test_zero_input(self):
        table = shift_arrival_density(np.zeros(100), 0.01)
        assert np.all(table.density == 0.0)
        assert table.cumulative[-1] == 0.0

    def test_gaussian_profile_shift(self):
        h = 0.005
        x = h * np.arange(round(10.0 / h) + 1)
        psi = np.exp(-((x - 3.0) ** 2))
        table = shift_arrival_density(psi, h)
        # the arrival density is the |psi|^2 profile read along time
        assert np.allclose(table.density, np.abs(psi) ** 2)
        captured = table.cumulative[-1]
        beyond = float(np.trapezoid(np.abs(psi[-1:]) ** 2, dx=h))
        assert captured == pytest.approx(table.norm_sq - beyond, abs=1e-6)

    def test_cumulative_bounded_by_norm(self, rng):
        psi = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        table = shift_arrival_density(psi, 0.01)
        assert np.all(table.cumulative <= table.norm_sq + 1e-12)
