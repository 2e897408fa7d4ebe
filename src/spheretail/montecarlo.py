"""Seeded simulation of the field and empirical excursion probabilities.

Trials are processed in fixed-size chunks.  Chunk j draws from an SFC64
generator seeded by ``SeedSequence(seed, spawn_key=(j,))``, the j-th child
that ``SeedSequence(seed).spawn`` gives, so a chunk's draws depend only on
the seed and its index, and ``SeedSequence``'s hashing keeps the chunks'
streams apart (SFC64 because it draws normals and gammas faster than
Philox).  The chunks of one call run on a thread pool sized to the CPUs
this process may use (the work is NumPy and BLAS code that releases the
interpreter lock) and their results are combined in chunk order, so the
output is bit-identical whatever the worker count, and identical inputs
always reproduce identical output.  At most ``_CHUNKS_PER_WORKER`` chunks per
worker are in flight: a new chunk is submitted as the oldest one's result is
taken, so memory does not grow with the trial count.

A draw is xi = R * z / |z| with z standard Gaussian (Muller 1959), and
max_i <u_i, z / |z|> = max_i <u_i, z> / |z|.  The maxima are therefore taken
on the raw Gaussian rows, and each trial is scaled once, by sqrt(R**2 / |z|**2).

Since |<u_i, xi>| <= |xi| = R, a trial whose radius is below the grid's first
threshold c_0 meets no threshold.  ``simulate_pmax`` therefore draws every
chunk's squared radii first and a Gaussian row only for the trials with
R >= c_0, in trial order; the rest count as below the grid.  The direction is
independent of the radius, so the estimate keeps its distribution, and in the
tail, where most radii fall short of c_0, most trials cost one radius draw.
``sample_tmax`` keeps every trial.

Every entry point reads its trial count and seed by ``_check_draws``, through
the package's integer rule ``radial_laws._as_integer``: ``1000.0`` and
``np.int64(1000)`` are the count 1000, and a bool, a string or ``None`` is
refused.
"""

import collections
import hashlib
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .excursion import _check_tube, _threshold_grid, p_tube
from .geometry import _column_max
from .radial_laws import _as_integer

__all__ = ["SimulationResult", "simulate_pmax", "estimate_delta", "sample_tmax"]

CHUNK_TRIALS = 1 << 14

# chunks in flight (queued, running or done and not yet taken) per worker:
# enough to keep every worker busy while the caller takes results, and a
# bound on the queue, whose every entry holds about 2 KB
_CHUNKS_PER_WORKER = 2


def _check_draws(trials, seed):
    """The trial count and the seed as Python ints.

    Each is read by ``_as_integer``; then trials must be at least 1 and the
    seed must lie in [0, 2**64).  ``SeedSequence`` would take any
    nonnegative int, but the range is the command line's contract, and it
    keeps every seed a single 64-bit word.
    """
    trials, seed = _as_integer("trials", trials), _as_integer("seed", seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return trials, seed


def _chunk_generator(seed, chunk_index):
    """Generator of chunk ``chunk_index``: SFC64 seeded by the chunk's child
    of ``SeedSequence(seed)``."""
    sequence = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.SFC64(sequence))


def _law_digest(law):
    payload = json.dumps(law.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _config_digest(config):
    # the bytes of the points, as the configuration's own key holds them
    return hashlib.sha256(config._key[1]).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Monte Carlo estimate of the excursion probability on a threshold grid."""

    c_grid: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    trials: int
    seed: int
    law_digest: str
    config_digest: str


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_chunks(chunk_fn, trials):
    """Yield ``chunk_fn(j, size_j)`` for each chunk j of ``trials`` draws, in
    chunk order.

    Chunk ``j`` holds up to ``CHUNK_TRIALS`` draws.  The chunks run on a
    thread pool that lives for this call only, with at most one worker per
    available CPU.  At most ``_CHUNKS_PER_WORKER`` chunks per worker are
    submitted and not yet yielded, so memory does not grow with ``trials``.
    The first exception raised by a chunk propagates to the caller, and the
    chunks not yet started are cancelled.
    """
    starts = range(0, trials, CHUNK_TRIALS)
    workers = min(_available_cpus(), len(starts))
    in_flight = collections.deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for j, start in enumerate(starts):
                in_flight.append(pool.submit(chunk_fn, j, min(CHUNK_TRIALS, trials - start)))
                if len(in_flight) == _CHUNKS_PER_WORKER * workers:
                    yield in_flight.popleft().result()
            while in_flight:
                yield in_flight.popleft().result()
        finally:
            for future in in_flight:
                future.cancel()


def _chunk_tmax(config, law, seed, chunk_index, size, reach):
    """Field maxima max_i <u_i, xi> of the draws of one chunk that can reach
    ``reach``, all from ``_chunk_generator(seed, chunk_index)``: the ``size``
    squared radii first, then one Gaussian row for each radius kept, in trial
    order.  A draw is dropped only where R**2 < reach**2, so a reach of 0
    keeps every draw, a NaN radius included."""
    generator = _chunk_generator(seed, chunk_index)
    r_sq = law.sample(generator, size)
    r_sq = r_sq[~(r_sq < reach * reach)]
    z = generator.standard_normal((r_sq.size, config.dim))
    tmax = _column_max(config.points, z.T)
    r_sq /= np.einsum("ij,ij->i", z, z)
    tmax *= np.sqrt(r_sq, out=r_sq)
    return tmax


def sample_tmax(config, law, trials, seed):
    """Draw ``trials`` samples of the field maximum max_i <u_i, xi>."""
    trials, seed = _check_draws(trials, seed)
    tmax = np.empty(trials)
    chunks = _map_chunks(lambda j, size: _chunk_tmax(config, law, seed, j, size, 0.0), trials)
    for start, chunk in zip(range(0, trials, CHUNK_TRIALS), chunks):
        tmax[start:start + chunk.size] = chunk
    return tmax


def simulate_pmax(config, law, c_grid, trials, seed):
    """Estimate Pr(max_i <u_i, xi> >= c) on a sorted positive grid.

    One pass serves every threshold.  A trial whose radius is below the
    grid's first threshold meets none, and only the radius is drawn for it;
    each other trial's maximum is located in the grid by binary search, and
    exceedance counts accumulate per grid point.  Standard errors are the
    binomial sqrt(p(1-p)/trials) over all trials.
    """
    c_grid = _threshold_grid(c_grid)
    c_grid.setflags(write=False)
    trials, seed = _check_draws(trials, seed)

    def chunk_counts(chunk_index, size):
        tmax = _chunk_tmax(config, law, seed, chunk_index, size, c_grid[0])
        # index of the first grid value above tmax = number of thresholds met
        met = np.searchsorted(c_grid, tmax, side="right")
        hist = np.bincount(met, minlength=c_grid.size + 1)
        return hist[::-1].cumsum()[::-1][1:]

    counts = sum(_map_chunks(chunk_counts, trials))
    estimates = counts / trials
    std_errors = np.sqrt(estimates * (1.0 - estimates) / trials)
    estimates.setflags(write=False)
    std_errors.setflags(write=False)
    return SimulationResult(
        c_grid=c_grid,
        estimates=estimates,
        standard_errors=std_errors,
        trials=trials,
        seed=seed,
        law_digest=_law_digest(law),
        config_digest=_config_digest(config),
    )


def estimate_delta(config, law, c, trials, seed):
    """Empirical relative error of the Bonferroni sum at one threshold.

    Returns ``(estimate, standard_error)`` where the estimate is
    ``(P_tube - p_hat) / P_tube`` with the analytic raw Bonferroni sum.
    Warns when the expected exceedance count ``P_tube * trials`` is below
    100, where the estimate is noise-dominated.  Raises
    ``FloatingPointError``, before simulating, when P_tube underflows to 0.
    """
    trials, seed = _check_draws(trials, seed)
    tube = p_tube(config, law, c)
    _check_tube(tube, c)
    if tube * trials < 100.0:
        warnings.warn(
            f"expected exceedance count {tube * trials:.1f} below 100; "
            "the relative-error estimate will be noisy",
            stacklevel=2,
        )
    result = simulate_pmax(config, law, np.array([c]), trials, seed)
    p_hat = float(result.estimates[0])
    se = float(result.standard_errors[0])
    return (tube - p_hat) / tube, se / tube
