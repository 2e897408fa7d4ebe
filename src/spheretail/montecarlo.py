"""Seeded simulation of the field and empirical excursion probabilities.

Trials are processed in fixed-size chunks.  Chunk j draws from an SFC64
generator seeded by ``SeedSequence(seed, spawn_key=(j,))``, the j-th child
that ``SeedSequence(seed).spawn`` gives, so a chunk's draws depend only on
the seed and its index, and ``SeedSequence``'s hashing keeps the chunks'
streams apart (SFC64 because it draws normals and gammas faster than
Philox).  The calling thread runs the chunks of one call together with one
helper thread per further CPU this process may use (the work is NumPy and
BLAS code that releases the interpreter lock); each thread takes the next
chunk index from a shared counter until none is left.  A chunk's result goes
where no other chunk's can reach it: its own slice of ``sample_tmax``'s
output, or an integer count added into ``simulate_pmax``'s total.  Neither
depends on which thread ran a chunk or in which order the chunks finished,
so the output is bit-identical whatever the worker count, and identical
inputs always reproduce identical output.  Each thread holds one chunk at a
time, so memory does not grow with the trial count.

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

import json
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .excursion import _check_tube, _threshold_grid, p_tube
from .geometry import _column_max
from .radial_laws import _as_integer

__all__ = ["SimulationResult", "simulate_pmax", "estimate_delta", "sample_tmax"]

CHUNK_TRIALS = 1 << 14


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


def _digest(payload):
    import hashlib  # loaded at the first digest, not with the package

    return hashlib.sha256(payload).hexdigest()[:16]


def _law_digest(law):
    return _digest(json.dumps(law.to_dict(), sort_keys=True).encode())


def _config_digest(config):
    # the bytes of the points, as the configuration's own key holds them
    return _digest(config._key[1])


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


def _run_chunks(chunk_fn, trials):
    """Call ``chunk_fn(j, size_j)`` once for each chunk j of ``trials`` draws.

    Chunk ``j`` holds up to ``CHUNK_TRIALS`` draws.  The calling thread and
    ``min(_available_cpus(), chunks) - 1`` helper threads each take the next
    chunk index from a counter until none is left, so a one-chunk call starts
    no thread, and chunks may finish in any order.  The first exception that
    a chunk raises stops every thread from taking another chunk; the helpers
    are joined, also when the caller is interrupted, and then the exception
    is raised to the caller.
    """
    chunks = -(-trials // CHUNK_TRIALS)
    lock = threading.Lock()
    next_chunk = 0
    failures = []

    def work():
        nonlocal next_chunk
        while True:
            with lock:
                if failures or next_chunk == chunks:
                    return
                j = next_chunk
                next_chunk += 1
            try:
                chunk_fn(j, min(CHUNK_TRIALS, trials - j * CHUNK_TRIALS))
            except BaseException as exc:
                with lock:
                    failures.append(exc)
                return

    helpers = [threading.Thread(target=work) for _ in range(min(_available_cpus(), chunks) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        with lock:
            next_chunk = chunks
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]


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
    """Draw ``trials`` samples of the field maximum max_i <u_i, xi>.

    Whichever thread runs chunk j writes it into its own slice of one
    preallocated output, so no bit depends on the thread or the order of
    the chunks, and the peak memory is the output and one chunk per thread.
    """
    trials, seed = _check_draws(trials, seed)
    tmax = np.empty(trials)

    def chunk_tmax(chunk_index, size):
        start = chunk_index * CHUNK_TRIALS
        tmax[start:start + size] = _chunk_tmax(config, law, seed, chunk_index, size, 0.0)

    _run_chunks(chunk_tmax, trials)
    return tmax


def simulate_pmax(config, law, c_grid, trials, seed):
    """Estimate Pr(max_i <u_i, xi> >= c) on a sorted positive grid.

    One pass serves every threshold.  A trial whose radius is below the
    grid's first threshold meets none, and only the radius is drawn for it;
    each other trial's maximum is located in the grid by binary search, and
    exceedance counts accumulate per grid point.  Standard errors are the
    binomial sqrt(p(1-p)/trials) over all trials.

    Each chunk adds its integer histogram of thresholds met into one total,
    whichever thread runs it and in whatever order the chunks finish; integer
    sums are exact, so no bit depends on either.  The per-point counts are
    taken from the total once, at the end.
    """
    c_grid = _threshold_grid(c_grid)
    c_grid.setflags(write=False)
    trials, seed = _check_draws(trials, seed)

    # total[k] = trials that met exactly k thresholds
    total = np.zeros(c_grid.size + 1, dtype=np.intp)
    lock = threading.Lock()

    def chunk_counts(chunk_index, size):
        tmax = _chunk_tmax(config, law, seed, chunk_index, size, c_grid[0])
        # index of the first grid value above tmax = number of thresholds met
        met = np.searchsorted(c_grid, tmax, side="right")
        hist = np.bincount(met, minlength=c_grid.size + 1)
        with lock:
            np.add(total, hist, out=total)

    _run_chunks(chunk_counts, trials)
    # trials that met at least k + 1 thresholds, i.e. reached c_grid[k]
    counts = total[::-1].cumsum()[::-1][1:]
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
