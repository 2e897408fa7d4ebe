"""Finite point configurations on the unit sphere and their metric geometry.

A configuration is a set of N unit vectors in R^n together with its Gram
(correlation) matrix.  The module computes the squared cosine of the local
projection-uniqueness angle over an array of directions, the critical
radius of the set, the multiplicity of the closest pair, and, in
``PointConfiguration.normal_directions``, the one fixed equal-weight rule
of directions on the normal sphere at each point (two directions for
n = 2, a trapezoidal circle for n = 3, a seeded Sobol sample for n > 3).

Local angles come from one kernel.  At point i each other point j enters
as q_ij = (u_j - rho_ij u_i) / (1 - rho_ij), which is orthogonal to u_i, so
for any row z the cotangent of the angle is max(0, max_j q_ij . z) / |z_perp|
with |z_perp|^2 = |z|^2 - (u_i . z)^2: a row stands for its normalised
projection onto the normal sphere, and nothing is projected.  For n > 3
the rule's averages therefore run on the raw shared Sobol rows, whose
squared norms are computed once per sample, and ``_column_max`` takes the
maximum over j in blocks, so no (N - 1) x m product is ever held.

The Sobol sample comes from ``_sobol_points``, a numpy generator that equals
scipy's ``qmc.Sobol(d, scramble=True, seed=_QMC_SEED)`` bit for bit without
importing ``scipy.stats``.  Its direction numbers, ``_sobol_directions.npy``,
are Joe & Kuo's new-joe-kuo-6.21201 table as scipy ships it
(``scipy/stats/_sobol_direction_numbers.npz``), copied once.

Configurations are immutable after construction and every operation is
pure and deterministic.  Two configurations are equal, and hash alike, when
their points have the same shape and the same bits, however they were
built, so the per-configuration caches of ``excursion`` serve every equal
configuration; -0.0 and +0.0 differ there, as do two shapes of one byte
string.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .radial_laws import _as_integer, _special

__all__ = ["PointConfiguration"]

_UNIT_TOL = 1e-12
_GRAM_TOL = 1e-12
_PSD_TOL = 1e-10

PHI_NODES = 4096        # trapezoidal nodes on the normal circle (n = 3)
QMC_LOG2_POINTS = 14    # Sobol sample size 2^14 for n > 3
_QMC_SEED = 20060703    # fixed seed of the scrambled Sobol direction sample
_SOBOL_BITS = 30        # bits per Sobol coordinate, as in scipy's qmc.Sobol
# row d: the primitive polynomial of coordinate d, then its initial direction numbers
_SOBOL_TABLE = Path(__file__).with_name("_sobol_directions.npy")
# entries of one product block of ``_column_max``, 1 MiB of doubles: memory a
# worker thread frees stays with its own malloc arena.  A block is a power of
# two of columns, as the BLAS product's bits depend on its size: blocks of 1310
# or 655 columns moved them by an ulp, no power of two from 2 to 2**14 did
_BLOCK_ENTRIES = 1 << 17
# a row whose normal part has squared norm at most this share of its own
# squared norm lies along u_i, to rounding, and has no local angle
_NORMAL_TOL = 1e-12

# Tolerance for deciding that a pair attains the maximal correlation; shared
# by ``multiplicity`` and ``nearest_neighbor_direction``.
RHO_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """Finite index set {u_1, ..., u_N} on the unit sphere in R^n.

    Attributes
    ----------
    points : ndarray of shape (N, n)
        Unit vectors (rows).
    correlation : ndarray of shape (N, N)
        Gram matrix rho with rho[i, j] = <u_i, u_j>, derived from the points.
    """

    points: np.ndarray
    correlation: np.ndarray = field(init=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (N, n)")
        n_points, dim = points.shape
        if n_points < 1:
            raise ValueError("at least one point is required")
        if dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        norms = np.linalg.norm(points, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise ValueError("all points must be unit vectors")
        gram = points @ points.T
        off = gram[~np.eye(n_points, dtype=bool)]
        if off.size and np.max(off) >= 1.0 - _GRAM_TOL:
            raise ValueError("duplicated points (off-diagonal correlation equal to 1)")
        points.setflags(write=False)
        gram.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "correlation", gram)

    # ------------------------------------------------------------------
    # value identity
    # ------------------------------------------------------------------

    @cached_property
    def _key(self):
        """(shape, bytes) of the points: what a configuration compares and
        hashes by.  Every derived quantity is a function of these bits."""
        return self.points.shape, self.points.tobytes()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PointConfiguration):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points):
        """Build a configuration from unit vectors, validating them."""
        return cls(points=np.asarray(points, dtype=float))

    @classmethod
    def from_correlation(cls, rho):
        """Realize a correlation matrix as points on a sphere.

        The matrix is factorized by eigendecomposition; directions with
        eigenvalue below 1e-12 are dropped, so the ambient dimension equals
        the numerical rank.

        Raises
        ------
        ValueError
            If the matrix is not finite, not symmetric with unit diagonal, has
            an eigenvalue below -1e-10, or contains a duplicated point.
        """
        rho = np.asarray(rho, dtype=float)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.all(np.isfinite(rho)):
            raise ValueError("correlation matrix must be finite")
        if np.max(np.abs(rho - rho.T)) > 1e-12:
            raise ValueError("correlation matrix must be symmetric")
        if np.max(np.abs(np.diag(rho) - 1.0)) > 1e-12:
            raise ValueError("correlation matrix must have unit diagonal")
        off = rho[~np.eye(rho.shape[0], dtype=bool)]
        if off.size and np.max(off) >= 1.0 - _GRAM_TOL:
            raise ValueError("duplicated points (off-diagonal correlation equal to 1)")
        eigval, eigvec = np.linalg.eigh(rho)
        if eigval[0] < -_PSD_TOL:
            raise ValueError(
                f"correlation matrix is not positive semidefinite "
                f"(smallest eigenvalue {eigval[0]:.3e})"
            )
        keep = eigval > 1e-12
        if np.count_nonzero(keep) < 2:
            raise ValueError("correlation matrix has rank below 2")
        points = eigvec[:, keep] * np.sqrt(eigval[keep])
        # rows have norm sqrt(rho_ii) = 1 up to rounding
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        return cls(points=points)

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @cached_property
    def rho_star(self):
        """Largest off-diagonal correlation; None for a single point."""
        if self.n_points < 2:
            return None
        mask = ~np.eye(self.n_points, dtype=bool)
        return float(np.max(self.correlation[mask]))

    @cached_property
    def cos_sq_theta_star(self):
        """cos^2 of the critical radius, (1 + rho*) / 2; 0 for a single point."""
        if self.n_points < 2:
            return 0.0
        return (1.0 + self.rho_star) / 2.0

    @cached_property
    def theta_star(self):
        """Critical radius arccos sqrt(cos^2 theta*); pi/2 for a single point."""
        return math.acos(math.sqrt(self.cos_sq_theta_star))

    @property
    def tan_theta_star(self):
        """tan of the critical radius, sqrt((1 - rho*) / (1 + rho*)); inf at pi/2."""
        if self.cos_sq_theta_star == 0.0:
            return math.inf
        return math.sqrt((1.0 - self.rho_star) / (1.0 + self.rho_star))

    @cached_property
    def multiplicity(self):
        """Number of ordered pairs attaining the maximal correlation."""
        if self.n_points < 2:
            raise ValueError("multiplicity requires at least two points")
        mask = ~np.eye(self.n_points, dtype=bool)
        return int(np.sum(np.abs(self.correlation - self.rho_star)[mask] <= RHO_TIE_TOL))

    # ------------------------------------------------------------------
    # local angles on the normal sphere
    # ------------------------------------------------------------------

    def _point_index(self, i):
        """Point index i, read by ``_as_integer``, as an int in [0, N); like a
        sequence index it may lie in -N <= i < N, and ``ValueError`` names it
        and N otherwise."""
        i = _as_integer("point index", i)
        if not -self.n_points <= i < self.n_points:
            raise ValueError(f"point index {i} is out of range for {self.n_points} points")
        return i % self.n_points

    def cos_sq_local_angle(self, i, directions):
        """cos^2 of the local angle at point i for an array of directions.

        ``directions`` has shape (m, n), or (n,) for one direction.  Each row
        stands for its projection onto the normal sphere at ``u_i``,
        normalised: rows that differ by a positive factor or by a multiple of
        ``u_i`` have the same angle.  The angle follows the cotangent rule
        over the other points, with the largest cotangent floored at 0: a
        direction that no other point lies ahead of, and every direction of
        a single point, has angle pi/2 (cos^2 = 0), so the correction
        integral excludes nothing there.  ``i`` is read by ``_point_index``.

        Raises
        ------
        ValueError
            If ``i`` is not a point index, the rows are not of width n, a row
            is not finite, or a row has no component normal to ``u_i``.
        """
        i = self._point_index(i)
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if directions.ndim != 2 or directions.shape[1] != self.dim:
            raise ValueError(
                f"directions must have width {self.dim}, got shape {directions.shape}")
        if not np.all(np.isfinite(directions)):
            raise ValueError("directions must be finite")
        # each row times 2**-e, e the frexp exponent of its largest |entry|:
        # exact, and its squared norm then neither overflows nor underflows
        exponent = np.frexp(np.max(np.abs(directions), axis=1))[1]
        directions = np.ldexp(directions, -exponent[:, None])
        return np.sin(self._psi_angles(i, directions.T)) ** 2

    def _rule_psi_angles(self, i):
        """``_psi_angles`` over the rule of ``normal_directions(i)``.

        For n > 3 the raw shared Sobol rows stand for their projections, so
        the rule's directions are never built.
        """
        if self.dim > 3:
            return self._psi_angles(i, *_sobol_columns(self.dim))
        return self._psi_angles(i, self.normal_directions(i).T)

    def _psi_angles(self, i, columns, norms_sq=None):
        """pi/2 minus the local angle at point i in [0, N) for each direction z.

        The local-angle kernel.  ``columns`` holds the directions as the
        columns of an (n, m) array; ``norms_sq``, their squared norms, is
        computed when not given.  The result is
        arctan2(max(0, max_j q_ij . z), |z_perp|), which is arcsin(cos theta),
        the local angle's coordinate on the psi grid of the beta mixtures.
        Raises ``ValueError`` for a direction along ``u_i``.
        """
        if norms_sq is None:
            norms_sq = np.einsum("ij,ij->j", columns, columns)
        u = self.points[i]
        others = np.arange(self.n_points) != i
        rho = self.correlation[i, others]
        # q_ij . z = q_ij . z_perp, because q_ij is orthogonal to u_i
        q = (self.points[others] - np.outer(rho, u)) / (1.0 - rho)[:, None]
        normal_sq = norms_sq - (u @ columns) ** 2
        if np.any(normal_sq <= _NORMAL_TOL * norms_sq):
            raise ValueError(f"a direction has no component normal to point {i}")
        return np.arctan2(_column_max(q, columns, 0.0), np.sqrt(normal_sq))

    def nearest_neighbor_direction(self, i):
        """Unit tangent at ``u_i`` toward its nearest neighbor.

        Ties are broken by the lowest neighbor index.  For an antipodal
        nearest neighbor, or a lone point, the tangent is not unique and a
        deterministic orthogonal direction is returned: the second column
        of the QR factor of ``[u_i, I]``.  ``i`` is read by ``_point_index``.
        """
        i = self._point_index(i)
        rho_i = self.correlation[i].copy()
        rho_i[i] = -np.inf
        # a lone point has no candidate but itself, whose tangent vanishes
        jstar = int(np.argmax(rho_i > np.max(rho_i) - RHO_TIE_TOL))
        v0 = self.points[jstar] - self.correlation[i, jstar] * self.points[i]
        norm = np.linalg.norm(v0)
        if norm < 1e-12:
            return np.linalg.qr(np.column_stack([self.points[i], np.eye(self.dim)]))[0][:, 1]
        return v0 / norm

    def normal_directions(self, i):
        """Equal-weight unit directions orthogonal to ``u_i``, shape (m, n).

        This is the one direction rule behind every average over the
        normal sphere at a point.  With ``v0`` the direction toward the
        nearest neighbor (``nearest_neighbor_direction``):

        * n = 2: the two normal directions ``[v0, -v0]``;
        * n = 3: ``PHI_NODES`` trapezoidal nodes
          ``cos(phi) v0 + sin(phi) (u_i x v0)`` at ``phi = 2 pi j / PHI_NODES``;
        * n > 3: the fixed-seed scrambled Sobol sample of
          ``2**QMC_LOG2_POINTS`` Gaussian vectors, projected onto the
          normal sphere.

        The rule is fixed, so every average over it is deterministic.  For
        n <= 3 it is anchored at ``v0``.  ``i`` is read by ``_point_index``.
        """
        i = self._point_index(i)
        u = self.points[i]
        if self.dim > 3:
            z = _sobol_columns(self.dim)[0].T.copy()  # the rows as drawn, C-ordered
            z -= np.outer(z @ u, u)
            return z / np.linalg.norm(z, axis=1, keepdims=True)
        v0 = self.nearest_neighbor_direction(i)
        if self.dim == 2:
            return np.vstack([v0, -v0])
        phi = np.arange(PHI_NODES) * (2.0 * math.pi / PHI_NODES)
        return np.outer(np.cos(phi), v0) + np.outer(np.sin(phi), np.cross(u, v0))


def _block_columns(n_rows):
    """Columns per block of ``_column_max``: the largest power of two within
    ``_BLOCK_ENTRIES`` entries of ``n_rows`` rows, and at least 1."""
    return 1 << (max(1, _BLOCK_ENTRIES // max(1, n_rows)).bit_length() - 1)


def _column_max(rows, columns, floor=-np.inf):
    """max(floor, max_j rows[j] . z) for each column z of ``columns``, formed
    in blocks of ``_block_columns(len(rows))`` columns; ``floor`` with no rows."""
    block = _block_columns(len(rows))
    result = np.empty(columns.shape[1])
    for start in range(0, columns.shape[1], block):
        np.max(rows @ columns[:, start:start + block], axis=0, initial=floor,
               out=result[start:start + block])
    return result


@lru_cache(maxsize=2)
def _sobol_columns(dim):
    """Read-only scrambled Sobol sample of 2**QMC_LOG2_POINTS normal vectors
    in R^dim, as the columns of a (dim, 2**QMC_LOG2_POINTS) array, and their
    read-only squared norms.

    The points are those of ``_sobol_points``, which equals scipy's
    ``qmc.Sobol(dim, scramble=True, seed=_QMC_SEED)`` on Joe & Kuo's
    new-joe-kuo-6.21201 direction numbers as scipy ships them, mapped through
    the normal quantile.  The seed is fixed, so the sample is drawn once per
    dimension and shared by every point and configuration; samples of two
    dimensions are kept, as many as a ``highdim`` benchmark pass reads.
    """
    columns = _special().ndtri(_sobol_points(dim, QMC_LOG2_POINTS))
    norms_sq = np.einsum("ij,ij->j", columns, columns)
    columns.setflags(write=False)
    norms_sq.setflags(write=False)
    return columns, norms_sq


def _sobol_points(dim, log2_points):
    """The first 2**log2_points scrambled Sobol points in [0, 1)^dim, as the
    columns of a (dim, 2**log2_points) array.

    Bit for bit the transpose of scipy's
    ``qmc.Sobol(dim, scramble=True, seed=_QMC_SEED).random_base2(log2_points)``:
    the direction numbers of Joe & Kuo (2008, SIAM J. Sci. Comput. 30:2635),
    a left linear matrix scramble with a digital shift (Matousek 1998), both
    drawn from ``default_rng(_QMC_SEED)`` in scipy's order, and the points in
    Gray-code order.  Raises ``ValueError`` beyond the table's dimensions.
    """
    table = np.load(_SOBOL_TABLE, mmap_mode="r")  # only rows 1 .. dim - 1 are read
    if dim > len(table):
        raise ValueError(f"Maximum supported dimensionality is {len(table)}.")
    # bit k of a number counts from the top: its weight is 2**(_SOBOL_BITS - 1 - k)
    weights = np.uint32(1) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    # direction numbers by the recurrence of each row's primitive polynomial,
    # v_j = v_{j-s} XOR the sum of a_k 2^k v_{j-k} over k = 1 .. s (Bratley &
    # Fox 1988, sec. 2); the first coordinate's are all 1
    v = np.ones((dim, _SOBOL_BITS), dtype=np.uint32)
    for d, (poly, *row) in enumerate(table[1:dim].tolist(), start=1):
        degree = poly.bit_length() - 1
        del row[degree:]
        taps = [k for k in range(1, degree + 1) if poly >> (degree - k) & 1]
        for j in range(degree, _SOBOL_BITS):
            new = row[j - degree]
            for k in taps:
                new ^= row[j - k] << k
            row.append(new)
        v[d] = row
    v *= weights
    rng = np.random.default_rng(_QMC_SEED)
    shift = rng.integers(0, 2, (dim, _SOBOL_BITS), dtype=np.uint32) @ weights[::-1]
    # each coordinate's unit lower-triangular scrambling matrix, row k as a number
    masks = (np.tril(rng.integers(0, 2, (dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
             | np.eye(_SOBOL_BITS, dtype=np.uint32)) @ weights
    # the scramble is a product mod 2: bit k of a scrambled number is the
    # parity of the number AND row k of its matrix
    parity = masks[:, :, None] & v[:, None, :]
    for step in (16, 8, 4, 2, 1):
        parity ^= parity >> step
    v = ((parity & 1) * weights[:, None]).sum(axis=1, dtype=np.uint32)
    # Gray-code order: point k is point k - 1 XOR v[:, z], z the lowest zero bit
    # of k - 1, so points 2**b .. 2**(b+1) - 1 are the first 2**b reversed, XOR v[:, b]
    points = np.empty((dim, 2 ** log2_points), dtype=np.uint32)
    points[:, 0] = shift
    for b in range(log2_points):
        points[:, 2 ** b:2 ** (b + 1)] = points[:, 2 ** b - 1::-1] ^ v[:, b, None]
    return points * 2.0 ** -_SOBOL_BITS
