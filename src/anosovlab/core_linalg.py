"""Exterior-algebra and subspace numerics.

Everything downstream (cross ratios, transversality defects, boundary
flags) reduces to a handful of primitives on orthonormal subspace bases:
wedge volumes, principal angles, intersections and quotient projections.
An intersection is taken at the dimension that transversality gives it,
rank V + rank W - d, so no tolerance decides its rank.  Subspaces are
always stored re-orthonormalized, so defect values are comparable across
configurations and wedge volumes never overflow; quantities that depend on
basis scalings are only ever used in ratios where the scalings cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InputError,
    NumericError,
    PreconditionError,
)

__all__ = [
    "Subspace",
    "PartialFlag",
    "ModulusCluster",
    "EigenDecomposition",
    "Spectrum",
    "wedge_volume",
    "direct_sum_defect",
    "intersect",
    "quotient_project",
    "grassmann_distance",
    "svd",
    "spectrum",
    "eig_by_modulus",
]

ORTHONORMALITY_TOL = 1e-12
CONTAINMENT_TOL = 1e-9
QUOTIENT_RANK_RTOL = 1e-8  # relative rank cutoff of a quotient image
EIGEN_TIE_RTOL = 1e-8     # eigenvalues (or moduli) closer than this times the
                          # largest modulus count as equal
EIGEN_GAP_MIN = 1e-8      # relative modulus gap an invariant subspace of
                          # the leading eigenvalues needs after them
EIGENVECTOR_SIN_TIE = 1e-2  # eigenvectors at an angle of smaller sine are
                            # one Jordan block's: rounding leaves those about
                            # eps^(1/m) apart for a block of size m
STACK_BLOCK = 1 << 13     # matrix entries per stacked numpy call, a block
                          # of word products or of SVDs


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def as_matrix(m) -> np.ndarray:
    """The matrix of a one-row Spectrum, or a square array as floats."""
    if isinstance(m, Spectrum):
        if len(m.norms) != 1:
            raise DimensionError(f"expected one row, got {len(m.norms)}")
        return m.entries[0]
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected square matrix, got shape {a.shape}")
    return a


def _orthonormal_basis(a: np.ndarray, rank_rtol: float = 1e-10):
    """Orthonormalize the columns of ``a``, detecting rank by SVD."""
    a = np.asarray(a, dtype=float)
    if not a.size:
        return a[:, :0], 0
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    # a zero matrix has s[0] = 0 and rank 0
    rank = int(np.sum(s > rank_rtol * s[0]))
    return u[:, :rank], rank


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^d stored as an orthonormal basis matrix.

    ``basis`` has shape (d, k); the rank-0 subspace (k = 0) is allowed,
    it occurs naturally as an intersection result and as the vacuous
    summand of boundary-index transversality sums.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2:
            raise DimensionError(f"basis must be 2-d, got shape {b.shape}")
        d, k = b.shape
        if k > d:
            raise DimensionError(f"rank {k} exceeds ambient dimension {d}")
        if k > 0:
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(k))) > ORTHONORMALITY_TOL:
                raise InputError(
                    "basis columns are not orthonormal; use Subspace.from_spanning")
        object.__setattr__(self, "basis", _readonly(b))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_spanning(cls, vectors,
                      ambient_dim: int | None = None) -> "Subspace":
        """Subspace spanned by the given (column) vectors, re-orthonormalized."""
        a = np.asarray(vectors, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if ambient_dim is not None and a.shape[0] != ambient_dim:
            raise DimensionError(
                f"vectors live in R^{a.shape[0]}, expected R^{ambient_dim}")
        q, _ = _orthonormal_basis(a)
        return cls(q)

    @classmethod
    def zero(cls, d: int) -> "Subspace":
        return cls(np.zeros((d, 0)))

    @classmethod
    def full(cls, d: int) -> "Subspace":
        return cls(np.eye(d))

    @classmethod
    def coordinate(cls, d: int, *indices: int) -> "Subspace":
        """Span of the listed standard basis vectors (0-indexed)."""
        if any(not 0 <= i < d for i in indices):
            raise InputError(f"coordinate indices {indices} outside 0..{d - 1}")
        return cls(np.eye(d)[:, list(indices)])

    def contains(self, other: "Subspace") -> bool:
        """True when ``other`` lies inside self up to residual
        ``CONTAINMENT_TOL``."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        if other.rank == 0:
            return True
        if self.rank == 0:
            return False
        resid = other.basis - self.basis @ (self.basis.T @ other.basis)
        return float(np.linalg.norm(resid, 2)) <= CONTAINMENT_TOL

    def apply(self, m) -> "Subspace":
        """Image of the subspace under an invertible matrix, re-orthonormalized."""
        a = as_matrix(m)
        if a.shape[0] != self.ambient_dim:
            raise DimensionError("matrix and subspace dimensions differ")
        return Subspace.from_spanning(a @ self.basis)


def span(*vectors, d: int | None = None) -> Subspace:
    """Convenience constructor: subspace spanned by row-listed vectors."""
    a = np.array(vectors, dtype=float).T
    return Subspace.from_spanning(a, ambient_dim=d)


@dataclass(frozen=True)
class PartialFlag:
    """Nested subspaces with strictly increasing ranks."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise InputError("a flag needs at least one part")
        d = parts[0].ambient_dim
        for p in parts:
            if p.ambient_dim != d:
                raise DimensionError("flag parts have mixed ambient dimensions")
        ranks = [p.rank for p in parts]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise InputError(f"flag ranks must strictly increase, got {ranks}")
        for small, big in zip(parts, parts[1:]):
            if not big.contains(small):
                raise PreconditionError(
                    f"flag part of rank {small.rank} is not contained in the "
                    f"rank-{big.rank} part")
        object.__setattr__(self, "parts", parts)

    @property
    def dims(self) -> tuple:
        return tuple(p.rank for p in self.parts)

    def part(self, rank: int) -> Subspace:
        for p in self.parts:
            if p.rank == rank:
                return p
        raise InputError(f"flag has no part of rank {rank}; dims {self.dims}")


# ---------------------------------------------------------------------------
# wedge volumes and direct sums
# ---------------------------------------------------------------------------

def _concat_bases(parts) -> np.ndarray:
    parts = list(parts)
    if not parts:
        raise InputError("empty list of subspaces")
    d = parts[0].ambient_dim
    for p in parts:
        if p.ambient_dim != d:
            raise DimensionError("subspaces have mixed ambient dimensions")
    mats = [p.basis for p in parts if p.rank > 0]
    if not mats:
        return np.zeros((d, 0))
    return np.hstack(mats)


def wedge_volume(parts) -> float:
    """Determinant of the concatenated orthonormal bases.

    The ranks must sum to the ambient dimension.  The value depends on
    each part's basis choice only through an overall scaling per part, so
    it is meaningful only inside ratios where those scalings cancel
    (cross ratios).
    """
    b = _concat_bases(parts)
    d = b.shape[0]
    if b.shape[1] != d:
        raise DimensionError(
            f"ranks sum to {b.shape[1]}, ambient dimension is {d}")
    return float(np.linalg.det(b))


def direct_sum_defect(parts) -> float:
    """Smallest singular value of the concatenated orthonormal bases.

    Returns a value in [0, 1]: zero iff the sum of the subspaces is not
    direct, one iff they are mutually orthogonal.  The empty or all-rank-0
    sum is trivially direct (defect 1).
    """
    return float(_smallest_singular_values(_concat_bases(parts)))


def _smallest_singular_values(b: np.ndarray) -> np.ndarray:
    """Direct-sum defects of concatenated bases, one (d, s) matrix or a stack.

    One batched SVD gives the smallest singular value of every matrix; the
    sum of no summands (s = 0) is direct with defect 1.
    """
    d, s = b.shape[-2:]
    if s > d:
        raise DimensionError(f"ranks sum to {s} > ambient dimension {d}")
    if s == 0:
        return np.ones(b.shape[:-2])
    return np.linalg.svd(b, compute_uv=False)[..., -1]


# ---------------------------------------------------------------------------
# principal angles, intersections, quotients
# ---------------------------------------------------------------------------

def intersect(v: Subspace, w: Subspace) -> Subspace:
    """Intersection of two subspaces at the transversal dimension
    r = rank V + rank W - d: ``_intersections`` on the one pair.

    When V + W = R^d, as Anosov transversality makes it in the H_k and C_k
    sums, that is V n W exactly.  Otherwise it is the r-space of V closest
    to W, so two planes of R^4 sharing a line meet in the zero space, and
    two 3-spaces sharing a plane in that plane.  A whole-space argument
    returns the other argument itself.
    """
    if v.ambient_dim != w.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    d = v.ambient_dim
    if v.rank == d:
        return w
    if w.rank == d:
        return v
    return Subspace(_intersections(v.basis, w.basis))


def _intersections(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bases of the intersections of a (..., d, a) stack V and a
    (..., d, b) stack W of orthonormal bases, (..., d, r) with
    r = max(a + b - d, 0).

    One batched SVD of (I - W W^T) V: its singular values are the sines of
    the principal angles between V and W, and V times the right singular
    vectors of the r least of them is an orthonormal basis of the r
    directions of V closest to W, which is V n W when V + W = R^d.
    """
    d, a = v.shape[-2:]
    r = max(a + w.shape[-1] - d, 0)
    off = v - w @ (np.swapaxes(w, -1, -2) @ v)
    vt = np.linalg.svd(off, full_matrices=False)[2]
    return v @ np.swapaxes(vt[..., a - r:, :], -1, -2)


def quotient_complement(x_low: Subspace, x_high: Subspace) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of X_low inside X_high."""
    if not x_high.contains(x_low):
        raise PreconditionError("X_low is not contained in X_high")
    h, l = x_high.rank, x_low.rank
    if h == l:
        return np.zeros((x_high.ambient_dim, 0))
    b = x_high.basis
    if l > 0:
        b = b - x_low.basis @ (x_low.basis.T @ b)
    q, rank = _orthonormal_basis(b)
    if rank != h - l:
        raise NumericError(
            f"complement of rank-{l} inside rank-{h} came out rank {rank}")
    return q


def quotient_project(v: Subspace, x_low: Subspace,
                     x_high: Subspace) -> Subspace:
    """Image of V in the quotient X_high / X_low.

    Returns the image in the coordinates of an orthonormal basis of the
    orthogonal complement of X_low inside X_high; the ambient dimension
    of the result is rank(X_high) - rank(X_low).  The image rank drops by
    dim(V ∩ X_low).
    """
    if not x_high.contains(v):
        raise PreconditionError("V is not contained in X_high")
    if x_low.rank > 0 and x_low.contains(v):
        raise PreconditionError("V is contained in X_low; quotient image is zero")
    comp = quotient_complement(x_low, x_high)
    coords = comp.T @ v.basis
    q, rank = _orthonormal_basis(coords, rank_rtol=QUOTIENT_RANK_RTOL)
    if rank == 0:
        raise PreconditionError("quotient image of V is numerically zero")
    return Subspace(q)


def grassmann_distance(x: Subspace, y: Subspace) -> float:
    """Sine of the largest principal angle; a metric on each Grassmannian.

    It is ||Y - X X^T Y||_2 for the orthonormal bases X and Y: the part of
    Y off X, read without the cancellation of sqrt(1 - cos^2).
    """
    if x.ambient_dim != y.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    if x.rank != y.rank:
        raise DimensionError(f"ranks differ: {x.rank} vs {y.rank}")
    if x.rank == 0:
        return 0.0
    off = y.basis - x.basis @ (x.basis.T @ y.basis)
    return float(np.linalg.norm(off, 2))


# ---------------------------------------------------------------------------
# matrix factorizations
# ---------------------------------------------------------------------------

def svd(m) -> tuple:
    """Singular value decomposition (U, sigma, Vt) with M = U diag(sigma) Vt.

    Accepts one square array or an (n, d, d) stack of them; each matrix's
    reconstruction residual is validated against 1e-10 * sigma_1, in the
    Frobenius norm, which bounds the 2-norm from above and needs no second
    SVD.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionError(
            f"expected a square matrix or a stack of them, got {a.shape}")
    u, s, vt = np.linalg.svd(a)
    resid = np.linalg.norm((u * s[..., None, :]) @ vt - a, axis=(-2, -1))
    if (resid > 1e-10 * s[..., 0]).any():
        raise NumericError(
            f"SVD reconstruction residual {float(np.max(resid)):g} too large")
    return u, s, vt


@dataclass(frozen=True)
class ModulusCluster:
    """One group of eigenvalues of (numerically) equal modulus."""

    modulus: float
    eigenvalues: tuple
    basis: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted by descending modulus plus per-cluster invariant bases."""

    values: tuple
    clusters: tuple


@dataclass(frozen=True)
class Spectrum:
    """n matrices ``entries``, their 2-norms ``norms``, and their
    residual-checked eigenvalues and eigenvectors, a read-only row each.

    ``values[i]`` run by descending modulus, then real part, then imaginary
    part, and column j of ``vectors[i]`` is a unit eigenvector of
    ``values[i, j]``; ``vectors`` is None in a values-only table.
    ``errors`` maps each row that failed its residual check to its
    NumericError.  A one-row table stands for one matrix.
    """

    entries: np.ndarray = field(repr=False)
    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    norms: np.ndarray
    errors: dict

    def __post_init__(self):
        for name in ("entries", "values", "vectors", "norms"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _readonly(getattr(self, name)))

    def take(self, rows) -> "Spectrum":
        """The table of ``rows``, real when all their spectra are, as
        ``np.linalg.eig`` gives them alone."""
        rows = np.asarray(rows, dtype=np.intp)
        values = self.values[rows]
        vectors = None if self.vectors is None else self.vectors[rows]
        if not values.imag.any():
            values = values.real
            vectors = None if vectors is None else vectors.real
        errors = {i: self.errors[r] for i, r in enumerate(rows.tolist())
                  if r in self.errors}
        return Spectrum(self.entries[rows], values, vectors, self.norms[rows],
                        errors)


def _spectra(matrices, vectors: bool = True) -> Spectrum:
    """The Spectrum table of n square matrices, an (n, d, d) stack or a
    sequence of (d, d) arrays; without eigenvectors where ``vectors`` is
    False.

    One batched ``eig`` (``eigvals`` without eigenvectors), one batched
    2-norm and one batched determinant serve all of them, and each matrix
    is checked as if alone:
    |det(M - lambda I)| <= 1e-8 max(||M||, 1)^d per eigenvalue, one array
    comparison for all rows.  A matrix failing the check gets, in
    ``errors``, the error naming its first failing eigenvalue, for the
    caller to raise where that matrix is read.
    """
    stack = np.asarray(matrices, dtype=float)
    d = stack.shape[-1]
    if vectors:
        vals, vecs = np.linalg.eig(stack)
    else:
        vals, vecs = np.linalg.eigvals(stack), None
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    if vectors:
        vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    real = ~np.any(vals.imag != 0, axis=-1)
    norms = np.linalg.norm(stack, 2, axis=(-2, -1))
    # real spectra are checked in real arithmetic, as eigvals would give them
    resids = np.zeros(vals.shape)
    for rows, shifts in ((real, vals[real].real), (~real, vals[~real])):
        if rows.any():
            resids[rows] = np.abs(np.linalg.det(
                stack[rows, None] - shifts[..., None, None] * np.eye(d)))
    budgets = 1e-8 * np.maximum(norms, 1.0) ** d
    bad = (resids > budgets[:, None]) & (norms > 0)[:, None]
    errors = {}
    for i in np.flatnonzero(bad.any(axis=-1)).tolist():
        j = int(np.argmax(bad[i]))
        lam = vals[i, j].real if real[i] else vals[i, j]
        resid = float(resids[i, j])
        errors[i] = NumericError(
            f"characteristic-polynomial residual {resid:g} exceeds "
            f"{budgets[i]:g} at eigenvalue {lam}",
            diagnostics={"eigenvalue": lam, "residual": resid})
    return Spectrum(entries=stack, values=vals, vectors=vecs, norms=norms,
                    errors=errors)


def spectrum(m) -> Spectrum:
    """The one-row Spectrum of a matrix (``_spectra`` on it alone), or its
    NumericError raised; a one-row Spectrum is returned as is."""
    a = as_matrix(m)
    table = m if isinstance(m, Spectrum) else _spectra(a[None])
    for error in table.errors.values():
        raise error.with_traceback(None)
    return table


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, as ``abs`` of a numpy scalar: ``_no_gap``'s input."""
    return np.hypot(z.real, z.imag)


def _no_gap(above, below):
    """The one modulus-gap rule: no gap between the moduli ``above`` and
    ``below`` where above <= (1 + EIGEN_GAP_MIN) below."""
    return above <= below * (1.0 + EIGEN_GAP_MIN)


def _modulus_clusters(moduli: np.ndarray) -> list:
    """Split a descending modulus sequence into tied groups.

    A group ends before a modulus more than EIGEN_TIE_RTOL times the
    largest below the group's first that also has the modulus gap of
    ``_invariant_bases`` below the one before it, so every group's
    invariant subspace exists.
    """
    groups = []
    start = 0
    for i in range(1, len(moduli)):
        if (moduli[start] - moduli[i] > EIGEN_TIE_RTOL * moduli[0]
                and not _no_gap(moduli[i - 1], moduli[i])):
            groups.append((start, i))
            start = i
    groups.append((start, len(moduli)))
    return groups


def _generalized_eigenspace(a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of the eigenvalues
    ``values`` of ``a``, Jordan chains included; complex if ``values`` is.

    Deflation, one eigenvalue at a time: with P spanning the space of the
    eigenvalues before lam and Q an orthonormal basis of its complement,
    Q^H a Q is a on the quotient by span(P), and lam is one of its
    eigenvalues.  P gains Q v and Q shrinks to Q V', where v and V' are
    the right singular vectors of Q^H a Q - lam I of the least and of the
    other singular values.  This is exact for equal eigenvalues, whether
    Jordan chains or not, and for distinct ones alike, so one call serves
    any set of Jordan blocks, and each step decomposes a - lam I on a
    subspace, never a power of it.
    """
    q = np.eye(len(a), dtype=values.dtype)
    p = q[:, :0]
    for lam in values:
        quotient = q.conj().T @ a @ q
        _, _, vh = np.linalg.svd(quotient - lam * np.eye(len(quotient)))
        v = vh.conj().T
        p, q = np.hstack((p, q @ v[:, -1:])), q @ v[:, :-1]
    return p


def _invariant_bases(spec: Spectrum, rows, start: int, stop: int) -> tuple:
    """Orthonormal bases of the invariant subspaces of ``values[start:stop]``
    of the rows ``rows`` of a Spectrum table, in one batched pass.

    Returns ``(bases, missing, errors)``.  ``bases`` is (len(rows), d, stop
    - start).  ``missing`` is True where a row has no modulus gap after the
    selection, ``_no_gap`` of |lambda_stop|, |lambda_(stop+1)| (1-based):
    nothing else is computed for it, and its basis is zero.  ``errors``
    maps the position in ``rows`` of every other row that fails a check
    to its NumericError, which carries the row's ``moduli``.  Rows are
    read through ``Spectrum.take``, in real arithmetic where all are real.

    An eigenvalue is defective when its unit eigenvector is at an angle of
    sine below EIGENVECTOR_SIN_TIE to another's, as a Jordan block leaves
    them, also when rounding splits its eigenvalue (by about eps^(1/m) for
    size m).  The defective eigenvalues and those tied with one within
    EIGEN_TIE_RTOL times the largest modulus (further blocks of the same
    eigenvalue) form a row's deflation set, whose generalized eigenspace
    one ``_generalized_eigenspace`` call gives (real and imaginary parts
    off the real axis); only the rows with one loop.  Every other
    eigenvalue gives its eigenvector: real and imaginary parts of those
    with positive imaginary part, then the real ones; equal eigenvalues
    with independent eigenvectors span their eigenspace.  The columns of
    the rows without a deflation set are gathered by a per-row order and
    orthonormalized by one stacked SVD, each row bit for bit as by
    ``_orthonormal_basis`` alone.  Checked per row: the selection is
    closed under conjugation, the columns span its dimension, and the
    invariance residual ||(I - P P^T) M P||_F <= 1e-8 ||M||, where the
    Frobenius norm bounds the 2-norm from above without an SVD.
    """
    table = spec.take(rows)
    n, k, d = len(table.norms), stop - start, table.entries.shape[-1]
    moduli = _modulus(table.values)
    bases = np.zeros((n, d, k))
    missing = (_no_gap(moduli[:, stop - 1], moduli[:, stop]) if stop < d
               else np.zeros(n, dtype=bool))
    live = np.flatnonzero(~missing)
    if not live.size:
        return bases, missing, {}
    selected = table.take(live)
    values = selected.values[:, start:stop]
    vectors = selected.vectors[:, :, start:stop]
    parallel = (np.abs(np.swapaxes(vectors.conj(), -1, -2) @ vectors) ** 2
                >= 1.0 - EIGENVECTOR_SIN_TIE ** 2)
    defective = np.count_nonzero(parallel, axis=-1) > 1
    equal = (np.abs(values[:, :, None] - values[:, None, :])
             <= EIGEN_TIE_RTOL * moduli[live, :1, None])
    deflated = (equal & defective[:, None, :]).any(axis=-1)
    upper, real = ~deflated & (values.imag > 0), ~deflated & (values.imag == 0)
    closed = (np.count_nonzero(deflated | real, axis=1)
              + 2 * np.count_nonzero(upper, axis=1) == k)
    rank = np.full(len(live), k)
    plain = np.flatnonzero(closed & ~deflated.any(axis=1))
    if plain.size:
        # of the 2k real and imaginary parts, a stable sort by group takes
        # Re of the upper, Im of the upper, Re of the real ones, in order
        parts = np.concatenate((vectors.real, vectors.imag), axis=2)[plain]
        group = np.concatenate((np.where(upper, 0, np.where(real, 2, 3)),
                                np.where(upper, 1, 3)), axis=1)[plain]
        source = np.argsort(group, axis=1, kind="stable")[:, None, :k]
        u, s, _ = np.linalg.svd(np.take_along_axis(parts, source, 2),
                                full_matrices=False)
        bases[live[plain]] = u
        # the rank as _orthonormal_basis counts it
        rank[plain] = np.count_nonzero(s > 1e-10 * s[:, :1], axis=1)
    for j in np.flatnonzero(closed & deflated.any(axis=1)):
        row = selected.take([j])
        v = _generalized_eigenspace(
            row.entries[0], row.values[0, start:stop][deflated[j]])
        vecs = row.vectors[0, :, start:stop]
        columns = [v.real, v.imag] if v.dtype.kind == "c" else [v]
        columns += [vecs[:, upper[j]].real, vecs[:, upper[j]].imag,
                    vecs[:, real[j]].real]
        basis, rank[j] = _orthonormal_basis(np.hstack(columns))
        if rank[j] == k:
            bases[live[j]] = basis
    errors = {}
    for j in np.flatnonzero(~closed | (rank != k)):
        errors[int(live[j])] = NumericError(
            f"invariant basis of {k} eigenvalues has rank {rank[j]}"
            if closed[j] else
            f"the {k} selected eigenvalues are not closed under conjugation",
            diagnostics={"moduli": moduli[live[j]].tolist()})
    kept = live[closed & (rank == k)]
    basis = bases[kept]
    image = table.entries[kept] @ basis
    resid = np.linalg.norm(
        image - basis @ (np.swapaxes(basis, -1, -2) @ image), axis=(-2, -1))
    norms = table.norms[kept]
    for j in np.flatnonzero((norms > 0) & (resid > 1e-8 * norms)):
        errors[int(kept[j])] = NumericError(
            f"invariant subspace residual {resid[j]:g} exceeds "
            f"{1e-8 * norms[j]:g}",
            diagnostics={"moduli": moduli[kept[j]].tolist(),
                         "residual": float(resid[j])})
    return bases, missing, errors


def eig_by_modulus(m) -> EigenDecomposition:
    """Eigenvalues ordered by descending modulus with cluster bases.

    Each modulus cluster gets an orthonormal basis of the sum of the
    generalized eigenspaces of its eigenvalues, read off the one-row
    Spectrum by ``_invariant_bases``.  Postconditions checked: the
    characteristic-polynomial residual of each eigenvalue (``spectrum``)
    and the per-cluster invariance residual ||(I - P P^T) M P||_F <= 1e-8
    ||M||.
    """
    spec = spectrum(m)
    vals = spec.values[0]
    moduli = _modulus(vals)
    clusters = []
    # every cluster has its modulus gap: none is missing
    for start, stop in _modulus_clusters(moduli):
        bases, _, errors = _invariant_bases(spec, [0], start, stop)
        if errors:
            raise errors[0]
        clusters.append(ModulusCluster(
            modulus=float(moduli[start:stop].mean()),
            eigenvalues=tuple(vals[start:stop]),
            basis=_readonly(bases[0])))
    return EigenDecomposition(values=tuple(vals), clusters=tuple(clusters))
