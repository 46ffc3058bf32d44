"""Exterior-algebra and subspace numerics.

Everything downstream (cross ratios, transversality defects, boundary
flags) reduces to a handful of primitives on orthonormal subspace bases:
wedge volumes, principal angles, numerical intersections and quotient
projections.  Subspaces are always stored re-orthonormalized, so defect
values are comparable across configurations and wedge volumes never
overflow; quantities that depend on basis scalings are only ever used in
ratios where the scalings cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    AmbiguityError,
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
INTERSECT_TOL = 1e-8      # principal cosines >= 1 - this span an intersection
AMBIGUITY_BAND = 100.0    # cosines in (1 - band * tol, 1 - tol) are ambiguous
QUOTIENT_RANK_RTOL = 1e-8  # relative rank cutoff of a quotient image
EIGEN_TIE_RTOL = 1e-8     # eigenvalues (or moduli) closer than this times the
                          # largest modulus count as equal


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def as_matrix(m) -> np.ndarray:
    """The entries of a Spectrum, or a square array as a float array."""
    if isinstance(m, Spectrum):
        return m.entries
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected square matrix, got shape {a.shape}")
    return a


def _orthonormal_basis(a: np.ndarray, rank_rtol: float = 1e-10):
    """Orthonormalize the columns of ``a``, detecting rank by SVD."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.shape[1] == 0:
        return a.reshape(a.shape[0], 0), 0
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return a[:, :0], 0
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

    @property
    def ambient_dim(self) -> int:
        return self.parts[0].ambient_dim

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
    """Numerical intersection of two subspaces.

    Keeps the principal directions whose angle cosine is
    >= 1 - INTERSECT_TOL.  Cosines inside the band
    (1 - AMBIGUITY_BAND * INTERSECT_TOL, 1 - INTERSECT_TOL) mean the
    configuration is too close to the cutoff to call; an AmbiguityError
    carrying the cosine spectrum is raised so the caller can inspect it.
    """
    if v.ambient_dim != w.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    d = v.ambient_dim
    if v.rank == 0 or w.rank == 0:
        return Subspace.zero(d)
    if v.rank == d:
        return w
    if w.rank == d:
        return v
    u, s, _ = np.linalg.svd(v.basis.T @ w.basis)
    s = np.clip(s, 0.0, 1.0)
    accept = s >= 1.0 - INTERSECT_TOL
    fuzzy = (~accept) & (s > 1.0 - AMBIGUITY_BAND * INTERSECT_TOL)
    if np.any(fuzzy):
        raise AmbiguityError(
            "principal-angle cosines fall inside the ambiguity band around "
            f"1 - {INTERSECT_TOL:g}", spectrum=s.copy())
    k = int(np.sum(accept))
    if k == 0:
        return Subspace.zero(d)
    q, rank = _orthonormal_basis(v.basis @ u[:, :k])
    if rank != k:
        raise NumericError("intersection basis lost rank during orthonormalization")
    return Subspace(q)


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
    """Sine of the largest principal angle; a metric on each Grassmannian."""
    if x.ambient_dim != y.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    if x.rank != y.rank:
        raise DimensionError(f"ranks differ: {x.rank} vs {y.rank}")
    if x.rank == 0:
        return 0.0
    angles = scipy.linalg.subspace_angles(x.basis, y.basis)
    return float(np.sin(angles[0]))


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

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(np.array(self.values))

    def pairs(self) -> list:
        """Distinct eigenvalues with multiplicities, descending modulus."""
        out = []
        scale = max(self.moduli.max(), 1e-300)
        for lam in self.values:
            if out and abs(lam - out[-1][0]) <= EIGEN_TIE_RTOL * scale:
                out[-1] = (out[-1][0], out[-1][1] + 1)
            else:
                out.append((lam, 1))
        return out


@dataclass(frozen=True)
class Spectrum:
    """A matrix, its residual-checked eigenvalues and its 2-norm.

    ``values`` run by descending modulus, then real part, then imaginary part.
    """

    entries: np.ndarray = field(repr=False)
    values: np.ndarray
    norm: float


def spectrum(m) -> Spectrum:
    """The Spectrum of a matrix; a Spectrum is returned as is.

    Checks |det(M - lambda I)| <= 1e-8 max(||M||, 1)^d per eigenvalue,
    from one batched determinant over the stack of the M - lambda I.
    """
    if isinstance(m, Spectrum):
        return m
    a = as_matrix(m)
    d = a.shape[0]
    vals = np.linalg.eigvals(a)
    vals = vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]
    vals.flags.writeable = False
    norm = float(np.linalg.norm(a, 2))
    if norm > 0:
        budget = 1e-8 * max(norm, 1.0) ** d
        resids = np.abs(np.linalg.det(a[None] - vals[:, None, None] * np.eye(d)))
        bad = np.flatnonzero(resids > budget)
        if bad.size:
            lam, resid = vals[bad[0]], float(resids[bad[0]])
            raise NumericError(
                f"characteristic-polynomial residual {resid:g} exceeds "
                f"{budget:g} at eigenvalue {lam}",
                diagnostics={"eigenvalue": lam, "residual": resid})
    return Spectrum(entries=a, values=vals, norm=norm)


def _modulus_clusters(moduli: np.ndarray) -> list:
    """Split a descending modulus sequence into tied groups."""
    groups = []
    start = 0
    scale = max(moduli[0], 1e-300)
    for i in range(1, len(moduli)):
        if moduli[start] - moduli[i] > EIGEN_TIE_RTOL * scale:
            groups.append((start, i))
            start = i
    groups.append((start, len(moduli)))
    return groups


def _schur_invariant_basis(a: np.ndarray, select, size: int, norm: float,
                           diagnostics: dict) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of the selected eigenvalues.

    ``select(re, im)`` picks eigenvalues of the real Schur form of ``a``;
    the form is reordered so the picked ones lead (Bai-Demmel block swaps,
    LAPACK ``trsen``) and the leading ``size`` Schur vectors are returned.
    Checks that exactly ``size`` eigenvalues were picked and certifies the
    invariance residual ||(I - P P^T) M P||_F <= 1e-8 ||M||, where ``norm``
    is the 2-norm ||M||; the Frobenius norm bounds the 2-norm from above
    without an SVD.  Every NumericError carries ``diagnostics``.
    """
    try:
        _, z, sdim = scipy.linalg.schur(a, output="real", sort=select)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"reordered Schur form failed: {exc}",
                           diagnostics=diagnostics) from exc
    if sdim != size:
        raise NumericError(
            f"Schur reordering selected {sdim} eigenvalues, expected {size}",
            diagnostics=diagnostics)
    basis = z[:, :size]
    image = a @ basis
    resid = float(np.linalg.norm(image - basis @ (basis.T @ image)))
    if norm > 0 and resid > 1e-8 * norm:
        raise NumericError(
            f"invariant subspace residual {resid:g} exceeds {1e-8 * norm:g}",
            diagnostics={**diagnostics, "residual": resid})
    return basis


def eig_by_modulus(m) -> EigenDecomposition:
    """Eigenvalues ordered by descending modulus with cluster bases.

    Each modulus cluster gets an orthonormal basis of the sum of the
    generalized eigenspaces of its eigenvalues, obtained from a reordered
    real Schur form.  Postconditions checked: the characteristic-polynomial
    residual of each eigenvalue (``spectrum``) and the per-cluster
    invariance residual ||(I - P P^T) M P||_F <= 1e-8 ||M||.
    """
    spec = spectrum(m)
    a, vals, norm = spec.entries, spec.values, spec.norm
    moduli = np.abs(vals)
    clusters = []
    for start, stop in _modulus_clusters(moduli):
        lo = moduli[stop - 1] - EIGEN_TIE_RTOL * max(norm, 1.0)
        hi = moduli[start] + EIGEN_TIE_RTOL * max(norm, 1.0)

        def in_cluster(re, im, lo=lo, hi=hi):
            mod = np.hypot(re, im)
            return bool((mod >= lo) & (mod <= hi))

        basis = _schur_invariant_basis(
            a, in_cluster, stop - start, norm,
            diagnostics={"moduli": moduli.tolist()})
        clusters.append(ModulusCluster(
            modulus=float(moduli[start:stop].mean()),
            eigenvalues=tuple(vals[start:stop]),
            basis=_readonly(basis)))
    return EigenDecomposition(values=tuple(vals), clusters=tuple(clusters))

