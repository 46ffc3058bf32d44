"""Constructors for the explicit representation families.

Families provided:

* symmetric powers of 2x2 matrices and block-diagonal Fuchsian loci,
* the one-parameter positive family of the once-punctured torus in
  SL(3,R),
* dual (inverse-transpose) representations,
* the SO(p,q) model: the form Q, the unipotent generators E_k(v) and
  products of positive elements.

Matrices are float ndarrays.  A Representation validates its generator
images where it is built (square, finite, the declared dimension, unit
determinant) and stores them read-only.  Every constructed group element
is certified (unit determinant, Q-invariance) rather than trusted;
certification failures surface as ConstructionError instead of being
silently repaired.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core_linalg import _readonly
from .errors import (
    ConstructionError,
    DimensionError,
    DomainError,
    InputError,
    NumericError,
    check_integer,
)
from .groups import _rp1_fixed_points

__all__ = [
    "Representation",
    "SOpqData",
    "punctured_torus_reference",
    "sym_power",
    "fuchsian_locus",
    "fg_rep",
    "dual_rep",
    "sopq_form",
    "sopq_E",
    "sopq_positive",
    "coxeter_number_B",
    "rep_to_json",
    "rep_from_json",
]

Q_INVARIANCE_TOL = 1e-10
DET_RTOL = 1e-8           # |det - 1| bound, relative to sigma_1^d, of SL(d)


def _generator_image(g) -> np.ndarray:
    """A read-only float copy of ``g``, square with finite entries."""
    try:
        a = np.array(g, dtype=float)
    except (ValueError, TypeError) as exc:
        raise InputError(
            f"generator image is not a real matrix: {exc}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix entries must be finite")
    return _readonly(a)


@dataclass(frozen=True)
class Representation:
    """Generator images in SL(d,R) plus an optional 2x2 boundary reference.

    Each image is converted to a float array and checked here: it must be
    square (DimensionError), finite (InputError), of dimension ``dim``
    (InputError) and of determinant 1 within ``DET_RTOL`` sigma_1^d
    (ConstructionError).  The images are stored read-only.  A reference
    must be 2x2, have one generator per image and loxodromic generators
    (InputError).
    """

    dim: int
    generator_images: tuple
    reference: "Representation | None" = None
    label: str = ""

    def __post_init__(self):
        images = tuple(map(_generator_image, self.generator_images))
        for g in images:
            d = g.shape[0]
            if d != self.dim:
                raise InputError(
                    f"generator image has dimension {d}, expected {self.dim}")
            sigma1 = float(np.linalg.norm(g, 2))
            try:
                scale = max(1.0, sigma1) ** d
            except OverflowError:
                scale = math.inf
            if not math.isfinite(scale):
                raise ConstructionError(
                    f"generator image norm {sigma1:g} to the power {d} "
                    f"exceeds the float range ({self.label or 'unlabeled'})")
            if abs(np.linalg.det(g) - 1.0) > DET_RTOL * scale:
                raise ConstructionError(
                    f"generator image determinant differs from 1 beyond "
                    f"{DET_RTOL:g} relative ({self.label or 'unlabeled'})")
        if self.reference is not None:
            if self.reference.dim != 2:
                raise InputError("boundary reference must be 2x2")
            if self.reference.rank != len(images):
                raise InputError(
                    f"boundary reference has {self.reference.rank} "
                    f"generators, representation has {len(images)}")
            # the rule the word ball reads fixed points by
            _, loxodromic = _rp1_fixed_points(
                np.reshape(self.reference.generator_images, (-1, 2, 2)))
            if not loxodromic.all():
                raise InputError(
                    "reference generators must be loxodromic (|trace| > 2)")
        object.__setattr__(self, "generator_images", images)

    @property
    def rank(self) -> int:
        return len(self.generator_images)


def punctured_torus_reference() -> Representation:
    """The fixed integral hyperbolization of the once-punctured torus.

    A = [[1,1],[1,2]], B = [[1,-1],[-1,2]]; the commutator has trace -2
    and the axes of the generators cross.
    """
    a = np.array([[1.0, 1.0], [1.0, 2.0]])
    b = np.array([[1.0, -1.0], [-1.0, 2.0]])
    return Representation(dim=2, generator_images=(a, b),
                          label="punctured-torus-reference")


# ---------------------------------------------------------------------------
# symmetric powers and Fuchsian loci
# ---------------------------------------------------------------------------

def sym_power(m, d: int) -> np.ndarray:
    """Irreducible d-dimensional representation of a 2x2 matrix.

    Acts on degree-(d-1) homogeneous polynomials in x, y listed in the
    monomial basis x^(d-1), x^(d-2) y, ..., y^(d-1): row i holds the
    expansion of (a x + b y)^(d-1-i) (c x + d y)^i.  The result is
    rescaled to unit determinant (a no-op up to roundoff for
    unit-determinant input).
    """
    if d < 1:
        raise InputError("target dimension must be >= 1")
    a = np.asarray(m, dtype=float)
    if a.shape != (2, 2):
        raise InputError("sym_power takes a 2x2 matrix")
    n = d - 1
    top = np.array([a[0, 0], a[0, 1]])     # image row of x
    bot = np.array([a[1, 0], a[1, 1]])     # image row of y
    rows = []
    for i in range(d):
        coeffs = np.array([1.0])
        for _ in range(n - i):
            coeffs = np.convolve(coeffs, top)
        for _ in range(i):
            coeffs = np.convolve(coeffs, bot)
        row = np.zeros(d)
        row[: coeffs.size] = coeffs
        rows.append(row)
    s = np.array(rows) if rows else np.eye(1)
    det = np.linalg.det(s)
    if det == 0:
        raise InputError("input matrix is singular")
    if det < 0:
        if d % 2 == 0:
            raise ConstructionError(
                f"symmetric power determinant {det:g} cannot be scaled to 1 "
                f"in even dimension {d}")
        # odd dimension: a global sign flips the determinant sign
        s = -s
        det = -det
    return s / det ** (1.0 / d)


def fuchsian_locus(partition, ref: Representation) -> Representation:
    """Block-diagonal sum of symmetric powers composed with a 2x2 reference."""
    partition = tuple(check_integer(p, f"partition entry {p!r}")
                      for p in partition)
    if any(p < 1 for p in partition):
        raise InputError("partition entries must be positive")
    if any(a < b for a, b in zip(partition, partition[1:])):
        raise InputError(f"partition must be non-increasing, got {partition}")
    if ref.dim != 2:
        raise InputError("reference representation must be 2x2")
    d = sum(partition)
    images = []
    for g in ref.generator_images:
        blocks = [sym_power(g, p) for p in partition]
        m = np.zeros((d, d))
        at = 0
        for blk in blocks:
            k = blk.shape[0]
            m[at:at + k, at:at + k] = blk
            at += k
        images.append(m)
    label = "fuchsian-(" + ",".join(str(p) for p in partition) + ")"
    return Representation(dim=d, generator_images=tuple(images),
                          reference=ref, label=label)


# ---------------------------------------------------------------------------
# the positive once-punctured-torus family in SL(3,R)
# ---------------------------------------------------------------------------

def _fg_matrices(x: float):
    gamma = np.array([
        [2 * x + 2, 2 * x + 2, 1.0],
        [2 * x, 2 * x + 1, 1.0],
        [x, x + 1, 1.0],
    ])
    delta = np.array([
        [2 * x + 2, -2 * x - 2, 1.0],
        [-2 * x, 2 * x + 1, -1.0],
        [x, -x - 1, 1.0],
    ])
    return gamma, delta


def fg_rep(x: float) -> Representation:
    """One-parameter positive family of the once-punctured torus in SL(3,R).

    Generator images are x^(-1/3) times the integer-coefficient matrices
    of the two side-pairing elements; the unnormalized matrices have
    determinant exactly x, so the positive real cube root gives an
    SL(3,R) lift.  Boundary order comes from the punctured-torus 2x2
    reference.
    """
    if not (np.isfinite(x) and x > 0):
        raise InputError(f"family parameter must be positive, got {x}")
    scale = float(x) ** (-1.0 / 3.0)
    gamma, delta = _fg_matrices(float(x))
    return Representation(
        dim=3,
        generator_images=(scale * gamma, scale * delta),
        reference=punctured_torus_reference(),
        label=f"fg(x={x:.17g})")


def dual_rep(rep: Representation) -> Representation:
    """Contragradient representation: images replaced by inverse transposes."""
    images = tuple(np.linalg.inv(g).T for g in rep.generator_images)
    return Representation(dim=rep.dim, generator_images=images,
                          reference=rep.reference,
                          label=rep.label + "+dual" if rep.label else "dual")


# ---------------------------------------------------------------------------
# the SO(p,q) model
# ---------------------------------------------------------------------------

def coxeter_number_B(rank: int) -> int:
    """Coxeter number of the root system B_rank."""
    if rank < 1:
        raise InputError("rank must be >= 1")
    return 2 * rank


@dataclass(frozen=True)
class SOpqData:
    """Signature (p, q) with the model form Q of the positivity construction."""

    p: int
    q: int
    Q: np.ndarray

    def __post_init__(self):
        if not (self.q >= self.p >= 3):
            raise InputError(f"need q >= p >= 3, got ({self.p}, {self.q})")
        q = np.asarray(self.Q, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "Q", q)

    @property
    def d(self) -> int:
        return self.p + self.q

    def certify(self, g: np.ndarray):
        """Raise unless g preserves Q to the certification residual.

        An element too large for its residual or its squared norm to be
        finite raises NumericError.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.all(np.isfinite(g))
            if finite:
                residual = g.T @ self.Q @ g - self.Q
                scale = max(1.0, np.linalg.norm(g, 2)) ** 2
                finite = np.all(np.isfinite(residual)) and np.isfinite(scale)
        if not finite:
            raise NumericError(
                f"SO({self.p},{self.q}) element overflows: its residual or "
                f"squared norm is not finite")
        resid = np.linalg.norm(residual, 2)
        bound = Q_INVARIANCE_TOL * np.linalg.norm(self.Q, 2)
        if resid > bound * scale:
            raise ConstructionError(
                f"form-invariance residual {resid:g} exceeds {bound:g} "
                f"for SO({self.p},{self.q}) element")


def sopq_form(p: int, q: int) -> SOpqData:
    """The model quadratic form of signature (p, q).

    Block anti-diagonal: the outer (p-1)-blocks pair the first and last
    p-1 coordinates through the alternating anti-diagonal matrix K, the
    middle (q-p+2)-block is J with corner entries (-1)^(p-1) and -Id in
    between.  p and q must be integers.
    """
    for name, value in (("p", p), ("q", q)):
        check_integer(value, f"{name}={value!r}")
    if not (q >= p >= 3):
        raise InputError(f"need q >= p >= 3, got ({p}, {q})")
    d = p + q
    m = q - p + 2
    k_block = np.zeros((p - 1, p - 1))
    for i in range(p - 1):
        k_block[i, p - 2 - i] = (-1.0) ** i
    j_block = np.zeros((m, m))
    j_block[0, m - 1] = j_block[m - 1, 0] = (-1.0) ** (p - 1)
    for i in range(1, m - 1):
        j_block[i, i] = -1.0
    qmat = np.zeros((d, d))
    qmat[: p - 1, d - p + 1:] = k_block
    qmat[p - 1: q + 1, p - 1: q + 1] = j_block
    qmat[q + 1:, : p - 1] = (-1.0) ** p * k_block
    return SOpqData(p=p, q=q, Q=qmat)


def j_block_of(data: SOpqData) -> np.ndarray:
    return data.Q[data.p - 1: data.q + 1, data.p - 1: data.q + 1].copy()


def in_positive_cone(data: SOpqData, v: np.ndarray) -> bool:
    """Whether v is positive for the J form with positive first entry."""
    v = np.asarray(v, dtype=float)
    m = data.q - data.p + 2
    if v.shape != (m,):
        return False
    j = j_block_of(data)
    return bool(v[0] > 0 and v @ j @ v > 0)


def sopq_E(data: SOpqData, k: int, v) -> np.ndarray:
    """Unipotent generator E_k(v) of the positive semigroup.

    For k <= p-2, v is a positive scalar placed at positions (k, k+1)
    and (d-k, d-k+1).  For k = p-1, v is a J-positive vector with
    positive first entry filling row p-1; the paired column carries
    (-1)^(p+1) J v and the corner entry is the scalar solution of the
    form-invariance equation (the entry is affine in the unknown, so two
    residual evaluations determine it).  Every output is certified
    against Q.
    """
    p, q, d = data.p, data.q, data.d
    if not 1 <= k <= p - 1:
        raise InputError(f"index k={k} outside 1..{p - 1}")
    if k <= p - 2:
        val = float(v)
        if not (np.isfinite(val) and val > 0):
            raise DomainError(f"E_{k} needs a positive scalar, got {v}")
        e = np.eye(d)
        e[k - 1, k] = val
        e[d - k - 1, d - k] = val
        data.certify(e)
        return e
    vec = np.asarray(v, dtype=float)
    m = q - p + 2
    if vec.shape != (m,):
        raise DomainError(
            f"E_{p - 1} needs a vector of length {m}, got shape {vec.shape}")
    if not in_positive_cone(data, vec):
        raise DomainError(
            "vector is outside the positive cone of the J form")
    j = j_block_of(data)
    col = (-1.0) ** (p + 1) * (j @ vec)

    def build(c: float) -> np.ndarray:
        e = np.eye(d)
        e[p - 2, p - 1: q + 1] = vec
        e[p - 2, q + 1] = c
        e[p - 1: q + 1, q + 1] = col
        return e

    def corner_residual(c: float) -> float:
        e = build(c)
        return float((e.T @ data.Q @ e - data.Q)[q + 1, q + 1])

    r0, r1 = corner_residual(0.0), corner_residual(1.0)
    if abs(r1 - r0) < 1e-14:
        raise ConstructionError(
            "form-invariance equation does not determine the corner entry")
    c_star = -r0 / (r1 - r0)
    e = build(c_star)
    data.certify(e)
    return e


def _as_vbar(data: SOpqData, vbar) -> list:
    p = data.p
    entries = list(vbar)
    if len(entries) != p - 1:
        raise InputError(
            f"a positivity parameter needs {p - 1} entries, got {len(entries)}")
    return entries


def sopq_ab(data: SOpqData, vbar) -> np.ndarray:
    """One Weyl-word factor: product of even-index then odd-index E_j(v_j)."""
    entries = _as_vbar(data, vbar)
    p = data.p
    even = [j for j in range(1, p) if j % 2 == 0]
    odd = [j for j in range(1, p) if j % 2 == 1]
    acc = np.eye(data.d)
    for j in even + odd:
        acc = acc @ sopq_E(data, j, entries[j - 1])
    data.certify(acc)
    return acc


def sopq_positive(data: SOpqData, vbars) -> np.ndarray:
    """Positive element: the ordered product of h/2 factors ab(vbar_i).

    h is the Coxeter number of B_(p-1), so h/2 = p-1 factors are
    required; fewer or more is an input error.
    """
    vbars = list(vbars)
    half_h = coxeter_number_B(data.p - 1) // 2
    if len(vbars) != half_h:
        raise InputError(
            f"positive elements need exactly h/2 = {half_h} factors, "
            f"got {len(vbars)}")
    acc = np.eye(data.d)
    for vbar in vbars:
        acc = acc @ sopq_ab(data, vbar)
    data.certify(acc)
    return acc


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _matrix_to_lists(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in m]


def rep_to_json(rep: Representation) -> str:
    """Serialize to JSON; floats round-trip exactly at 17 significant digits."""
    doc = {
        "dim": rep.dim,
        "generators": [_matrix_to_lists(g) for g in rep.generator_images],
        "reference": None if rep.reference is None else {
            "dim": rep.reference.dim,
            "generators": [_matrix_to_lists(g)
                           for g in rep.reference.generator_images],
            "label": rep.reference.label,
        },
        "label": rep.label,
    }
    return json.dumps(doc, indent=2)


def rep_from_json(text: str | bytes) -> Representation:
    """Parse ``rep_to_json`` output, as text or bytes; malformed input,
    undecodable bytes too, raises InputError."""
    try:
        doc = json.loads(text)
        rdoc = doc.get("reference")
        # the reference first, then the representation that carries it
        parts = [(int(part["dim"]),
                  [np.array(g, dtype=float) for g in part["generators"]],
                  part.get("label", ""))
                 for part in (rdoc, doc) if part is not None]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(
            f"malformed representation JSON: {type(exc).__name__}: {exc}"
        ) from exc
    rep = None
    for dim, generators, label in parts:
        rep = Representation(
            dim=dim, generator_images=tuple(generators),
            reference=rep, label=label)
    return rep
