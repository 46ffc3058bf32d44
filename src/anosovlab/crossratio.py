"""Projective, pencil and Grassmannian cross ratios.

All three are ratios of wedge volumes of orthonormal bases; each basis
appears exactly once in a numerator and once in a denominator, so the
values are independent of every basis choice.  Each returns a finite
float; a vanishing denominator, a non-finite value or one of magnitude
1e300 or more raises DomainError.
"""

from __future__ import annotations

import numpy as np

from .core_linalg import (
    Subspace,
    direct_sum_defect,
    quotient_project,
    wedge_volume,
)
from .errors import DomainError, PreconditionError

__all__ = [
    "pcr",
    "pcr_quotient",
    "gcr",
]

DEGENERACY_TOL = 1e-14      # wedges below this count as vanishing
COINCIDENCE_TOL = 1e-10     # projective points closer than this coincide
GCR_TRANSVERSALITY = 1e-9   # pairwise defect needed on the gcr domain


def _finite(v: float) -> float:
    if not np.isfinite(v):
        raise DomainError(f"cross ratio produced non-finite float {v}")
    if abs(v) >= 1e300:
        raise DomainError(f"cross ratio overflow: {v:g}")
    return float(v)


def _line2(x) -> np.ndarray:
    if isinstance(x, Subspace):
        if x.ambient_dim != 2 or x.rank != 1:
            raise PreconditionError(
                "projective cross ratio entries must be lines in a plane")
        return x.basis[:, 0]
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (2,):
        raise PreconditionError("projective points must be 2-vectors")
    n = np.linalg.norm(v)
    if n == 0:
        raise PreconditionError("zero vector is not a projective point")
    return v / n


def _wedge2(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def pcr(x1, x2, x3, x4) -> float:
    """Projective cross ratio of four points of RP^1.

    Value (x1^x3 / x1^x2) (x4^x2 / x4^x3) on any lifts; no three of the
    four points may coincide.  A vanishing denominator with nonvanishing
    numerator (the value infinity) raises DomainError.
    """
    pts = [_line2(x) for x in (x1, x2, x3, x4)]
    coincide = [[abs(_wedge2(pts[i], pts[j])) < COINCIDENCE_TOL
                 for j in range(4)] for i in range(4)]
    for i in range(4):
        group = sum(coincide[i])
        if group >= 3:
            raise PreconditionError(
                "three of the four projective points coincide")
    num = _wedge2(pts[0], pts[2]) * _wedge2(pts[3], pts[1])
    den = _wedge2(pts[0], pts[1]) * _wedge2(pts[3], pts[2])
    if abs(den) < DEGENERACY_TOL:
        if abs(num) < DEGENERACY_TOL:
            raise PreconditionError(
                "cross ratio is 0/0; configuration too degenerate")
        raise DomainError("cross ratio is infinite: its denominator vanishes")
    return _finite(num / den)


def pcr_quotient(v_low: Subspace, v_high: Subspace, w1, w2, w3, w4) -> float:
    """Cross ratio of a pencil: pcr of the images in P(V_high / V_low).

    The quotient must be 2-dimensional.  Each entry is a subspace of
    V_high whose quotient image is a line: either a subspace containing
    V_low with one extra dimension, or any line transverse to V_low
    (which is implicitly augmented by V_low).
    """
    if v_high.rank - v_low.rank != 2:
        raise PreconditionError(
            f"pencil quotient must be 2-dimensional, got "
            f"{v_high.rank} - {v_low.rank}")
    lines = []
    for w in (w1, w2, w3, w4):
        img = quotient_project(w, v_low, v_high)
        if img.rank != 1:
            raise PreconditionError(
                f"pencil entry projects to rank {img.rank}, expected a line "
                "(containment of V_low fails or entry meets V_low)")
        lines.append(img)
    return pcr(*lines)


def gcr(v1: Subspace, w2: Subspace, w3: Subspace, v4: Subspace) -> float:
    """Grassmannian cross ratio of (k, d-k, d-k, k)-dimensional subspaces.

    (V1^W3 / V1^W2)(V4^W2 / V4^W3) through wedge volumes of concatenated
    orthonormal bases; each basis choice cancels between numerator and
    denominator.  Requires V_j transverse to W_i for j in {1,4}, i in
    {2,3}; the failing pair is named in the error.
    """
    d = v1.ambient_dim
    k = v1.rank
    if v4.rank != k or w2.rank != d - k or w3.rank != d - k:
        raise PreconditionError(
            f"rank pattern must be (k, d-k, d-k, k); got "
            f"({v1.rank}, {w2.rank}, {w3.rank}, {v4.rank}) in dimension {d}")
    wedges = {}
    for vi, vname in ((v1, "V1"), (v4, "V4")):
        for wj, wname in ((w2, "W2"), (w3, "W3")):
            w = wedge_volume([vi, wj])
            if abs(w) < DEGENERACY_TOL or \
                    direct_sum_defect([vi, wj]) <= GCR_TRANSVERSALITY:
                raise DomainError(
                    f"transversality failure between {vname} and {wname}")
            wedges[vname, wname] = w
    value = (wedges["V1", "W3"] / wedges["V1", "W2"]
             * wedges["V4", "W2"] / wedges["V4", "W3"])
    return _finite(value)

