"""Gap functionals, attractors and length functions of a single matrix.

The two basic objects are the singular-value side (gap ratios
``sigma_k/sigma_{k+1}``) and the eigenvalue side (attracting invariant
subspaces, signed/modulus eigenvalue ratios, the root and weight length
functions, the weight period).  Boundary flags of
a representation at fixed points are attracting spaces of the
corresponding matrices.

Singular gaps at any number of indices come from one SVD per matrix, and
a stack of matrices is decomposed in one batched call.  The eigenvalue
side reads one ``core_linalg.Spectrum`` per matrix: its sorted,
residual-checked eigenvalues and eigenvectors and ||M||_2, from one
``np.linalg.eig``.  Each function takes a matrix or its record, so a
caller keeping the record decomposes each matrix once, and one record
serves the attracting spaces of every dimension: a space is spanned by the
record's eigenvectors above the modulus gap and certified by its
invariance residual.  ``attracting_space`` is the batched kernel
``core_linalg._invariant_bases`` on one record; the scans call that kernel
on the records of all their points at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_linalg import (
    EIGEN_GAP_MIN,
    Spectrum,
    Subspace,
    _invariant_bases,
    as_matrix,
    spectrum,
    svd,
)
from .errors import GapError, NumericError

__all__ = [
    "EIGEN_GAP_MIN",
    "SpectralGaps",
    "LengthPair",
    "singular_gap",
    "singular_gaps",
    "attracting_space",
    "eigenvalue_ratios",
    "length_functions",
    "weight_period",
]

REAL_IMAG_TOL = 1e-8     # |Im| below this times the modulus counts as real


@dataclass(frozen=True)
class SpectralGaps:
    """Gap data of one matrix at index k.

    ``lambda_ratio_signed`` is present only when the k-th and (k+1)-st
    eigenvalues are both real; signed statements about eigenvalue ratios
    only concern real spectra.
    """

    k: int
    lambda_ratio_signed: float | None
    lambda_ratio_modulus: float

    @property
    def lambda_ratio(self) -> float:
        """The signed ratio if present, else the modulus ratio."""
        return (self.lambda_ratio_modulus if self.lambda_ratio_signed is None
                else self.lambda_ratio_signed)


@dataclass(frozen=True)
class LengthPair:
    """Weight length log|l1...lk / (ld...l(d-k+1))| and root length log|lk/l(k+1)|."""

    weight_length: float
    root_length: float


def _check_index(k: int, d: int):
    if not 1 <= k < d:
        raise GapError(f"gap index k={k} outside 1..{d - 1}", index=k)


def _indexed_spectrum(m, k: int) -> Spectrum:
    """The record of ``m`` once k is checked, so a bad index decomposes nothing."""
    _check_index(k, as_matrix(m).shape[0])
    return spectrum(m)


def singular_gaps(m, indices) -> np.ndarray:
    """sigma_k / sigma_{k+1} (1-indexed) for every k in ``indices``.

    ``m`` is one matrix, giving shape (len(indices),), or an (n, d, d)
    stack, giving shape (n, len(indices)).  One SVD per matrix serves all
    indices.
    """
    _, s, _ = svd(m)
    for k in indices:
        _check_index(k, s.shape[-1])
    idx = np.asarray(indices, dtype=int)
    low = s[..., idx]
    if (low < 1e-300).any():
        raise NumericError(
            f"sigma = {float(np.min(low)):g} underflows after renormalization")
    return s[..., idx - 1] / low


def singular_gap(m, k: int) -> float:
    """sigma_k / sigma_{k+1} of the matrix (1-indexed)."""
    return float(singular_gaps(m, (k,))[0])


def attracting_space(m, k: int) -> Subspace:
    """Invariant subspace of the k largest-modulus eigenvalues:
    ``core_linalg._invariant_bases`` on the one record, selection [0, k).

    Requires a modulus gap, |lambda_k| > (1 + EIGEN_GAP_MIN)
    |lambda_{k+1}|, else raises GapError.  The space is read off the first
    k columns of the record's eigenvectors (real and imaginary parts of
    complex pairs, one generalized eigenspace for all the Jordan blocks
    among them) and orthonormalized by one SVD.  The result is certified
    by its invariance residual ||(I - P P^T) M P||_F <= 1e-8 ||M||; a
    failed check raises NumericError with ``moduli`` (and ``residual``)
    diagnostics.
    """
    spec = _indexed_spectrum(m, k)
    bases, missing, errors = _invariant_bases([spec], 0, k)
    if missing[0]:
        moduli = np.abs(spec.values)
        ratio = float(moduli[k - 1] / max(moduli[k], 1e-300))
        raise GapError(
            f"no eigenvalue-modulus gap of index {k}: "
            f"|lambda_{k}|/|lambda_{k + 1}| = {ratio:.6g}",
            index=k, ratio=ratio)
    if errors:
        raise errors[0]
    return Subspace(bases[0])


def eigenvalue_ratios(m, k: int) -> SpectralGaps:
    """Populate SpectralGaps from the sorted eigenvalue list."""
    spec = _indexed_spectrum(m, k)
    lk, lk1 = spec.values[k - 1:k + 1]
    modulus_ratio = float(abs(lk) / abs(lk1)) if abs(lk1) > 0 else np.inf
    signed = None
    if (abs(lk.imag) <= REAL_IMAG_TOL * max(abs(lk), 1e-300)
            and abs(lk1.imag) <= REAL_IMAG_TOL * max(abs(lk1), 1e-300)
            and lk1.real != 0.0):
        signed = float(lk.real / lk1.real)
        if abs(abs(signed) - modulus_ratio) > 1e-9 * max(modulus_ratio, 1.0):
            raise NumericError(
                "signed and modulus eigenvalue ratios disagree beyond tolerance")
    return SpectralGaps(k=k, lambda_ratio_signed=signed,
                        lambda_ratio_modulus=modulus_ratio)


def length_functions(m, k: int) -> LengthPair:
    """Weight and root lengths at index k, from eigenvalue moduli only."""
    moduli = np.abs(_indexed_spectrum(m, k).values)
    if moduli[-1] < 1e-300:
        raise NumericError("matrix has an eigenvalue of modulus zero")
    logs = np.log(moduli)
    weight = float(np.sum(logs[:k]) - np.sum(logs[-k:]))
    root = float(logs[k - 1] - logs[k])
    return LengthPair(weight_length=weight, root_length=root)


def weight_period(m, k: int) -> tuple:
    """(lambda_1...lambda_k / (lambda_d...lambda_(d-k+1)), True) when real
    to a relative REAL_IMAG_TOL, else (its modulus, False)."""
    vals = _indexed_spectrum(m, k).values
    ratio = np.prod(vals[:k]) / np.prod(vals[-k:])
    if abs(ratio.imag) <= REAL_IMAG_TOL * max(abs(ratio), 1e-300):
        return float(ratio.real), True
    return float(abs(ratio)), False
