"""Gap functionals, attractors and length functions of a single matrix.

The two basic objects are the singular-value side (gap ratios
``sigma_k/sigma_{k+1}``) and the eigenvalue side (attracting invariant
subspaces, signed/modulus eigenvalue ratios, the root and weight length
functions, the weight period).  Boundary flags of
a representation at fixed points are attracting spaces of the
corresponding matrices.

Singular gaps at any number of indices come from one SVD per matrix, and
a stack of matrices is decomposed in batched row blocks whose factors are
dropped once their singular values are read.  The eigenvalue
side reads a ``core_linalg.Spectrum`` table, a row per matrix: its sorted,
residual-checked eigenvalues, its eigenvectors and ||M||_2, from one
``np.linalg.eig``; a word ball's table holds values only, from
``np.linalg.eigvals``, until a flag is read.  Each function takes a matrix
or its one-row Spectrum, so a caller keeping the table decomposes each
matrix once, and one row serves the attracting spaces of every
dimension, each spanned by the row's eigenvectors above its modulus gap
and certified by its invariance residual.  ``attracting_space`` is one row of the batched kernel
``core_linalg._invariant_bases``, and ``eigenvalue_ratios`` and
``length_functions`` are one row of ``_eigenvalue_columns``: the scans
call both kernels once on all rows.  A missing modulus gap, a flag's or
the collar's, is reported by ``_gap_error`` alone, from the columns'
modulus ratio; an index outside 1..d-1 raises InputError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_linalg import (
    EIGEN_GAP_MIN,
    STACK_BLOCK,
    Spectrum,
    Subspace,
    _invariant_bases,
    _modulus,
    _no_gap,
    _spectra,
    as_matrix,
    spectrum,
    svd,
)
from .errors import GapError, InputError, NumericError, check_integer

__all__ = [
    "EIGEN_GAP_MIN",
    "SpectralGaps",
    "LengthPair",
    "singular_gap",
    "singular_gaps",
    "attracting_space",
    "eigenvalue_ratios",
    "length_functions",
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
    check_integer(k, f"gap index k={k!r}")
    if not 1 <= k < d:
        raise InputError(f"gap index k={k} outside 1..{d - 1}")


def _indexed_spectrum(m, k: int) -> Spectrum:
    """The one-row Spectrum of ``m``; a bad index k decomposes nothing."""
    _check_index(k, as_matrix(m).shape[0])
    return spectrum(m)


def singular_gaps(m, indices) -> np.ndarray:
    """sigma_k / sigma_{k+1} (1-indexed) for every k in ``indices``.

    ``m`` is one matrix, giving shape (len(indices),), or an (n, d, d)
    stack, giving shape (n, len(indices)).  One residual-checked SVD per
    matrix serves all indices.  A stack is decomposed in row blocks of
    ``STACK_BLOCK`` entries and only their singular values are kept; the
    ratios and the underflow check run once over all rows, so neither a
    value nor the row an error names depends on the block size.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 3:
        step = max(1, STACK_BLOCK // max(1, a.shape[-2] * a.shape[-1]))
        # an empty stack is one empty block, giving shape (0, d)
        s = np.concatenate([svd(a[i:i + step])[1]
                            for i in range(0, max(len(a), 1), step)])
    else:   # one matrix, or the DimensionError of any other shape
        s = svd(a)[1][None]
    for k in indices:
        _check_index(k, s.shape[-1])
    idx = np.asarray(indices, dtype=int)
    low = s[:, idx]
    under = np.argwhere(low < 1e-300)
    if len(under):
        row, col = (int(i) for i in under[0])
        k = int(idx[col])
        raise NumericError(
            f"sigma_{k + 1} = {low[row, col]:g} of row {row} underflows "
            f"at gap index {k}", diagnostics={"row": row, "index": k})
    gaps = s[:, idx - 1] / low
    return gaps if a.ndim == 3 else gaps[0]


def singular_gap(m, k: int) -> float:
    """sigma_k / sigma_{k+1} of the matrix (1-indexed)."""
    return float(singular_gaps(m, (k,))[0])


def attracting_space(m, k: int) -> Subspace:
    """Invariant subspace of the k largest-modulus eigenvalues:
    ``core_linalg._invariant_bases`` on the one row, selection [0, k).

    Requires a modulus gap, |lambda_k| > (1 + EIGEN_GAP_MIN)
    |lambda_{k+1}|, else raises GapError.  The space is read off the first
    k columns of the row's eigenvectors (real and imaginary parts of
    complex pairs, one generalized eigenspace for all the Jordan blocks
    among them) and orthonormalized by one SVD.  The result is certified
    by its invariance residual ||(I - P P^T) M P||_F <= 1e-8 ||M||; a
    failed check raises NumericError with ``moduli`` (and ``residual``)
    diagnostics.
    """
    spec = _indexed_spectrum(m, k)
    bases, missing, errors = _invariant_bases(spec, [0], 0, k)
    if missing[0]:
        raise _gap_error(_eigenvalue_columns(spec.values, k), 0, k)
    if errors:
        raise errors[0]
    return Subspace(bases[0])


@dataclass(frozen=True)
class _EigenvalueColumns:
    """The eigenvalue-side values of n matrices at one index k, a column
    each (``_eigenvalue_columns``)."""

    period: np.ndarray        # weight period, or its modulus where not real
    period_real: np.ndarray   # the weight period is real
    ratio: np.ndarray         # lambda_k/lambda_(k+1), signed where
    ratio_signed: np.ndarray  # both are real, else the modulus ratio
    modulus: np.ndarray       # |lambda_k|/|lambda_(k+1)|, inf if the latter is 0
    weight_length: np.ndarray
    root_length: np.ndarray
    no_gap: np.ndarray        # no modulus gap at k (core_linalg._no_gap)
    zero: np.ndarray          # some eigenvalue has modulus zero

    def check_lengths(self, row: int) -> None:
        """Raises the NumericError of ``length_functions`` on ``row``."""
        if self.zero[row]:
            raise NumericError("matrix has an eigenvalue of modulus zero")


def _eigenvalue_columns(values, k: int) -> _EigenvalueColumns:
    """The eigenvalue-side values at index k of the n rows of an (n, d)
    table of eigenvalues, each row sorted as a ``Spectrum`` row.

    Rows whose eigenvalues are all real are computed in real arithmetic,
    the others in complex arithmetic, so every value is the one a single
    matrix's one-row Spectrum gives: the weight period lambda_1...lambda_k /
    (lambda_d...lambda_(d-k+1)), real or else replaced by its modulus; the
    ratio lambda_k/lambda_(k+1), signed where both are real and
    lambda_(k+1) is not zero, else of moduli; the modulus ratio; the
    weight and root lengths.  A value is real when |Im| is at most
    ``REAL_IMAG_TOL`` times its own modulus, so an exact zero is real and
    |Re| of a real eigenvalue is its modulus: a signed ratio's magnitude
    is the modulus ratio.  Nothing is raised: ``no_gap`` marks rows
    without a modulus gap at k (``attracting_space``'s rule,
    ``core_linalg._no_gap``, on |lambda_k| and |lambda_(k+1)|), ``zero``
    the rows whose ``length_functions`` call raises NumericError.
    """
    values = np.asarray(values)
    n = len(values)
    real = ~np.any(values.imag != 0, axis=-1)
    out = {name: np.empty(n) for name in (
        "period", "ratio", "modulus", "weight_length", "root_length")}
    out.update((name, np.zeros(n, dtype=bool)) for name in (
        "period_real", "ratio_signed", "no_gap", "zero"))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows, vals in ((real, values[real].real), (~real, values[~real])):
            if not len(vals):
                continue
            period = np.prod(vals[:, :k], axis=-1) / np.prod(vals[:, -k:], axis=-1)
            flag = np.abs(period.imag) <= REAL_IMAG_TOL * _modulus(period)
            out["period"][rows] = np.where(flag, period.real, _modulus(period))
            out["period_real"][rows] = flag

            lk, lk1 = vals[:, k - 1], vals[:, k]
            mk, mk1 = _modulus(lk), _modulus(lk1)
            modulus = np.where(mk1 > 0, mk / mk1, np.inf)
            signed = ((np.abs(lk.imag) <= REAL_IMAG_TOL * mk)
                      & (np.abs(lk1.imag) <= REAL_IMAG_TOL * mk1)
                      & (lk1.real != 0.0))
            out["modulus"][rows] = modulus
            out["no_gap"][rows] = _no_gap(mk, mk1)
            out["ratio"][rows] = np.where(signed, lk.real / lk1.real, modulus)
            out["ratio_signed"][rows] = signed

            # the lengths read np.abs, as the one-matrix formula did; on
            # complex values it rounds differently from _modulus
            moduli = np.abs(vals)
            logs = np.log(moduli)
            out["zero"][rows] = moduli[:, -1] < 1e-300
            out["weight_length"][rows] = (np.sum(logs[:, :k], axis=-1)
                                          - np.sum(logs[:, -k:], axis=-1))
            out["root_length"][rows] = logs[:, k - 1] - logs[:, k]
    return _EigenvalueColumns(**out)


def _gap_error(columns: _EigenvalueColumns, row: int, k: int,
               word=None) -> GapError:
    """The GapError of ``row`` of the eigenvalue columns at k, a row without
    a modulus gap at k, naming ``word`` if one is given; its ratio is the
    row's ``modulus``, inf where |lambda_(k+1)| is 0."""
    ratio = float(columns.modulus[row])
    named = "" if word is None else f" for word {word}"
    return GapError(f"no eigenvalue gap at index {k}{named}: "
                    f"|lambda_{k}|/|lambda_{k + 1}| = {ratio:.6g}",
                    index=k, ratio=ratio)


def _one_row(m, k: int) -> _EigenvalueColumns:
    """``_eigenvalue_columns`` of the one-row Spectrum of ``m``."""
    return _eigenvalue_columns(_indexed_spectrum(m, k).values, k)


def _checked_columns(stack, k: int) -> _EigenvalueColumns:
    """``_eigenvalue_columns`` at k of an (n, d, d) stack, from one
    ``_spectra`` call.  The first row, in stack order, that failed its
    residual check raises its NumericError, as ``eigenvalue_ratios`` on
    that matrix alone would."""
    table = _spectra(stack)
    if table.errors:
        raise table.errors[min(table.errors)].with_traceback(None)
    return _eigenvalue_columns(table.values, k)


def eigenvalue_ratios(m, k: int) -> SpectralGaps:
    """The signed and modulus ratios lambda_k/lambda_(k+1) of the sorted
    eigenvalues: the one-row call of ``_eigenvalue_columns``.  The signed
    ratio is None unless both eigenvalues are real and lambda_(k+1) is not
    zero; where it is given, its magnitude is the modulus ratio."""
    columns = _one_row(m, k)
    signed = float(columns.ratio[0]) if columns.ratio_signed[0] else None
    return SpectralGaps(k=k, lambda_ratio_signed=signed,
                        lambda_ratio_modulus=float(columns.modulus[0]))


def length_functions(m, k: int) -> LengthPair:
    """Weight and root lengths at index k, from eigenvalue moduli only: the
    one-row call of ``_eigenvalue_columns``."""
    columns = _one_row(m, k)
    columns.check_lengths(0)
    return LengthPair(weight_length=float(columns.weight_length[0]),
                      root_length=float(columns.root_length[0]))
