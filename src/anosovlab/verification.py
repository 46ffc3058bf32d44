"""Representation-level checks: gap scans, transversality defects,
projected hyperconvexity, positivity of cross ratios, eigenvalue
identities, the collar inequality and the root-gap degeneration scan.

Everything here is a desk-scale numerical verification over word balls:
"for all" statements are checked on exhaustive samples of fixed points
and reported with minimum defects and three-way verdicts, never claimed
as proofs.  Every threshold behind a verdict is a constant of this module.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .core_linalg import (
    PartialFlag,
    Spectrum,
    Subspace,
    _intersections,
    _invariant_bases,
    _smallest_singular_values,
    _spectra,
    direct_sum_defect,
    intersect,
    quotient_project,
    spectrum,
)
from .crossratio import gcr, pcr_quotient
from .errors import (
    DomainError,
    GapError,
    InputError,
    PreconditionError,
    check_integer,
)
from .groups import (
    ANGLE_SEPARATION,
    RENORMALIZE_ABOVE,
    Word,
    circle_separation,
    _not_loxodromic,
    _rp1_fixed_points,
    evaluate,
    words_of_length,
)
from .representations import (
    Representation,
    SOpqData,
    coxeter_number_B,
    fg_rep,
    sopq_form,
    sopq_positive,
)
from .spectral import (
    _eigenvalue_columns,
    attracting_space,
    eigenvalue_ratios,
    singular_gaps,
)

__all__ = [
    "GapScanReport",
    "TransversalityScanReport",
    "PositivityScanReport",
    "EigenIdentityReport",
    "CollarReport",
    "CollarTable",
    "CounterexampleRow",
    "SopqScanReport",
    "anosov_gap_scan",
    "boundary_flag",
    "attracting_space",   # re-exported: bench/tracing.py rebinds it here
    "check_Hk",
    "check_Ck",
    "hk_scan",
    "ck_scan",
    "check_projection_hyperconvexity",
    "projection_triple_defect",
    "check_positively_ratioed",
    "check_eigen_identities",
    "eigen_identity_scan",
    "collar_check",
    "linked_pairs",
    "collar_scan",
    "counterexample_scan",
    "sopq_positivity_coeffs",
    "sopq_model_triple_defect",
    "sopq_scan",
    "required_indices_h",
    "required_indices_c",
]

SLOPE_ANOSOV = 0.05       # fitted slope above which a scan looks Anosov
SLOPE_FLAT = 0.01         # fitted slope below which a scan is flat
MONOTONE_SLACK = 0.5      # allowed dip (log units) of per-length minima;
                          # near-parabolic words produce small dips at
                          # specific lengths without changing the trend
SCAN_ACCEPT = 1e-4        # scan-level defect above which a property holds
SCAN_REJECT = 1e-7        # scan-level defect below which it fails
BRACKET_RTOL = 1e-6       # relative slack of the certified bounds on a
                          # triple's defect that decide where the exact SVD
                          # runs
BRACKET_ATOL = 1e-7       # their absolute slack: covers the sqrt(eps)
                          # error of the Gram route near defect 0
BRACKET_STEPS = 60        # root-finding steps after which a triple's
                          # bounds are given up (0, inf): its exact SVD
                          # always runs
POINT_DEDUP_TOL = 1e-8    # boundary angles closer than this are one point
TRIPLE_BLOCK = 1 << 14    # (anchor point, u, v) cells of a triple scan's
                          # chunk: its Gram tables and bounds are
                          # O(TRIPLE_BLOCK) arrays (one anchor point per
                          # chunk once n^2 is larger)
PAIR_BLOCK = 1 << 16      # (g, h) cells of the linkage mask built at once
CERTIFICATION_LENGTH = 6  # word length of the gap scans certifying a
                          # transversality scan
POSITIVITY_MARGIN = 1e-9  # a positivity scan passes when min gcr > 1 + this
WEDGE_DEGENERACY_TOL = 1e-12  # |wedge| below this is a transversality failure
TRIPLE_SEPARATION = 0.3   # minimum pairwise boundary separation (radians) of
                          # scan triples; transversality defects of distinct
                          # but nearly coincident points vanish to high order
                          # (contact of the flag curve), so threshold verdicts
                          # are only meaningful on separated triples
IDENTITY_RTOL = 1e-7      # relative error within which an eigenvalue
                          # identity holds
AUXILIARY_SEPARATION = 1e-6  # least distance (radians) of an auxiliary point
                             # from g's fixed points; wider than coincidence
                             # (ANGLE_SEPARATION): near a fixed point the
                             # pencil entries nearly coincide, losing digits
WEIGHT_CHAIN_SLACK = 1e-9  # allowed excess of the weight bound over the
                           # collar rhs
RATIO_AGREEMENT_RTOL = 1e-8  # relative gap within which the two generator
                             # ratio columns of the fg family agree
SOPQ_ENTRY_MIN = 1e-6     # lower end of the uniform draws of sopq_scan
SOPQ_DEFECT_FLOOR = 1e-6  # model C_k defect above which a positive
                          # element passes
SOPQ_RESIDUAL_RTOL = 1e-8  # ||P^T Q P - Q||_2 allowed, relative to ||Q||_2


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

_KEYS = {"rep_label": "rep", "max_length": "L"}


def _plain(value):
    """``value`` with words as strings, tuples as lists and str dict keys."""
    if isinstance(value, Word):
        return str(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(key): _plain(v) for key, v in value.items()}
    return value


class _Report:
    """Base of the report dataclasses: their fields, in declaration order,
    as a JSON-ready dict."""

    def to_dict(self) -> dict:
        return {_KEYS.get(f.name, f.name): _plain(getattr(self, f.name))
                for f in fields(self)}


# ---------------------------------------------------------------------------
# the word ball: images, reference fixed points and flags, each computed once
# ---------------------------------------------------------------------------

class _WordBall:
    """The words a scan or check reads, and everything it reads off them.

    ``words`` is the ball ``words_of_length(rep.rank, max_length)``, its
    first ``size`` words, then the prefixes of the named words and of their
    inverses that it lacks, shortest first, then by letters.  ``images``
    stacks their images in one read-only (n, d, d) array.  Every per-word
    value below is a table, a row per word, built on first use by one
    batched call and kept for the life of the ball (one scan or check):

    - the 2x2 reference images (``_products``) and their fixed points, one
      ``groups._rp1_fixed_points`` call (``reference_ends``), read by
      ``fixed_points`` and ``loxodromic``;
    - the Spectrum table of ``images``, one ``core_linalg._spectra`` call;
      a word whose row failed its residual check raises its NumericError
      only when it is read (``spectrum``, ``flags``);
    - the eigenvalue-side values at each index k, one
      ``spectral._eigenvalue_columns`` call (``eigenvalues``);
    - one attracting-flag table per dimension: ``fill`` computes the rows
      it lacks in one ``core_linalg._invariant_bases`` call and keeps
      their errors, and ``flags`` raises them where their rows are read.
    """

    def __init__(self, rep: Representation, max_length: int, named=()):
        self.rep = rep
        self.words = words_of_length(rep.rank, max_length)
        self.size = len(self.words)
        self._rows = {w.letters: i for i, w in enumerate(self.words)}
        extra = {v.letters[:i] for w in named for v in (w, w.inverse())
                 for i in range(1, len(v) + 1)}.difference(self._rows)
        for letters in sorted(sorted(extra), key=len):
            self._rows[letters] = len(self.words)
            self.words.append(Word._trusted(letters))
        # each (length, last letter) group's rows and their prefixes' rows,
        # and the rows beyond RENORMALIZE_ABOVE letters
        groups, self._long = {}, []
        for i, w in enumerate(self.words[1:], 1):
            letters = w.letters
            if len(letters) > RENORMALIZE_ABOVE:
                self._long.append(i)
            else:
                rows, prefixes = groups.setdefault(
                    (len(letters), letters[-1]), ([], []))
                rows.append(i)
                prefixes.append(self._rows[letters[:-1]])
        self._steps = sorted(groups.items())
        self._used = max((abs(w.letters[-1]) for w in self.words[1:]),
                         default=0)
        images = self._products(rep)
        if not np.all(np.isfinite(images)):
            raise InputError("word images overflow: matrix entries must be finite")
        images.flags.writeable = False
        self.images = images
        self._reference = None
        self._spectrum = None
        self._eigenvalues: dict = {}
        self._flags: dict = {}
        self._spaces: dict = {}

    def _products(self, rep: Representation) -> np.ndarray:
        """The (n, dim, dim) images of ``words`` under ``rep``, equal to
        ``evaluate`` bit for bit: beyond ``RENORMALIZE_ABOVE`` letters its
        result, else the prefix's row times a generator or its inverse,
        one stacked matmul per (length, last letter) group, shortest
        first."""
        if self._used > rep.rank:
            raise InputError(f"word uses generator {self._used}, "
                             f"representation has {rep.rank}")
        steps = {}
        for i, g in enumerate(rep.generator_images, 1):
            steps[i], steps[-i] = g, np.linalg.inv(g)
        images = np.empty((len(self.words), rep.dim, rep.dim))
        images[0] = np.eye(rep.dim)   # the ball's first word is the identity
        for (_, letter), (rows, prefixes) in self._steps:
            images[rows] = images[prefixes] @ steps[letter]
        for i in self._long:
            images[i] = evaluate(rep, self.words[i])
        return images

    def image(self, w: Word) -> np.ndarray:
        """Image of ``w``: its row of ``images``."""
        return self.images[self._rows[w.letters]]

    def row(self, w: Word) -> int:
        """The row of ``w`` in ``words`` and ``images``."""
        return self._rows[w.letters]

    def reference_ends(self) -> tuple:
        """``(ends, loxodromic)`` of every row: the (n, 2) attracting and
        repelling angles of its reference image (NaN where it is not
        loxodromic) and the loxodromic mask."""
        if self._reference is None:
            ref = self.rep.reference
            if ref is None:
                raise InputError(
                    "representation carries no 2x2 boundary reference")
            images = self._products(ref)
            self._reference = (images, *_rp1_fixed_points(images))
        return self._reference[1:]

    def fixed_points(self, w: Word) -> tuple:
        """Attracting and repelling angles of ``w`` on the reference circle;
        DomainError where its reference image is not loxodromic."""
        ends, loxodromic = self.reference_ends()
        row = self._rows[w.letters]
        if not loxodromic[row]:
            raise _not_loxodromic(self._reference[0][row])
        return tuple(ends[row].tolist())

    def loxodromic_rows(self) -> np.ndarray:
        """The rows of the nontrivial ball words, not the named ones, with
        reference fixed points, in order."""
        return np.flatnonzero(self.reference_ends()[1][1:self.size]) + 1

    def loxodromic(self) -> tuple:
        """The words of ``loxodromic_rows`` and their (n, 2) (attracting,
        repelling) angles."""
        rows = self.loxodromic_rows()
        return [self.words[r] for r in rows], self.reference_ends()[0][rows]

    def _spectra(self) -> Spectrum:
        """The Spectrum table of ``images``, built on first use."""
        if self._spectrum is None:
            self._spectrum = _spectra(self.images)
        return self._spectrum

    def failed(self) -> np.ndarray:
        """The mask of rows that failed their residual check."""
        return np.isin(np.arange(len(self.words)),
                       list(self._spectra().errors))

    def spectrum(self, w: Word) -> Spectrum:
        """The one-row Spectrum of the image of ``w``, or its error raised."""
        return spectrum(self._spectra().take([self._rows[w.letters]]))

    def eigenvalues(self, k: int):
        """``spectral._eigenvalue_columns`` at index k of every row, one
        call; a failed row reads as the identity."""
        if k not in self._eigenvalues:
            self._eigenvalues[k] = _eigenvalue_columns(np.where(
                self.failed()[:, None], 1.0, self._spectra().values), k)
        return self._eigenvalues[k]

    def fill(self, dim: int, rows) -> tuple:
        """The flag table of dimension ``dim``, 0 < dim < d, with ``rows``
        computed: ``(bases, missing, errors, done)`` over all rows.

        ``errors`` starts as the Spectrum table's; the rows not yet done
        that passed their residual check are computed by one
        ``core_linalg._invariant_bases`` call, which adds the errors of
        its checks.  Nothing is raised.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if dim not in self._flags:
            n, d = len(self.words), self.rep.dim
            self._flags[dim] = (np.zeros((n, d, dim)), np.zeros(n, dtype=bool),
                                dict(self._spectra().errors),
                                np.zeros(n, dtype=bool))
        bases, missing, errors, done = self._flags[dim]
        todo = np.unique(rows[~done[rows]])
        if todo.size:
            good = todo[~self.failed()[todo]]
            bases[good], missing[good], found = _invariant_bases(
                self._spectra(), good, 0, dim)
            errors.update((int(good[i]), e) for i, e in found.items())
            done[todo] = True
        return self._flags[dim]

    def flags(self, dim: int, rows) -> tuple:
        """Attracting spaces of dimension ``dim`` of the images of ``rows``:
        ``(bases, missing)``, (len(rows), d, dim) orthonormal bases, and
        True where a row has no eigenvalue-modulus gap at ``dim`` (its
        basis is zero).

        The rows are read from the table of ``dim`` (``fill``); a row
        whose residual or kernel check failed raises its NumericError
        here, the first in ``rows`` order.  Dimensions 0 and d are the
        zero and the whole space.
        """
        d = self.rep.dim
        if dim < 0 or dim > d:
            raise InputError(f"flag dimension {dim} outside 0..{d}")
        rows = np.asarray(rows, dtype=np.intp)
        if dim in (0, d):
            return (np.broadcast_to(np.eye(d)[:, :dim], (len(rows), d, dim)),
                    np.zeros(len(rows), dtype=bool))
        bases, missing, errors, _ = self.fill(dim, rows)
        if errors:
            for r in rows.tolist():
                if r in errors:
                    raise errors[r].with_traceback(None)
        return bases[rows], missing[rows]

    def gap_error(self, dim: int, row: int) -> GapError:
        """The GapError of a row missing from the flag table of ``dim``,
        naming its word."""
        moduli = np.abs(self._spectra().values[row])
        ratio = float(moduli[dim - 1] / max(moduli[dim], 1e-300))
        return GapError(
            f"no eigenvalue gap at dimension {dim} for word {self.words[row]}: "
            f"|lambda_{dim}|/|lambda_{dim + 1}| = {ratio:.6g}",
            index=dim, ratio=ratio)

    def space(self, w: Word, dim: int) -> Subspace:
        """Attracting space of dimension ``dim`` of the image of ``w``: its
        row of the flag table, or its GapError."""
        if (w, dim) not in self._spaces:
            row = self._rows[w.letters]
            bases, missing = self.flags(dim, [row])
            if missing[0]:
                raise self.gap_error(dim, row)
            self._spaces[w, dim] = Subspace(bases[0])
        return self._spaces[w, dim]


class BoundaryAtlas:
    """Deduplicated attracting fixed points of a word ball, with flag access.

    ``angles`` ascends in [0, pi); ``angles[i]`` is the attracting angle,
    in the 2x2 reference, of ``words[i]``.  The loxodromic words of
    ``self.ball`` are stably sorted by it, and a point within
    ``POINT_DEDUP_TOL`` of the last kept one (or, across the wrap, of the
    first) is dropped.  Non-loxodromic words are skipped and counted.
    Boundary flags are read from the same ball's flag tables; ``rows``
    holds the ball row of each point.
    """

    def __init__(self, rep: Representation, max_length: int):
        self.ball = _WordBall(rep, max_length)
        words, ends = self.ball.loxodromic()
        self.skipped_nonloxodromic = len(self.ball.words) - 1 - len(words)
        attracting = ends[:, 0].tolist()
        kept = []
        for i in sorted(range(len(words)), key=attracting.__getitem__):
            if kept and circle_separation(
                    attracting[kept[-1]], attracting[i]) < POINT_DEDUP_TOL:
                continue
            kept.append(i)
        # the sort is linear but the circle wraps: the last can equal the first
        if len(kept) > 1 and circle_separation(
                attracting[kept[0]], attracting[kept[-1]]) < POINT_DEDUP_TOL:
            kept.pop()
        self.words = [words[i] for i in kept]
        self.angles = ends[kept, 0]
        self.rows = np.array([self.ball.row(w) for w in self.words],
                             dtype=np.intp)

    def __len__(self) -> int:
        return len(self.words)

    def space(self, i: int, dim: int) -> Subspace:
        return self.ball.space(self.words[i], dim)

    def flags(self, dim: int, points) -> tuple:
        """``(bases, missing)`` of the flags of dimension ``dim`` at the
        point indices ``points``: ``_WordBall.flags`` on their rows."""
        return self.ball.flags(dim, self.rows[points])


# ---------------------------------------------------------------------------
# gap scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapScanReport(_Report):
    rep_label: str
    k: int
    max_length: int
    lengths: tuple
    min_log_gaps: tuple
    slope: float
    intercept: float
    verdict: str           # anosov-like | flat | ambiguous


def _check_k(k: int, top: int) -> None:
    check_integer(k, f"k={k!r}")
    if not 1 <= k <= top:
        raise InputError(f"k={k} outside 1..{top}")


def _gap_scans(rep: Representation, indices, max_length: int) -> dict:
    """Gap scan reports keyed by index, from one SVD per word of the ball.

    Every word but the identity is decomposed in one batched call; words
    come ordered by length, so each length's minima are one reduceat.
    """
    if max_length < 3:
        raise InputError("gap scans need max_length >= 3")
    ball = _WordBall(rep, max_length)
    lengths = list(range(1, max_length + 1))
    starts = np.searchsorted([len(w) for w in ball.words], lengths) - 1
    minima = np.minimum.reduceat(
        np.log(singular_gaps(ball.images[1:], indices)), starts)
    return {k: _gap_report(rep, k, max_length, lengths, minima[:, i].tolist())
            for i, k in enumerate(indices)}


def _gap_report(rep: Representation, k: int, max_length: int, lengths,
                minima) -> GapScanReport:
    slope, intercept = np.polyfit(lengths, minima, 1)
    # a dip: from length 3 on, a minimum below the running maximum of the
    # minima from length 2 on, less the slack
    later = np.array(minima[1:])
    monotone = not np.any(
        later < np.maximum.accumulate(later) - MONOTONE_SLACK)
    if slope > SLOPE_ANOSOV and monotone:
        verdict = "anosov-like"
    elif slope < SLOPE_FLAT:
        verdict = "flat"
    else:
        verdict = "ambiguous"
    return GapScanReport(
        rep_label=rep.label, k=k, max_length=max_length,
        lengths=tuple(lengths), min_log_gaps=tuple(minima),
        slope=float(slope), intercept=float(intercept), verdict=verdict)


def anosov_gap_scan(rep: Representation, k: int,
                    max_length: int) -> GapScanReport:
    """Fit the growth of the word-sphere minimum of log(sigma_k/sigma_k+1).

    Verdict is ``anosov-like`` when the fitted slope exceeds
    ``SLOPE_ANOSOV`` and the per-length minima never dip more than
    ``MONOTONE_SLACK`` below the running maximum from length 2 on,
    ``flat`` when the slope is below ``SLOPE_FLAT``, else ``ambiguous``.
    The transversality scans certify several indices through the same
    code, where one SVD per word serves every index.
    """
    _check_k(k, rep.dim - 1)
    return _gap_scans(rep, (k,), max_length)[k]


def required_indices_h(k: int, d: int) -> tuple:
    """Gap indices needed to evaluate the H_k transversality sum."""
    return tuple(sorted({j for j in (k - 1, k, k + 1) if 1 <= j <= d - 1}))


def required_indices_c(k: int, d: int) -> tuple:
    """Gap indices needed to evaluate the C_k transversality sum."""
    return tuple(sorted({j for j in (k - 1, k, k + 1, k + 2) if 1 <= j <= d - 1}))


# ---------------------------------------------------------------------------
# boundary flags and the two transversality sums
# ---------------------------------------------------------------------------

def boundary_flag(rep: Representation, w: Word, dims) -> PartialFlag:
    """Attracting spaces of ``w`` at ``dims``, read off the ball naming it;
    a missing one raises the GapError naming ``w`` and its dimension."""
    ball = _WordBall(rep, 0, (w,))
    return PartialFlag(tuple(ball.space(w, dim) for dim in dims))


# A transversality sum is described by its summands in order.  A summand
# lists its (role, dim) parts, the role being 0, 1 or 2 for x, y or z: one
# part is that point's attracting space, two parts (of two different
# points) are their intersection.

def _hk_summands(k: int, d: int) -> tuple:
    """H_k:  x^k + (y^k n z^(d-k+1)) + z^(d-k-1)."""
    return (((0, k),), ((1, k), (2, d - k + 1)), ((2, d - k - 1),))


def _ck_summands(k: int, d: int) -> tuple:
    """C_k:  x^(d-k-2) + (x^(d-k+1) n y^k) + z^(k+1)."""
    return (((0, d - k - 2),), ((0, d - k + 1), (1, k)), ((2, k + 1),))


def _triple_defect(rep: Representation, k: int, triple, summands_fn) -> float:
    ball = _WordBall(rep, 0, triple)
    _triple_distinct(ball, triple)
    parts = []
    for summand in summands_fn(k, rep.dim):
        spaces = [ball.space(triple[role], dim) for role, dim in summand]
        parts.append(spaces[0] if len(spaces) == 1 else intersect(*spaces))
    return direct_sum_defect(parts)


def _three_words(triple) -> tuple:
    words = tuple(triple)
    if len(words) != 3:
        raise InputError(f"a triple has three words, got {len(words)}")
    return words


def _triple_distinct(ball: _WordBall, words) -> None:
    if ball.rep.reference is None:
        return
    angles = [ball.fixed_points(w)[0] for w in words]
    for i, j in itertools.combinations(range(len(angles)), 2):
        if circle_separation(angles[i], angles[j]) < ANGLE_SEPARATION:
            raise PreconditionError(
                f"boundary points of {words[i]} and {words[j]} coincide")


def check_Hk(rep: Representation, k: int, triple) -> float:
    """Defect of the H_k sum  x^k + (y^k n z^(d-k+1)) + z^(d-k-1)."""
    _check_k(k, rep.dim - 1)
    return _triple_defect(rep, k, _three_words(triple), _hk_summands)


def check_Ck(rep: Representation, k: int, triple) -> float:
    """Defect of the C_k sum  x^(d-k-2) + (x^(d-k+1) n y^k) + z^(k+1)."""
    _check_k(k, rep.dim - 2)
    return _triple_defect(rep, k, _three_words(triple), _ck_summands)


@dataclass(frozen=True, kw_only=True)
class TransversalityScanReport(_Report):
    kind: str               # "Hk" | "Ck" | "projection"
    rep_label: str
    k: int
    max_length: int
    certification: dict
    certified: bool
    n_points: int
    n_triples: int
    gap_failures: int
    min_defect: float | None
    max_defect: float | None = None
    min_separation: float = 0.0
    verdict: str            # pass | fail | ambiguous | non-certifiable
    worst_triple: tuple | None = None


def _check_separation(min_separation: float) -> None:
    if not (math.isfinite(min_separation) and min_separation >= 0):
        raise InputError(f"min_separation={min_separation} is not a finite "
                         f"number >= 0")


def _scan_verdict(min_defect: float | None) -> str:
    if min_defect is None:   # no triple
        return "ambiguous"
    if min_defect > SCAN_ACCEPT:
        return "pass"
    if min_defect < SCAN_REJECT:
        return "fail"
    return "ambiguous"


@dataclass(frozen=True)
class _SummandTable:
    """One summand of a transversality sum at every key it is asked for.

    A key is one point (a flag) or an ordered pair of points (an
    intersection), indexed by the triple positions in ``roles``.
    """

    roles: tuple
    missing: np.ndarray   # per key: a flag it reads has no eigenvalue gap
    basis: np.ndarray     # (..., d, rank): an orthonormal basis per key


def _summand_tables(atlas: BoundaryAtlas, summands, used: np.ndarray) -> list:
    """Tables of the summands over the points and pairs of ``used``.

    ``used`` marks the ordered point pairs that occur in some kept triple.
    The flags of each dimension at the points of such pairs come from the
    ball's flag table (``BoundaryAtlas.flags``), one batched
    ``core_linalg._invariant_bases`` call per dimension; a flag without an
    eigenvalue-modulus gap is missing, and so is every key that reads it,
    while a flag's NumericError is raised, the first in (dim, point)
    order.  An intersection summand is computed for every pair of
    ``used`` without a missing flag in one ``core_linalg._intersections``
    call, at the transversal dimension: a line in H_k and C_k.  The scan
    hands in its summands without their whole-space parts, so at k = 1
    every summand is a point flag and no intersection is computed.
    """
    n = len(atlas)
    d = atlas.ball.rep.dim
    points = np.flatnonzero(used.any(axis=1))
    flags, gaps = {}, {}
    for dim in sorted({dim for summand in summands for _, dim in summand}):
        flags[dim], gaps[dim] = np.zeros((n, d, dim)), np.zeros(n, dtype=bool)
        flags[dim][points], gaps[dim][points] = atlas.flags(dim, points)
    tables = []
    for summand in summands:
        roles, dims = zip(*summand)
        if len(dims) == 1:
            missing, basis = gaps[dims[0]], flags[dims[0]]
        else:
            a, b = dims
            missing = gaps[a][:, None] | gaps[b][None, :]
            i, j = np.nonzero(used & ~missing)
            basis = np.zeros((n, n, d, a + b - d))
            basis[i, j] = _intersections(flags[a][i], flags[b][j])
        tables.append(_SummandTable(roles, missing, basis))
    return tables


def _anchor(tables: list) -> int:
    """The index of the anchor Z of a sum M = [R | Z]: the point flag
    whose point, held fixed, leaves each other summand reading one other
    point, a different one each.  That is z^(d-k-1) of H_k and x^(d-k-2)
    of C_k; of three point flags (H_1, C_1, the projected scan) it is the
    one of the largest rank, the last of a tie."""
    def fits(t):
        rest = [set(u.roles) - set(t.roles) for u in tables if u is not t]
        return (len(t.roles) == 1 and all(len(r) == 1 for r in rest)
                and rest[0] != rest[1])
    return max((i for i, t in enumerate(tables) if fits(t)),
               key=lambda i: (tables[i].basis.shape[-1], i))


def _at_anchors(table: _SummandTable, role: int,
                points: np.ndarray) -> np.ndarray:
    """The bases of ``table`` at the keys of the anchor points ``points``
    (of triple position ``role``) and every point u: (c, n, d, rank), with
    c = 1 where the key does not read the anchor."""
    if table.roles[0] == role:
        return table.basis[points]
    if len(table.roles) == 1:
        return table.basis[None]
    return np.swapaxes(table.basis[:, points], 0, 1)


def _gram(tables: list, anchor: int, complement: np.ndarray,
          points: np.ndarray, p: np.ndarray, u: np.ndarray,
          v: np.ndarray, fixed: np.ndarray | None) -> tuple:
    """``(g, c)`` of the triples (points[p[i]], u[i], v[i]) of a chunk of
    anchor points ``points``: g, (r, r, N), is R^T (I - Z Z^T) R, and c,
    (r1, r2, N), is B1^T B2.

    M = [R | Z]: Z is the anchor's basis, R = [B1 | B2] the other two
    summands' (u reads B1, v reads B2).  R^T R has the diagonal blocks I
    and the cross block c.  ``complement`` holds an orthonormal
    complement C of Z per point, so g is the Gram matrix of the
    coordinates C^T R.  Each summand's own block of g is an (anchor
    point, point) table, and the cross blocks of g and of R^T R are one
    batched GEMM each over the chunk; a triple reads its entries off
    these tables.  No basis is gathered per triple.  ``fixed`` is the
    cross block of R^T R over all points when neither summand of R reads
    the anchor (``_fixed_cross``), else None.
    """
    role = tables[anchor].roles[0]
    n = len(tables[anchor].missing)
    ct = np.swapaxes(complement[points], 1, 2)
    full, coords, ranks = [], [], []
    for i, t in enumerate(tables):
        if i != anchor:
            # (c or 1, d, n rank): column (point, basis vector)
            basis = _at_anchors(t, role, points)
            d, rank = basis.shape[-2:]
            full.append(basis.transpose(0, 2, 1, 3).reshape(
                len(basis), d, n * rank))
            coords.append(ct @ full[-1])
            ranks.append(rank)
    r1, r2 = ranks
    r = r1 + r2
    size = len(points) * n
    g = np.empty((r, r, len(p)))
    for (lo, hi), coord, key in zip(((0, r1), (r1, r)), coords, (u, v)):
        coord = coord.reshape(len(points), len(ct[0]), n, hi - lo)
        block = np.einsum("ceni,cenj->ijcn", coord, coord)
        g[lo:hi, lo:hi] = np.take(block.reshape((hi - lo) ** 2, size),
                                  p * n + key, axis=1).reshape(
                                      hi - lo, hi - lo, len(p))
    # the GEMM's entry ((u, i), (v, j)) of anchor point p
    within = (np.arange(r1)[:, None] * (n * r2) + np.arange(r2)).reshape(-1, 1)
    at = u * (r1 * r2 * n) + v * r2 + within
    crosses = []
    for (left, right), cross in ((coords, None), (full, fixed)):
        if cross is None:
            cross = np.ascontiguousarray(np.swapaxes(left, 1, 2)) @ right
        index = at + p * (r1 * r2 * n * n) if len(cross) > 1 else at
        crosses.append(cross.reshape(-1)[index].reshape(r1, r2, len(p)))
    g[:r1, r1:] = crosses[0]
    g[r1:, :r1] = np.swapaxes(crosses[0], 0, 1)
    return g, crosses[1]


def _fixed_cross(tables: list, anchor: int) -> np.ndarray | None:
    """B1^T B2 of ``_gram`` over all points, (1, n r1, n r2), when neither
    summand of R reads the anchor (H_1, C_1, the projected scan): then it is
    one block for the whole scan.  None otherwise."""
    role = tables[anchor].roles[0]
    others = [t for i, t in enumerate(tables) if i != anchor]
    if any(role in t.roles for t in others):
        return None
    b1, b2 = (np.swapaxes(t.basis, 0, 1).reshape(len(t.basis[0]), -1)
              for t in others)
    return (b1.T @ b2)[None]


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of an (r, r, ...) stack, entry axes first: the closed
    form at r = 3 (``_pencil_jet`` has its own at r1 = r2 = 1), else one
    batched ``np.linalg.det``."""
    if len(m) == 3:
        return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
                - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
                + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
    return np.linalg.det(np.moveaxis(m, (0, 1), (-2, -1)))


def _pencil_jet(g: np.ndarray, c: np.ndarray, lam) -> tuple:
    """q and q' at ``lam`` of q(lam) = det A(lam), A(lam) = g - lam h +
    lam^2 I, per row, h = R^T R + I with the cross block ``c`` (``_gram``).
    At r1 = r2 = 1 both have a closed form; otherwise q' = sum_j det(A
    with column j taken from A'), det being multilinear in the columns:
    1 + r ``_det`` calls."""
    r = len(g)
    if c.shape[:2] == (1, 1):
        c = c[0, 0]
        a00, a11, a01 = g[0, 0], g[1, 1], g[0, 1]
        if np.ndim(lam):   # else lam is 0, the first step
            t = lam * (lam - 2)
            a00, a11, a01 = a00 + t, a11 + t, a01 - lam * c
        return (a00 * a11 - a01 * a01,
                (2 * lam - 2) * (a00 + a11) + 2 * a01 * c)
    r1 = len(c)
    eye = np.eye(r)[:, :, None]
    h = 2 * eye + np.zeros_like(g)
    h[:r1, r1:], h[r1:, :r1] = c, np.swapaxes(c, 0, 1)
    a, da = g - lam * h + lam * lam * eye, 2 * lam * eye - h
    dq = 0.0
    for j in range(r):
        column = a[:, j].copy()
        a[:, j] = da[:, j]
        dq = dq + _det(a)
        a[:, j] = column
    return _det(a), dq


def _sigma_bounds(below, above) -> tuple:
    """Bounds on sigma_min from bounds on its square, with the relative
    slack ``BRACKET_RTOL`` and the absolute ``BRACKET_ATOL``."""
    return (np.sqrt(np.maximum(below, 0.0)) * (1 - BRACKET_RTOL)
            - BRACKET_ATOL,
            np.sqrt(np.maximum(above, 0.0)) * (1 + BRACKET_RTOL)
            + BRACKET_ATOL)


def _reach(low: float, high: float, least: float, most: float) -> tuple:
    """The bounds on sigma_min^2 from which a row can pass an extreme: it
    can reach min(low, min hi) when its lower bound is at most the first,
    and max(high, max lo) when its upper bound is at least the second.
    ``least`` and ``most`` are the rows' least upper and most lower bound
    on sigma_min^2, and lo and hi their ``_sigma_bounds``."""
    top, bottom = _sigma_bounds(most, least)
    bottom, top = min(low, bottom), max(high, top)
    return (((bottom + BRACKET_ATOL) / (1 - BRACKET_RTOL)) ** 2,
            ((top - BRACKET_ATOL) / (1 + BRACKET_RTOL)) ** 2
            if top > BRACKET_ATOL else -np.inf)


def _root_bounds(g: np.ndarray, c: np.ndarray, low: float,
                 high: float) -> tuple:
    """Certified bounds ``(below, above)`` on sigma_min(M)^2 of
    M = [R | Z] per row of ``_gram``'s (g, c); ``_sigma_bounds`` turns
    them into bounds lo <= sigma_min(M) <= hi.

    R's summands have orthonormal bases and Z is orthonormal.
    sigma_min^2 is the smallest root of q(lam) = det A(lam),
    A(lam) = g - lam h + lam^2 I, h = R^T R + I (the Schur complement of
    M^T M - lam I, times 1 - lam), a polynomial of degree n = 2r whose
    roots are all real: the eigenvalues of M^T M, and 1.  q(0) = det g
    >= 0.  Below every root, with u_i = 1/(root_i - lam), S1 = sum u_i =
    -q'/q, so Newton's step s = 1/S1, the root lies in [lam + s,
    lam + n s], and Newton from 0 rises monotonically towards it.  q and
    q' are evaluated as determinants (``_pencil_jet``), not from expanded
    coefficients, which near a multiple root at 1 (orthogonal summands)
    lose the root to eps^(1/4).

    A row stops once its bracket is narrower than ``BRACKET_RTOL`` of its
    lower end, inside the slack, or once its bounds cannot reach
    min(low, min hi) nor max(high, max lo) (``_reach``), where no
    extreme can be; its bounds stay valid, only wider.  A row still going
    after ``BRACKET_STEPS``, or whose lower bound is not finite, gets
    (0, inf).
    """
    r, n = len(g), g.shape[-1]
    degree = 2 * r
    todo, lam, root_lo, root_hi = None, 0.0, 0.0, np.inf
    least, most = np.inf, 0.0   # the least upper and most lower root bound
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(BRACKET_STEPS):
            q, dq = _pencil_jet(g, c, lam)
            step = -q / dq
            # every iterate brackets the root: keep the tightest bounds
            # (fmax and fmin also drop a NaN of a degenerate row)
            low_end = np.minimum(step, degree * step)
            high_end = np.maximum(step, degree * step)
            if todo is not None:
                low_end, high_end = lam + low_end, lam + high_end
            root_lo = np.fmax(root_lo, low_end)
            root_hi = np.fmin(root_hi, high_end)
            if todo is None:
                todo, below, above = np.arange(n), root_lo, root_hi
            else:
                below[todo], above[todo] = root_lo, root_hi
            least = min(least, root_hi.min())
            most = max(most, root_lo.max())
            reach_lo, reach_hi = _reach(low, high, least, most)
            going = np.flatnonzero(
                (root_hi > (1 + BRACKET_RTOL) * root_lo)
                & ((root_lo <= reach_lo) | (root_hi >= reach_hi)))
            todo = todo[going]
            if not todo.size:
                break
            lam = (lam + step)[going]
            root_lo, root_hi = root_lo[going], root_hi[going]
            g, c = g[:, :, going], c[:, :, going]
    bad = below == np.inf
    bad[todo] = True
    below[bad], above[bad] = 0.0, np.inf
    return below, above


def _triple_extremes(tables: list, gram: tuple, x: np.ndarray,
                     y: np.ndarray, z: np.ndarray, low: float,
                     high: float) -> tuple:
    """Missing flags of the triples (x[i], y[i], z[i]) and the extremes of
    their defects that can pass beyond ``low`` or ``high``.

    Returns ``(missing, lowest, first, highest)``.  A triple reading a
    missing flag has defect 0.  Every other triple gets certified bounds
    lo <= defect <= hi from its row of ``gram`` (``_gram``,
    ``_root_bounds``).  Only the triples whose lo is at most min(low,
    min hi) or whose hi is at least max(high, max lo) get the exact
    defect, from one batched SVD of their concatenated summand bases,
    which have d columns in all.  ``lowest`` is the minimum of the
    exact defects, with ``first`` the index of the lexicographically
    first (x, y, z) attaining it, and ``highest`` their maximum.  Every
    triple attaining the minimum of these triples, when that is at most
    ``low``, or their maximum, when that is at least ``high``, is among
    them, so ``lowest`` and ``first`` decide the first minimum of the
    whole scan whatever the order of its chunks.  ``first`` is None when
    all triples are pruned.
    """
    columns = (x, y, z)
    keys = [tuple(columns[role] for role in t.roles) for t in tables]
    missing = np.zeros(len(y), dtype=bool)
    for t, key in zip(tables, keys):
        if t.missing.any():
            missing |= t.missing[key]
    g, c = gram
    below, above = np.zeros(len(y)), np.zeros(len(y))
    bounded = np.flatnonzero(~missing)
    if bounded.size == len(y):
        below, above = _root_bounds(g, c, low, high)
    elif bounded.size:
        below[bounded], above[bounded] = _root_bounds(
            g[:, :, bounded], c[:, :, bounded], low, high)
    # a missing flag's defect is 0
    reach_lo, reach_hi = _reach(
        low if bounded.size == len(y) else 0.0, high,
        above[bounded].min(initial=np.inf), below[bounded].max(initial=0.0))
    exact = missing | (below <= reach_lo) | (above >= reach_hi)
    defects = np.zeros(len(y))
    rows = np.flatnonzero(exact & ~missing)
    defects[rows] = _smallest_singular_values(np.concatenate(
        [t.basis[tuple(c[rows] for c in key)]
         for t, key in zip(tables, keys)], axis=2))
    known = np.flatnonzero(exact)
    if not known.size:
        return missing, np.inf, None, -np.inf
    values = defects[known]
    lowest = values.min()
    ties = known[values == lowest]
    first = ties[np.lexsort((z[ties], y[ties], x[ties]))[0]]
    return missing, float(lowest), int(first), float(values.max())


def _triple_scan(tables: list, pairs: np.ndarray) -> tuple:
    """``(n_triples, gap_failures, min, max, worst)`` over the triples
    (x, y, z) whose pairs (x, y), (x, z) and (y, z) the (n, n) mask
    ``pairs`` marks.  ``worst`` is the lexicographically first (x, y, z)
    attaining the minimum; min, max and worst are None without a triple.

    The triples run anchor-major (``_anchor``): a chunk of anchor points
    at a time, so the arrays stay O(``TRIPLE_BLOCK``), with the Gram
    blocks of each chunk from ``_gram``; ``_triple_extremes`` prunes
    against the running extremes and breaks ties by (x, y, z).
    """
    anchor = _anchor(tables)
    role = tables[anchor].roles[0]
    others = [t for i, t in enumerate(tables) if i != anchor]
    free = [(set(t.roles) - {role}).pop() for t in others]
    # axis of each role on a chunk's (anchor point, u, v) grid
    axes = {role: 0, free[0]: 1, free[1]: 2}
    basis = tables[anchor].basis
    complement = np.linalg.svd(basis)[0][..., basis.shape[-1]:]
    fixed = _fixed_cross(tables, anchor)
    n = len(pairs)
    n_triples = gap_failures = 0
    min_defect, max_defect, worst = np.inf, -np.inf, None
    step = max(1, TRIPLE_BLOCK // max(1, n * n))
    for start in range(0, n, step):
        points = np.arange(start, min(start + step, n))
        cells = True
        for i, j in ((0, 1), (0, 2), (1, 2)):
            mask = pairs if axes[i] else pairs[points]
            mask = mask if axes[j] else mask[:, points]
            if axes[i] > axes[j]:
                mask = mask.T
            cells = cells & np.expand_dims(mask, 3 - axes[i] - axes[j])
        cell = np.flatnonzero(cells)
        if not cell.size:
            continue
        # (p, u, v) of each cell (p n + u) n + v, by products, not modulo
        pu = cell // n
        p = pu // n
        u, v = pu - p * n, cell - pu * n
        gram = _gram(tables, anchor, complement, points, p, u, v, fixed)
        at = {role: points[p], free[0]: u, free[1]: v}
        x, y, z = at[0], at[1], at[2]
        missing, lowest, first, highest = _triple_extremes(
            tables, gram, x, y, z, min_defect, max_defect)
        n_triples += len(x)
        gap_failures += int(np.count_nonzero(missing))
        if first is None:
            continue
        key = (int(x[first]), int(y[first]), int(z[first]))
        if lowest < min_defect or (lowest == min_defect and key < worst):
            min_defect, worst = lowest, key
        max_defect = max(max_defect, highest)
    if worst is None:
        return n_triples, gap_failures, None, None, None
    return n_triples, gap_failures, min_defect, max_defect, worst


def _transversality_scan(rep: Representation, k: int, max_length: int,
                         kind: str, summands_fn, certify_indices,
                         require_certification: bool,
                         min_separation: float) -> TransversalityScanReport:
    _check_separation(min_separation)
    certification = {
        idx: report.verdict for idx, report in
        _gap_scans(rep, certify_indices, CERTIFICATION_LENGTH).items()}
    certified = all(v == "anosov-like" for v in certification.values())
    if require_certification and not certified:
        return TransversalityScanReport(
            kind=kind, rep_label=rep.label, k=k, max_length=max_length,
            certification=certification, certified=False,
            n_points=0, n_triples=0, gap_failures=0, min_defect=None,
            verdict="non-certifiable", min_separation=min_separation)
    atlas = BoundaryAtlas(rep, max_length)
    # ordered pairs of distinct points at least min_separation apart
    separated = circle_separation(atlas.angles[:, None],
                                  atlas.angles[None, :]) >= min_separation
    np.fill_diagonal(separated, False)
    # some third point fits: einsum's float32 loop counts exactly (below
    # WORD_BALL_CAP < 2^24) and starts no BLAS threads
    pairwise = separated.astype(np.float32)
    used = separated & (np.einsum("ik,kj->ij", pairwise, pairwise) > 0)
    # intersect(v, R^d) is v itself: whole-space parts drop out, and at
    # k = 1 every summand is a point flag
    summands = tuple(tuple(part for part in summand if part[1] < rep.dim)
                     for summand in summands_fn(k, rep.dim))
    n_triples, gap_failures, min_defect, max_defect, worst = _triple_scan(
        _summand_tables(atlas, summands, used), separated)
    return TransversalityScanReport(
        kind=kind, rep_label=rep.label, k=k, max_length=max_length,
        certification=certification, certified=certified,
        n_points=len(atlas), n_triples=n_triples, gap_failures=gap_failures,
        min_defect=min_defect, verdict=_scan_verdict(min_defect),
        worst_triple=worst and tuple(atlas.words[i] for i in worst),
        max_defect=max_defect, min_separation=min_separation)


def hk_scan(rep: Representation, k: int, max_length: int,
            min_separation: float = TRIPLE_SEPARATION
            ) -> TransversalityScanReport:
    """H_k defect over ordered separated fixed-point triples of a ball,
    for k in 1..d-1.

    The verdict is ``pass`` when the minimum defect exceeds
    ``SCAN_ACCEPT``, ``fail`` when it is below ``SCAN_REJECT``, else
    ``ambiguous``.

    Triples whose required flags do not exist (missing eigenvalue gap)
    are counted in ``gap_failures`` and recorded with defect 0: the
    transversality sum the property requires cannot be formed.  For
    k >= 2 the summand y^k n z^(d-k+1) is computed once per ordered pair
    (y, z), all pairs in one batched call, as the line that y^k and z^(d-k)
    being transverse make it (``intersect``): no tolerance decides its
    rank, and the summand ranks add up to d.  At k = 1, z^d is the whole
    space, so H_1 is x^1 + y^1 + z^(d-2), three point flags, and no
    intersection is computed.

    The defects come from one batched SVD, but only on the triples that
    can still reach the running minimum or maximum.  Every other triple
    is pruned by certified bounds on its smallest singular value, from
    the Gram blocks of the other summands split off the anchor
    z^(d-k-1) (``_triple_scan``, ``_root_bounds``).  The reported values,
    the first worst triple and the counts are those of the SVD of every
    triple.  ``min_separation`` must be a finite number >= 0.
    """
    _check_k(k, rep.dim - 1)
    return _transversality_scan(
        rep, k, max_length, "Hk", _hk_summands,
        required_indices_h(k, rep.dim), require_certification=False,
        min_separation=min_separation)


def ck_scan(rep: Representation, k: int, max_length: int,
            min_separation: float = TRIPLE_SEPARATION
            ) -> TransversalityScanReport:
    """C_k defect scan for k in 1..d-2; non-certifiable when a required gap
    scan is not anosov-like (the property needs Anosov behaviour at those
    indices), else verdicts from ``SCAN_ACCEPT`` and ``SCAN_REJECT`` as in
    ``hk_scan``.

    At k = 1, x^d is the whole space, so C_1 is x^(d-3) + y^1 + z^2,
    three point flags, and no intersection is computed; for k >= 2, the
    line x^(d-k+1) n y^k is computed once per ordered pair (x, y), as the
    H_k line is.  Triples are pruned by certified bounds as in
    ``hk_scan``, split off the anchor x^(d-k-2) (of the three point flags
    of C_1, the largest).
    """
    _check_k(k, rep.dim - 2)
    return _transversality_scan(
        rep, k, max_length, "Ck", _ck_summands,
        required_indices_c(k, rep.dim), require_certification=True,
        min_separation=min_separation)


# ---------------------------------------------------------------------------
# hyperconvexity of the projected curve
# ---------------------------------------------------------------------------

def _projected_line(ball: _WordBall, k: int, x: Word, w: Word) -> Subspace:
    """Curve point of ``w`` in P(X), X = x^(d-k+1)/x^(d-k-2): the line
    [x^(d-k-1)] when w's boundary point is x's, else [w^k n x^(d-k+1)]."""
    d = ball.rep.dim
    x_low = ball.space(x, d - k - 2)
    x_high = ball.space(x, d - k + 1)
    if circle_separation(ball.fixed_points(w)[0],
                         ball.fixed_points(x)[0]) < ANGLE_SEPARATION:
        line = ball.space(x, d - k - 1)
    else:
        line = intersect(ball.space(w, k), x_high)
    return quotient_project(line, x_low, x_high)


def _projection_lines(rep: Representation, k: int, x: Word, samples,
                      min_separation: float):
    """Curve points in P(x^(d-k+1)/x^(d-k-2)): the special x-line plus the
    projected sections of the samples with boundary points, thinned to the
    separation cutoff and never keeping two coincident boundary points."""
    ball = _WordBall(rep, 0, (x, *samples))
    cutoff = max(min_separation, ANGLE_SEPARATION)
    kept_angles = [ball.fixed_points(x)[0]]
    labels = [x]
    for y in samples:
        try:
            angle = ball.fixed_points(y)[0]
        except DomainError:
            continue
        if any(circle_separation(angle, a) < cutoff for a in kept_angles):
            continue
        kept_angles.append(angle)
        labels.append(y)
    # the kept points' k-flags in one kernel call; each line raises its own
    # errors, in label order
    ball.fill(k, [ball.row(w) for w in labels])
    return [_projected_line(ball, k, x, w) for w in labels], labels


def projection_triple_defect(rep: Representation, k: int, x: Word,
                             triple) -> float:
    """Spanning defect of three projected curve points (pairwise distinct),
    for k in 1..d-2."""
    _check_k(k, rep.dim - 2)
    words = _three_words(triple)
    ball = _WordBall(rep, 0, (x, *words))
    _triple_distinct(ball, words)
    return direct_sum_defect([_projected_line(ball, k, x, w) for w in words])


def check_projection_hyperconvexity(rep: Representation, k: int, x: Word,
                                    samples,
                                    min_separation: float = TRIPLE_SEPARATION
                                    ) -> TransversalityScanReport:
    """Spanning defect of projected triples in the 3-space
    X = x^(d-k+1)/x^(d-k-2), for k in 1..d-2.

    The boundary point y of every sample with reference fixed points (the
    others are skipped) maps to the line [y^k n x^(d-k+1)]; the point x
    itself contributes the line [x^(d-k-1)].  Samples closer than the
    separation cutoff (at least ``groups.ANGLE_SEPARATION``) to an
    already-kept curve point are thinned out; the report carries the
    minimum 3-plane spanning defect over all triples of kept curve
    points, with verdicts from ``SCAN_ACCEPT`` and ``SCAN_REJECT`` as in
    ``hk_scan``, and the length of the longest sample word as its
    ``max_length``; ``max_defect`` stays None.

    Three lines of X have the shape x^1 + y^1 + z^1 of H_1, so the triples
    i < j < l run on the H_k/C_k kernel (``_triple_scan``): certified
    bounds on each defect (``_root_bounds``) leave the exact SVD to the
    triples that can reach the running minimum.  ``worst_triple`` is the
    first minimum in combinations order.
    """
    _check_k(k, rep.dim - 2)
    _check_separation(min_separation)
    samples = tuple(samples)
    lines, labels = _projection_lines(rep, k, x, samples, min_separation)
    n = len(lines)
    if n < 3:
        raise PreconditionError("need at least three distinct curve points")
    basis = np.stack([line.basis for line in lines])
    tables = [_SummandTable((role,), np.zeros(n, dtype=bool), basis)
              for role in range(3)]
    n_triples, _, min_defect, _, worst = _triple_scan(
        tables, np.triu(np.ones((n, n), dtype=bool), 1))
    return TransversalityScanReport(
        kind="projection", rep_label=rep.label, k=k,
        max_length=max(map(len, samples)),
        certification={}, certified=True, n_points=n,
        n_triples=n_triples, gap_failures=0, min_defect=min_defect,
        verdict=_scan_verdict(min_defect),
        worst_triple=tuple(labels[i] for i in worst),
        min_separation=min_separation)


# ---------------------------------------------------------------------------
# strongly positively ratioed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositivityScanReport(_Report):
    rep_label: str
    k: int
    max_length: int
    n_points: int
    n_quadruples: int
    min_gcr: float
    worst_quadruple: tuple
    passed: bool


def check_positively_ratioed(rep: Representation, k: int,
                             max_length: int) -> PositivityScanReport:
    """Minimum Grassmannian cross ratio over cyclically ordered quadruples,
    for k in 1..d-1.

    The 4 C(n, 4) rotations of 4-subsets of the angle-sorted points are all
    cyclic arrangements, scored from one batched ``det`` table of [k-flag_i |
    (d-k)-flag_j] (``_wedge_table``).  ``_arrangement_minimum`` finds their
    minimum without visiting each: one prefix-min/max sweep per point, O(n^3)
    time and O(n^2) memory on every table, however many arrangements tie,
    bit-identical to scoring every arrangement.  The worst quadruple is the
    first minimum in sweep order: z in angle order, then x, y and w by
    cyclic position after z.
    Passing means min > 1 + ``POSITIVITY_MARGIN``.  A point without an
    eigenvalue-modulus gap at k or d - k raises ``GapError`` naming its
    word and the flag dimension; a wedge below ``WEDGE_DEGENERACY_TOL``
    raises ``DomainError``.
    """
    d = rep.dim
    _check_k(k, d - 1)
    atlas = BoundaryAtlas(rep, max_length)
    n = len(atlas)
    if n < 4:
        raise InputError("need at least 4 boundary points")
    wedge = _wedge_table(atlas, k)
    off = np.abs(wedge + np.eye(n))
    if np.min(off) < WEDGE_DEGENERACY_TOL:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        raise DomainError(
            f"transversality failure between points "
            f"{atlas.words[i]} and {atlas.words[j]}: |wedge| = "
            f"{off[i, j]:.3g} below WEDGE_DEGENERACY_TOL = "
            f"{WEDGE_DEGENERACY_TOL:g}, angular separation "
            f"{circle_separation(atlas.angles[i], atlas.angles[j]):.3g} rad")
    min_gcr, worst = _arrangement_minimum(wedge)
    return PositivityScanReport(
        rep_label=rep.label, k=k, max_length=max_length, n_points=n,
        n_quadruples=4 * math.comb(n, 4), min_gcr=min_gcr,
        worst_quadruple=tuple(atlas.words[i] for i in worst),
        passed=bool(min_gcr > 1.0 + POSITIVITY_MARGIN))


def _wedge_table(atlas: BoundaryAtlas, k: int) -> np.ndarray:
    """W[i, j] = det[k-flag_i | (d-k)-flag_j], one batched ``det`` over the
    (n, n, d, d) stack; the diagonal, never read, is zero.

    The flags of each dimension come from the ball's flag table
    (``BoundaryAtlas.flags``), one batched ``core_linalg._invariant_bases``
    call per dimension.  A missing flag raises the GapError naming the
    first such point's word and the dimension, k's before d - k's; a
    flag's NumericError is raised before the missing flags of its
    dimension.
    """
    n, d = len(atlas), atlas.ball.rep.dim
    flags = []
    for dim in (k, d - k):
        bases, missing = atlas.flags(dim, np.arange(n))
        if missing.any():
            raise atlas.ball.gap_error(
                dim, atlas.rows[int(np.argmax(missing))])
        flags.append(bases)
    k_flags, dk_flags = flags
    wedge = np.linalg.det(np.concatenate(
        [np.broadcast_to(k_flags[:, None], (n, n, d, k)),
         np.broadcast_to(dk_flags[None, :], (n, n, d, d - k))], axis=3))
    np.fill_diagonal(wedge, 0.0)
    return wedge


def _arrangement_minimum(wedge: np.ndarray) -> tuple:
    """Minimum cross ratio over an (n, n) wedge table of angle-sorted points,
    and the first (x, y, z, w) that attains it.

    An arrangement is cyclically ordered, x < y < z < w, and scores
    ``(W[x,z]/W[x,y]) * (W[w,y]/W[w,z])``; only off-diagonal entries are
    read.  Instead of scoring all 4 C(n, 4) arrangements, one sweep per z
    (``_arc_sweep``) takes the exact minimum over w for every (x, y) from
    prefix minima and maxima, every value bit-identical to the
    arrangement's own: O(n^3) time and O(n^2) memory on every table.

    The witness is the first minimum in the order the sweeps visit
    arrangements: z in angle order, then x, y and w by cyclic position
    after z.  The first minimizing z is swept once more; its first (x, y)
    attaining the minimum, row-major, is kept, and the first w before x
    whose product G * F equals it.  Such a w exists: the minimum is F times
    a prefix minimum or maximum of G, which is the G of some w before x.
    """
    n = len(wedge)
    ring = np.tile(wedge, (2, 2))
    np.fill_diagonal(ring, 1.0)   # the arcs' W[i, i]: read by no arrangement
    # (x, y) at arc positions (i, j) with 1 <= i < j; row r holds i = r + 1
    valid = np.triu(np.ones((n - 2, n - 1), dtype=bool), 2)
    minima = [np.min(_arc_sweep(ring, z)[2], where=valid, initial=np.inf)
              for z in range(n)]
    z = int(np.argmin(minima))
    min_gcr = minima[z]
    g, f, values = _arc_sweep(ring, z)
    r, j = np.argwhere(valid & (values == min_gcr))[0]
    w = int(np.argmax(g[:r + 1, j] * f[r, j] == min_gcr))
    arc = (z + 1 + np.arange(n - 1)) % n
    return float(min_gcr), (int(arc[r + 1]), int(arc[j]), z, int(arc[w]))


def _arc_sweep(ring: np.ndarray, z: int) -> tuple:
    """Every arrangement (x, y, z, w) of one z, minimised over w, in O(n^2)
    time and memory.

    ``ring`` is the wedge table tiled twice in both axes, so the n - 1
    points after z in cyclic order, the arc, are a view: on it the
    arrangement's order is w, x, y.  With G[w, y] = W[w,y]/W[w,z] and
    F[x, y] = W[x,z]/W[x,y], its value is the product G * F, the loop's two
    IEEE factors commuted and so bit-identical.  Rounding is monotone, so
    the minimum over w before x of fl(G * F) is F times the prefix minimum
    of G along the arc where F > 0, and times its prefix maximum where
    F < 0.  Returns G (arc position of w, of y), F and those minima, the
    last two with row r for x at arc position r + 1.
    """
    n = len(ring) // 2
    arc = ring[z + 1:z + n, z + 1:z + n]
    to_z = ring[z + 1:z + n, z, None]
    g = arc / to_z
    f = to_z[1:] / arc[1:]
    low = np.minimum.accumulate(g, axis=0)[:-1]    # w strictly before x
    high = np.maximum.accumulate(g, axis=0)[:-1]
    return g, f, np.where(f > 0, low, high) * f


# ---------------------------------------------------------------------------
# eigenvalue identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenIdentityReport(_Report):
    g: Word
    x: Word
    k: int
    pcr_value: float
    lambda_ratio: float
    gcr_value: float
    weight_period: float
    pcr_rel_error: float
    gcr_rel_error: float

    @property
    def passed(self) -> bool:
        """Both identities hold to ``IDENTITY_RTOL``; the period exceeds 1."""
        return (self.pcr_rel_error <= IDENTITY_RTOL
                and self.gcr_rel_error <= IDENTITY_RTOL
                and self.gcr_value > 1.0)


def check_eigen_identities(rep: Representation, k: int, g: Word,
                           x: Word) -> EigenIdentityReport:
    """Both eigenvalue identities for g, read off the ball naming g and x.

    The pencil cross ratio over (g-^(d-k-1) < g-^(d-k+1)) of the four
    sections equals the signed ratio lambda_k/lambda_(k+1) of the image
    of g; the Grassmannian cross ratio (g-^k, x^(d-k), g x^(d-k), g+^k)
    equals the weight period lambda_1...lambda_k / (lambda_d...).
    """
    _check_k(k, rep.dim - 1)
    return _eigen_identities(_WordBall(rep, 0, (g, x)), k, g, x)


def _eigen_identities(ball: _WordBall, k: int, g: Word,
                      x: Word) -> EigenIdentityReport:
    if ball.rep.reference is not None:
        x_att, _ = ball.fixed_points(x)
        for fixed in ball.fixed_points(g):
            if circle_separation(x_att, fixed) < ANGLE_SEPARATION:
                raise PreconditionError(
                    f"auxiliary point {x} hits a fixed point of {g}")
    d = ball.rep.dim
    m_g = ball.image(g)
    g_inv = g.inverse()

    v_low = ball.space(g_inv, d - k - 1)
    v_high = ball.space(g_inv, d - k + 1)
    x_k = ball.space(x, k)
    gx_k = x_k.apply(m_g)
    entries = [
        ball.space(g_inv, d - k),
        intersect(x_k, v_high),
        intersect(gx_k, v_high),
        intersect(ball.space(g, k), v_high),
    ]
    pcr_value = pcr_quotient(v_low, v_high, *entries)

    x_dk = ball.space(x, d - k)
    gcr_value = gcr(ball.space(g_inv, k), x_dk, x_dk.apply(m_g),
                    ball.space(g, k))

    row = ball.row(g)
    columns = ball.eigenvalues(k)
    columns.check_ratios(row)
    lambda_ratio = float(columns.ratio[row])
    period = float(columns.period[row])
    return EigenIdentityReport(
        g=g, x=x, k=k, pcr_value=pcr_value, lambda_ratio=lambda_ratio,
        gcr_value=gcr_value, weight_period=period,
        pcr_rel_error=abs(pcr_value - lambda_ratio) / abs(lambda_ratio),
        gcr_rel_error=abs(gcr_value - period) / abs(period))


_AUXILIARY_WORDS = (Word((1,)), Word((2,)), Word((1, 2)), Word((2, 1)),
                    Word((1, -2)), Word((1, 1, 2)))


def _auxiliary_point(ball: _WordBall, g: Word, candidates) -> Word:
    """The first candidate whose fixed point is more than
    ``AUXILIARY_SEPARATION`` from both fixed points of g."""
    gp, gm = ball.fixed_points(g)
    for cand in candidates:
        try:
            att, _ = ball.fixed_points(cand)
        except DomainError:
            continue
        if (circle_separation(att, gp) > AUXILIARY_SEPARATION
                and circle_separation(att, gm) > AUXILIARY_SEPARATION):
            return cand
    raise PreconditionError(f"no auxiliary boundary point found for {g}")


def eigen_identity_scan(rep: Representation, k: int, max_length: int) -> list:
    """Eigenvalue-identity reports for every loxodromic word of the ball, in
    ball order, each at the first of ``_AUXILIARY_WORDS`` within the rep's
    rank whose boundary point avoids its fixed points.

    The flags every item reads (dimensions k, d - k - 1, d - k and
    d - k + 1 of the loxodromic words, which include their inverses, and
    of the auxiliary words) are filled first, one kernel call per
    dimension; each item then raises its own errors, in item order.
    """
    _check_k(k, rep.dim - 1)
    aux = [w for w in _AUXILIARY_WORDS if max(map(abs, w.letters)) <= rep.rank]
    ball = _WordBall(rep, max_length, aux)
    words, _ = ball.loxodromic()
    d = rep.dim
    rows = np.concatenate([ball.loxodromic_rows(),
                           [ball.row(w) for w in aux]]).astype(np.intp)
    for dim in sorted({k, d - k - 1, d - k, d - k + 1}.difference({0, d})):
        ball.fill(dim, rows)
    return [_eigen_identities(ball, k, w, _auxiliary_point(ball, w, aux))
            for w in words]


# ---------------------------------------------------------------------------
# the collar inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollarReport(_Report):
    g: Word
    h: Word
    k: int
    lhs: float
    rhs: float
    weight_rhs: float
    holds: bool
    margin: float
    sign_indeterminate: bool

    @property
    def weight_chain_ok(self) -> bool:
        """The weight bound lies below rhs, up to ``WEIGHT_CHAIN_SLACK``."""
        return self.rhs >= self.weight_rhs - WEIGHT_CHAIN_SLACK


def _linked(ends: np.ndarray) -> np.ndarray:
    """(n, n) mask of ``groups.is_linked`` on every ordered pair (g, h) of n
    words with (n, 2) (attracting, repelling) angles ``ends``: the cyclic
    descents of (g-, h-, g+, h+) are odd in number (1 or 3, for four
    distinct points), and no two of the four points are closer than
    ``ANGLE_SEPARATION``.  Built ``PAIR_BLOCK`` cells of g rows at a
    time, so its temporaries stay that size."""
    plus, minus = ends[:, 0], ends[:, 1]
    n = len(ends)
    linked = np.empty((n, n), dtype=bool)
    step = max(1, PAIR_BLOCK // max(1, n))
    for start in range(0, n, step):
        g = slice(start, start + step)
        cycle = (minus[g, None], minus[None, :], plus[g, None], plus[None, :])
        odd = ((cycle[1] < cycle[0]) ^ (cycle[2] < cycle[1])
               ^ (cycle[3] < cycle[2]) ^ (cycle[0] < cycle[3]))
        for i, j in itertools.combinations(range(4), 2):
            odd &= circle_separation(cycle[i], cycle[j]) >= ANGLE_SEPARATION
        linked[g] = odd
    return linked


@dataclass(frozen=True, eq=False)
class CollarTable(Sequence):
    """The collar reports of a set of linked pairs, held as columns.

    ``words`` are the loxodromic words; pair p is (words[g_rows[p]],
    words[h_rows[p]]).  ``lhs`` and ``lhs_signed`` are per word as g,
    ``rhs``, ``weight_rhs`` and ``rhs_signed`` per word as h, and
    ``margin``, ``holds`` and ``sign_indeterminate`` per pair.  As a
    sequence the table reads as its ``CollarReport`` rows, each built only
    when it is read.
    """

    k: int
    words: tuple
    g_rows: np.ndarray
    h_rows: np.ndarray
    lhs: np.ndarray
    lhs_signed: np.ndarray
    rhs: np.ndarray
    weight_rhs: np.ndarray
    rhs_signed: np.ndarray
    margin: np.ndarray
    holds: np.ndarray
    sign_indeterminate: np.ndarray

    def __post_init__(self):
        for f in fields(self)[2:]:
            getattr(self, f.name).flags.writeable = False

    @property
    def weight_chain_ok(self) -> np.ndarray:
        """Per pair: ``CollarReport.weight_chain_ok``."""
        return (self.rhs >= self.weight_rhs - WEIGHT_CHAIN_SLACK)[self.h_rows]

    def __len__(self) -> int:
        return len(self.g_rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[p] for p in range(*index.indices(len(self)))]
        p = range(len(self))[index]
        g, h = int(self.g_rows[p]), int(self.h_rows[p])
        return CollarReport(
            self.words[g], self.words[h], self.k, float(self.lhs[g]),
            float(self.rhs[h]), float(self.weight_rhs[h]),
            bool(self.holds[p]), float(self.margin[p]),
            bool(self.sign_indeterminate[p]))

    def __iter__(self):
        # positional, in CollarReport's field order; a word's values are one
        # Python float each, shared by its pairs
        g_list, h_list = self.g_rows.tolist(), self.h_rows.tolist()
        return itertools.starmap(CollarReport, zip(
            map(self.words.__getitem__, g_list),
            map(self.words.__getitem__, h_list), itertools.repeat(self.k),
            map(self.lhs.tolist().__getitem__, g_list),
            map(self.rhs.tolist().__getitem__, h_list),
            map(self.weight_rhs.tolist().__getitem__, h_list),
            self.holds.tolist(), self.margin.tolist(),
            self.sign_indeterminate.tolist()))


def _collar_table(ball: _WordBall, k: int, rows: np.ndarray,
                  g_rows: np.ndarray, h_rows: np.ndarray) -> CollarTable:
    """The collar table of the pairs (g_rows[p], h_rows[p]) of the ball
    rows ``rows``, from the ball's eigenvalue columns at k.

    A word fails as g where its residual check failed, and as h also where its
    ratios disagree, where it has no modulus gap at k, or where it has an
    eigenvalue of modulus zero.  The first pair reading a failure raises
    it, g's before h's, as the one-row calls on that word would.
    """
    columns = ball.eigenvalues(k)
    failed = ball.failed()[rows]
    h_failed = failed | (columns.disagree | columns.no_gap | columns.zero)[rows]
    bad = failed[g_rows] | h_failed[h_rows]
    if bad.any():
        p = int(np.argmax(bad))
        g, h = rows[g_rows[p]], rows[h_rows[p]]
        # raises g's residual error, or h's; then h's errors in the order of
        # the one-row calls: the ratios, the gap, the lengths
        ball.spectrum(ball.words[g if failed[g_rows[p]] else h])
        columns.check_ratios(h)
        if columns.no_gap[h]:
            modulus = float(columns.modulus[h])
            raise GapError(
                f"no eigenvalue gap at index {k} for word {ball.words[h]}: "
                f"|lambda_{k}|/|lambda_{k + 1}| = {modulus:.6g}",
                index=k, ratio=modulus)
        columns.check_lengths(h)
    lhs, lhs_signed = columns.period[rows], columns.period_real[rows]
    rhs_signed = columns.ratio_signed[rows]
    with np.errstate(divide="ignore", over="ignore"):
        rhs = 1.0 / (1.0 - 1.0 / columns.ratio[rows])
        weight_rhs = 1.0 / (1.0 - np.exp(-columns.weight_length[rows]))
    left, right = lhs[g_rows], rhs[h_rows]
    return CollarTable(
        k=k, words=tuple(ball.words[r] for r in rows.tolist()),
        g_rows=g_rows, h_rows=h_rows, lhs=lhs, lhs_signed=lhs_signed,
        rhs=rhs, weight_rhs=weight_rhs, rhs_signed=rhs_signed,
        margin=left - right, holds=left > right,
        sign_indeterminate=~rhs_signed[h_rows] | ~lhs_signed[g_rows])


def collar_check(rep: Representation, k: int, g: Word, h: Word) -> CollarReport:
    """Collar inequality for one linked pair: the one row of its
    ``CollarTable``.

    lhs is the signed weight period of g, rhs = (1 - lambda_(k+1)/lambda_k(h))^-1
    with the signed ratio; when the signed ratio is unavailable the
    moduli are substituted and the report is flagged sign-indeterminate.
    Without a modulus gap |lambda_k(h)| > (1 + EIGEN_GAP_MIN)
    |lambda_(k+1)(h)| (``attracting_space``'s rule, ``core_linalg._no_gap``)
    rhs is undefined: GapError.
    """
    _check_k(k, rep.dim - 1)
    ball = _WordBall(rep, 0, (g, h))
    ends = np.array([ball.fixed_points(g), ball.fixed_points(h)])
    if not _linked(ends)[0, 1]:
        raise PreconditionError(f"pair ({g}, {h}) is not linked")
    rows = np.array([ball.row(g), ball.row(h)])
    return _collar_table(ball, k, rows, np.array([0]), np.array([1]))[0]


def linked_pairs(rep: Representation, max_length: int) -> list:
    """All ordered linked pairs (g, h) of the ball's loxodromic words, in
    ball order of g, then of h; pairs with two coincident fixed points are
    left out."""
    words, ends = _WordBall(rep, max_length).loxodromic()
    return [(words[i], words[j]) for i, j in np.argwhere(_linked(ends))]


def collar_scan(rep: Representation, k: int, max_length: int) -> CollarTable:
    """The collar table of every ordered linked pair of the ball's
    loxodromic words, in ball order of g, then of h (``linked_pairs``'
    order).

    One array pass per ball gives every value: the loxodromic words and
    their reference fixed points from one batched call, the pairs from the
    nonzero entries of the linkage mask, and lhs, rhs, weight_rhs and both
    sign flags per word from one ``spectral._eigenvalue_columns`` call over
    the ball's Spectrum table.  A word whose value fails (GapError
    without a gap at k, NumericError) raises only when a linked pair reads
    it: the first such pair in the order above, its g's error before its
    h's.  No ``CollarReport`` is built until the table's rows are read.
    """
    _check_k(k, rep.dim - 1)
    ball = _WordBall(rep, max_length)
    rows = ball.loxodromic_rows()
    g_rows, h_rows = np.nonzero(_linked(ball.reference_ends()[0][rows]))
    return _collar_table(ball, k, rows, g_rows, h_rows)


# ---------------------------------------------------------------------------
# root-gap degeneration scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleRow(_Report):
    x: float
    ratio_gamma: float
    ratio_delta: float
    root_length: float

    @property
    def columns_agree(self) -> bool:
        """The ratios agree to ``RATIO_AGREEMENT_RTOL`` of ``ratio_gamma``."""
        return (abs(self.ratio_gamma - self.ratio_delta)
                <= RATIO_AGREEMENT_RTOL * abs(self.ratio_gamma))


def counterexample_scan(x_grid) -> list:
    """Signed top eigenvalue ratios of both generators along the family.

    The two columns agree (the generators share a characteristic
    polynomial) and tend to 1 as x decreases to 0, so the root length
    goes to 0 while the elements stay linked.
    """
    rows = []
    for x in x_grid:
        if not (np.isfinite(x) and x > 0):
            raise InputError(f"grid values must be positive, got {x}")
        rep = fg_rep(float(x))
        gam = eigenvalue_ratios(rep.generator_images[0], 1)
        dlt = eigenvalue_ratios(rep.generator_images[1], 1)
        rows.append(CounterexampleRow(
            x=float(x), ratio_gamma=float(gam.lambda_ratio),
            ratio_delta=float(dlt.lambda_ratio),
            root_length=float(np.log(gam.lambda_ratio_modulus))))
    return rows


# ---------------------------------------------------------------------------
# SO(p,q) positivity checks
# ---------------------------------------------------------------------------

def _check_unipotent(p_el: np.ndarray):
    d = p_el.shape[0]
    if (np.linalg.norm(np.tril(p_el, -1)) > 1e-12
            or np.max(np.abs(np.diag(p_el) - 1.0)) > 1e-12):
        raise InputError("matrix is not an upper unipotent positive element")


def sopq_positivity_coeffs(p_el, data: SOpqData, k: int) -> tuple:
    """Entries at (d-k-1, d-k+1) of a positive element and of its inverse.

    Both are strictly positive for admissible parameters; this is the
    coefficient computation behind the C_k property of the model.
    """
    _check_k(k, data.p - 3)
    m = np.asarray(p_el, dtype=float)
    _check_unipotent(m)
    d = data.d
    inv = np.linalg.inv(m)
    return (float(m[d - k - 2, d - k]), float(inv[d - k - 2, d - k]))


def sopq_model_triple_defect(data: SOpqData, p_el, k: int) -> float:
    """C_k defect of the model triple (X, P X, Z).

    Evaluates the direct-sum defect of
    Z^(d-k-2) + (Z^(d-k+1) n P X^k) + X^(k+1), where Z^l = span(e_1, ...,
    e_l) and X^l = span(e_(d-l+1), ..., e_d).
    """
    _check_k(k, data.p - 3)
    d = data.d
    z_low = Subspace.coordinate(d, *range(d - k - 2))
    z_high = Subspace.coordinate(d, *range(d - k + 1))
    px_k = Subspace.coordinate(d, *range(d - k, d)).apply(p_el)
    x_k1 = Subspace.coordinate(d, *range(d - k - 1, d))
    return direct_sum_defect([z_low, intersect(z_high, px_k), x_k1])


@dataclass(frozen=True)
class SopqScanReport(_Report):
    p: int
    q: int
    count: int
    seed: int
    all_positive: bool
    max_q_residual: float
    rows: tuple            # one dict per sampled element


def sopq_scan(p: int, q: int, count: int, seed: int,
              entry_max: float) -> SopqScanReport:
    """Positivity coefficients and model C_k defects of random positive
    elements of SO(p, q).

    Each element is ``sopq_positive`` of h/2 factors whose p-2 scalars and
    two cone-vector entries are drawn uniformly from
    [``SOPQ_ENTRY_MIN``, ``entry_max``) by a generator seeded with
    ``seed``.  An element passes when it preserves Q to
    ``SOPQ_RESIDUAL_RTOL`` ||Q||_2 and, for every k in 1..p-3, both
    coefficients are positive and the model defect exceeds
    ``SOPQ_DEFECT_FLOOR``.  p must be at least 4, so that some k is
    checked, and ``entry_max`` finite; p, q, ``count`` and ``seed`` must
    be integers, the seed >= 0.  An element too large to certify (its
    residual overflows) raises NumericError.
    """
    for name, value in (("p", p), ("q", q), ("count", count), ("seed", seed)):
        check_integer(value, f"{name}={value!r}")
    if p < 4:
        raise InputError(f"p={p} is below 4: no k in 1..p-3 to check")
    if count < 1:
        raise InputError(f"count={count} is below 1")
    if seed < 0:
        raise InputError(f"seed={seed} is negative")
    if not (math.isfinite(entry_max) and entry_max > SOPQ_ENTRY_MIN):
        raise InputError(
            f"entry_max={entry_max} is not a finite number above "
            f"{SOPQ_ENTRY_MIN}")
    data = sopq_form(p, q)
    rng = np.random.default_rng(seed)
    half_h = coxeter_number_B(p - 1) // 2
    m = q - p + 2
    budget = SOPQ_RESIDUAL_RTOL * float(np.linalg.norm(data.Q, 2))
    rows = []
    ok = True
    for i in range(count):
        vbars = []
        for _ in range(half_h):
            scalars = [float(rng.uniform(SOPQ_ENTRY_MIN, entry_max))
                       for _ in range(p - 2)]
            v = np.zeros(m)
            v[0] = rng.uniform(SOPQ_ENTRY_MIN, entry_max)
            v[-1] = (-1.0) ** (p - 1) * rng.uniform(SOPQ_ENTRY_MIN, entry_max)
            vbars.append(scalars + [v])
        p_el = sopq_positive(data, vbars)
        resid = float(np.linalg.norm(p_el.T @ data.Q @ p_el - data.Q, 2))
        row = {"index": i, "q_residual": resid}
        for k in range(1, p - 2):
            c, ci = sopq_positivity_coeffs(p_el, data, k)
            defect = sopq_model_triple_defect(data, p_el, k)
            row[f"coeff_k{k}"] = c
            row[f"coeff_inv_k{k}"] = ci
            row[f"model_defect_k{k}"] = defect
            ok = ok and c > 0 and ci > 0 and defect > SOPQ_DEFECT_FLOOR
        ok = ok and resid <= budget
        rows.append(row)
    return SopqScanReport(
        p=p, q=q, count=count, seed=seed, all_positive=ok,
        max_q_residual=max(r["q_residual"] for r in rows), rows=tuple(rows))

