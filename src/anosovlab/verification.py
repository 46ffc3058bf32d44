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
from dataclasses import dataclass, fields

import numpy as np

from .core_linalg import (
    Mat,
    PartialFlag,
    Spectrum,
    Subspace,
    _smallest_singular_values,
    direct_sum_defect,
    grassmann_distance,
    intersect,
    power_normalized,
    quotient_project,
    spectrum,
)
from .crossratio import gcr, pcr_quotient
from .errors import (
    AmbiguityError,
    DomainError,
    GapError,
    InputError,
    PreconditionError,
)
from .groups import (
    ANGLE_SEPARATION,
    Word,
    circle_separation,
    evaluate,
    rp1_fixed_points,
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
    EIGEN_GAP_MIN,
    attracting_space,
    cartan_attractor,
    eigenvalue_ratios,
    length_functions,
    singular_gaps,
    weight_period,
)

__all__ = [
    "GapScanReport",
    "TransversalityScanReport",
    "PositivityScanReport",
    "EigenIdentityReport",
    "CollarReport",
    "CounterexampleRow",
    "SopqScanReport",
    "anosov_gap_scan",
    "boundary_flag",
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
POINT_DEDUP_TOL = 1e-8    # boundary angles closer than this are one point
CERTIFICATION_LENGTH = 6  # word length of the gap scans certifying a
                          # transversality scan
POSITIVITY_MARGIN = 1e-9  # a positivity scan passes when min gcr > 1 + this
WEDGE_DEGENERACY_TOL = 1e-12  # |wedge| below this is a transversality failure
CONVERGENCE_POWERS = 40   # powers g^1..g^n fitted by attractor_convergence_slope
TRIPLE_SEPARATION = 0.3   # minimum pairwise boundary separation (radians) of
                          # scan triples; transversality defects of distinct
                          # but nearly coincident points vanish to high order
                          # (contact of the flag curve), so threshold verdicts
                          # are only meaningful on separated triples
IDENTITY_RTOL = 1e-7      # relative error within which an eigenvalue
                          # identity holds
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
    """The reduced words up to a length and everything the checks read off them.

    ``images`` stacks the images of ``words`` in one read-only (n, d, d)
    array, and the 2x2 reference images of the ball are built on first use
    the same way (``_products``).  The reference fixed points of a word, the
    Spectrum of its image and every value read from it (``cached``:
    attracting spaces, ratios, lengths) are computed on first use and kept
    for the life of the ball.  A word outside the ball is evaluated on
    demand and kept, so a ball of length 0 serves the single-item checks.
    One ball lives for one scan or check.
    """

    def __init__(self, rep: Representation, max_length: int):
        self.rep = rep
        self.words = words_of_length(rep.rank, max_length)
        self._rows = {w.letters: i for i, w in enumerate(self.words)}
        images = self._products(rep)
        if not np.all(np.isfinite(images)):
            raise InputError("word images overflow: matrix entries must be finite")
        images.flags.writeable = False
        self.images = images
        self._reference_images = None
        self._outside: dict = {}
        self._fixed: dict = {}
        self._spectra: dict = {}
        self._values: dict = {}
        self._zero = Subspace.zero(rep.dim)
        self._full = Subspace.full(rep.dim)

    def _products(self, rep: Representation) -> np.ndarray:
        """The (n, dim, dim) images of ``words`` under ``rep``.  Each is its
        prefix's image times one generator or its inverse: the products of
        ``evaluate`` in the same order, so the entries agree bit for bit."""
        if rep.rank < self.rep.rank and len(self.words) > 1:
            raise InputError(f"word uses generator {rep.rank + 1}, "
                             f"representation has {rep.rank}")
        steps = {}
        for i, g in enumerate(rep.generator_images, 1):
            steps[i] = g.entries
            steps[-i] = np.linalg.inv(g.entries)
        images = np.empty((len(self.words), rep.dim, rep.dim))
        for i, w in enumerate(self.words):
            letters = w.letters
            images[i] = (images[self._rows[letters[:-1]]] @ steps[letters[-1]]
                         if letters else np.eye(rep.dim))
        return images

    def image(self, w: Word) -> np.ndarray:
        """Image of ``w``: its row of ``images``, else evaluated and kept."""
        i = self._rows.get(w.letters)
        if i is not None:
            return self.images[i]
        m = self._outside.get(w)
        if m is None:
            m = self._outside[w] = evaluate(self.rep, w).entries
        return m

    def fixed_points(self, w: Word) -> tuple:
        """Attracting and repelling angles of ``w`` on the reference circle."""
        points = self._fixed.get(w)
        if points is None:
            ref = self.rep.reference
            if ref is None:
                raise InputError(
                    "representation carries no 2x2 boundary reference")
            i = self._rows.get(w.letters)
            if i is None:
                m = evaluate(ref, w)
            else:
                if self._reference_images is None:
                    self._reference_images = self._products(ref)
                m = self._reference_images[i]
            points = self._fixed[w] = rp1_fixed_points(m)
        return points

    def loxodromic(self) -> tuple:
        """The nontrivial words with reference fixed points, in ball order,
        and their (n, 2) array of (attracting, repelling) angles."""
        words, ends = [], []
        for w in self.words[1:]:
            try:
                ends.append(self.fixed_points(w))
            except DomainError:
                continue
            words.append(w)
        return words, np.array(ends, dtype=float).reshape(-1, 2)

    def spectrum(self, w: Word) -> Spectrum:
        """Sorted, residual-checked eigenvalues and 2-norm of the image of ``w``."""
        spec = self._spectra.get(w)
        if spec is None:
            spec = self._spectra[w] = spectrum(self.image(w))
        return spec

    def cached(self, fn, w: Word, index: int):
        """``fn(spectrum of w, index)`` for a ``spectral`` function, kept."""
        key = (fn, w, index)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = fn(self.spectrum(w), index)
        return value

    def space(self, w: Word, dim: int) -> Subspace:
        """Attracting space of dimension ``dim`` of the image of ``w``."""
        d = self.rep.dim
        if dim < 0 or dim > d:
            raise InputError(f"flag dimension {dim} outside 0..{d}")
        if dim == 0:
            return self._zero
        if dim == d:
            return self._full
        return self.cached(attracting_space, w, dim)


class BoundaryAtlas:
    """Deduplicated attracting fixed points of a word ball, with flag access.

    ``angles`` ascends in [0, pi); ``angles[i]`` is the attracting angle,
    in the 2x2 reference, of ``words[i]``.  The loxodromic words of
    ``self.ball`` are stably sorted by it, and a point within
    ``POINT_DEDUP_TOL`` of the last kept one (or, across the wrap, of the
    first) is dropped.  Non-loxodromic words are skipped and counted.
    Boundary flags are read from the same ball.
    """

    def __init__(self, rep: Representation, max_length: int):
        if rep.reference is None:
            raise InputError(
                "representation carries no 2x2 boundary reference")
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

    def __len__(self) -> int:
        return len(self.words)

    def space(self, i: int, dim: int) -> Subspace:
        return self.ball.space(self.words[i], dim)


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


def _gap_scans(rep: Representation, indices, max_length: int) -> dict:
    """Gap scan reports keyed by index, from one SVD per word of the ball.

    The images of each word sphere, a slice of the ball's stack (words come
    ordered by length), are decomposed in one batched call.
    """
    if max_length < 3:
        raise InputError("gap scans need max_length >= 3")
    ball = _WordBall(rep, max_length)
    lengths = list(range(1, max_length + 1))
    edges = np.searchsorted([len(w) for w in ball.words],
                            np.arange(max_length + 2))
    minima = np.array([
        np.log(singular_gaps(ball.images[edges[length]:edges[length + 1]],
                             indices)).min(axis=0)
        for length in lengths])
    return {k: _gap_report(rep, k, max_length, lengths, minima[:, i].tolist())
            for i, k in enumerate(indices)}


def _gap_report(rep: Representation, k: int, max_length: int, lengths,
                minima) -> GapScanReport:
    slope, intercept = np.polyfit(lengths, minima, 1)
    running_max = -np.inf
    monotone = True
    for length, m in zip(lengths, minima):
        if length >= 3 and m < running_max - MONOTONE_SLACK:
            monotone = False
        if length >= 2:
            running_max = max(running_max, m)
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
    """Flag of attracting spaces of the image of ``w`` at the given dims."""
    ball = _WordBall(rep, 0)
    parts = []
    for dim in dims:
        try:
            parts.append(ball.space(w, dim))
        except GapError as exc:
            raise GapError(
                f"no eigenvalue gap at dimension {dim} for word {w}",
                index=dim, ratio=exc.ratio) from exc
    return PartialFlag(tuple(parts))


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
    ball = _WordBall(rep, 0)
    _triple_distinct(ball, triple)
    parts = []
    for summand in summands_fn(k, rep.dim):
        spaces = [ball.space(triple[role], dim) for role, dim in summand]
        parts.append(spaces[0] if len(spaces) == 1 else intersect(*spaces))
    return direct_sum_defect(parts)


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
    x, y, z = triple
    return _triple_defect(rep, k, (x, y, z), _hk_summands)


def check_Ck(rep: Representation, k: int, triple) -> float:
    """Defect of the C_k sum  x^(d-k-2) + (x^(d-k+1) n y^k) + z^(k+1)."""
    x, y, z = triple
    return _triple_defect(rep, k, (x, y, z), _ck_summands)


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
    ambiguous_items: int = 0  # triples whose intersection summand fell in
                              # the ambiguity band; left out of the defects
    min_defect: float | None
    max_defect: float | None = None
    min_separation: float = 0.0
    verdict: str            # pass | fail | ambiguous | non-certifiable
    worst_triple: tuple | None = None


def _scan_verdict(min_defect: float) -> str:
    if min_defect > SCAN_ACCEPT:
        return "pass"
    if min_defect < SCAN_REJECT:
        return "fail"
    return "ambiguous"


_OK, _GAP, _AMBIGUOUS = 0, 1, 2   # outcome of a summand and of a triple


def _apart(a: np.ndarray, b: np.ndarray, cutoff: float) -> np.ndarray:
    """Elementwise ``circle_separation(a, b) >= cutoff``, by its formula."""
    delta = np.abs(a - b) % np.pi
    return np.minimum(delta, np.pi - delta) >= cutoff


@dataclass(frozen=True)
class _SummandTable:
    """One summand of a transversality sum at every key it is asked for.

    A key is one point (a flag) or an ordered pair of points (an
    intersection), indexed by the triple positions in ``roles``.
    """

    roles: tuple
    status: np.ndarray    # _OK, _GAP or _AMBIGUOUS per key
    rank: np.ndarray
    basis: np.ndarray     # orthonormal basis per key, zero-padded to (d, d)


def _summand_tables(atlas: BoundaryAtlas, summands, used: np.ndarray) -> list:
    """Tables of the summands over the points and pairs of ``used``.

    ``used`` marks the ordered point pairs that occur in some kept triple.
    Every flag is computed once per point and every intersection once per
    pair; a missing flag (GapError) or an ambiguous intersection
    (AmbiguityError) is recorded as the key's status.
    """
    n = len(atlas)
    d = atlas.ball.rep.dim
    points = np.flatnonzero(used.any(axis=1))
    flags = {}
    for dim in sorted({dim for summand in summands for _, dim in summand}):
        for i in points:
            try:
                flags[i, dim] = atlas.space(i, dim)
            except GapError:
                flags[i, dim] = None
    tables = []
    for summand in summands:
        shape = (n,) * len(summand)
        status = np.full(shape, _OK, dtype=np.int8)
        rank = np.zeros(shape, dtype=int)
        basis = np.zeros(shape + (d, d))
        keys = points[:, None] if len(summand) == 1 else np.argwhere(used)
        for key in map(tuple, keys):
            spaces = [flags[i, dim] for i, (_, dim) in zip(key, summand)]
            if None in spaces:
                status[key] = _GAP
                continue
            try:
                space = (spaces[0] if len(spaces) == 1
                         else intersect(*spaces))
            except AmbiguityError:
                status[key] = _AMBIGUOUS
                continue
            rank[key] = space.rank
            basis[key][:, :space.rank] = space.basis
        tables.append(_SummandTable(
            tuple(role for role, _ in summand), status, rank, basis))
    return tables


def _triple_defects(tables: list, x: int, y: np.ndarray,
                    z: np.ndarray) -> tuple:
    """Outcome and defect of the triples (x, y[i], z[i]).

    The first summand that is not ``_OK``, in summand order, decides a
    triple's outcome; a triple with a missing flag has defect 0.  The
    defects of the other triples come from one batched SVD per signature
    of summand ranks.
    """
    columns = (np.full(len(y), x), y, z)
    keys = [tuple(columns[role] for role in t.roles) for t in tables]
    status = np.full(len(y), _OK, dtype=np.int8)
    for t, key in zip(tables, keys):
        status = np.where(status == _OK, t.status[key], status)
    ranks = [t.rank[key] for t, key in zip(tables, keys)]
    d = tables[0].basis.shape[-1]
    signature = sum(r * (d + 1) ** i for i, r in enumerate(ranks))
    defects = np.zeros(len(y))
    ok = status == _OK
    for code in np.unique(signature[ok]):
        rows = np.flatnonzero(ok & (signature == code))
        stack = np.concatenate(
            [t.basis[tuple(c[rows] for c in key)][:, :, :r[rows[0]]]
             for t, key, r in zip(tables, keys, ranks)], axis=2)
        defects[rows] = _smallest_singular_values(stack)
    return status, defects


def _check_k(k: int, top: int) -> None:
    if not 1 <= k <= top:
        raise InputError(f"k={k} outside 1..{top}")


def _transversality_scan(rep: Representation, k: int, max_length: int,
                         kind: str, summands_fn, certify_indices,
                         require_certification: bool,
                         min_separation: float) -> TransversalityScanReport:
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
    n = len(atlas)
    # ordered pairs of distinct points at least min_separation apart
    separated = _apart(atlas.angles[:, None], atlas.angles[None, :],
                       min_separation)
    np.fill_diagonal(separated, False)
    pairwise = separated.astype(int)
    used = separated & (pairwise @ pairwise > 0)   # some third point fits
    tables = _summand_tables(atlas, summands_fn(k, rep.dim), used)

    # triples in the lexicographic order of their point indices, one first
    # point at a time, so the stacks stay O(n^2 d^2); a missing flag makes
    # the sum unachievable (defect 0), an ambiguous intersection leaves the
    # triple out of the defects
    n_triples = gap_failures = ambiguous_items = 0
    min_defect, max_defect, worst = np.inf, -np.inf, None
    for x in range(n):
        y, z = np.nonzero(separated[x][:, None] & separated[x][None, :]
                          & separated)
        if not len(y):
            continue
        status, defects = _triple_defects(tables, x, y, z)
        n_triples += len(y)
        gap_failures += int(np.sum(status == _GAP))
        kept = status != _AMBIGUOUS
        ambiguous_items += int(np.sum(~kept))
        if not kept.any():
            continue
        defects, y, z = defects[kept], y[kept], z[kept]
        j = int(np.argmin(defects))
        if defects[j] < min_defect:
            min_defect, worst = float(defects[j]), (x, int(y[j]), int(z[j]))
        max_defect = max(max_defect, float(defects.max()))
    if worst is None:
        min_defect = max_defect = worst_words = None
    else:
        worst_words = tuple(atlas.words[i] for i in worst)
    verdict = (_scan_verdict(min_defect)
               if min_defect is not None else "ambiguous")
    if verdict == "pass" and ambiguous_items:
        verdict = "ambiguous"
    return TransversalityScanReport(
        kind=kind, rep_label=rep.label, k=k, max_length=max_length,
        certification=certification, certified=certified,
        n_points=n, n_triples=n_triples, gap_failures=gap_failures,
        min_defect=min_defect, verdict=verdict, worst_triple=worst_words,
        max_defect=max_defect, min_separation=min_separation,
        ambiguous_items=ambiguous_items)


def hk_scan(rep: Representation, k: int, max_length: int,
            min_separation: float = TRIPLE_SEPARATION
            ) -> TransversalityScanReport:
    """H_k defect over ordered separated fixed-point triples of a ball,
    for k in 1..d-1.

    The verdict is ``pass`` when the minimum defect exceeds
    ``SCAN_ACCEPT``, ``fail`` when it is below ``SCAN_REJECT``, else
    ``ambiguous``.

    Triples whose required flags do not exist (missing eigenvalue gap)
    are recorded with defect 0: the transversality sum the property
    requires cannot be formed.  Ambiguity is decided per intersection
    pair: the intersection summand y^k n z^(d-k+1) is computed once per
    ordered pair (y, z), and when it falls in the ambiguity band of
    ``intersect`` every triple sharing that pair is counted in
    ``ambiguous_items``, left out of the defects, and turns a would-be
    ``pass`` into ``ambiguous``.  The first summand, in order, that is
    missing or ambiguous decides a triple's outcome.
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
    ``hk_scan``."""
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
    projected sections of samples, thinned to the separation cutoff and
    never keeping two coincident boundary points."""
    ball = _WordBall(rep, 0)
    cutoff = max(min_separation, ANGLE_SEPARATION)
    kept_angles = [ball.fixed_points(x)[0]]
    lines = [_projected_line(ball, k, x, x)]
    labels = [x]
    for y in samples:
        angle = ball.fixed_points(y)[0]
        if any(circle_separation(angle, a) < cutoff for a in kept_angles):
            continue
        kept_angles.append(angle)
        lines.append(_projected_line(ball, k, x, y))
        labels.append(y)
    return lines, labels


def projection_triple_defect(rep: Representation, k: int, x: Word,
                             triple) -> float:
    """Spanning defect of three projected curve points (pairwise distinct),
    for k in 1..d-2."""
    _check_k(k, rep.dim - 2)
    words = tuple(triple)
    ball = _WordBall(rep, 0)
    _triple_distinct(ball, words)
    return direct_sum_defect([_projected_line(ball, k, x, w) for w in words])


def check_projection_hyperconvexity(rep: Representation, k: int, x: Word,
                                    samples,
                                    min_separation: float = TRIPLE_SEPARATION
                                    ) -> TransversalityScanReport:
    """Spanning defect of projected triples in the 3-space
    X = x^(d-k+1)/x^(d-k-2), for k in 1..d-2.

    Every sample boundary point y maps to the line [y^k n x^(d-k+1)];
    the point x itself contributes the line [x^(d-k-1)].  Samples closer
    than the separation cutoff (at least ``groups.ANGLE_SEPARATION``) to
    an already-kept curve point are thinned out; the report carries the
    minimum 3-plane spanning defect over all triples of kept curve
    points, with verdicts from ``SCAN_ACCEPT`` and ``SCAN_REJECT`` as in
    ``hk_scan``.
    """
    _check_k(k, rep.dim - 2)
    lines, labels = _projection_lines(rep, k, x, samples, min_separation)
    n = len(lines)
    if n < 3:
        raise PreconditionError("need at least three distinct curve points")
    min_defect = np.inf
    worst = None
    for i, j, l in itertools.combinations(range(n), 3):
        defect = direct_sum_defect([lines[i], lines[j], lines[l]])
        if defect < min_defect:
            min_defect = defect
            worst = (labels[i], labels[j], labels[l])
    return TransversalityScanReport(
        kind="projection", rep_label=rep.label, k=k, max_length=0,
        certification={}, certified=True, n_points=n,
        n_triples=n * (n - 1) * (n - 2) // 6, gap_failures=0,
        min_defect=float(min_defect),
        verdict=_scan_verdict(float(min_defect)),
        worst_triple=worst, min_separation=min_separation)


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
    time and O(n^2) memory, bit-identical to scoring every arrangement.  The
    worst quadruple is the first minimum by 4-subset, then rotation.
    Passing means min > 1 + ``POSITIVITY_MARGIN``.  A wedge below
    ``WEDGE_DEGENERACY_TOL`` raises ``DomainError``.
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
    (n, n, d, d) stack; the diagonal, never read, is zero."""
    n, d = len(atlas), atlas.ball.rep.dim
    k_flags = np.stack([atlas.space(i, k).basis for i in range(n)])
    dk_flags = np.stack([atlas.space(i, d - k).basis for i in range(n)])
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
    prefix minima and maxima: O(n^3) time and O(n^2) memory, and every
    value bit-identical to the arrangement's own.

    Ties are kept as the loop over 4-subsets a < b < c < d in combinations
    order, each in rotations r = 0..3 (x the r-th point), keeps them: the
    z whose sweeps attain the minimum are swept again, and of the
    arrangements attaining it (``_first_attaining``) the one with the least
    (subset, r) wins.
    """
    n = len(wedge)
    ring = np.tile(wedge, (2, 2))
    np.fill_diagonal(ring, 1.0)   # the arcs' W[i, i]: read by no arrangement
    # (x, y) at arc positions (i, j) with 1 <= i < j; row r holds i = r + 1
    valid = np.triu(np.ones((n - 2, n - 1), dtype=bool), 2)
    minima = [np.min(_arc_sweep(ring, z)[2], where=valid, initial=np.inf)
              for z in range(n)]
    min_gcr = min(minima)
    tied = np.flatnonzero(np.array(minima) == min_gcr)
    return float(min_gcr), min(
        _first_attaining(ring, z, min_gcr, valid) for z in tied)[1]


def _first_attaining(ring: np.ndarray, z: int, min_gcr: float,
                     valid: np.ndarray) -> tuple:
    """(key, (x, y, z, w)) of the first arrangement of one z whose value is
    ``min_gcr``; the key orders by sorted 4-subset, then rotation.

    The arrangements are taken one y at a time, as (w, x) masks, so memory
    stays O(n^2) however many of them tie; time is O(n^2) per y that has
    one, O(n^4) only when nearly every arrangement ties.
    """
    n = len(ring) // 2
    g, f, values = _arc_sweep(ring, z)
    arc = (z + 1 + np.arange(n - 1)) % n
    hits = valid & (values == min_gcr)
    firsts = []
    for j in np.flatnonzero(hits.any(axis=0)):
        r = np.flatnonzero(hits[:, j])   # x at arc position r + 1
        w, s = np.nonzero((g[:, j, None] * f[r, j] == min_gcr)
                          & (np.arange(n - 1)[:, None] <= r))
        quads = np.column_stack(
            np.broadcast_arrays(arc[r[s] + 1], arc[j], z, arc[w]))
        subsets = np.sort(quads, axis=1)
        rotations = np.argmax(subsets == quads[:, :1], axis=1)
        keys = np.ravel_multi_index((*subsets.T, rotations), (n,) * 4 + (4,))
        first = int(np.argmin(keys))
        firsts.append((int(keys[first]), tuple(quads[first].tolist())))
    return min(firsts)


def _arc_sweep(ring: np.ndarray, z: int) -> tuple:
    """Every arrangement (x, y, z, w) of one z, minimised over w.

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
    """Both eigenvalue identities for one group element.

    The pencil cross ratio over (g-^(d-k-1) < g-^(d-k+1)) of the four
    sections equals the signed ratio lambda_k/lambda_(k+1) of the image
    of g; the Grassmannian cross ratio (g-^k, x^(d-k), g x^(d-k), g+^k)
    equals the weight period lambda_1...lambda_k / (lambda_d...).
    """
    return _eigen_identities(_WordBall(rep, 0), k, g, x)


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
    pcr_value = float(pcr_quotient(v_low, v_high, *entries))

    x_dk = ball.space(x, d - k)
    gcr_value = float(gcr(ball.space(g_inv, k), x_dk,
                          x_dk.apply(m_g), ball.space(g, k)))

    lambda_ratio = ball.cached(eigenvalue_ratios, g, k).lambda_ratio
    period = ball.cached(weight_period, g, k)[0]
    return EigenIdentityReport(
        g=g, x=x, k=k, pcr_value=pcr_value, lambda_ratio=lambda_ratio,
        gcr_value=gcr_value, weight_period=period,
        pcr_rel_error=abs(pcr_value - lambda_ratio) / abs(lambda_ratio),
        gcr_rel_error=abs(gcr_value - period) / abs(period))


def _auxiliary_point(ball: _WordBall, g: Word) -> Word:
    """A short word whose fixed point avoids both fixed points of g."""
    gp, gm = ball.fixed_points(g)
    for cand in (Word((1,)), Word((2,)), Word((1, 2)), Word((2, 1)),
                 Word((1, -2)), Word((1, 1, 2))):
        try:
            att, _ = ball.fixed_points(cand)
        except DomainError:
            continue
        if (circle_separation(att, gp) > 1e-6
                and circle_separation(att, gm) > 1e-6):
            return cand
    raise PreconditionError(f"no auxiliary boundary point found for {g}")


def eigen_identity_scan(rep: Representation, k: int, max_length: int) -> list:
    """Eigenvalue-identity reports for every nontrivial word of the ball."""
    ball = _WordBall(rep, max_length)
    return [_eigen_identities(ball, k, w, _auxiliary_point(ball, w))
            for w in ball.words[1:]]


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


def _collar_report(ball: _WordBall, k: int, g: Word, h: Word) -> CollarReport:
    lhs, lhs_signed = ball.cached(weight_period, g, k)
    ratios = ball.cached(eigenvalue_ratios, h, k)
    if ratios.lambda_ratio_modulus <= 1.0 + EIGEN_GAP_MIN:
        raise GapError(
            f"no eigenvalue gap at index {k} for word {h}: "
            f"|lambda_{k}|/|lambda_{k + 1}| = {ratios.lambda_ratio_modulus:.6g}",
            index=k, ratio=ratios.lambda_ratio_modulus)
    rhs = 1.0 / (1.0 - 1.0 / ratios.lambda_ratio)
    weight_rhs = 1.0 / (1.0 - np.exp(
        -ball.cached(length_functions, h, k).weight_length))
    return CollarReport(
        g=g, h=h, k=k, lhs=lhs, rhs=rhs, weight_rhs=weight_rhs,
        holds=bool(lhs > rhs), margin=float(lhs - rhs),
        sign_indeterminate=(ratios.lambda_ratio_signed is None
                            or not lhs_signed))


def _linked(ends: np.ndarray) -> np.ndarray:
    """(n, n) mask of ``groups.is_linked`` on every ordered pair (g, h) of n
    words with (n, 2) (attracting, repelling) angles ``ends``: the cyclic
    descents of (g-, h-, g+, h+) number 1 or 3, and no two of the four
    points are closer than ``ANGLE_SEPARATION``."""
    plus, minus = ends[:, 0], ends[:, 1]
    cycle = (minus[:, None], minus[None, :], plus[:, None], plus[None, :])
    descents = sum(cycle[(i + 1) % 4] < cycle[i] for i in range(4))
    distinct = True
    for i, j in itertools.combinations(range(4), 2):
        distinct = distinct & _apart(cycle[i], cycle[j], ANGLE_SEPARATION)
    return distinct & ((descents == 1) | (descents == 3))


def collar_check(rep: Representation, k: int, g: Word, h: Word) -> CollarReport:
    """Collar inequality for one linked pair.

    lhs is the signed weight period of g, rhs = (1 - lambda_(k+1)/lambda_k(h))^-1
    with the signed ratio; when the signed ratio is unavailable the
    moduli are substituted and the report is flagged sign-indeterminate.
    Without a modulus gap |lambda_k/lambda_(k+1)(h)| > 1 + ``EIGEN_GAP_MIN``
    (``attracting_space``'s rule) rhs is undefined: GapError.
    """
    ball = _WordBall(rep, 0)
    ends = np.array([ball.fixed_points(g), ball.fixed_points(h)])
    if not _linked(ends)[0, 1]:
        raise PreconditionError(f"pair ({g}, {h}) is not linked")
    return _collar_report(ball, k, g, h)


def _linked_pairs(ball: _WordBall) -> list:
    """Linked ordered pairs (g, h) of the ball's loxodromic words, in ball
    order of g, then of h; pairs with two coincident fixed points are left
    out."""
    words, ends = ball.loxodromic()
    return [(words[i], words[j]) for i, j in np.argwhere(_linked(ends))]


def linked_pairs(rep: Representation, max_length: int) -> list:
    """All ordered linked pairs (g, h) of nontrivial ball words."""
    return _linked_pairs(_WordBall(rep, max_length))


def collar_scan(rep: Representation, k: int, max_length: int) -> list:
    """Collar reports for every ordered linked pair in the word ball."""
    ball = _WordBall(rep, max_length)
    return [_collar_report(ball, k, g, h) for g, h in _linked_pairs(ball)]


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
        gam = eigenvalue_ratios(rep.generator_images[0].entries, 1)
        dlt = eigenvalue_ratios(rep.generator_images[1].entries, 1)
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
    if not 1 <= k <= data.p - 3:
        raise InputError(f"k={k} outside 1..{data.p - 3}")
    m = p_el.entries if isinstance(p_el, Mat) else np.asarray(p_el, dtype=float)
    _check_unipotent(m)
    d = data.d
    inv = np.linalg.inv(m)
    return (float(m[d - k - 2, d - k]), float(inv[d - k - 2, d - k]))


def _coordinate_span_top(d: int, l: int) -> Subspace:
    """Z^l = span(e_1, ..., e_l)."""
    return Subspace.coordinate(d, *range(l)) if l > 0 else Subspace.zero(d)


def _coordinate_span_bottom(d: int, l: int) -> Subspace:
    """X^l = span(e_d, ..., e_(d-l+1))."""
    return (Subspace.coordinate(d, *range(d - l, d)) if l > 0
            else Subspace.zero(d))


def sopq_model_triple_defect(data: SOpqData, p_el, k: int) -> float:
    """C_k defect of the model triple (X, P X, Z).

    Evaluates the direct-sum defect of
    Z^(d-k-2) + (Z^(d-k+1) n P X^k) + X^(k+1).
    """
    if not 1 <= k <= data.p - 3:
        raise InputError(f"k={k} outside 1..{data.p - 3}")
    d = data.d
    m = p_el.entries if isinstance(p_el, Mat) else np.asarray(p_el, dtype=float)
    z_low = _coordinate_span_top(d, d - k - 2)
    z_high = _coordinate_span_top(d, d - k + 1)
    px_k = _coordinate_span_bottom(d, k).apply(m)
    x_k1 = _coordinate_span_bottom(d, k + 1)
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
    ``SOPQ_DEFECT_FLOOR``.
    """
    if count < 1:
        raise InputError(f"count={count} is below 1")
    if not entry_max > SOPQ_ENTRY_MIN:
        raise InputError(
            f"entry_max={entry_max} is not above {SOPQ_ENTRY_MIN}")
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
        resid = float(np.linalg.norm(
            p_el.entries.T @ data.Q @ p_el.entries - data.Q, 2))
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


# ---------------------------------------------------------------------------
# convergence of Cartan attractors to the attracting space
# ---------------------------------------------------------------------------

def attractor_convergence_slope(rep: Representation, w: Word,
                                k: int) -> tuple:
    """Least-squares slope of log d(U_k(g^n), attracting space) in
    n = 1..``CONVERGENCE_POWERS``."""
    m = evaluate(rep, w)
    target = attracting_space(m.entries, k)
    ns = np.arange(1, CONVERGENCE_POWERS + 1)
    dists = []
    for n in ns:
        p = power_normalized(m.entries, int(n))
        dists.append(grassmann_distance(cartan_attractor(p, k), target))
    logs = np.log(np.maximum(dists, 1e-17))
    slope, intercept = np.polyfit(ns, logs, 1)
    return float(slope), list(map(float, dists))
