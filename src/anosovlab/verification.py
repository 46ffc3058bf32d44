"""Representation-level checks: gap scans, transversality defects,
projected hyperconvexity, positivity of cross ratios, eigenvalue
identities, the collar inequality and the root-gap degeneration scan.

Everything here is a desk-scale numerical verification over word balls:
"for all" statements are checked on exhaustive samples of fixed points
and reported with minimum defects and three-way verdicts, never claimed
as proofs.  Every threshold behind a verdict is a constant of this module.
The word ball and its atlas (``ball``) and the triple kernel (``triples``)
keep their own constants: bracket slack and block sizes, none of which
decides a verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .ball import (
    BoundaryAtlas,
    _WordBall,
)
from .core_linalg import (
    PartialFlag,
    Subspace,
    direct_sum_defect,
    intersect,
    quotient_project,
)
from .crossratio import gcr, pcr_quotient
from .errors import (
    DomainError,
    InputError,
    PreconditionError,
    check_integer,
)
from .groups import (
    ANGLE_SEPARATION,
    Word,
    _close_pairs,
    circle_separation,
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
    _checked_columns,
    attracting_space,
    singular_gaps,
)
from .triples import (
    _SummandTable,
    _summand_tables,
    _triple_scan,
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
    "required_indices_c",
]

SLOPE_ANOSOV = 0.05       # fitted slope above which a scan looks Anosov
SLOPE_FLAT = 0.01         # fitted slope below which a scan is flat
MONOTONE_SLACK = 0.5      # allowed dip (log units) of per-length minima;
                          # near-parabolic words produce small dips at
                          # specific lengths without changing the trend
SCAN_ACCEPT = 1e-4        # scan-level defect above which a property holds
SCAN_REJECT = 1e-7        # scan-level defect below which it fails
PAIR_BLOCK = 1 << 16      # pair cells built at once: (g, h) of the linkage
                          # parity, (i, j) of the wedge table's det stack
CERTIFICATION_LENGTH = 6  # word length of the gap scans certifying a
                          # C_k scan
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

    One ``singular_gaps`` call reads every image but the identity's, in
    row blocks that keep only the singular values.  The ball's ``lengths``
    column ascends, so each length's minima are one reduceat from the
    starts it gives; no Word is built.

    Index k is read at min(k, d - k): sigma_k/sigma_(k+1) of rho(w) is
    sigma_(d-k)/sigma_(d-k+1) of rho(w^-1), and every sphere of the ball
    holds the inverses of its words, so both indices have the same
    per-length minima.  The one from the larger singular values is
    resolved; an SVD of rho(w) resolves no singular value below about
    eps sigma_1.
    """
    if max_length < 3:
        raise InputError("gap scans need max_length >= 3")
    ball = _WordBall(rep, max_length)
    d = rep.dim
    read = sorted({min(k, d - k) for k in indices})
    lengths = list(range(1, max_length + 1))
    starts = np.searchsorted(ball.lengths, lengths) - 1
    minima = np.minimum.reduceat(
        np.log(singular_gaps(ball.images[1:], read)), starts)
    return {k: _gap_report(rep, k, max_length, lengths,
                           minima[:, read.index(min(k, d - k))].tolist())
            for k in indices}


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
    An index k above d/2 is read at d - k, from the inverse words, which
    have the same minima (``_gap_scans``).  The C_k scan certifies several
    indices through the same code, where one SVD per word serves every
    index.
    """
    _check_k(k, rep.dim - 1)
    return _gap_scans(rep, (k,), max_length)[k]


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
    certification: dict     # index -> gap-scan verdict the scan's verdict
                            # is gated on (C_k's required indices); {} for
                            # H_k and the projected scan
    certified: bool         # every certification verdict is anosov-like
                            # (vacuously true when there is none)
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


def _transversality_scan(rep: Representation, k: int, max_length: int,
                         kind: str, summands_fn, certification: dict,
                         min_separation: float) -> TransversalityScanReport:
    """The scan of one sum over the ball of length ``max_length``, its
    ``certification`` (all anosov-like) copied into the report."""
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
        certification=certification, certified=True,
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
    is pruned by certified bounds on its smallest singular value:
    Laguerre brackets on the smallest root of a degree-2r polynomial
    built from the Gram blocks of the other summands (r columns) split
    off the anchor z^(d-k-1), a few steps each (``triples._triple_scan``,
    ``triples._root_bounds``).  At k = 1 the sum is symmetric in x and
    y, so (x, y, z) and (y, x, z) share one bracket and only the exact
    SVD runs on both.  The reported values, the first worst triple and
    the counts are those of the SVD of every ordered triple.
    ``min_separation`` must be a finite number >= 0.

    The verdict does not read the Anosov gaps, so no gap scan runs: the
    report's ``certification`` is {} and ``certified`` is vacuously true.
    ``anosov_gap_scan`` (``anosovlab gap-scan``) gives the gap evidence at
    k-1, k and k+1.
    """
    _check_k(k, rep.dim - 1)
    _check_separation(min_separation)
    return _transversality_scan(rep, k, max_length, "Hk", _hk_summands, {},
                                min_separation)


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
    H_k line is.  Triples are pruned by the Laguerre brackets of
    ``hk_scan``, split off the anchor x^(d-k-2) (of the three point flags
    of C_1, the largest).  The gap scans run at ``CERTIFICATION_LENGTH``,
    all indices on one ball, each index above d/2 read at d - k
    (``_gap_scans``), after ``k`` and ``min_separation`` are checked and
    before the ball of length ``max_length`` is built.
    """
    _check_k(k, rep.dim - 2)
    _check_separation(min_separation)
    certification = {
        idx: report.verdict for idx, report in _gap_scans(
            rep, required_indices_c(k, rep.dim), CERTIFICATION_LENGTH).items()}
    if any(v != "anosov-like" for v in certification.values()):
        return TransversalityScanReport(
            kind="Ck", rep_label=rep.label, k=k, max_length=max_length,
            certification=certification, certified=False,
            n_points=0, n_triples=0, gap_failures=0, min_defect=None,
            verdict="non-certifiable", min_separation=min_separation)
    return _transversality_scan(rep, k, max_length, "Ck", _ck_summands,
                                certification, min_separation)


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


def _projection_lines(rep: Representation, k: int, x: Word, max_length: int,
                      min_separation: float):
    """Curve points in P(x^(d-k+1)/x^(d-k-2)): the special x-line plus the
    projected sections of the ball's words with boundary points, thinned to
    the separation cutoff and never keeping two coincident boundary points.
    The lines are read off a ball named by the kept words alone, so only
    their images are decomposed."""
    ball = _WordBall(rep, max_length, (x,))
    cutoff = max(min_separation, ANGLE_SEPARATION)
    kept_angles = [ball.fixed_points(x)[0]]
    labels = [x]
    words, ends = ball.loxodromic()
    for y, angle in zip(words, ends[:, 0].tolist()):
        if any(circle_separation(angle, a) < cutoff for a in kept_angles):
            continue
        kept_angles.append(angle)
        labels.append(y)
    curve = _WordBall(rep, 0, labels)
    return [_projected_line(curve, k, x, w) for w in labels], labels


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
                                    max_length: int,
                                    min_separation: float = TRIPLE_SEPARATION
                                    ) -> TransversalityScanReport:
    """Spanning defect of projected triples in the 3-space
    X = x^(d-k+1)/x^(d-k-2), for k in 1..d-2.

    The boundary point y of every word of the ball of length
    ``max_length`` with reference fixed points (the others are skipped)
    maps to the line [y^k n x^(d-k+1)]; the point x itself contributes the
    line [x^(d-k-1)].  Words closer than the separation cutoff (at least
    ``groups.ANGLE_SEPARATION``) to an already-kept curve point are thinned
    out, in ball order; the report carries the minimum 3-plane spanning
    defect over all triples of kept curve points, with verdicts from
    ``SCAN_ACCEPT`` and ``SCAN_REJECT`` as in ``hk_scan``; ``max_defect``
    stays None.

    Three lines of X have the shape x^1 + y^1 + z^1 of H_1, so the triples
    i < j < l run on the H_k/C_k kernel (``triples._triple_scan``):
    certified bounds on each defect (``triples._root_bounds``) leave the
    exact SVD to the triples that can reach the running minimum.
    ``worst_triple`` is the first minimum in combinations order.
    """
    _check_k(k, rep.dim - 2)
    _check_separation(min_separation)
    lines, labels = _projection_lines(rep, k, x, max_length, min_separation)
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
        max_length=max_length,
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
    minimum without visiting each: one prefix-min/max pass for every z at
    once, O(n^3) time and O(n^2) memory on every table, however many
    arrangements tie, bit-identical to scoring every arrangement.  The worst
    quadruple is the first minimum in the order z in angle order, then x, y
    and w by cyclic position after z.
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
    """W[i, j] = det[k-flag_i | (d-k)-flag_j], one batched ``det`` per
    block of ``PAIR_BLOCK`` (i, j) cells, so the (rows, n, d, d) stack
    stays that size; the diagonal, never read, is zero.

    The flags of each dimension come from the ball's flag table
    (``_WordBall.flags``), one batched ``core_linalg._invariant_bases``
    call per dimension over the whole ball.  A missing flag raises the
    GapError naming the first such point's word and the dimension, k's
    before d - k's; a flag's NumericError is raised before the missing
    flags of its dimension.
    """
    n, d = len(atlas), atlas.ball.rep.dim
    flags = []
    for dim in (k, d - k):
        bases, missing = atlas.ball.flags(dim, atlas.rows)
        if missing.any():
            raise atlas.ball.gap_error(
                dim, atlas.rows[int(np.argmax(missing))])
        flags.append(bases)
    k_flags, dk_flags = flags
    wedge = np.empty((n, n))
    stack = np.empty((min(n, max(1, PAIR_BLOCK // n)), n, d, d))
    stack[..., k:] = dk_flags
    for start in range(0, n, len(stack)):
        rows = k_flags[start:start + len(stack)]
        stack[:len(rows), ..., :k] = rows[:, None]
        wedge[start:start + len(rows)] = np.linalg.det(stack[:len(rows)])
    np.fill_diagonal(wedge, 0.0)
    return wedge


def _arrangement_minimum(wedge: np.ndarray) -> tuple:
    """Minimum cross ratio over an (n, n) wedge table of angle-sorted points,
    and the first (x, y, z, w) that attains it.

    An arrangement is cyclically ordered, x < y < z < w, and scores
    ``(W[x,z]/W[x,y]) * (W[w,y]/W[w,z])``; only off-diagonal entries are
    read.  On the arc after z the order is w, x, y.  With F = W[x,z]/W[x,y]
    and G = W[w,y]/W[w,z], the minimum over w before x of fl(G * F), the
    loop's two IEEE factors commuted, is F times the prefix minimum of G
    where F > 0 and times its prefix maximum where F < 0, as rounding is
    monotone.  One pass over the arc position of x keeps those prefix
    extremes for every z at once (``_point_minima``), as (z, y) planes of
    the y after x: O(n^3) time and O(n^2) memory on every table, every
    value bit-identical.

    The witness is the first minimum in the order z in angle order, then
    x, y and w by cyclic position after z.  The pass also keeps, per z, the
    first arc position of x whose row reaches z's minimum.  For the first
    minimizing z only that x's (w, y) block is scored again, with the
    pass's divisions and products: the witness takes its first y attaining
    the minimum, then the first w before x whose product G * F equals it.
    Such a w exists: the minimum is F times a prefix minimum or maximum of
    G, which is the G of some w before x.
    """
    n = len(wedge)
    minima, first = _point_minima(wedge)
    z = int(np.argmin(minima))
    min_gcr, a = minima[z], first[z]
    arc = (z + 1 + np.arange(n - 1)) % n
    x, y, w = arc[a], arc[a + 1:], arc[:a, None]
    f = wedge[x, z] / wedge[x, y]
    g = wedge[w, y] / wedge[w, z]
    values = np.where(f > 0, g.min(0), g.max(0)) * f
    j = int(np.argmax(values == min_gcr))
    i = int(np.argmax(g[:, j] * f[j] == min_gcr))
    return float(min_gcr), (int(x), int(y[j]), z, int(w[i, 0]))


def _point_minima(wedge: np.ndarray) -> tuple:
    """Each z's minimum of ``_arrangement_minimum``, all from one pass over
    the arc position a of x, and for each z the first a whose row attains
    it."""
    n = len(wedge)
    # sheared[p, c] = W[p, p + c], tiled: x at arc position a of every z is
    # the row slice p = z + 1 + a, with W[x, z] in column n - 1 - a
    i = np.arange(n)[:, None]
    sheared = np.tile(wedge[i, (i + np.arange(n)) % n], (2, 1))
    rows = sheared[1:n + 1]                  # w at arc position 0
    low = rows[:, 1:n - 1] / rows[:, n - 1:]  # columns: y at 1 .. n - 2
    high = low.copy()
    minima = np.full(n, np.inf)
    first = np.zeros(n, dtype=int)
    for a in range(1, n - 2):
        rows = sheared[a + 1:a + 1 + n]
        to_y, to_z = rows[:, 1:n - 1 - a], rows[:, n - 1 - a:n - a]
        f = to_z / to_y
        low, high = low[:, 1:], high[:, 1:]  # y after x
        row = np.min(np.where(f > 0, low, high) * f, axis=1)
        first[row < minima] = a
        np.minimum(minima, row, out=minima)
        g = to_y[:, 1:] / to_z               # w at a, for the next x
        np.minimum(low[:, 1:], g, out=low[:, 1:])
        np.maximum(high[:, 1:], g, out=high[:, 1:])
    return minima, first


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
    m_g = ball.images[ball.row(g)]
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
    rank whose boundary point avoids its fixed points.  Each item raises
    its own errors, in item order.
    """
    _check_k(k, rep.dim - 1)
    aux = [w for w in _AUXILIARY_WORDS if max(map(abs, w.letters)) <= rep.rank]
    ball = _WordBall(rep, max_length, aux)
    words, _ = ball.loxodromic()
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
    ``ANGLE_SEPARATION``.  The parity is built ``PAIR_BLOCK`` cells of g
    rows at a time, so its temporaries stay that size.

    A word whose own ends are close (or not finite) is linked to none.
    The close pairs among the 2n ends of the other words are one
    ``groups._close_pairs`` call, the atlas's coincidence rule: two words
    with a close pair of ends are linked to neither.  No word is linked
    to itself.
    """
    plus, minus = ends[:, 0], ends[:, 1]
    n = len(ends)
    linked = np.empty((n, n), dtype=bool)
    step = max(1, PAIR_BLOCK // max(1, n))
    for start in range(0, n, step):
        g_minus = minus[start:start + step, None]
        g_plus = plus[start:start + step, None]
        linked[start:start + step] = ((minus < g_minus) ^ (g_plus < minus)
                                      ^ (plus < g_plus) ^ (g_minus < plus))
    own = ~(circle_separation(plus, minus) >= ANGLE_SEPARATION)
    good = np.flatnonzero(~own)
    word = np.tile(good, 2)
    a, b = _close_pairs(np.concatenate((plus[good], minus[good])))
    linked[word[a], word[b]] = linked[word[b], word[a]] = False
    linked[own] = linked[:, own] = False
    np.fill_diagonal(linked, False)
    return linked


@dataclass(frozen=True, eq=False)
class CollarTable:
    """The collar reports of a set of linked pairs, held as columns.

    ``words`` are the loxodromic words; pair p is (words[g_rows[p]],
    words[h_rows[p]]).  ``lhs`` is per word as g, ``rhs`` and
    ``weight_rhs`` per word as h, and ``margin``, ``holds`` and
    ``sign_indeterminate`` per pair.  Iterated, the table yields its
    ``CollarReport`` rows, each built only when it is read.
    """

    k: int
    words: tuple
    g_rows: np.ndarray
    h_rows: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    weight_rhs: np.ndarray
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

    def columns(self, labels) -> dict:
        """``CollarReport``'s fields, in field order, each an iterable of
        one value per pair; g and h are read from ``labels``, one label per
        word.  A word's lhs, rhs and weight_rhs are one Python float each,
        shared by its pairs."""
        g_rows, h_rows = self.g_rows.tolist(), self.h_rows.tolist()
        return {
            "g": map(labels.__getitem__, g_rows),
            "h": map(labels.__getitem__, h_rows),
            "k": itertools.repeat(self.k, len(self)),
            "lhs": map(self.lhs.tolist().__getitem__, g_rows),
            "rhs": map(self.rhs.tolist().__getitem__, h_rows),
            "weight_rhs": map(self.weight_rhs.tolist().__getitem__, h_rows),
            "holds": self.holds.tolist(),
            "margin": self.margin.tolist(),
            "sign_indeterminate": self.sign_indeterminate.tolist(),
        }

    def __iter__(self):
        return itertools.starmap(
            CollarReport, zip(*self.columns(self.words).values()))


def _collar_table(ball: _WordBall, k: int, rows: np.ndarray,
                  g_rows: np.ndarray, h_rows: np.ndarray) -> CollarTable:
    """The collar table of the pairs (g_rows[p], h_rows[p]) of the ball
    rows ``rows``, from the ball's eigenvalue columns at k.

    A word fails as g where its residual check failed, and as h also where
    it has no modulus gap at k or an eigenvalue of modulus zero.  The first
    pair reading a failure raises it, g's before h's, as the one-row calls
    on that word would.
    """
    columns = ball.eigenvalues(k)
    failed = ball.failed()[rows]
    h_failed = failed | (columns.no_gap | columns.zero)[rows]
    # a failing word is rare: the per-pair mask is gathered only for one
    if h_failed.any() and (bad := failed[g_rows] | h_failed[h_rows]).any():
        p = int(np.argmax(bad))
        g, h = rows[g_rows[p]], rows[h_rows[p]]
        # g's residual error, or h's; then h's errors in the order of the
        # one-row calls: the gap, the lengths
        errors = ball._spectra().errors
        for r in (g, h):
            if r in errors:
                raise errors[r].with_traceback(None)
        if columns.no_gap[h]:
            raise ball.gap_error(k, h)
        columns.check_lengths(h)
    lhs = columns.period[rows]
    with np.errstate(divide="ignore", over="ignore"):
        rhs = 1.0 / (1.0 - 1.0 / columns.ratio[rows])
        weight_rhs = 1.0 / (1.0 - np.exp(-columns.weight_length[rows]))
    left, right = lhs[g_rows], rhs[h_rows]
    return CollarTable(
        k=k, words=tuple(ball.words[r] for r in rows.tolist()),
        g_rows=g_rows, h_rows=h_rows, lhs=lhs, rhs=rhs, weight_rhs=weight_rhs,
        margin=left - right, holds=left > right,
        sign_indeterminate=((~columns.ratio_signed[rows])[h_rows]
                            | (~columns.period_real[rows])[g_rows]))


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
    (report,) = _collar_table(ball, k, rows, np.array([0]), np.array([1]))
    return report


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
    the ball's Spectrum table, which holds no eigenvectors.  A word whose
    value fails (GapError without a gap at k, NumericError) raises only
    when a linked pair reads it: the first such pair in the order above,
    its g's error before its h's.  No ``CollarReport`` is built until the
    table's rows are read.
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
    goes to 0 while the elements stay linked.  Both generator images of
    every grid point are stacked, grid value by grid value, and read by one
    eigendecomposition (``spectral._checked_columns``): the first image
    that fails its residual check, in grid order and gamma before delta,
    raises its error as ``eigenvalue_ratios`` on it alone would.
    """
    grid, images = [], []
    for x in x_grid:
        if not (np.isfinite(x) and x > 0):
            raise InputError(f"grid values must be positive, got {x}")
        grid.append(float(x))
        images.extend(fg_rep(grid[-1]).generator_images)
    columns = _checked_columns(np.reshape(images, (-1, 3, 3)), 1)
    ratios, roots = columns.ratio.tolist(), np.log(columns.modulus).tolist()
    return [CounterexampleRow(x=x, ratio_gamma=ratios[2 * i],
                              ratio_delta=ratios[2 * i + 1],
                              root_length=roots[2 * i])
            for i, x in enumerate(grid)]


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

