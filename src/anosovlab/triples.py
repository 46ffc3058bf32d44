"""The triple kernel: the extremes of a transversality sum's defect over
the triples of a point set, with certified bounds on each triple's smallest
singular value leaving the exact SVD to the triples that can reach them.
Where swapping two points of a triple only permutes the columns of its
matrix (the x<->y mirror of H_1), one bracket serves both orders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import BoundaryAtlas
from .core_linalg import (
    _intersections,
    _smallest_singular_values,
)

BRACKET_RTOL = 1e-6       # relative slack of the certified bounds on a
                          # triple's defect that decide where the exact SVD
                          # runs
BRACKET_ATOL = 1e-7       # their absolute slack: covers the sqrt(eps)
                          # error of the Gram route near defect 0
BRACKET_STEPS = 60        # root-finding steps after which a triple's
                          # bounds are given up (0, inf): its exact SVD
                          # always runs
TRIPLE_BLOCK = 1 << 14    # (anchor point, u, v) cells of a triple scan's
                          # chunk, only u < v under the mirror: its Gram
                          # tables and bounds are O(TRIPLE_BLOCK) arrays
                          # (one anchor point per chunk once an anchor
                          # point has more cells)


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
    ball's flag table (``_WordBall.flags``), one batched
    ``core_linalg._invariant_bases`` call per dimension over the whole
    ball; a flag without an eigenvalue-modulus gap is missing, and so is
    every key that reads it, while a flag's NumericError is raised, the
    first in (dim, point) order.  An intersection summand is computed for
    every pair of ``used`` without a missing flag in one
    ``core_linalg._intersections`` call, at the transversal dimension: a
    line in H_k and C_k.  The scan hands in its summands without their
    whole-space parts, so at k = 1 every summand is a point flag and no
    intersection is computed.
    """
    n = len(atlas)
    d = atlas.ball.rep.dim
    points = np.flatnonzero(used.any(axis=1))
    flags, gaps = {}, {}
    for dim in sorted({dim for summand in summands for _, dim in summand}):
        flags[dim], gaps[dim] = np.zeros((n, d, dim)), np.zeros(n, dtype=bool)
        flags[dim][points], gaps[dim][points] = atlas.ball.flags(
            dim, atlas.rows[points])
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
    b1, b2 = (np.swapaxes(t.basis, 0, 1).reshape(t.basis.shape[-2], -1)
              for t in others)
    return (b1.T @ b2)[None]


def _pencil_sums(g: np.ndarray, c: np.ndarray, lam) -> tuple:
    """q(lam) = det A(lam) and the power sums S1 = -tr(A^-1 A') and
    S2 = tr((A^-1 A')^2) - 2 tr(A^-1) per row, A(lam) = g - lam h +
    lam^2 I, A' = 2 lam I - h, h = R^T R + I with the cross block ``c``
    (``_gram``).

    At r1 = r2 = 1 from q, q' and q'' in closed form (S1 = -q'/q,
    S2 = S1^2 - q''/q); at r = 3 from the explicit cofactors (A^-1 =
    adj A / q); otherwise from one batched inverse over the rows with
    q > 0, where A(lam) is positive definite.  The sums of the rows with
    q <= 0 are not read (``_laguerre_bracket``)."""
    if c.shape[:2] == (1, 1):
        c = c[0, 0]
        a00, a11, a01 = g[0, 0], g[1, 1], g[0, 1]
        if np.ndim(lam):   # else lam is 0, the first step
            t = lam * (lam - 2)
            a00, a11, a01 = a00 + t, a11 + t, a01 - lam * c
        q, tr, e = a00 * a11 - a01 * a01, a00 + a11, 2 * lam - 2
        s1 = (e * tr + 2 * a01 * c) / -q
        return q, s1, s1 * s1 - 2 * (tr + e * e - c * c) / q
    r, r1 = len(g), len(c)
    eye = np.eye(r)[:, :, None]
    h = 2 * eye + np.zeros_like(g)
    h[:r1, r1:], h[r1:, :r1] = c, np.swapaxes(c, 0, 1)
    a, da = g - lam * h + lam * lam * eye, 2 * lam * eye - h
    if r == 3:
        # the cofactors of the symmetric A, indices mod 3, are adj A; q
        # is the expansion by the first row
        w = np.empty_like(a)
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            k, l, m, o = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
            w[i, j] = w[j, i] = a[k, m] * a[l, o] - a[k, o] * a[l, m]
        q = scale = a[0, 0] * w[0, 0] + a[0, 1] * w[0, 1] + a[0, 2] * w[0, 2]
    else:
        stack = np.moveaxis(a, (0, 1), (-2, -1))
        q = np.linalg.det(stack)
        inside = q > 0
        w = np.full_like(stack, np.nan)
        w[inside] = np.linalg.inv(stack[inside])
        w, scale = np.moveaxis(w, (-2, -1), (0, 1)), 1.0
    p = np.einsum("ijn,jkn->ikn", w, da)
    s1 = -np.einsum("iin->n", p) / scale
    s2 = (np.einsum("ijn,jin->n", p, p) / (scale * scale)
          - 2 * np.einsum("iin->n", w) / scale)
    return q, s1, s2


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


def _laguerre_bracket(lam, q, s1, s2, degree: int) -> tuple:
    """Laguerre's bracket ``(low_end, high_end)`` on the smallest root of
    q per row, from q(lam) and the power sums S1, S2 of
    ``_pencil_sums``; NaN marks an end the row does not get.

    Below every root, u_i = 1/(root_i - lam) > 0 with S1 = sum u_i and
    S2 = sum u_i^2, and the smallest root has the largest u_1.  So
    S2 <= u_1 S1 gives root_1 <= lam + S1/S2, and Cauchy-Schwarz on the
    other n - 1 = ``degree`` - 1 terms, (S1 - u_1)^2 <= (n - 1)(S2 -
    u_1^2), gives root_1 >= lam + n/(S1 + sqrt((n - 1)(n S2 - S1^2))).
    Both lie inside Newton's bracket [lam + 1/S1, lam + n/S1], as
    S1^2 <= n S2 and S2 <= S1^2.  q <= 0 means rounding carried lam onto
    or past the root: the high end is lam and there is no low end.  Sums
    no roots above lam can give (S1 <= 0, S2 <= 0 or S2 > S1^2, or NaN)
    give no end.  A rounded n S2 - S1^2 < 0 counts as 0.
    """
    past, square = q <= 0, s1 * s1
    sound = ~past & (s1 > 0) & (s2 > 0) & (s2 <= square)
    spread = np.sqrt((degree - 1) * np.maximum(degree * s2 - square, 0.0))
    # only the sound rows are divided: the others may hold zeros
    low_end = lam + np.divide(degree, s1 + spread, where=sound,
                              out=np.full(np.shape(s1), np.nan))
    high_end = np.where(past, lam, lam + np.divide(
        s1, s2, where=sound, out=np.full(np.shape(s1), np.nan)))
    return low_end, high_end


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
    >= 0.  Each step reads q and the power sums S1 = sum u_i = -q'/q and
    S2 = sum u_i^2, u_i = 1/(root_i - lam), at the row's lam
    (``_pencil_sums``) and bounds the root by Laguerre's bracket
    (``_laguerre_bracket``), whose low end is the next lam: from lam = 0
    the iterates rise monotonically to the root, cubically near it.
    q and the sums are evaluated from A(lam) itself, not from expanded
    coefficients, which near a multiple root at 1 (orthogonal summands)
    lose the root to eps^(1/4).

    Two guards keep the bounds certified.  A row whose q is <= 0 has
    reached the root to rounding: its high end becomes lam, which is its
    lower bound, and it stops (at r = 1, degree 2, the first step lands
    there).  A row whose sums no roots above lam can give (seen at
    sigma_min about 1e-16) stops with the bounds it has.  What rounding
    moves beyond the bracket, the root carried past by a low end or q's
    sign near the root, is far inside the slack ``_sigma_bounds`` adds:
    ``BRACKET_RTOL`` relative on sigma_min, and ``BRACKET_ATOL``, which
    covers the sqrt(eps) error of the Gram route near sigma_min = 0.

    A row also stops once its bracket is narrower than ``BRACKET_RTOL``
    of its lower end, inside the slack, or once its bounds cannot reach
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
            low_end, high_end = _laguerre_bracket(
                lam, *_pencil_sums(g, c, lam), degree)
            # keep the tightest bounds (fmax and fmin drop a NaN end)
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
                ~np.isnan(low_end)
                & (root_hi > (1 + BRACKET_RTOL) * root_lo)
                & ((root_lo <= reach_lo) | (root_hi >= reach_hi)))
            todo = todo[going]
            if not todo.size:
                break
            root_lo, root_hi = root_lo[going], root_hi[going]
            lam = root_lo
            g, c = g[:, :, going], c[:, :, going]
    bad = below == np.inf
    bad[todo] = True
    below[bad], above[bad] = 0.0, np.inf
    return below, above


def _triple_extremes(tables: list, gram: tuple, x: np.ndarray,
                     y: np.ndarray, z: np.ndarray, low: float, high: float,
                     mirror: tuple | None) -> tuple:
    """Missing flags of the rows (x[i], y[i], z[i]) and the extremes of
    their triples' defects that can pass beyond ``low`` or ``high``.

    Returns ``(missing, lowest, worst, highest)``.  Each row is one
    ordered triple, or with ``mirror`` (``_mirror``) two: itself and the
    triple whose positions ``mirror`` permutes, which has the same
    missing flags and the same smallest singular value.  A triple reading
    a missing flag has defect 0.  Every other row gets certified bounds
    lo <= defect <= hi from its row of ``gram`` (``_gram``,
    ``_root_bounds``).  Only the rows whose lo is at most min(low, min hi)
    or whose hi is at least max(high, max lo) get the exact defect, of
    every triple of the row, from one batched SVD of their concatenated
    summand bases, which have d columns in all.  ``lowest`` is the minimum
    of the exact defects, with ``worst`` the lexicographically first
    (x, y, z) attaining it, and ``highest`` their maximum.  Every triple
    attaining the minimum of these triples, when that is at most ``low``,
    or their maximum, when that is at least ``high``, is among them, so
    ``lowest`` and ``worst`` decide the first minimum of the whole scan
    whatever the order of its chunks.  ``worst`` is None when all rows
    are pruned.
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
    known = np.flatnonzero(missing | (below <= reach_lo)
                           | (above >= reach_hi))
    if not known.size:
        return missing, np.inf, None, -np.inf
    # (3, m): the triples of the known rows, their mirrors after them
    triples = np.stack([column[known] for column in columns])
    lost = missing[known]
    if mirror:
        triples = np.concatenate([triples, triples[list(mirror)]], axis=1)
        lost = np.concatenate([lost, lost])
    defects = np.zeros(len(lost))
    rows = np.flatnonzero(~lost)
    defects[rows] = _smallest_singular_values(np.concatenate(
        [t.basis[tuple(triples[role, rows] for role in t.roles)]
         for t in tables], axis=2))
    lowest = defects.min()
    ties = np.flatnonzero(defects == lowest)
    first = ties[np.lexsort(triples[::-1, ties])[0]]
    return (missing, float(lowest), tuple(triples[:, first].tolist()),
            float(defects.max()))


def _mirror(tables: list, anchor: int, pairs: np.ndarray) -> tuple | None:
    """The permutation of the triple positions that swaps the two points
    other than the anchor's, when that leaves every triple's defect and
    its being scanned as they are; else None.

    It does when those two summands read one point flag table (x^1 + y^1
    of H_1, and of C_1 at d = 4): the swap only permutes the columns of
    M, and a flag the triple reads is missing in both orders or in
    neither.  And ``pairs`` must be symmetric, so a triple is scanned
    exactly when its mirror is.  The projected scan's upper-triangular
    mask is not.
    """
    a, b = (t for i, t in enumerate(tables) if i != anchor)
    if (len(a.roles) == len(b.roles) == 1 and a.basis is b.basis
            and np.array_equal(pairs, pairs.T)):
        swap = list(range(3))
        swap[a.roles[0]], swap[b.roles[0]] = b.roles[0], a.roles[0]
        return tuple(swap)
    return None


def _triple_scan(tables: list, pairs: np.ndarray) -> tuple:
    """``(n_triples, gap_failures, min, max, worst)`` over the triples
    (x, y, z) whose pairs (x, y), (x, z) and (y, z) the (n, n) mask
    ``pairs`` marks; it pairs no point with itself.  ``worst`` is the
    lexicographically first (x, y, z) attaining the minimum; min, max and
    worst are None without a triple.

    The triples run anchor-major (``_anchor``): a chunk of anchor points
    at a time, so the arrays stay O(``TRIPLE_BLOCK``), with the Gram
    blocks of each chunk from ``_gram``; ``_triple_extremes`` prunes
    against the running extremes and breaks ties by (x, y, z).  Under
    the mirror (``_mirror``) a chunk holds only the cells whose u is
    before v, each standing for two triples with one Gram row and one
    bracket; the counts and the exact SVD still cover both orders.
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
    mirror = _mirror(tables, anchor, pairs)
    n = len(pairs)
    # the (u, v) cells of one anchor point: u < v under the mirror
    cells_uv = np.ones((n, n), dtype=bool)
    if mirror:
        cells_uv = np.triu(cells_uv, 1)
    orders = 2 if mirror else 1
    n_triples = gap_failures = 0
    min_defect, max_defect, worst = np.inf, -np.inf, None
    step = max(1, TRIPLE_BLOCK // max(1, np.count_nonzero(cells_uv)))
    for start in range(0, n, step):
        points = np.arange(start, min(start + step, n))
        cells = cells_uv
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
        missing, lowest, key, highest = _triple_extremes(
            tables, gram, at[0], at[1], at[2], min_defect, max_defect,
            mirror)
        n_triples += orders * len(p)
        gap_failures += orders * int(np.count_nonzero(missing))
        if key is None:
            continue
        if lowest < min_defect or (lowest == min_defect and key < worst):
            min_defect, worst = lowest, key
        max_defect = max(max_defect, highest)
    if worst is None:
        return n_triples, gap_failures, None, None, None
    return n_triples, gap_failures, min_defect, max_defect, worst
