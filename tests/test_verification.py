import hashlib
import itertools
import json
import math
import re
import zlib
from collections import Counter
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anosovlab import ball as word_ball
from anosovlab import spectral, triples, verification
from anosovlab.ball import (
    BoundaryAtlas,
    _WordBall,
)
from anosovlab.core_linalg import (
    Subspace,
    _intersections,
    _smallest_singular_values,
    direct_sum_defect,
    grassmann_distance,
    intersect,
    span,
    spectrum,
    wedge_volume,
)
from anosovlab.crossratio import gcr
from anosovlab.errors import (
    DomainError,
    GapError,
    InputError,
    NumericError,
    PreconditionError,
)
from anosovlab.groups import (
    ANGLE_SEPARATION,
    RENORMALIZE_ABOVE,
    Word,
    circle_separation,
    evaluate,
    rp1_fixed_points,
    words_of_length,
)
from anosovlab.representations import (
    Representation,
    coxeter_number_B,
    dual_rep,
    fg_rep,
    fuchsian_locus,
    punctured_torus_reference,
    sopq_form,
    sopq_positive,
)
from anosovlab.spectral import (
    attracting_space,
    eigenvalue_ratios,
    singular_gap,
)
from anosovlab.triples import (
    BRACKET_RTOL,
    _laguerre_bracket,
    _root_bounds,
    _sigma_bounds,
)
from anosovlab.verification import (
    CERTIFICATION_LENGTH,
    IDENTITY_RTOL,
    MONOTONE_SLACK,
    RATIO_AGREEMENT_RTOL,
    WEIGHT_CHAIN_SLACK,
    CollarReport,
    CounterexampleRow,
    EigenIdentityReport,
    GapScanReport,
    PositivityScanReport,
    TransversalityScanReport,
    POSITIVITY_MARGIN,
    SCAN_ACCEPT,
    SCAN_REJECT,
    SLOPE_ANOSOV,
    SLOPE_FLAT,
    TRIPLE_SEPARATION,
    WEDGE_DEGENERACY_TOL,
    _arrangement_minimum,
    _gap_scans,
    _wedge_table,
    anosov_gap_scan,
    boundary_flag,
    check_Ck,
    check_Hk,
    check_eigen_identities,
    check_positively_ratioed,
    check_projection_hyperconvexity,
    projection_triple_defect,
    ck_scan,
    collar_check,
    collar_scan,
    counterexample_scan,
    eigen_identity_scan,
    hk_scan,
    linked_pairs,
    required_indices_c,
    sopq_model_triple_defect,
    sopq_positivity_coeffs,
    sopq_scan,
)

REF = punctured_torus_reference()
A, B = Word((1,)), Word((2,))
LAMBDA1 = (7 + 3 * np.sqrt(5)) / 2


def random_sl3(rank):
    """A rank-``rank`` representation by seeded random SL(3) images."""
    rng = np.random.default_rng(rank)
    images = []
    for _ in range(rank):
        m = rng.normal(size=(3, 3))
        m[0] *= np.sign(np.linalg.det(m))
        images.append(m / np.cbrt(np.linalg.det(m)))
    return Representation(dim=3, generator_images=tuple(images),
                          label=f"random-sl3-rank{rank}")


def reference_gap_scan(rep, k, max_length):
    """One index at a time, one evaluate and one singular_gap call per word."""
    words = words_of_length(rep.rank, max_length)
    lengths = sorted({len(w) for w in words if len(w) > 0})
    minima = [min(np.log(singular_gap(evaluate(rep, w), k))
                  for w in words if len(w) == length)
              for length in lengths]
    slope, _ = np.polyfit(lengths, minima, 1)
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
    return tuple(lengths), minima, slope, verdict


def reference_transversality_scan(rep, k, max_length, kind,
                                  min_separation=TRIPLE_SEPARATION):
    """One triple at a time in permutations order, the summands written out.

    Returns the fields of a TransversalityScanReport that the triples
    decide; a triple whose summand raises GapError has defect 0.
    """
    atlas = BoundaryAtlas(rep, max_length)
    d = rep.dim
    angles = atlas.angles

    def space(i, dim):
        return atlas.ball.space(atlas.words[i], dim)

    def summands(x, y, z):
        if kind == "Hk":
            return [space(x, k), intersect(space(y, k), space(z, d - k + 1)),
                    space(z, d - k - 1)]
        return [space(x, d - k - 2),
                intersect(space(x, d - k + 1), space(y, k)), space(z, k + 1)]

    n_triples = gap_failures = 0
    defects, triples = [], []
    for t in itertools.permutations(range(len(atlas)), 3):
        if min(circle_separation(angles[i], angles[j])
               for i, j in itertools.combinations(t, 2)) < min_separation:
            continue
        n_triples += 1
        try:
            defect = direct_sum_defect(summands(*t))
        except GapError:
            defect = 0.0
            gap_failures += 1
        defects.append(defect)
        triples.append(t)
    if not defects:
        return dict(n_triples=n_triples, gap_failures=gap_failures,
                    min_defect=None, max_defect=None, worst_triple=None,
                    verdict="ambiguous")
    min_defect = min(defects)
    if min_defect > SCAN_ACCEPT:
        verdict = "pass"
    elif min_defect < SCAN_REJECT:
        verdict = "fail"
    else:
        verdict = "ambiguous"
    worst = triples[defects.index(min_defect)]
    return dict(n_triples=n_triples, gap_failures=gap_failures,
                min_defect=min_defect,
                max_defect=max(defects),
                worst_triple=tuple(atlas.words[i] for i in worst),
                verdict=verdict)


def all_triples_defects(tables, x, y, z):
    """Missing flags and exact defect of every triple (x[i], y[i], z[i]):
    one batched SVD, no triple left out."""
    columns = (x, y, z)
    keys = [tuple(columns[role] for role in t.roles) for t in tables]
    missing = np.any([t.missing[key] for t, key in zip(tables, keys)], axis=0)
    stack = np.concatenate([t.basis[key] for t, key in zip(tables, keys)],
                           axis=2)
    return missing, np.where(missing, 0.0, _smallest_singular_values(stack))


def mirrored_triples(x, y, z, mirror):
    """The ordered triples of the kernel's rows (x[i], y[i], z[i]): the
    rows, then with ``mirror`` the rows with their positions permuted."""
    rows = np.stack((x, y, z))
    return [rows] if mirror is None else [rows, rows[list(mirror)]]


def all_triples_extremes(tables, gram, x, y, z, low, high, mirror):
    """Drop-in for ``triples._triple_extremes`` that prunes nothing:
    the extremes over the exact defects of every ordered triple, both
    orders of a row under the mirror, the first minimum by (x, y, z)."""
    x, y, z = np.concatenate(mirrored_triples(x, y, z, mirror), axis=1)
    missing, defects = all_triples_defects(tables, x, y, z)
    ties = np.flatnonzero(defects == defects.min())
    j = int(ties[np.lexsort((z[ties], y[ties], x[ties]))[0]])
    rows = len(x) // (1 if mirror is None else 2)
    return (missing[:rows], float(defects[j]),
            (int(x[j]), int(y[j]), int(z[j])), float(defects.max()))


def all_triples_scan(monkeypatch, scan, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(triples, "_triple_extremes", all_triples_extremes)
        return scan(*args, **kwargs)


def reference_projection_scan(rep, k, x, max_length,
                              min_separation=TRIPLE_SEPARATION):
    """The projected scan one triple at a time: one direct_sum_defect call
    per triple in combinations order; a strict < keeps the first minimum."""
    lines, labels = verification._projection_lines(rep, k, x, max_length,
                                                   min_separation)
    n = len(lines)
    min_defect, worst = np.inf, None
    for i, j, l in itertools.combinations(range(n), 3):
        defect = direct_sum_defect([lines[i], lines[j], lines[l]])
        if defect < min_defect:
            min_defect, worst = defect, (labels[i], labels[j], labels[l])
    verdict = ("pass" if min_defect > SCAN_ACCEPT
               else "fail" if min_defect < SCAN_REJECT else "ambiguous")
    return TransversalityScanReport(
        kind="projection", rep_label=rep.label, k=k,
        max_length=max_length, certification={}, certified=True,
        n_points=n, n_triples=n * (n - 1) * (n - 2) // 6, gap_failures=0,
        min_defect=float(min_defect), verdict=verdict, worst_triple=worst,
        min_separation=min_separation)


def reference_arrangement_minimum(wedge):
    """One arrangement at a time, in the sweep's order: z in angle order,
    then x, y and w by cyclic position after z (the arc after z reads
    w, x, y); a strict < keeps the first minimum."""
    n = len(wedge)
    min_gcr, worst, count = np.inf, None, 0
    for z in range(n):
        arc = [(z + i) % n for i in range(1, n)]
        for a in range(1, n - 2):
            for b in range(a + 1, n - 1):
                for c in range(a):
                    x, y, w = arc[a], arc[b], arc[c]
                    val = ((wedge[x, z] / wedge[x, y])
                           * (wedge[w, y] / wedge[w, z]))
                    count += 1
                    if val < min_gcr:
                        min_gcr, worst = val, (x, y, z, w)
    return float(min_gcr), worst, count


def pairwise_arrangement_minimum(wedge):
    """The same first minimum in array code, O(n^4): the arrangements of
    one (z, x) at a time as a (y, w) grid, both by arc position; a
    row-major argmin and a strict < across (z, x) keep the first."""
    n = len(wedge)
    min_gcr, worst = np.inf, None
    for z in range(n):
        arc = (z + 1 + np.arange(n - 1)) % n
        for a in range(1, n - 2):
            x, y, w = arc[a], arc[a + 1:, None], arc[None, :a]
            values = (wedge[x, z] / wedge[x, y]) * (wedge[w, y] / wedge[w, z])
            s, t = np.unravel_index(int(np.argmin(values)), values.shape)
            if values[s, t] < min_gcr:
                min_gcr = float(values[s, t])
                worst = (int(x), int(y[s, 0]), z, int(w[0, t]))
    return min_gcr, worst


def six_separation_linked(ends):
    """The linkage mask of n words with (n, 2) (attracting, repelling)
    angles ``ends``, pair by pair: the parity of the cyclic descents of
    (g-, h-, g+, h+) and the six separations of the four ends, each an
    (n, n) ``circle_separation`` table."""
    plus, minus = ends[:, 0], ends[:, 1]
    cycle = (minus[:, None], minus[None, :], plus[:, None], plus[None, :])
    odd = ((cycle[1] < cycle[0]) ^ (cycle[2] < cycle[1])
           ^ (cycle[3] < cycle[2]) ^ (cycle[0] < cycle[3]))
    for i, j in itertools.combinations(range(4), 2):
        odd = odd & (circle_separation(cycle[i], cycle[j]) >= ANGLE_SEPARATION)
    return odd


# ends at, just inside and just outside the coincidence tolerance of 1.0,
# 2.0 and of each other, and across the wrap at pi
TIGHT = ANGLE_SEPARATION * (1 - 1e-6)
LOOSE = ANGLE_SEPARATION * (1 + 1e-6)
NEAR_ENDS = [0.0, TIGHT, LOOSE, np.pi - 1e-11, np.pi - TIGHT, np.pi - LOOSE,
             1.0, 1.0 + TIGHT, 1.0 + LOOSE, 1.0 - TIGHT, 1.0 + 1.5 * LOOSE,
             1.0 + 3 * LOOSE, 2.0, 2.0 - LOOSE, 2.0 + 0.5 * TIGHT]


def counting(stacks, name, kernel):
    """``kernel`` wrapped to append ``(name, shape)`` of each stack it is
    called on to ``stacks``."""
    def wrapped(a):
        stacks.append((name, np.shape(a)))
        return kernel(a)
    return wrapped


def arc_sweep(wedge, z):
    """Every arrangement (x, y, z, w) of one z, minimised over w by prefix
    extremes of G along the arc: the wedge table rotated to start at z, an
    (n, n) copy, and two ``ufunc.accumulate`` passes.  Returns G (arc
    position of w, of y), F and those minima, the last two with row r for
    x at arc position r + 1."""
    n = len(wedge)
    order = (z + np.arange(n)) % n
    rotated = wedge.take(order, 0).take(order, 1)
    np.fill_diagonal(rotated, 1.0)  # the arc's W[i, i]: read by no arrangement
    arc = rotated[1:, 1:]
    to_z = rotated[1:, 0, None]
    g = arc / to_z
    f = to_z[1:] / arc[1:]
    low = np.minimum.accumulate(g, axis=0)[:-1]    # w strictly before x
    high = np.maximum.accumulate(g, axis=0)[:-1]
    return g, f, np.where(f > 0, low, high) * f


def per_point_arrangement_minimum(wedge):
    """The same first minimum from one ``arc_sweep`` per z: O(n^3) time,
    O(n^2) memory; the first minimizing z is swept again for its first
    (x, y) row-major, then its first w."""
    n = len(wedge)
    valid = np.triu(np.ones((n - 2, n - 1), dtype=bool), 2)
    minima = [np.min(arc_sweep(wedge, z)[2], where=valid, initial=np.inf)
              for z in range(n)]
    z = int(np.argmin(minima))
    min_gcr = minima[z]
    g, f, values = arc_sweep(wedge, z)
    r, j = np.argwhere(valid & (values == min_gcr))[0]
    w = int(np.argmax(g[:r + 1, j] * f[r, j] == min_gcr))
    arc = (z + 1 + np.arange(n - 1)) % n
    return float(min_gcr), (int(arc[r + 1]), int(arc[j]), z, int(arc[w]))


@st.composite
def wedge_tables(draw, elements):
    n = draw(st.integers(min_value=4, max_value=12))
    return draw(hnp.arrays(np.float64, (n, n), elements=elements))


# nonzero entries of both signs, so that F < 0 takes the prefix maximum
MIXED_SIGN = st.one_of(st.floats(min_value=0.1, max_value=10.0),
                       st.floats(min_value=-10.0, max_value=-0.1))
# a few values, so that the cross ratio takes few values and ties abound
FEW_VALUES = st.sampled_from([-3.0, -1.0, 0.5, 1.0, 2.0])


def reference_positivity_scan(rep, k, max_length):
    """The positivity report from one wedge_volume call per ordered pair of
    points and the arrangement loop above."""
    atlas = BoundaryAtlas(rep, max_length)
    n, d = len(atlas), rep.dim
    k_flags = [atlas.ball.space(w, k) for w in atlas.words]
    dk_flags = [atlas.ball.space(w, d - k) for w in atlas.words]
    wedge = np.zeros((n, n))
    for i, j in itertools.permutations(range(n), 2):
        wedge[i, j] = wedge_volume([k_flags[i], dk_flags[j]])
    min_gcr, worst, count = reference_arrangement_minimum(wedge)
    return PositivityScanReport(
        rep_label=rep.label, k=k, max_length=max_length, n_points=n,
        n_quadruples=count, min_gcr=min_gcr,
        worst_quadruple=tuple(atlas.words[i] for i in worst),
        passed=min_gcr > 1.0 + POSITIVITY_MARGIN)


def assert_matches_reference(report, reference):
    for field in ("min_defect", "max_defect"):
        got, want = getattr(report, field), reference[field]
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)
    for field in ("worst_triple", "n_triples", "gap_failures", "verdict"):
        assert getattr(report, field) == reference[field], field


def rotation_rep(seed):
    """A 4-dimensional rep whose generators' middle eigenvalues are a complex
    pair, so collar pairs at k=1 are signed and sign-indeterminate."""
    a = np.zeros((4, 4))
    a[0, 0], a[3, 3] = 4.0, 0.25
    a[1:3, 1:3] = [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]
    q = np.eye(4) + 0.3 * np.random.default_rng(seed).normal(size=(4, 4))
    return Representation(4, (a, q @ a @ np.linalg.inv(q)), REF, "rotation")


def weight_period(record, k):
    """The weight period of a one-row Spectrum at k and whether it is
    real: its row of ``spectral._eigenvalue_columns``."""
    columns = spectral._eigenvalue_columns(record.values, k)
    return float(columns.period[0]), bool(columns.period_real[0])


def reference_collar_scan(rep, k, max_length):
    """One linked pair at a time, g-major, each value from the one-row
    ``spectral`` calls on the ball's one-row Spectrum of the word (kept per
    word), so a failure patched into ``ball._spectra`` is read
    here too."""
    ball = _WordBall(rep, max_length)
    words, ends = ball.loxodromic()
    values = {}

    def value(fn, w):
        if (fn, w) not in values:
            values[fn, w] = fn(ball.spectrum(w), k)
        return values[fn, w]

    reports = []
    for i, j in np.argwhere(verification._linked(ends)):
        g, h = words[i], words[j]
        lhs, lhs_signed = value(weight_period, g)
        ratios = value(spectral.eigenvalue_ratios, h)
        if ratios.lambda_ratio_modulus <= 1.0 + spectral.EIGEN_GAP_MIN:
            raise GapError(
                f"no eigenvalue gap at index {k} for word {h}: "
                f"|lambda_{k}|/|lambda_{k + 1}| = "
                f"{ratios.lambda_ratio_modulus:.6g}",
                index=k, ratio=ratios.lambda_ratio_modulus)
        rhs = 1.0 / (1.0 - 1.0 / ratios.lambda_ratio)
        weight_rhs = 1.0 / (1.0 - np.exp(
            -value(spectral.length_functions, h).weight_length))
        reports.append(CollarReport(
            g=g, h=h, k=k, lhs=lhs, rhs=rhs, weight_rhs=weight_rhs,
            holds=bool(lhs > rhs), margin=float(lhs - rhs),
            sign_indeterminate=(ratios.lambda_ratio_signed is None
                                or not lhs_signed)))
    return reports


def no_ball(*args):
    raise AssertionError("word ball built before the arguments were checked")


def cone_vector(data, rng=None):
    m = data.q - data.p + 2
    v = np.zeros(m)
    v[0] = 2.0 if rng is None else rng.uniform(0.5, 2.5)
    mag = 0.5 if rng is None else rng.uniform(0.1, 0.6)
    v[-1] = (-1.0) ** (data.p - 1) * mag
    return v


def random_positive_element(data, rng):
    vbars = []
    for _ in range(coxeter_number_B(data.p - 1) // 2):
        vbars.append([rng.uniform(0.05, 2.0) for _ in range(data.p - 2)]
                     + [cone_vector(data, rng)])
    return sopq_positive(data, vbars)


class TestWordBall:
    @pytest.mark.parametrize("rep", [fuchsian_locus((7, 1), REF), fg_rep(1.0)])
    def test_images_equal_evaluate(self, rep):
        ball = _WordBall(rep, 5)
        assert ball.images.shape == (len(ball.words), rep.dim, rep.dim)
        for w in ball.words:
            assert np.array_equal(ball.images[ball.row(w)], evaluate(rep, w))
            try:
                expected = rp1_fixed_points(evaluate(rep.reference, w))
            except DomainError:
                continue
            assert ball.fixed_points(w) == expected

    def test_reference_without_a_generator_is_an_input_error(self):
        # raised where the representation is built, before a ball reads it
        fg = fg_rep(1.0)
        short = Representation(dim=2, generator_images=(
            REF.generator_images[0],))
        with pytest.raises(InputError, match="boundary reference has 1 "
                           "generators, representation has 2"):
            Representation(dim=3, generator_images=fg.generator_images,
                           reference=short)

    def test_named_words_inverses_and_prefixes_are_rows(self):
        rep = fuchsian_locus((7, 1), REF)
        w = Word((1, 2, -1, -2, 1, 1, 2, 2))
        ball = _WordBall(rep, 2, (w, A * B))
        assert ball.words[:ball.size] == words_of_length(2, 2)
        assert len(set(ball.words)) == len(ball.words)
        named = ball.words[ball.size:]
        assert named == sorted(named, key=lambda v: (len(v), v.letters))
        assert all(len(v) > 2 for v in named)
        rows = {v: i for i, v in enumerate(ball.words)}
        for v in (w, w.inverse()):
            for i in range(1, len(v) + 1):
                prefix = Word(v.letters[:i])
                assert rows[prefix] > rows[Word(v.letters[:i - 1])]
        # the scans' words are the ball's own, never the named ones
        words, _ = ball.loxodromic()
        assert set(words) <= set(ball.words[1:ball.size])

    @pytest.mark.parametrize("rep", [fuchsian_locus((5, 1), REF), fg_rep(2.0)])
    def test_every_row_equals_evaluate_past_renormalization(self, rep):
        # a 40-letter word is renormalized by evaluate; its row is the same
        # unit-norm matrix, not the plain product of its prefix chain
        w = Word((1, 2, -1, -2) * 10)
        ball = _WordBall(rep, 0, (w, A))
        assert len(ball.words) == 1 + 2 * 40 + 1   # a is a prefix of w
        for v in ball.words:
            assert np.array_equal(ball.images[ball.row(v)], evaluate(rep, v))
            try:
                expected = rp1_fixed_points(evaluate(rep.reference, v))
            except DomainError:
                continue
            assert ball.fixed_points(v) == expected
        assert np.linalg.norm(ball.images[ball.row(w)], 2) == \
            pytest.approx(1.0)

    @pytest.mark.parametrize("rep", [
        fg_rep(1.0), fuchsian_locus((5, 1), REF), fuchsian_locus((7, 1), REF),
        fuchsian_locus((9, 1), REF)], ids=["fg", "51", "71", "91"])
    def test_level_batched_products_equal_evaluate_at_length_6(self, rep):
        # one stacked matmul per (length, last letter) group gives every
        # row of the 1,457-word ball as evaluate does, bit for bit
        ball = _WordBall(rep, 6)
        assert len(ball.words) == 1457
        for w, m in zip(ball.words, ball.images):
            assert np.array_equal(m, evaluate(rep, w)), str(w)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_rows_and_columns_of_every_word_and_named_prefix(self, rank):
        rep = random_sl3(rank)
        named = (Word(tuple(range(1, rank + 1)) * 2), Word((-rank, -1, -1)))
        for max_length in range(5):
            ball = _WordBall(rep, max_length, named)
            words = ball.words
            assert words[:ball.size] == words_of_length(rank, max_length)
            assert [ball.row(w) for w in words] == list(range(len(ball)))
            assert ball.lengths.tolist() == [len(w) for w in words]
            assert ball.parents.tolist() == [
                ball.row(Word(w.letters[:-1])) for w in words]
            assert ball.last.tolist() == [w.letters[-1] if w.letters else 0
                                          for w in words]

    @pytest.mark.parametrize("rank,size", [(3, 187), (4, 457)])
    def test_images_equal_evaluate_on_ranks_3_and_4(self, rank, size):
        rep = random_sl3(rank)
        ball = _WordBall(rep, 3, (Word((rank, 1, -rank, 2, 2)),))
        assert ball.size == size
        for w, m in zip(ball.words, ball.images):
            assert np.array_equal(m, evaluate(rep, w)), str(w)

    def test_gap_scans_build_no_word(self, monkeypatch):
        # the certification reads only the ball's columns and images; its
        # reports are those of the per-word ball, pinned by digest
        def no_words(*args):
            raise AssertionError("a Word was built")

        monkeypatch.setattr(word_ball, "words_of_length", no_words)
        monkeypatch.setattr(Word, "_trusted", classmethod(no_words))
        reports = _gap_scans(fuchsian_locus((7, 1), REF), (1, 2, 3), 6)
        text = json.dumps({k: r.to_dict() for k, r in reports.items()},
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b9aa370987123dda9a3a118ac4a5981de310f5e6ef5637e0466e1febaede76c0")

    def test_named_word_past_renormalization_comes_from_evaluate(
            self, monkeypatch):
        calls = []

        def counting_evaluate(rep, w):
            calls.append(w)
            return evaluate(rep, w)

        monkeypatch.setattr(word_ball, "evaluate", counting_evaluate)
        rep = fuchsian_locus((5, 1), REF)
        w = Word((1, 2, -1, -2) * 10)
        ball = _WordBall(rep, 2, (w,))
        long = [v for v in ball.words if len(v) > RENORMALIZE_ABOVE]
        assert w in long and w.inverse() in long
        assert calls == long
        assert np.array_equal(ball.images[ball.row(w)], evaluate(rep, w))

    @pytest.mark.parametrize("rep,max_length,dims,gaps", [
        (fg_rep(1.0), 3, (1, 2), 0),
        (fuchsian_locus((5, 1), REF), 3, (1, 4), 0),
        (fuchsian_locus((7, 1), REF), 2, (1, 2, 5), 0),
        # the eigenvalue 1 of (7,1) is double: at 4, the rows whose
        # rounding leaves the two within EIGEN_GAP_MIN are missing
        (fuchsian_locus((7, 1), REF), 4, (1, 2, 3, 4, 5, 6), 69),
    ], ids=["fg-L3", "51-L3", "71-L2", "71-L4"])
    def test_flag_tables_equal_one_row_attracting_space(
            self, rep, max_length, dims, gaps):
        # the batched kernel over every point gives each row's flag bit for
        # bit as the kernel on that row alone, and misses the same rows
        atlas = BoundaryAtlas(rep, max_length)
        missed = 0
        for dim in dims:
            bases, missing = atlas.ball.flags(dim, atlas.rows)
            assert bases.shape == (len(atlas), rep.dim, dim)
            for i, w in enumerate(atlas.words):
                try:
                    space = attracting_space(atlas.ball.spectrum(w), dim)
                except GapError:
                    assert missing[i], (str(w), dim)
                    continue
                assert not missing[i], (str(w), dim)
                assert np.array_equal(bases[i], space.basis), (str(w), dim)
            missed += int(np.count_nonzero(missing))
        assert missed == gaps

    def test_failed_record_raises_only_where_its_flag_is_read(
            self, monkeypatch):
        # the eigenvalues of the image of ``ab`` are moved off in the batch:
        # a flag table over the other rows is built, one reading ``ab``
        # raises the record's error, also after the other rows are kept
        rep = fg_rep(1.0)
        bad = evaluate(rep, A * B)
        exact = np.linalg.eig

        def moved_eig(a):
            vals, vecs = exact(a)
            hit = np.all(a == bad, axis=(-2, -1))
            return np.where(hit[..., None], vals * 1.001, vals), vecs

        monkeypatch.setattr(np.linalg, "eig", moved_eig)
        with pytest.raises(NumericError) as alone:
            spectrum(bad)
        ball = _WordBall(rep, 2)
        row = ball.row(A * B)
        others = [i for i in range(1, len(ball.words)) if i != row]
        bases, missing = ball.flags(1, others)
        assert not missing.any()
        for i, basis in zip(others, bases):
            assert np.array_equal(basis, attracting_space(
                ball.spectrum(ball.words[i]), 1).basis)
        for rows in ([row], others[:3] + [row] + others[3:]):
            with pytest.raises(NumericError) as exc:
                ball.flags(1, rows)
            assert str(exc.value) == str(alone.value)
        with pytest.raises(NumericError):
            ball.space(A * B, 1)
        # the failed mask is built once, with the Spectrum table
        assert ball.failed() is ball.failed()
        assert np.flatnonzero(ball.failed()).tolist() == [row]

    @pytest.mark.parametrize("rep", [fuchsian_locus((5, 1), REF),
                                     fuchsian_locus((3, 3), REF), fg_rep(1.0)])
    def test_records_equal_eigvals_bit_for_bit(self, rep):
        # the collar and gap reports read these values; eig must give the
        # eigenvalues of eigvals, batched or not, sorted the same way
        ball = _WordBall(rep, 3)
        for w, m in zip(ball.words, ball.images):
            vals = np.linalg.eigvals(m)
            vals = vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]
            record = ball.spectrum(w)
            assert record.values.dtype == vals.dtype
            assert np.array_equal(record.values[0], vals)
            assert np.array_equal(spectrum(m).values[0], vals)
            assert record.norms[0] == np.linalg.norm(m, 2)

    def test_failed_record_raises_only_where_read(self, monkeypatch):
        # the eigenvalues of the image of ``ab`` are moved off in the batch:
        # the other words read their records, ``ab`` raises the error that
        # spectrum gives for its image alone
        rep = fg_rep(1.0)
        bad = evaluate(rep, A * B)
        exact = np.linalg.eig

        def moved_eig(a):
            vals, vecs = exact(a)
            hit = np.all(a == bad, axis=(-2, -1))
            return np.where(hit[..., None], vals * 1.001, vals), vecs

        monkeypatch.setattr(np.linalg, "eig", moved_eig)
        ball = _WordBall(rep, 2)
        with pytest.raises(NumericError) as alone:
            spectrum(bad)
        for w in ball.words:
            if w == A * B:
                for _ in range(2):
                    with pytest.raises(NumericError) as exc:
                        ball.spectrum(w)
                    assert str(exc.value) == str(alone.value)
                    assert exc.value.diagnostics == alone.value.diagnostics
            else:
                assert np.array_equal(ball.spectrum(w).entries[0],
                                      ball.images[ball.row(w)])

    @pytest.mark.parametrize("rep,max_length", [
        (fg_rep(1.0), 6), (fuchsian_locus((5, 1), REF), 6),
        (rotation_rep(5), 3)], ids=["fg-L6", "51-L6", "rotation-L3"])
    def test_table_rows_equal_the_one_row_spectra(self, rep, max_length):
        # each row of the ball's table, taken alone, is the one-row
        # Spectrum of its matrix bit for bit, in real arithmetic where its
        # spectrum is real; the rotation rep mixes real and complex rows
        ball = _WordBall(rep, max_length)
        table = word_ball._spectra(ball.images)
        assert not table.errors
        kinds = set()
        for i, m in enumerate(ball.images):
            row, alone = table.take([i]), spectrum(m)
            for name in ("entries", "values", "vectors", "norms"):
                got, want = getattr(row, name), getattr(alone, name)
                assert got.dtype == want.dtype, (i, name)
                assert np.array_equal(got, want), (i, name)
            kinds.add(row.values.dtype.kind)
        if rep.label == "rotation":
            assert kinds == {"f", "c"} and table.values.dtype.kind == "c"

    @pytest.mark.parametrize("rep", [
        fg_rep(1.0), fuchsian_locus((5, 1), REF), fuchsian_locus((7, 1), REF),
        rotation_rep(5)], ids=["fg", "51", "71", "rotation"])
    def test_values_only_table_has_the_eig_values(self, rep):
        # LAPACK runs the same QR sweeps with and without eigenvectors, so
        # the values-only table is the eig table less its vectors, bit for
        # bit, the residual checks read off the values included
        images = _WordBall(rep, 4).images
        assert (np.linalg.eigvals(images).tobytes()
                == np.linalg.eig(images)[0].tobytes())
        alone, table = (word_ball._spectra(images, False),
                        word_ball._spectra(images))
        assert alone.vectors is None and table.vectors is not None
        assert alone.values.dtype == table.values.dtype
        assert alone.values.tobytes() == table.values.tobytes()
        assert alone.norms.tobytes() == table.norms.tobytes()
        assert alone.errors.keys() == table.errors.keys()

    def test_eigenvectors_are_computed_once_when_first_read(self, monkeypatch):
        # the eigenvalue columns read eigvals; the first one-row spectrum
        # builds the eig table, which every later read shares
        stacks = []
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counting(
                stacks, name, getattr(np.linalg, name)))
        ball = _WordBall(fg_rep(1.0), 2)
        ball.eigenvalues(1)
        assert ball.spectrum(A).vectors.shape == (1, 3, 3)
        ball.flags(1, [ball.row(B)])
        ball.spectrum(B)
        assert stacks == [("eigvals", (17, 3, 3)), ("eig", (17, 3, 3))]

    def test_flag_read_after_values_keeps_values_and_errors(self,
                                                           monkeypatch):
        # the row of ab is moved off in both kernels, so it fails its
        # residual check in either table: the eig table a flag read builds
        # has the values-only table's values and errors, and the columns
        # read off the latter stay the ball's
        rep = fg_rep(1.0)
        bad = evaluate(rep, A * B)
        eig, eigvals = np.linalg.eig, np.linalg.eigvals

        def moved(vals, a):
            hit = np.all(a == bad, axis=(-2, -1))
            return np.where(hit[..., None], vals * 1.001, vals)

        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: moved(eigvals(a), a))
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: (moved(eig(a)[0], a), eig(a)[1]))
        ball = _WordBall(rep, 2)
        columns = ball.eigenvalues(1)
        alone, failed = ball._spectra(), ball.failed().copy()
        assert alone.vectors is None
        assert list(alone.errors) == [ball.row(A * B)]
        with pytest.raises(NumericError) as exc:
            ball.flags(1, [ball.row(A), ball.row(A * B)])
        table = ball._spectra()
        assert table.vectors is not None and ball._spectra(True) is table
        assert str(exc.value) == str(alone.errors[ball.row(A * B)])
        assert table.values.tobytes() == alone.values.tobytes()
        assert {i: (str(e), e.diagnostics) for i, e in table.errors.items()} \
            == {i: (str(e), e.diagnostics) for i, e in alone.errors.items()}
        assert np.array_equal(ball.failed(), failed)
        assert ball.eigenvalues(1) is columns
        fresh = spectral._eigenvalue_columns(
            np.where(failed[:, None], 1.0, table.values), 1)
        for f in fields(columns):
            assert np.array_equal(getattr(fresh, f.name),
                                  getattr(columns, f.name)), f.name

    def test_failed_row_keeps_the_scalar_error_text(self, monkeypatch):
        # the eigenvalues of the image of ``ab`` are moved off in the batch:
        # only its row has an error, worded as the one-matrix check words
        # it, |det(M - lambda I)| <= 1e-8 max(||M||, 1)^d at the first
        # failing eigenvalue
        rep = fg_rep(1.0)
        bad = evaluate(rep, A * B)
        exact = np.linalg.eig

        def moved_eig(a):
            vals, vecs = exact(a)
            hit = np.all(a == bad, axis=(-2, -1))
            return np.where(hit[..., None], vals * 1.001, vals), vecs

        monkeypatch.setattr(np.linalg, "eig", moved_eig)
        ball = _WordBall(rep, 2)
        table = word_ball._spectra(ball.images)
        assert list(table.errors) == [ball.row(A * B)]
        budget = 1e-8 * max(float(np.linalg.norm(bad, 2)), 1.0) ** 3
        for lam in sorted(exact(bad)[0].real * 1.001, key=abs, reverse=True):
            resid = float(abs(np.linalg.det(bad - lam * np.eye(3))))
            if resid > budget:
                break
        error = table.errors[ball.row(A * B)]
        assert str(error) == (
            f"characteristic-polynomial residual {resid:g} exceeds "
            f"{budget:g} at eigenvalue {lam}")
        assert error.diagnostics == {"eigenvalue": lam, "residual": resid}
        with pytest.raises(NumericError) as alone:
            spectrum(bad)
        assert (str(alone.value), alone.value.diagnostics) == (
            str(error), error.diagnostics)

    @pytest.mark.parametrize("check,kernel,rows", [
        (lambda rep: collar_check(rep, 1, A, B), "eigvals", 5),
        (lambda rep: check_eigen_identities(rep, 1, A * B, B), "eig", 6),
        (lambda rep: check_Hk(rep, 1, (A, B, A * B)), "eig", 7),
        (lambda rep: boundary_flag(rep, A * A, (1, 2)), "eig", 5),
    ], ids=["collar", "eigen", "Hk", "flag"])
    def test_single_item_check_decomposes_in_one_batch(self, monkeypatch,
                                                       check, kernel, rows):
        # the identity, the named words and their inverses with prefixes;
        # the collar reads eigenvalues alone, the others a flag first
        stacks = []
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counting(
                stacks, name, getattr(np.linalg, name)))
        check(fg_rep(1.0))
        assert stacks == [(kernel, (rows, 3, 3))]

    @pytest.mark.parametrize("check", [
        lambda rep, c: collar_check(rep, 1, c, B),
        lambda rep, c: check_Hk(rep, 1, (c, A, B)),
        lambda rep, c: boundary_flag(rep, c, (1,)),
    ], ids=["collar", "Hk", "flag"])
    def test_word_beyond_the_rank_is_an_input_error(self, check):
        with pytest.raises(InputError,
                           match="word uses generator 3, representation has 2"):
            check(fg_rep(1.0), Word((3,)))

    def test_eigen_identity_scan_computes_each_item_once(self, monkeypatch):
        # every attracting space is a row of the ball's flag table, whose
        # rows the kernel computes once each: the 53 rows of the L = 3 ball
        # at k = 1 and 2, the identity's included.  Every reference fixed
        # point is a row of one batched call over the ball
        spaces, points, calls = Counter(), Counter(), []
        kernel = word_ball._invariant_bases
        fixed_points = word_ball._rp1_fixed_points

        def counting_kernel(spec, rows, start, stop):
            calls.append(stop)
            for m in spec.entries[rows]:
                spaces[m.tobytes(), stop] += 1
            return kernel(spec, rows, start, stop)

        def counting_points(stack):
            points.update(m.tobytes() for m in stack)
            return fixed_points(stack)

        monkeypatch.setattr(word_ball, "_invariant_bases", counting_kernel)
        monkeypatch.setattr(word_ball, "_rp1_fixed_points", counting_points)
        reports = eigen_identity_scan(fg_rep(1.0), 1, 3)
        assert len(reports) == 52
        assert sorted(calls) == [1, 2]
        assert len(spaces) == 106 and set(spaces.values()) == {1}
        assert len(points) == 53 and set(points.values()) == {1}

    @pytest.mark.parametrize("rep,k,max_length", [
        (lambda: fg_rep(1.0), 1, 3),
        (lambda: fg_rep(1.0), 2, 3),
        (lambda: fg_rep(1.0), 1, 4),
        (lambda: fg_rep(0.6), 1, 3),
        (lambda: fuchsian_locus((5, 1), REF), 1, 2),
        (lambda: fuchsian_locus((4, 2), REF), 2, 3),
    ], ids=["fg1-L3", "fg1-k2", "fg1-L4", "fg0.6-L3", "51-L2", "42-k2"])
    def test_eigen_identity_scan_equals_the_point_by_point_loop(
            self, rep, k, max_length):
        # the whole-ball flag tables change neither the reports nor the
        # first error: the loop below checks each item on the ball named by
        # its two words alone (``check_eigen_identities``), item by item
        rep = rep()
        aux = [w for w in verification._AUXILIARY_WORDS
               if max(map(abs, w.letters)) <= rep.rank]

        def point_by_point():
            ball = _WordBall(rep, max_length, aux)
            return [check_eigen_identities(
                        rep, k, w, verification._auxiliary_point(ball, w, aux))
                    for w in ball.loxodromic()[0]]

        try:
            want = point_by_point()
        except (DomainError, GapError, NumericError,
                PreconditionError) as exc:
            with pytest.raises(type(exc)) as got:
                eigen_identity_scan(rep, k, max_length)
            assert str(got.value) == str(exc)
        else:
            assert eigen_identity_scan(rep, k, max_length) == want


class TestBoundaryAtlas:
    @pytest.mark.parametrize("rep", [fg_rep(1.0), fuchsian_locus((5, 1), REF)])
    def test_angles_ascend_and_belong_to_their_words(self, rep):
        atlas = BoundaryAtlas(rep, 3)
        assert len(atlas.words) == len(atlas.angles) == len(atlas) > 0
        assert np.all(np.diff(atlas.angles) > 0)
        for w, angle in zip(atlas.words, atlas.angles):
            assert angle == rp1_fixed_points(evaluate(rep.reference, w))[0]

    def test_loxodromic_words_and_skipped_count(self):
        atlas = BoundaryAtlas(fg_rep(1.0), 3)
        words, ends = atlas.ball.loxodromic()
        assert ends.shape == (len(words), 2)
        assert (len(words) + atlas.skipped_nonloxodromic
                == len(atlas.ball.words) - 1)

    @pytest.mark.parametrize("max_length", range(1, 7))
    def test_drops_the_later_point_of_each_close_pair(self, max_length):
        # point by point: in the stable order by attracting angle, a point
        # close to any earlier one, kept or not, is dropped
        atlas = BoundaryAtlas(fg_rep(1.0), max_length)
        words, ends = atlas.ball.loxodromic()
        order = sorted(range(len(words)), key=lambda i: ends[i, 0])
        angles = ends[order, 0]
        kept = [i for p, i in enumerate(order) if not np.any(
            circle_separation(angles[p], angles[:p]) < ANGLE_SEPARATION)]
        assert atlas.words == [words[i] for i in kept]
        assert np.array_equal(atlas.angles, ends[kept, 0])
        assert np.array_equal(atlas.rows, atlas.ball.loxodromic_rows()[kept])

    def test_L7_keeps_points_apart_by_the_angle_separation(self):
        # aaaaab lies within 1e-8 of aaaaaba, but not within
        # ANGLE_SEPARATION, and the axes of the two differ
        atlas = BoundaryAtlas(fg_rep(1.0), 7)
        assert len(atlas) == 4188
        words = [Word.parse(w, 2) for w in ("a", "aaaaab", "aaaaaba")]
        assert set(words) <= set(atlas.words)
        rows = [atlas.ball.row(w) for w in words[1:]]
        (plus, minus), (near_plus, near_minus) = (
            atlas.ball.reference_ends()[0][rows])
        assert ANGLE_SEPARATION < circle_separation(plus, near_plus) < 1e-8
        assert circle_separation(minus, near_minus) > 0.5


class TestGapScan:
    def test_reference_rep_anosov_like(self):
        rep = fuchsian_locus((2,), REF)
        report = anosov_gap_scan(rep, 1, 6)
        assert report.verdict == "anosov-like"
        assert report.slope > 0.05

    def test_5_1_flat_at_k3(self):
        rep = fuchsian_locus((5, 1), REF)
        report = anosov_gap_scan(rep, 3, 6)
        assert report.verdict == "flat"
        assert abs(report.slope) < 0.01

    def test_fg_anosov_like(self):
        report = anosov_gap_scan(fg_rep(1.0), 1, 6)
        assert report.verdict == "anosov-like"

    def test_short_scan_rejected(self):
        with pytest.raises(InputError):
            anosov_gap_scan(fg_rep(1.0), 1, 2)

    def test_reruns_deterministic(self):
        rep = fg_rep(1.0)
        r1 = anosov_gap_scan(rep, 1, 5)
        r2 = anosov_gap_scan(rep, 1, 5)
        assert r1.min_log_gaps == r2.min_log_gaps

    @pytest.mark.parametrize("rep,indices", [
        (fuchsian_locus((7, 1), REF), (1, 2, 3)),
        (fg_rep(1.0), (1, 2)),
    ])
    def test_shared_pass_matches_per_index_loop(self, rep, indices):
        shared = _gap_scans(rep, indices, 6)
        for k in indices:
            lengths, minima, slope, verdict = reference_gap_scan(rep, k, 6)
            report = shared[k]
            assert report.lengths == lengths
            assert np.allclose(report.min_log_gaps, minima, rtol=1e-12, atol=0)
            assert report.slope == pytest.approx(slope, rel=1e-12)
            assert report.verdict == verdict

    def test_certification_decomposes_one_row_block_at_a_time(
            self, monkeypatch):
        rows = []
        exact_svd = spectral.svd

        def recorded(a):
            rows.append(len(a))
            return exact_svd(a)

        monkeypatch.setattr(spectral, "svd", recorded)
        _gap_scans(fuchsian_locus((7, 1), REF), (1, 2, 3), 6)
        assert sum(rows) == 1456 and len(rows) > 1
        assert max(rows) * 64 <= spectral.SVD_BLOCK

    def test_high_indices_read_the_inverse_gaps(self):
        # sigma_k/sigma_(k+1) of rho(w) is sigma_(d-k)/sigma_(d-k+1) of
        # rho(w^-1), so (7,1)'s indices 5-7 are read at 3-1; read directly
        # from the formed L = 6 products, rounding made them ambiguous,
        # flat, flat (k = 7 minima at lengths 4-6: 1.160, 0.672, 0.234)
        rep = fuchsian_locus((7, 1), REF)
        scans = _gap_scans(rep, tuple(range(1, 8)), 6)
        for k in (5, 6, 7):
            assert scans[k].verdict == "anosov-like"
            assert scans[k].min_log_gaps == scans[8 - k].min_log_gaps
        assert scans[7].min_log_gaps[3:] == pytest.approx(
            (3.995, 3.721, 4.620), abs=1e-3)
        # the C_6 certification reads 5, 6 and 7: non-certifiable before
        report = ck_scan(rep, 6, 3)
        assert report.certification == {5: "anosov-like", 6: "anosov-like",
                                        7: "anosov-like"}
        assert report.verdict == "pass"
        assert report.min_defect == pytest.approx(6.242e-4, rel=1e-3)

    def test_required_indices(self):
        assert required_indices_c(1, 6) == (1, 2, 3)
        assert required_indices_c(6, 8) == (5, 6, 7)


class TestBoundaryFlag:
    def test_fuchsian_3_eigen_oracle(self):
        rep = fuchsian_locus((3,), REF)
        fl = boundary_flag(rep, A, (1, 2))
        m = evaluate(rep, A)
        vals, vecs = np.linalg.eig(m)
        order = np.argsort(-np.abs(vals))
        line = Subspace.from_spanning(vecs[:, order[0]].real)
        plane = Subspace.from_spanning(vecs[:, order[:2]].real)
        assert grassmann_distance(fl.parts[0], line) < 1e-9
        assert grassmann_distance(fl.parts[1], plane) < 1e-9

    def test_power_same_flag(self):
        rep = fg_rep(1.0)
        f1 = boundary_flag(rep, A, (1, 2))
        f2 = boundary_flag(rep, A * A, (1, 2))
        for p1, p2 in zip(f1.parts, f2.parts):
            assert grassmann_distance(p1, p2) < 1e-9

    def test_inverse_gives_repelling(self):
        rep = fg_rep(1.0)
        m = evaluate(rep, A)
        fl = boundary_flag(rep, A.inverse(), (1,))
        rep_space = attracting_space(np.linalg.inv(m), 1)
        assert grassmann_distance(fl.parts[0], rep_space) < 1e-10

    def test_gap_error_names_dim(self):
        rep = fuchsian_locus((4, 2), REF)
        with pytest.raises(GapError) as exc:
            boundary_flag(rep, A, (4,))
        assert exc.value.index == 4


class TestHkCk:
    def test_fg_h1_positive(self):
        rep = fg_rep(1.0)
        for x, y, z in itertools.permutations((A, B, A * B), 3):
            assert check_Hk(rep, 1, (x, y, z)) > 1e-4

    def test_fg_c1_reduces_to_line_plane_defect(self):
        rep = fg_rep(1.0)
        flags_y = boundary_flag(rep, B, (1,))
        flags_z = boundary_flag(rep, A * B, (2,))
        expected = direct_sum_defect([flags_y.parts[0], flags_z.parts[0]])
        got = check_Ck(rep, 1, (A, B, A * B))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got > 1e-4

    def test_repeated_point_rejected(self):
        rep = fg_rep(1.0)
        with pytest.raises(PreconditionError):
            check_Hk(rep, 1, (A, A * A, B))

    def test_hk_scan_5_1_passes(self):
        rep = fuchsian_locus((5, 1), REF)
        report = hk_scan(rep, 1, 2)
        assert report.verdict == "pass"
        assert report.min_defect > 1e-4

    def test_hk_scan_4_2_fails_every_triple(self):
        rep = fuchsian_locus((4, 2), REF)
        report = hk_scan(rep, 1, 2)
        assert report.verdict == "fail"
        assert report.min_defect < 1e-10
        assert report.gap_failures == report.n_triples

    def test_ck_scan_5_1_non_certifiable(self):
        rep = fuchsian_locus((5, 1), REF)
        report = ck_scan(rep, 1, 2)
        assert report.verdict == "non-certifiable"
        assert report.certification[3] == "flat"

    def test_hk_scan_runs_no_gap_scan(self, monkeypatch):
        # the H_k verdict reads no Anosov gap, so the L=6 certification
        # ball is never built
        def no_gap_scans(*args):
            raise AssertionError("gap scans ran in an H_k scan")

        monkeypatch.setattr(verification, "_gap_scans", no_gap_scans)
        report = hk_scan(fuchsian_locus((5, 1), REF), 1, 3)
        # the benchmark's reference value, to BLAS rounding
        assert report.min_defect == pytest.approx(0.00664840506557898,
                                                  rel=1e-9)
        assert report.n_triples == 38280
        assert report.certification == {}
        assert report.certified is True

    def test_ck_scan_certifies_once(self, monkeypatch):
        calls = []
        gap_scans = verification._gap_scans

        def recorded(rep, indices, max_length):
            calls.append((tuple(indices), max_length))
            return gap_scans(rep, indices, max_length)

        monkeypatch.setattr(verification, "_gap_scans", recorded)
        report = ck_scan(fuchsian_locus((7, 1), REF), 1, 2)
        assert calls == [((1, 2, 3), CERTIFICATION_LENGTH)]
        assert report.certified
        assert set(report.certification) == {1, 2, 3}

    @pytest.mark.parametrize("scan,rep,k,L,kwargs", [
        (hk_scan, fuchsian_locus((5, 1), REF), 1, 3, {}),
        (hk_scan, fuchsian_locus((5, 1), REF), 2, 2, {}),
        (hk_scan, fuchsian_locus((4, 2), REF), 1, 2, {}),
        (hk_scan, fg_rep(1.0), 1, 3, {}),
        (ck_scan, fuchsian_locus((7, 1), REF), 1, 2, {}),
        (hk_scan, fuchsian_locus((5, 1), REF), 1, 2, {"min_separation": 0}),
        # no separation: nearly coincident points give defects near 1e-7
        (hk_scan, fuchsian_locus((6, 1), REF), 2, 2, {"min_separation": 0}),
        # an empty atlas: no triple, verdict ambiguous
        (hk_scan, fg_rep(1.0), 1, 0, {}),
        (hk_scan, fuchsian_locus((5, 1), REF), 2, 0, {}),
        (ck_scan, fuchsian_locus((4, 1), REF), 1, 0, {}),
        (ck_scan, fuchsian_locus((4, 1), REF), 2, 0, {}),
    ])
    def test_scan_matches_per_triple_reference(self, monkeypatch, scan, rep,
                                               k, L, kwargs):
        report = scan(rep, k, L, **kwargs)
        kind = "Hk" if scan is hk_scan else "Ck"
        assert_matches_reference(report, reference_transversality_scan(
            rep, k, L, kind, **kwargs))
        # pruning changes no bit of the report
        assert report.to_dict() == all_triples_scan(
            monkeypatch, scan, rep, k, L, **kwargs).to_dict()

    @pytest.mark.parametrize("scan,rep,k,L", [
        (hk_scan, fuchsian_locus((5, 1), REF), 1, 3),
        (hk_scan, fuchsian_locus((7, 1), REF), 2, 3),
        (hk_scan, fuchsian_locus((9, 1), REF), 3, 2),
        (ck_scan, fuchsian_locus((7, 1), REF), 1, 2),
        (ck_scan, fuchsian_locus((4, 1), REF), 2, 3),
        # a rank-0 summand: x^0 of C_1 at d = 3, the anchor z^0 of H_(d-1)
        (ck_scan, fg_rep(1.0), 1, 3),
        (hk_scan, fg_rep(1.0), 2, 3),
        (hk_scan, fuchsian_locus((5, 1), REF), 5, 2),
        pytest.param(hk_scan, fuchsian_locus((5, 1), REF), 1, 4,
                     marks=pytest.mark.slow),
        pytest.param(hk_scan, fuchsian_locus((7, 1), REF), 2, 4,
                     marks=pytest.mark.slow),
    ], ids=["H1-5,1-L3", "H2-7,1-L3", "H3-9,1-L2", "C1-7,1-L2", "C2-4,1-L3",
            "C1-fg-L3", "H2-fg-L3", "H5-5,1-L2", "H1-5,1-L4", "H2-7,1-L4"])
    def test_pruned_scan_equals_the_all_triples_oracle(
            self, monkeypatch, scan, rep, k, L):
        # every sum shape (r = 1 to 6) through the anchor-major kernel:
        # bracket, pruning and chunk order change no bit of the report
        assert scan(rep, k, L).to_dict() == all_triples_scan(
            monkeypatch, scan, rep, k, L).to_dict()

    @pytest.mark.slow
    def test_h1_length_5_report_is_pinned(self):
        # one anchor point per chunk with the mirror on, a path no shorter
        # scan takes: the report of (5,1) H_1 over 38.8 million triples,
        # as the Newton bracket gave it
        report = hk_scan(fuchsian_locus((5, 1), REF), 1, 5)
        assert report.to_dict() == {
            "kind": "Hk", "rep": "fuchsian-(5,1)", "k": 1, "L": 5,
            "certification": {}, "certified": True, "n_points": 436,
            "n_triples": 38811168, "gap_failures": 0,
            "min_defect": 0.004733719766359138,
            "max_defect": 0.641057047818962, "min_separation": 0.3,
            "verdict": "pass", "worst_triple": ["BABAA", "aBaBA", "Baba"]}

    @pytest.mark.slow
    def test_c2_length_4_report_is_pinned(self):
        # r = 4, the batched-inverse bracket, over 866,448 triples: the
        # report as the Newton bracket gave it
        report = ck_scan(fuchsian_locus((4, 1), REF), 2, 4)
        assert report.to_dict() == {
            "kind": "Ck", "rep": "fuchsian-(4,1)", "k": 2, "L": 4,
            "certification": {"1": "anosov-like", "2": "anosov-like",
                              "3": "anosov-like", "4": "anosov-like"},
            "certified": True, "n_points": 124, "n_triples": 866448,
            "gap_failures": 0, "min_defect": 0.010175009461893493,
            "max_defect": 0.7613457822490686, "min_separation": 0.3,
            "verdict": "pass", "worst_triple": ["aB", "abba", "Baba"]}

    @pytest.mark.parametrize("scan,rep,k", [
        (hk_scan, fuchsian_locus((7, 1), REF), 2),
        (ck_scan, fuchsian_locus((4, 1), REF), 2),
        # no intersection at k = 1: missing flags among bounded triples
        (hk_scan, fuchsian_locus((5, 1), REF), 1),
    ], ids=["hk_scan-rep0", "ck_scan-rep1", "hk_scan-rep2"])
    def test_mixed_outcomes_match_per_triple_reference(self, monkeypatch,
                                                       scan, rep, k):
        # flags missing for some words: point summands and intersections
        # missing for some keys in every chunk.  The gaps are forced where
        # the ball's flag table computes its rows, so the scan's tables and
        # the reference's one-flag reads both miss them
        kernel = word_ball._invariant_bases

        def gappy_kernel(spec, rows, start, stop):
            bases, missing, errors = kernel(spec, rows, start, stop)
            forced = [zlib.crc32(m.tobytes() + bytes([stop])) % 6 == 0
                      for m in spec.entries[rows]]
            return bases, missing | forced, errors

        monkeypatch.setattr(word_ball, "_invariant_bases", gappy_kernel)
        report = scan(rep, k, 2)
        reference = reference_transversality_scan(
            rep, k, 2, "Hk" if scan is hk_scan else "Ck")
        assert report.certified
        assert 0 < reference["gap_failures"] < reference["n_triples"]
        assert_matches_reference(report, reference)
        assert report.to_dict() == all_triples_scan(
            monkeypatch, scan, rep, k, 2).to_dict()

    @pytest.mark.parametrize("scan,rep", [
        (hk_scan, fuchsian_locus((5, 1), REF)),
        (ck_scan, fuchsian_locus((7, 1), REF)),
    ])
    def test_k1_sums_are_point_flags(self, monkeypatch, scan, rep):
        # z^d (H_1) and x^d (C_1) are the whole space: no intersection runs
        calls = []

        def counting_intersections(v, w):
            calls.append(len(v))
            return _intersections(v, w)

        with monkeypatch.context() as patch:
            patch.setattr(triples, "_intersections",
                          counting_intersections)
            report = scan(rep, 1, 2)
        assert calls == [] and report.verdict == "pass"
        assert_matches_reference(report, reference_transversality_scan(
            rep, 1, 2, "Hk" if scan is hk_scan else "Ck"))
        assert report.to_dict() == all_triples_scan(
            monkeypatch, scan, rep, 1, 2).to_dict()

    def test_intersection_computed_once_per_pair(self, monkeypatch):
        calls = []

        def counting_intersections(v, w):
            calls.append(len(v))
            return _intersections(v, w)

        monkeypatch.setattr(triples, "_intersections",
                            counting_intersections)
        # k = 2 on (7,1): y^2 n z^7, neither part is the full space; one
        # batched call covers every pair
        report = hk_scan(fuchsian_locus((7, 1), REF), 2, 2)
        n = report.n_points
        assert report.n_triples > n * (n - 1)
        assert len(calls) == 1 and 0 < calls[0] <= n * (n - 1)

    @pytest.mark.parametrize("scan,dims", [
        (lambda: hk_scan(fuchsian_locus((5, 1), REF), 1, 3), [1, 4]),
        (lambda: check_positively_ratioed(fg_rep(1.0), 1, 3), [1, 2]),
    ], ids=["hk-51-L3", "posratio-fg-L3"])
    def test_scan_builds_each_flag_dimension_in_one_kernel_call(
            self, monkeypatch, scan, dims):
        # one batched flag kernel per dimension over the whole ball, all 53
        # rows of the rank-2 L = 3 ball, not only the scan's 44 points, and
        # no attracting_space call per point
        calls = []
        kernel = word_ball._invariant_bases

        def counting_kernel(spec, rows, start, stop):
            calls.append((start, stop, len(rows)))
            return kernel(spec, rows, start, stop)

        def no_space(*args):
            raise AssertionError("a scan called attracting_space")

        monkeypatch.setattr(word_ball, "_invariant_bases", counting_kernel)
        monkeypatch.setattr(verification, "attracting_space", no_space)
        monkeypatch.setattr(spectral, "attracting_space", no_space)
        report = scan()
        assert [call[:2] for call in calls] == [(0, dim) for dim in dims]
        assert report.n_points == 44
        assert {call[2] for call in calls} == {53}

    def test_ck_scan_7_1_passes(self):
        rep = fuchsian_locus((7, 1), REF)
        report = ck_scan(rep, 1, 2)
        assert report.verdict == "pass"
        assert report.min_defect > 1e-4

    def test_9_1_h3_intersections_are_lines(self, monkeypatch):
        # a cosine tolerance made 72 of these intersections ambiguous and
        # others two-dimensional (min 0, fail); at the transversal rank
        # every one is a line and the minimum is that of the flags
        rep = fuchsian_locus((9, 1), REF)
        report = hk_scan(rep, 3, 2)
        assert report.gap_failures == 0
        assert report.min_defect == pytest.approx(7.43e-6, rel=1e-3)
        assert_matches_reference(report, reference_transversality_scan(
            rep, 3, 2, "Hk"))
        assert report.to_dict() == all_triples_scan(
            monkeypatch, hk_scan, rep, 3, 2).to_dict()

    @pytest.mark.parametrize("scan,check,rep,k,L", [
        (hk_scan, check_Hk, fuchsian_locus((5, 1), REF), 1, 3),
        (ck_scan, check_Ck, fuchsian_locus((7, 1), REF), 1, 2),
        (hk_scan, check_Hk, fuchsian_locus((7, 1), REF), 2, 3),
        (hk_scan, check_Hk, fg_rep(1.0), 1, 3),
    ], ids=["H1-5,1", "C1-7,1", "H2-7,1", "H1-fg"])
    def test_worst_triple_recomputes_exactly(self, scan, check, rep, k, L):
        # the single-triple check reads the scan's rows and flags
        report = scan(rep, k, L)
        assert check(rep, k, report.worst_triple) == report.min_defect

    def test_7_1_h2_minimum_pinned(self):
        report = hk_scan(fuchsian_locus((7, 1), REF), 2, 3)
        assert report.min_defect == pytest.approx(1.0839923384657232e-4,
                                                  rel=1e-9, abs=0)


def split_batch(blocks, m, d, seed, thetas):
    """A batch of M = [R | Z] with its Gram blocks g = R^T (I - Z Z^T) R,
    (r, r, N), and c = B1^T B2, (r1, r2, N), the cross block of R^T R:
    one M per angle of ``thetas``, each a fraction of pi/2.

    Z is orthonormal, of ``m`` columns, in R^``d``; R = [B1 | B2] is two
    orthonormal blocks of ``blocks`` = (r1, r2) columns, each at the angle
    off span(Z) and the blocks before it (a block with nothing before it
    is orthogonal to Z).  The bases are drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    ms, gs, cs = [], [], []
    for theta in thetas:
        theta *= np.pi / 2
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        z, fresh = q[:, :m], q[:, m:]
        parts = []
        for size in blocks:
            span = np.hstack([z] + parts)
            if span.shape[1]:
                near = span @ rng.standard_normal((span.shape[1], size))
                near /= np.linalg.norm(near, axis=0)
            else:
                near = fresh[:, :size]
            tilted = np.cos(theta) * near + np.sin(theta) * fresh[:, :size]
            fresh = fresh[:, size:]
            parts.append(np.linalg.qr(tilted)[0])
        r = np.hstack(parts)
        p_r = q[:, m:].T @ r
        ms.append(np.hstack([r, z]))
        gs.append(p_r.T @ p_r)
        cs.append(parts[0].T @ parts[1])
    return (np.array(ms), np.moveaxis(np.array(gs), 0, -1),
            np.moveaxis(np.array(cs), 0, -1))


@st.composite
def split_matrices(draw):
    """``split_batch`` of m = 0 to 4 columns of Z and r = r1 + r2 from 1
    to 6, at angles from 0 to 1 (of pi/2), near both ends on a log scale.
    So sigma_min runs from 0 (to rounding: a root at 0) through about
    1e-12 to exactly 1 (orthogonal summands: a multiple root near 1).  The scans' shapes are (1, 1) (H_1, three
    projected lines), (2, 1) (H_2), (1, 2) (C_1), (3, 1), (1, 3), (2, 2)
    (H_3, C_2), a rank-0 block ((0, 1): C_1 at d = 3) and (5, 1) (H_5 at
    d = 6, with m = 0)."""
    blocks = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                   (1, 3), (0, 1), (1, 0), (0, 2), (5, 1),
                                   (3, 3)]))
    m = draw(st.integers(min_value=0, max_value=min(4, 8 - sum(blocks))))
    d = draw(st.integers(min_value=sum(blocks) + m, max_value=8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    count = draw(st.integers(min_value=1, max_value=6))
    offset = st.floats(min_value=-12, max_value=0).map(lambda t: 10.0 ** t)
    thetas = [draw(st.one_of(offset, offset.map(lambda t: 1 - t)))
              for _ in range(count)]
    return split_batch(blocks, m, d, seed, thetas)


class TestDefectBounds:
    @settings(max_examples=300, deadline=None)
    @given(split=split_matrices(),
           low=st.one_of(st.just(np.inf), st.floats(0.0, 1.0)),
           high=st.one_of(st.just(-np.inf), st.floats(0.0, 1.0)))
    def test_bounds_contain_the_svd_value(self, split, low, high):
        # early stops against low/high only widen the bounds
        ms, g, c = split
        lo, hi = _sigma_bounds(*_root_bounds(g, c, low, high))
        sigma = _smallest_singular_values(ms)
        assert np.all(lo <= sigma) and np.all(sigma <= hi)

    @staticmethod
    def bracket_steps(g, c):
        """``_root_bounds(g, c)`` without early stops, and each step's
        (rows, lam, q, S1, S2): rows index the columns of g that are still
        going, matched by their (g, c) entries, which decide sigma_min."""
        steps = []
        sums = triples._pencil_sums

        def recorded(g_rows, c_rows, lam):
            out = sums(g_rows, c_rows, lam)
            rows = [int(np.flatnonzero(
                (g == g_rows[:, :, [i]]).all(axis=(0, 1))
                & (c == c_rows[:, :, [i]]).all(axis=(0, 1)))[0])
                for i in range(g_rows.shape[-1])]
            steps.append((rows, lam, *out))
            return out

        with mock.patch.object(triples, "_pencil_sums", recorded):
            bounds = _root_bounds(g, c, np.inf, -np.inf)
        return bounds, steps

    @settings(max_examples=300, deadline=None)
    @given(split=split_matrices())
    # r = 4 with R of rank 2: S1 = -0.0 and S2 < 0 on the first step
    @example(split=split_batch((2, 2), 0, 4, 1253040446, [0.0]))
    def test_each_laguerre_bracket_is_inside_newtons(self, split):
        # every step's bracket, before the steps are combined, lies inside
        # the Newton bracket [lam + 1/S1, lam + n/S1] of the same sums (to
        # rounding) and holds sigma_min^2 within the slack
        ms, g, c = split
        sigma = _smallest_singular_values(ms)
        degree = 2 * len(g)
        _, steps = self.bracket_steps(g, c)
        for rows, lam, q, s1, s2 in steps:
            low_end, high_end = _laguerre_bracket(lam, q, s1, s2, degree)
            # Newton's bracket only where S1 > 0: the others may divide by 0
            sound = ~np.isnan(low_end)
            at = lam[sound] if np.ndim(lam) else lam
            newton_lo, newton_hi = at + 1 / s1[sound], at + degree / s1[sound]
            rounding = 1e-12 * newton_hi
            assert np.all(low_end[sound] >= newton_lo - rounding)
            assert np.all(high_end[sound] <= newton_hi + rounding)
            lo, hi = _sigma_bounds(np.nan_to_num(low_end, nan=0.0),
                                   np.nan_to_num(high_end, nan=np.inf))
            assert np.all(lo <= sigma[rows]) and np.all(sigma[rows] <= hi)

    def test_degree_two_bracket_closes_on_the_root(self):
        # r = 1 (C_1 at d = 3): q has degree 2, so Laguerre's first step
        # lands on the root, where rounding leaves q <= 0; the q guard
        # takes lam as the upper bound and the bracket closes there
        ms, g, c = split_batch((0, 1), 1, 3, 1, [0.5])
        (below, above), steps = self.bracket_steps(g, c)
        assert [q[0] <= 0 for _, _, q, _, _ in steps] == [False, True]
        assert above == steps[1][1] and above <= (1 + BRACKET_RTOL) * below
        lo, hi = _sigma_bounds(below, above)
        assert lo <= _smallest_singular_values(ms) <= hi

    def test_unsound_sums_keep_the_previous_bounds(self):
        # r = 4 with R of rank 2 (sigma_min ~ 4e-17): q(0) > 0 is rounding,
        # and its sums (S2 < 0) fit no roots above 0.  Read as a bracket
        # they put the lower bound above 0.16; the row keeps (0, inf)
        ms, g, c = split_batch((2, 2), 0, 4, 2, [0.0])
        (below, above), steps = self.bracket_steps(g, c)
        (_, _, q, s1, s2), = steps
        assert q[0] > 0 and s2[0] < 0
        assert (below, above) == (0.0, np.inf)
        assert _smallest_singular_values(ms) < 1e-16

    def test_unsound_row_is_not_divided(self):
        # S1 = -0.0, as the r = 4 draw above gives it: the row gets no end
        # and no division by zero, and the sound row beside it keeps the
        # exact values of its formulas
        lam = np.array([0.0, 0.5])
        q = np.array([1.6e-34, 1.0])
        s1, s2 = np.array([-0.0, 4.0]), np.array([-5.0e34, 3.0])
        low_end, high_end = _laguerre_bracket(lam, q, s1, s2, 8)
        assert np.isnan(low_end[0]) and np.isnan(high_end[0])
        assert low_end[1] == 0.5 + 8 / (4.0 + np.sqrt(7 * (8 * 3.0 - 16.0)))
        assert high_end[1] == 0.5 + 4.0 / 3.0

    def test_c2_4_1_bracket_evaluations(self, monkeypatch):
        # the power sums are evaluated once per step over the chunk's going
        # rows: 21 steps over (4,1) C_2 at L = 3 (r = 4), where Newton's
        # bracket took 69
        calls = []
        sums = triples._pencil_sums

        def counting(g, c, lam):
            calls.append(g.shape[-1])
            return sums(g, c, lam)

        monkeypatch.setattr(triples, "_pencil_sums", counting)
        ck_scan(fuchsian_locus((4, 1), REF), 2, 3)
        assert 0 < len(calls) <= 25

    @pytest.mark.parametrize("scan,rep,k,L,count", [
        (hk_scan, fuchsian_locus((5, 1), REF), 1, 3, 38280),
        (hk_scan, fg_rep(1.0), 1, 3, 38280),
        (hk_scan, fuchsian_locus((7, 1), REF), 2, 3, 38280),
        (ck_scan, fuchsian_locus((7, 1), REF), 1, 2, 648),
    ], ids=["rep0", "rep1", "H2-7,1-L3", "C1-7,1-L2"])
    def test_bounds_hold_on_every_triple(self, monkeypatch, scan, rep, k, L,
                                         count):
        # every triple of a chunk gets finite bounds, and they hold
        seen = []
        extremes = triples._triple_extremes
        root_bounds = triples._root_bounds

        def keep_triples(tables, gram, x, y, z, low, high, mirror):
            seen.append([tables, mirrored_triples(x, y, z, mirror)])
            return extremes(tables, gram, x, y, z, low, high, mirror)

        def keep_bounds(g, c, low, high):
            below, above = root_bounds(g, c, low, high)
            seen[-1].append(_sigma_bounds(below, above))
            return below, above

        monkeypatch.setattr(triples, "_triple_extremes", keep_triples)
        monkeypatch.setattr(triples, "_root_bounds", keep_bounds)
        report = scan(rep, k, L)
        checked = bounded = 0
        for tables, orders, (lo, hi) in seen:
            # a row's bracket holds for both of its orders
            for columns in orders:
                missing, defects = all_triples_defects(tables, *columns)
                assert not missing.any()
                assert np.all(lo <= defects)
                assert np.all(defects <= hi)
                checked += len(defects)
                bounded += int(np.sum(np.isfinite(hi)))
        assert checked == bounded == report.n_triples == count

    @pytest.mark.parametrize("scan,args,orders", [
        (hk_scan, (fuchsian_locus((5, 1), REF), 1, 3), 2),
        (hk_scan, (fg_rep(1.0), 1, 3), 2),
        (hk_scan, (fuchsian_locus((7, 1), REF), 2, 3), 1),
        (ck_scan, (fuchsian_locus((7, 1), REF), 1, 2), 1),
        # the upper-triangular mask: combinations, no mirror
        (check_projection_hyperconvexity, (fg_rep(1.0), 1, A, 3), 1),
    ], ids=["H1-5,1-L3", "H1-fg-L3", "H2-7,1-L3", "C1-7,1-L2",
            "projection-fg-L3"])
    def test_mirror_brackets_each_pair_once(self, monkeypatch, scan, args,
                                            orders):
        # H_1's x<->y mirror halves the rows bracketed; the other shapes
        # bracket every triple (no gap failure in these scans)
        rows = []
        root_bounds = triples._root_bounds

        def counting(g, c, low, high):
            rows.append(g.shape[-1])
            return root_bounds(g, c, low, high)

        monkeypatch.setattr(triples, "_root_bounds", counting)
        report = scan(*args)
        assert report.gap_failures == 0
        assert orders * sum(rows) == report.n_triples

    @pytest.mark.parametrize("scan,partition,k,L", [
        (hk_scan, (5, 1), 1, 3),
        (hk_scan, (7, 1), 2, 3),
        (ck_scan, (7, 1), 1, 3),
        (hk_scan, (5, 1), 1, 4),
    ], ids=["H1-5,1-L3", "H2-7,1-L3", "C1-7,1-L3", "H1-5,1-L4"])
    def test_triple_count_without_enumeration(self, scan, partition, k, L):
        # the ordered separated triples, counted from the pair mask S alone:
        # the kernel's counts cover both orders of a mirrored row
        rep = fuchsian_locus(partition, REF)
        angles = BoundaryAtlas(rep, L).angles
        s = (circle_separation(angles[:, None], angles[None, :])
             >= TRIPLE_SEPARATION).astype(np.int64)
        np.fill_diagonal(s, 0)
        assert scan(rep, k, L).n_triples == int((s * (s @ s)).sum())

    def test_exact_svd_runs_on_few_triples(self, monkeypatch):
        # the bracket leaves the exact SVD to at most 1% of the H_1 triples
        # and 0.1% of the H_2 and C_1 ones (16, 9 and 8 triples measured;
        # the 16 of H_1 are both orders of 8 mirrored rows)
        rows = []

        def counting(stack):
            rows.append(len(stack))
            return _smallest_singular_values(stack)

        monkeypatch.setattr(triples, "_smallest_singular_values",
                            counting)
        for scan, partition, k, cap in [(hk_scan, (5, 1), 1, 0.01),
                                        (hk_scan, (7, 1), 2, 0.001),
                                        (ck_scan, (7, 1), 1, 0.001)]:
            rows.clear()
            report = scan(fuchsian_locus(partition, REF), k, 3)
            assert report.n_triples == 38280
            assert 0 < sum(rows) <= cap * report.n_triples


def one_generator_rep() -> Representation:
    """Sym^2 of the first reference generator alone, with that one-generator
    reference: every word is a power of it, so its boundary has two
    points."""
    ref = Representation(dim=2, generator_images=REF.generator_images[:1])
    return fuchsian_locus((3,), ref)


class TestProjectionHyperconvexity:
    def test_fewer_than_three_curve_points_rejected(self):
        # the base point and the repelling point of its inverse
        with pytest.raises(PreconditionError,
                           match="need at least three distinct curve points"):
            check_projection_hyperconvexity(one_generator_rep(), 1, A, 3)

    def test_fg_projection(self):
        rep = fg_rep(1.0)
        report = check_projection_hyperconvexity(rep, 1, A, 3)
        assert report.min_defect > 1e-4
        assert report.verdict == "pass"

    def test_curve_flags_are_one_kernel_call(self, monkeypatch):
        # the k-flags of the ball named by the 44 kept words, 49 rows with
        # the identity and the inverses and prefixes not among them, in
        # one call, not one per point; at d = 3 and k = 1 the base point's
        # other flags are 0, 1 (its k-flag) and 3
        calls = []
        kernel = word_ball._invariant_bases

        def counting_kernel(spec, rows, start, stop):
            calls.append((len(rows), stop))
            return kernel(spec, rows, start, stop)

        monkeypatch.setattr(word_ball, "_invariant_bases", counting_kernel)
        report = check_projection_hyperconvexity(fg_rep(1.0), 1, A, 3,
                                                 min_separation=0)
        assert report.n_points == 44
        assert calls == [(49, 1)]

    def test_repeated_point_in_triple_rejected(self):
        rep = fg_rep(1.0)
        with pytest.raises(PreconditionError):
            projection_triple_defect(rep, 1, A, (B, B, A * B))

    def test_triple_defect_matches_scan_quantity(self):
        rep = fg_rep(1.0)
        d = projection_triple_defect(rep, 1, A, (B, A * B, B * A))
        assert d > 1e-4

    def test_worst_triple_recomputes_exactly(self):
        # the scan and the single-triple check build each curve point with
        # the same code, also the special line of the base point itself
        rep = fg_rep(1.0)
        report = check_projection_hyperconvexity(rep, 1, A, 3)
        assert A in report.worst_triple
        assert projection_triple_defect(
            rep, 1, A, report.worst_triple) == report.min_defect

    def test_7_1_projection(self):
        rep = fuchsian_locus((7, 1), REF)
        report = check_projection_hyperconvexity(rep, 1, A, 2)
        assert report.min_defect > 1e-4

    @pytest.mark.parametrize("rep,k,min_separation", [
        (fg_rep(1.0), 1, 0),
        (fg_rep(0.6), 1, 0),
        (fuchsian_locus((7, 1), REF), 1, 0),
        (fuchsian_locus((5,), REF), 2, 0),
        (fuchsian_locus((6, 1), REF), 1, 0.1),
        (fg_rep(1.0), 1, TRIPLE_SEPARATION),
    ], ids=["fg1", "fg0.6", "7,1", "5-k2", "6,1-sep0.1", "fg1-sep0.3"])
    def test_scan_matches_per_triple_reference(self, monkeypatch, rep, k,
                                               min_separation):
        # the triple kernel of hk_scan, bracket and pruning included, gives
        # every bit of the one-call-per-triple loop
        report = check_projection_hyperconvexity(
            rep, k, A, 3, min_separation=min_separation)
        assert report.to_dict() == reference_projection_scan(
            rep, k, A, 3, min_separation).to_dict()
        assert report.to_dict() == all_triples_scan(
            monkeypatch, check_projection_hyperconvexity, rep, k, A, 3,
            min_separation=min_separation).to_dict()

    def test_zero_separation_still_drops_coincident_points(self):
        # the ball word a has the base point's boundary point; keeping both
        # gave a spurious fail with min defect about 1e-33 on 17 points
        rep = fg_rep(1.0)
        report = check_projection_hyperconvexity(rep, 1, A, 2,
                                                 min_separation=0)
        assert report.verdict == "pass"
        assert report.n_points == 12
        assert report.min_defect > 1e-3


class TestIndexRange:
    @pytest.mark.parametrize("k", [0, 3])
    def test_positivity_rejects_k_outside_1_to_d_minus_1(self, k):
        with pytest.raises(InputError, match=f"k={k} outside 1..2"):
            check_positively_ratioed(fg_rep(1.0), k, 2)

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("scan", [
        lambda rep, k: anosov_gap_scan(rep, k, 3),
        lambda rep, k: collar_scan(rep, k, 2),
        lambda rep, k: collar_check(rep, k, A, B),
        lambda rep, k: eigen_identity_scan(rep, k, 2),
        lambda rep, k: check_eigen_identities(rep, k, A, B),
    ], ids=["gap", "collar", "collar-pair", "eigen", "eigen-pair"])
    def test_scans_reject_k_outside_1_to_d_minus_1_first(
            self, monkeypatch, scan, k):
        monkeypatch.setattr(verification, "_WordBall", no_ball)
        with pytest.raises(InputError, match=f"k={k} outside 1..2"):
            scan(fg_rep(1.0), k)

    @pytest.mark.parametrize("scan,k", [
        (lambda rep, k: hk_scan(rep, k, 3), 1.0),
        (lambda rep, k: hk_scan(rep, k, 3), True),
        (lambda rep, k: check_positively_ratioed(rep, k, 3), 1.0),
        (lambda rep, k: eigen_identity_scan(rep, k, 2), 1.0),
        (lambda rep, k: anosov_gap_scan(rep, k, 3), 1.0),
        (lambda rep, k: collar_scan(rep, k, 3), np.float64(1)),
    ], ids=["hk", "hk-bool", "positivity", "eigen", "gap", "collar"])
    def test_scans_reject_non_integer_k_first(self, monkeypatch, scan, k):
        # hk raised a bare TypeError, positivity and eigen a bare
        # IndexError, and the gap scan returned a report with k=1.0
        monkeypatch.setattr(verification, "_WordBall", no_ball)
        with pytest.raises(InputError,
                           match=re.escape(f"k={k!r} is not an integer")):
            scan(fg_rep(1.0), k)

    @pytest.mark.parametrize("scan", [
        lambda rep, length: collar_scan(rep, 1, length),
        lambda rep, length: hk_scan(rep, 1, length),
        lambda rep, length: check_positively_ratioed(rep, 1, length),
    ], ids=["collar", "hk", "positivity"])
    @pytest.mark.parametrize("length", [1.5, 3.0, True])
    def test_scans_reject_non_integer_max_length(self, scan, length):
        with pytest.raises(InputError,
                           match=f"max length {length} is not an integer"):
            scan(fg_rep(1.0), length)

    def test_numpy_integers_accepted(self):
        rep = fg_rep(1.0)
        assert list(collar_scan(rep, np.int64(1), np.int64(2))) == list(
            collar_scan(rep, 1, 2))
        assert hk_scan(rep, np.int32(1), np.int64(2)) == hk_scan(rep, 1, 2)

    @pytest.mark.parametrize("check,k,top", [
        (check_Hk, 0, 2), (check_Hk, 3, 2), (check_Ck, 0, 1), (check_Ck, 2, 1)])
    def test_single_triple_checks_reject_k_first(self, monkeypatch, check, k,
                                                 top):
        monkeypatch.setattr(verification, "_WordBall", no_ball)
        with pytest.raises(InputError, match=f"k={k} outside 1..{top}"):
            check(fg_rep(1.0), k, (A, B, A * B))

    @pytest.mark.parametrize("check,words", [
        (lambda triple: check_Hk(fg_rep(1.0), 1, triple), (A, B)),
        (lambda triple: check_Ck(fg_rep(1.0), 1, triple), (A, B, A * B, B * A)),
        (lambda triple: projection_triple_defect(fg_rep(1.0), 1, A, triple),
         (B, A * B)),
    ], ids=["Hk", "Ck", "projection"])
    def test_single_triple_checks_reject_other_than_three_words(
            self, monkeypatch, check, words):
        # Hk and Ck raised a bare ValueError on unpacking; the projection
        # defect of two words was the sine between two lines
        monkeypatch.setattr(verification, "_WordBall", no_ball)
        with pytest.raises(InputError, match=f"three words, got {len(words)}"):
            check(words)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.1])
    @pytest.mark.parametrize("scan", [
        lambda s: hk_scan(fg_rep(1.0), 1, 2, min_separation=s),
        lambda s: ck_scan(fg_rep(1.0), 1, 2, min_separation=s),
        lambda s: check_projection_hyperconvexity(
            fg_rep(1.0), 1, A, 2, min_separation=s),
    ], ids=["hk", "ck", "projection"])
    def test_bad_min_separation_rejected_first(self, monkeypatch, scan, value):
        # nan turned the coincidence filter off, so coincident points
        # were kept
        monkeypatch.setattr(verification, "_WordBall", no_ball)
        with pytest.raises(InputError, match=f"min_separation={value}"):
            scan(value)

    @pytest.mark.parametrize("scan,k,top", [
        (hk_scan, 0, 5), (hk_scan, 6, 5), (ck_scan, 0, 4), (ck_scan, 5, 4)])
    def test_transversality_scans_reject_k_out_of_range(self, scan, k, top):
        rep = fuchsian_locus((5, 1), REF)
        with pytest.raises(InputError, match=f"k={k} outside 1..{top}"):
            scan(rep, k, 2)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("check", [
        lambda rep, k: check_projection_hyperconvexity(rep, k, A, 2),
        lambda rep, k: projection_triple_defect(rep, k, A, (B, A * B, B * A)),
    ], ids=["scan", "triple"])
    def test_projection_checks_reject_k_outside_1_to_d_minus_2(self, check, k):
        with pytest.raises(InputError, match=f"k={k} outside 1..1"):
            check(fg_rep(1.0), k)

    def test_top_indices_still_run(self):
        rep = fuchsian_locus((5, 1), REF)
        assert hk_scan(rep, 5, 2).n_triples > 0
        assert ck_scan(rep, 4, 2).verdict == "non-certifiable"


class TestPositivelyRatioed:
    def test_fewer_than_four_points_rejected(self):
        with pytest.raises(InputError,
                           match="need at least 4 boundary points"):
            check_positively_ratioed(one_generator_rep(), 1, 3)

    def test_fg_min_gcr_above_one(self):
        report = check_positively_ratioed(fg_rep(1.0), 1, 2)
        assert report.passed
        assert report.min_gcr > 1.0 + 1e-6

    @pytest.mark.parametrize("rep, k, max_length", [
        (fg_rep(1.0), 1, 2), (fg_rep(1.0), 1, 3), (fg_rep(0.6), 2, 2),
        (fuchsian_locus((5, 1), REF), 2, 2), (fuchsian_locus((3, 1), REF), 1, 2),
    ], ids=["fg1-k1-L2", "fg1-k1-L3", "fg0.6-k2-L2", "51-k2-L2", "31-k1-L2"])
    def test_scan_matches_per_arrangement_reference(self, rep, k, max_length):
        report = check_positively_ratioed(rep, k, max_length)
        reference = reference_positivity_scan(rep, k, max_length)
        assert report.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("n", [4, 5, 7, 12])
    def test_first_minimum_on_tied_tables(self, n):
        # entries in {-2, -1, 1, 2} make the cross ratio take few values,
        # so most minima are tied and only the first-minimum rule decides
        rng = np.random.default_rng(n)
        for _ in range(20):
            wedge = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n))
            min_gcr, worst, count = reference_arrangement_minimum(wedge)
            assert _arrangement_minimum(wedge) == (min_gcr, worst)
            assert count == 4 * math.comb(n, 4)

    @given(wedge_tables(MIXED_SIGN))
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_loop_on_mixed_sign_tables(self, wedge):
        min_gcr, worst, _ = reference_arrangement_minimum(wedge)
        assert _arrangement_minimum(wedge) == (min_gcr, worst)

    @given(wedge_tables(FEW_VALUES))
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_loop_on_tied_tables(self, wedge):
        min_gcr, worst, _ = reference_arrangement_minimum(wedge)
        assert _arrangement_minimum(wedge) == (min_gcr, worst)

    @pytest.mark.parametrize("values", [None, (-2.0, -1.0, 1.0, 2.0)],
                             ids=["continuous", "tied"])
    def test_sweep_matches_pairwise_arrays_at_60_points(self, values):
        rng = np.random.default_rng(60)
        for _ in range(3):
            if values is None:
                wedge = rng.uniform(0.1, 10.0, (60, 60)) * rng.choice(
                    [-1.0, 1.0], (60, 60))
            else:
                wedge = rng.choice(values, (60, 60))
            assert _arrangement_minimum(wedge) == \
                pairwise_arrangement_minimum(wedge)

    def test_sweep_matches_pairwise_arrays_on_fg_L4(self, x=1.0):
        atlas = BoundaryAtlas(fg_rep(x), 4)
        wedge = _wedge_table(atlas, 1)
        assert len(wedge) == 124
        assert _arrangement_minimum(wedge) == \
            pairwise_arrangement_minimum(wedge)

    # fg(0.6) and fg(2) have their minima near 1 + 1e-10, where rounding
    # decides ``passed``
    @pytest.mark.parametrize("x", [0.6, 2.0])
    def test_sweep_matches_pairwise_arrays_on_fg_L4_near_one(self, x):
        self.test_sweep_matches_pairwise_arrays_on_fg_L4(x)

    def test_sweep_matches_per_point_sweeps_on_fg_L5(self):
        # the L=5 scan aborts on a degenerate wedge before its sweep; its
        # table still gives the sweep 436 points of real rounding
        wedge = _wedge_table(BoundaryAtlas(fg_rep(1.0), 5), 1)
        assert len(wedge) == 436
        assert _arrangement_minimum(wedge) == \
            per_point_arrangement_minimum(wedge)

    @pytest.mark.parametrize("rep, k, max_length, block, calls", [
        (fg_rep(1.0), 1, 3, 1, 44), (fg_rep(1.0), 1, 3, 44 * 5 + 3, 9),
        (fuchsian_locus((5, 1), REF), 2, 2, 12 * 5, 3),
    ], ids=["fg1-k1-L3-row", "fg1-k1-L3-5rows", "51-k2-L2-5rows"])
    def test_wedge_table_in_row_blocks_equals_one_block(
            self, monkeypatch, rep, k, max_length, block, calls):
        atlas = BoundaryAtlas(rep, max_length)
        _wedge_table(atlas, k)   # the ball's flag tables, which call det
        dets = []
        det = np.linalg.det

        def counting_det(a):
            dets.append(len(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counting_det)
        whole = _wedge_table(atlas, k)
        assert dets == [len(atlas)]
        dets.clear()
        monkeypatch.setattr(verification, "PAIR_BLOCK", block)
        assert np.array_equal(_wedge_table(atlas, k), whole)
        assert len(dets) == calls
        assert sum(dets) == len(atlas)

    def test_all_tied_table_costs_one_pass(self, monkeypatch):
        # on a constant table every arrangement ties: the witness costs the
        # one pass of every z's minimum, not a pass over the tied
        # arrangements
        passes = []
        point_minima = verification._point_minima

        def counting_pass(wedge):
            passes.append(len(wedge))
            return point_minima(wedge)

        monkeypatch.setattr(verification, "_point_minima", counting_pass)
        assert _arrangement_minimum(np.ones((124, 124))) == (1.0, (2, 3, 0, 1))
        assert passes == [124]
        wedge = np.ones((7, 7))
        min_gcr, worst, _ = reference_arrangement_minimum(wedge)
        assert _arrangement_minimum(wedge) == (min_gcr, worst)

    def test_witness_takes_the_first_arc_position_of_x(self):
        # z = 0 has its minimum -4 at x = 2 (arc position 1, w = 1, y = 3)
        # and again at x = 3 (arc position 2, w = 1, y = 4); every other z
        # stays above it, so only the first x of z = 0 decides the witness
        wedge = np.ones((6, 6))
        wedge[2, 0] = wedge[3, 0] = -2.0
        wedge[1, 3] = wedge[1, 4] = 2.0
        min_gcr, worst, _ = reference_arrangement_minimum(wedge)
        assert (min_gcr, worst) == (-4.0, (2, 3, 0, 1))
        minima, first = verification._point_minima(wedge)
        assert minima[0] == -4.0 and first[0] == 1
        assert _arrangement_minimum(wedge) == (min_gcr, worst)
        assert per_point_arrangement_minimum(wedge) == (min_gcr, worst)

    def test_missing_flag_names_the_first_point_and_dimension(self):
        # the eigenvalue 1 of (5,1) is double: no point has a 3-flag
        rep = fuchsian_locus((5, 1), REF)
        with pytest.raises(GapError) as exc:
            check_positively_ratioed(rep, 3, 2)
        first = BoundaryAtlas(rep, 2).words[0]
        assert exc.value.index == 3
        assert exc.value.ratio == pytest.approx(1.0)
        assert str(exc.value).startswith(
            f"no eigenvalue gap at dimension 3 for word {first}: "
            f"|lambda_3|/|lambda_4| = ")

    def test_degenerate_wedge_message(self):
        # two L=5 points 7.2e-7 rad apart have nearly coincident flags
        with pytest.raises(DomainError) as info:
            check_positively_ratioed(fg_rep(1.0), 1, 5)
        message = str(info.value)
        assert message.startswith(
            "transversality failure between points BBBa and BBBaB: ")
        number = r"([0-9.]+(?:e[-+]?[0-9]+)?)"
        match = re.search(
            rf"\|wedge\| = {number} below WEDGE_DEGENERACY_TOL = {number}, "
            rf"angular separation {number} rad$", message)
        assert match is not None, message
        wedge, tol, separation = map(float, match.groups())
        assert 0 < wedge < tol == WEDGE_DEGENERACY_TOL
        assert separation == pytest.approx(7.2e-7, rel=0.01)

    def test_orientation_symmetries(self):
        # swapping either pair of like-dimension entries inverts the
        # value; the full reversal composes both inversions and gives
        # the same value back
        rep = fg_rep(1.0)
        atlas = BoundaryAtlas(rep, 2)
        quad = list(range(4))
        k_fl = [atlas.ball.space(atlas.words[i], 1) for i in quad]
        dk_fl = [atlas.ball.space(atlas.words[i], 2) for i in quad]
        fwd = float(gcr(k_fl[0], dk_fl[1], dk_fl[2], k_fl[3]))
        swap_v = float(gcr(k_fl[3], dk_fl[1], dk_fl[2], k_fl[0]))
        swap_w = float(gcr(k_fl[0], dk_fl[2], dk_fl[1], k_fl[3]))
        rev = float(gcr(k_fl[3], dk_fl[2], dk_fl[1], k_fl[0]))
        assert fwd * swap_v == pytest.approx(1.0, rel=1e-9)
        assert fwd * swap_w == pytest.approx(1.0, rel=1e-9)
        assert rev == pytest.approx(fwd, rel=1e-12)


class TestEigenIdentities:
    def test_rank1_diag_rep_period(self):
        # worked configuration: diag(4,2,1/8), k=1, gcr period = 32
        gen = np.diag([4.0, 2.0, 0.125])
        rep = Representation(dim=3, generator_images=(
            gen,),
            label="diag-rank1")
        m = gen
        g_plus = attracting_space(m, 1)
        g_minus = attracting_space(np.linalg.inv(m), 1)
        x_dk = span([1, 1, 1], [1, -1, 0], d=3)  # transverse plane
        period = float(gcr(g_minus, x_dk, x_dk.apply(m), g_plus))
        assert period == pytest.approx(32.0, rel=1e-9)

    def test_fg_gamma_identities(self):
        rep = fg_rep(1.0)
        report = check_eigen_identities(rep, 1, A, B)
        assert report.lambda_ratio == pytest.approx(LAMBDA1, rel=1e-9)
        assert report.pcr_rel_error < 1e-7
        assert report.gcr_rel_error < 1e-7
        assert report.gcr_value > 1.0

    def test_inverse_same_period(self):
        rep = fg_rep(1.0)
        r1 = check_eigen_identities(rep, 1, A, B)
        r2 = check_eigen_identities(rep, 1, A.inverse(), B)
        assert r1.weight_period == pytest.approx(r2.weight_period, rel=1e-9)

    def test_auxiliary_on_fixed_point_rejected(self):
        rep = fg_rep(1.0)
        with pytest.raises(PreconditionError):
            check_eigen_identities(rep, 1, A, A * A)

    def test_weight_length_matches_gcr_period_log(self):
        from anosovlab.spectral import length_functions

        rep = fg_rep(2.0)
        for w in (A, B, A * B):
            report = check_eigen_identities(rep, 1, w, _other(w))
            wl = length_functions(evaluate(rep, w), 1).weight_length
            assert np.log(report.gcr_value) == pytest.approx(wl, rel=1e-7)

    def test_scan_skips_parabolic_words(self):
        # the commutator abAB and its conjugates have no boundary points;
        # reading their fixed points aborted the scan at L = 4
        rep = fuchsian_locus((2,), REF)
        reports = eigen_identity_scan(rep, 1, 4)
        words, _ = _WordBall(rep, 4).loxodromic()
        assert [r.g for r in reports] == words
        assert len(reports) == 152 < len(words_of_length(2, 4)) - 1
        assert all(r.passed for r in reports)

    def test_scan_of_rank_1_has_no_auxiliary_point(self):
        fg = fg_rep(1.0)
        rep = Representation(
            dim=3, generator_images=fg.generator_images[:1],
            reference=Representation(
                dim=2, generator_images=REF.generator_images[:1]))
        with pytest.raises(PreconditionError, match="no auxiliary"):
            eigen_identity_scan(rep, 1, 2)


def _other(w):
    return B if w.letters[0] == 1 else A


class TestCollar:
    def test_fg_gamma_delta_at_x1(self):
        rep = fg_rep(1.0)
        report = collar_check(rep, 1, A, B)
        assert report.lhs == pytest.approx(LAMBDA1 ** 2, rel=1e-9)
        assert report.rhs == pytest.approx(1 / (1 - 1 / LAMBDA1), rel=1e-9)
        assert report.lhs == pytest.approx(46.978713763747794, rel=1e-9)
        assert report.rhs == pytest.approx(1.1708203932499369, rel=1e-9)
        assert report.holds and report.margin > 0
        assert not report.sign_indeterminate

    def test_swapped_pair_also_holds(self):
        rep = fg_rep(1.0)
        report = collar_check(rep, 1, B, A)
        assert report.holds

    def test_unlinked_pair_rejected(self):
        rep = fg_rep(1.0)
        with pytest.raises(PreconditionError):
            collar_check(rep, 1, A, A * A)

    def test_weight_rhs_below_rhs(self):
        rep = fg_rep(0.5)
        for report in collar_scan(rep, 1, 3):
            assert report.rhs >= report.weight_rhs - 1e-9

    def test_collar_scan_decomposes_each_word_once(self, monkeypatch):
        # one batched eigvals over the 53 words of the ball, identity
        # included: the scan reads no eigenvector
        stacks = []
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counting(
                stacks, name, getattr(np.linalg, name)))
        reports = collar_scan(fg_rep(1.0), 1, 3)
        assert len(reports) == 1944
        assert stacks == [("eigvals", (53, 3, 3))]

    @pytest.mark.parametrize("rep,k,max_length", [
        (lambda: fg_rep(1.0), 1, 3),
        (lambda: fg_rep(1.0), 1, 4),
        (lambda: fg_rep(1.0), 1, 5),
        (lambda: fg_rep(0.6), 1, 3),
        (lambda: fg_rep(0.6), 1, 4),
        (lambda: fg_rep(0.6), 1, 5),
        (lambda: fg_rep(0.5), 1, 4),
        (lambda: fg_rep(2.0), 2, 4),
        (lambda: fuchsian_locus((5, 1), REF), 2, 3),
        (lambda: fuchsian_locus((3, 3), REF), 2, 3),
        (lambda: fuchsian_locus((7, 1), REF), 3, 3),
        (lambda: rotation_rep(5), 1, 3),
    ], ids=["fg1-L3", "fg1-L4", "fg1-L5", "fg0.6-L3", "fg0.6-L4", "fg0.6-L5",
            "fg0.5-L4", "fg2-k2-L4", "51-k2", "33-k2", "71-k3", "rotation"])
    def test_collar_scan_equals_the_per_pair_loop(self, rep, k, max_length):
        rep = rep()
        assert list(collar_scan(rep, k, max_length)) == reference_collar_scan(
            rep, k, max_length)

    def test_rotation_rep_mixes_signed_and_unsigned_pairs(self):
        flags = Counter(r.sign_indeterminate
                        for r in collar_scan(rotation_rep(5), 1, 3))
        assert flags[True] > 0 and flags[False] > 0

    @pytest.mark.parametrize("rep,k,max_length,message", [
        (lambda: fuchsian_locus((3, 1), REF), 2, 2, "index 2 for word b:"),
        (lambda: rotation_rep(0), 1, 3, "index 1 for word bA:"),
    ], ids=["31-k2", "rotation"])
    def test_collar_scan_raises_the_per_pair_loops_first_error(
            self, rep, k, max_length, message):
        rep = rep()
        with pytest.raises(GapError) as want:
            reference_collar_scan(rep, k, max_length)
        with pytest.raises(GapError, match=message) as got:
            collar_scan(rep, k, max_length)
        assert str(got.value) == str(want.value)
        assert (got.value.index, got.value.ratio) == (
            want.value.index, want.value.ratio)

    @pytest.mark.parametrize("rep,k,above", [
        (lambda: fuchsian_locus((3, 1), REF), 2, 0.0),
        (lambda: fg_rep(1.0), 1, 20.0),
    ], ids=["every-g", "long-g"])
    def test_collar_scan_raises_g_errors_first(self, monkeypatch, rep, k,
                                              above):
        # a word's row fails where |lambda_1| > above, with an error
        # naming its matrix: on (3,1) every word fails, so the first pair's
        # g error must be raised, not its h's; on fg(1) the generators
        # (6.85) pass and aa, aB, ... (34 and 47) fail
        spectra = word_ball._spectra

        def failing_spectra(matrices, vectors=True):
            table = spectra(matrices, vectors)
            tops = np.abs(table.values[:, 0])
            for row in np.flatnonzero(tops > above).tolist():
                top = float(tops[row])
                crc = zlib.crc32(table.entries[row].tobytes())
                table.errors[row] = NumericError(
                    f"no row at |lambda_1| = {top!r} ({crc})",
                    diagnostics={"top": top})
            return table

        monkeypatch.setattr(word_ball, "_spectra", failing_spectra)
        rep = rep()
        with pytest.raises(NumericError) as want:
            reference_collar_scan(rep, k, 2)
        with pytest.raises(NumericError) as got:
            collar_scan(rep, k, 2)
        assert (str(got.value), got.value.diagnostics) == (
            str(want.value), want.value.diagnostics)

    def test_collar_scan_reads_each_value_once_per_word(self, monkeypatch):
        # one batched call each for the fixed points and the eigenvalue
        # values of the 53 ball words, not one per word or per linked pair
        calls = []
        fixed_points = word_ball._rp1_fixed_points
        columns = word_ball._eigenvalue_columns

        def counting_points(stack):
            calls.append(("points", len(stack)))
            return fixed_points(stack)

        def counting_columns(values, k):
            calls.append(("values", len(values)))
            return columns(values, k)

        def no_pairs(*args):
            raise AssertionError("linked_pairs called by collar_scan")

        monkeypatch.setattr(word_ball, "_rp1_fixed_points", counting_points)
        monkeypatch.setattr(word_ball, "_eigenvalue_columns",
                            counting_columns)
        monkeypatch.setattr(verification, "linked_pairs", no_pairs)
        assert len(collar_scan(fg_rep(1.0), 1, 3)) == 1944
        assert calls == [("points", 53), ("values", 53)]

    def test_collar_scan_builds_reports_only_when_read(self, monkeypatch):
        built = []
        report = verification.CollarReport

        def counting_report(*args):
            built.append(args)
            return report(*args)

        monkeypatch.setattr(verification, "CollarReport", counting_report)
        table = collar_scan(fg_rep(1.0), 1, 3)
        assert built == []
        rows = list(table)
        assert len(built) == len(rows) == len(table) == 1944

    def test_linked_pairs_symmetric(self):
        pairs = linked_pairs(fg_rep(1.0), 2)
        pairset = set(pairs)
        assert (A, B) in pairset
        for g, h in pairs:
            assert (h, g) in pairset

    def test_no_eigenvalue_gap_at_k_raises(self):
        # lambda_2/lambda_3 of b is 1 + 2^-52: no gap, not a huge rhs
        rep = fuchsian_locus((3, 1), REF)
        with pytest.raises(GapError, match="index 2 for word b") as info:
            collar_check(rep, 2, A, B)
        assert info.value.index == 2
        assert info.value.ratio <= 1.0 + spectral.EIGEN_GAP_MIN

    def test_collar_scan_matches_collar_check(self):
        rep = fg_rep(2.0)
        reports = collar_scan(rep, 1, 3)
        assert len(reports) == 1944
        for r in reports:
            assert collar_check(rep, 1, r.g, r.h) == r


class TestLinked:
    @pytest.mark.parametrize("max_length", [2, 3, 5])
    @pytest.mark.parametrize("rep", [
        fg_rep(1.0), fg_rep(0.6), fuchsian_locus((5, 1), REF)],
        ids=["fg1", "fg0.6", "51"])
    def test_equals_the_six_separation_mask(self, rep, max_length):
        # powers share their ends and inverses swap them: the coincident
        # pairs the sorted circle must find
        ends = _WordBall(rep, max_length).loxodromic()[1]
        want = six_separation_linked(ends)
        assert want.any()
        assert np.array_equal(verification._linked(ends), want)

    @pytest.mark.parametrize("ends", [
        np.empty((0, 2)),
        [[1.0, 2.0]],
        [[1.0, 2.0], [0.5, 1.5]],
        [[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [0.5, 2.5], [1.5, 0.2]],
        [[1.0, 2.0], [1.0 + LOOSE, 0.5], [1.0 + TIGHT, 2.5],
         [2.0 - TIGHT, 0.2], [2.0 + LOOSE, 1.5]],
        [[0.0, 1.5], [np.pi - 1e-11, 0.7], [1.0, 2.0], [2.5, np.pi - 1e-11],
         [TIGHT, 2.2], [0.3, np.pi - LOOSE]],
        [[1.0, 2.0], [np.nan, 0.5], [0.3, np.nan], [0.1, 2.5], [1.5, 0.2],
         [np.nan, np.nan]],
        [[1.0 + i * 1.5 * LOOSE, 2.0 - i * 1.5 * LOOSE] for i in range(8)],
        np.full((6, 2), 0.7),
        np.tile([0.7, 2.0], (6, 1)),
        [[1.0, 2.0], [2.0 + np.pi, 1.5], [1.0 + np.pi, 0.5],
         [2.0 - np.pi, 2.5], [-0.2, 1.6]],
    ], ids=["n0", "n1", "n2", "coincident", "near-tolerance", "wrap", "nan",
            "chain", "all-coincident", "all-one-axis", "outside-0-pi"])
    def test_equals_the_six_separation_mask_on_constructed_ends(self, ends):
        ends = np.array(ends, dtype=float).reshape(-1, 2)
        assert np.array_equal(verification._linked(ends),
                              six_separation_linked(ends))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(2)),
                      elements=st.one_of(
                          st.sampled_from(NEAR_ENDS + [np.nan]),
                          st.floats(0.0, np.pi, exclude_max=True))))
    @settings(deadline=None)
    def test_equals_the_six_separation_mask_on_drawn_ends(self, ends):
        assert np.array_equal(verification._linked(ends),
                              six_separation_linked(ends))

    def test_no_square_separation_table(self, monkeypatch):
        # the separations are read on the n words' own ends and on the
        # pairs of ends in one run, never on an (n, n) table of pairs
        shapes = []

        def recording(a, b):
            shapes.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
            return circle_separation(a, b)

        monkeypatch.setattr(verification, "circle_separation", recording)
        for ends in (_WordBall(fg_rep(1.0), 3).loxodromic()[1],
                     np.tile([0.7, 2.0], (6, 1))):
            assert np.array_equal(verification._linked(ends),
                                  six_separation_linked(ends))
        assert shapes and all(len(shape) == 1 for shape in shapes)


class TestCounterexample:
    def test_x1_value(self):
        rows = counterexample_scan([1.0])
        assert rows[0].ratio_gamma == pytest.approx(LAMBDA1, rel=1e-9)
        assert rows[0].ratio_delta == pytest.approx(LAMBDA1, rel=1e-9)

    def test_columns_agree_and_decrease(self):
        grid = np.geomspace(1e-6, 1.0, 25)
        rows = counterexample_scan(grid)
        ratios = [r.ratio_gamma for r in rows]
        for r in rows:
            assert r.ratio_gamma == pytest.approx(r.ratio_delta, rel=1e-8)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] < 1.05

    def test_polynomial_root_oracle_at_y100(self):
        # root oracle on the cubic at y = x^(-1/3) = 100
        y = 100.0
        coeffs = [1.0, -4 * (y + y ** -2), 4 * (y ** 2 + y ** -1), -1.0]
        roots = np.sort(np.abs(np.roots(coeffs)))[::-1]
        expected = roots[0] / roots[1]
        rows = counterexample_scan([1e-6])
        assert rows[0].ratio_gamma == pytest.approx(expected, rel=1e-6)
        assert expected < 1.05

    def test_rejects_bad_grid(self):
        with pytest.raises(InputError):
            counterexample_scan([0.0])

    def test_rows_equal_the_one_row_calls(self):
        # one eigendecomposition of the stacked grid changes no bit of the
        # rows the one-matrix eigenvalue_ratios calls give
        grid = np.geomspace(1e-12, 1e6, 61)
        for x, row in zip(grid, counterexample_scan(grid)):
            gamma, delta = (eigenvalue_ratios(m, 1)
                            for m in fg_rep(float(x)).generator_images)
            assert (row.ratio_gamma, row.ratio_delta, row.root_length) == (
                gamma.lambda_ratio, delta.lambda_ratio,
                float(np.log(gamma.lambda_ratio_modulus)))

    @pytest.mark.parametrize("residual,first", [
        ((4,), "residual 4"),           # one image
        ((5, 4), "residual 4"),         # x[2]: gamma before delta
        ((5, 3), "residual 3"),         # x[1] delta before x[2] delta
    ])
    def test_first_failing_image_raises_in_grid_order(self, monkeypatch,
                                                      residual, first):
        # rows of the stack: gamma(x0), delta(x0), gamma(x1), ...
        spectra = spectral._spectra

        def failing_spectra(stack):
            table = spectra(stack)
            table.errors.update((row, NumericError(f"residual {row}"))
                                for row in residual)
            return table

        monkeypatch.setattr(spectral, "_spectra", failing_spectra)
        with pytest.raises(NumericError) as exc:
            counterexample_scan([0.5, 1.0, 2.0, 4.0])
        assert str(exc.value) == first


class TestSopqChecks:
    def test_coeffs_all_ones(self):
        for p, q in ((5, 6),):
            data = sopq_form(p, q)
            vbars = [[1.0] * (p - 2) + [cone_vector(data)]
                     for _ in range(p - 1)]
            p_el = sopq_positive(data, vbars)
            for k in range(1, p - 2):
                c, ci = sopq_positivity_coeffs(p_el, data, k)
                assert c > 0 and ci > 0

    def test_random_elements_positive_coeffs(self):
        rng = np.random.default_rng(99)
        for p, q in ((4, 5), (5, 6)):
            data = sopq_form(p, q)
            for _ in range(10):
                p_el = random_positive_element(data, rng)
                for k in range(1, p - 2):
                    c, ci = sopq_positivity_coeffs(p_el, data, k)
                    assert c > 0 and ci > 0

    def test_model_triple_ck_defect(self):
        rng = np.random.default_rng(17)
        for p, q in ((4, 5), (5, 6)):
            data = sopq_form(p, q)
            for _ in range(10):
                p_el = random_positive_element(data, rng)
                for k in range(1, p - 2):
                    assert sopq_model_triple_defect(data, p_el, k) > 1e-6

    def test_identity_rejected(self):
        data = sopq_form(5, 6)
        with pytest.raises(InputError):
            sopq_positive(data, [])

    def test_bad_k_rejected(self):
        data = sopq_form(4, 5)
        rng = np.random.default_rng(3)
        p_el = random_positive_element(data, rng)
        with pytest.raises(InputError):
            sopq_positivity_coeffs(p_el, data, 2)  # p - 3 = 1


class TestSopqScan:
    def test_draws_pinned(self):
        # literals of the sampler before it moved out of the CLI: any
        # change to the draw order changes them
        report = sopq_scan(4, 5, 5, 7, 2.0)
        assert report.all_positive
        assert report.max_q_residual == 5.053590574293935e-14
        assert report.rows[0] == {
            "index": 0, "q_residual": 2.4836702822830627e-14,
            "coeff_k1": 11.507085493220536,
            "coeff_inv_k1": 3.9160692539664215,
            "model_defect_k1": 0.3862826364141154}

    @pytest.mark.parametrize("args, bad", [
        ((4.5, 5, 3, 0), "p=4.5"), ((4, 5.0, 3, 0), "q=5.0"),
        ((4, 5, 2.5, 0), "count=2.5"), ((4, 5, True, 0), "count=True"),
        ((4, 5, 3, 1.5), "seed=1.5"), ((4, 5, 3, False), "seed=False")])
    def test_non_integer_arguments_rejected(self, args, bad):
        with pytest.raises(InputError, match=f"{bad} is not an integer"):
            sopq_scan(*args, 2.0)

    def test_count_below_one_rejected(self):
        with pytest.raises(InputError, match="count=0"):
            sopq_scan(4, 5, 0, 7, 2.0)

    def test_p_below_4_rejected(self, monkeypatch):
        # k runs over 1..p-3: at p = 3 nothing would be checked
        monkeypatch.setattr(verification, "sopq_form", no_ball)
        with pytest.raises(InputError, match="p=3"):
            sopq_scan(3, 3, 1, 0, 2.0)

    @pytest.mark.parametrize("entry_max",
                             [0.0, -1.0, float("nan"), float("inf")])
    def test_empty_draw_range_rejected(self, entry_max):
        with pytest.raises(InputError, match="entry_max"):
            sopq_scan(4, 5, 2, 7, entry_max)

    def test_overflowing_element_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="overflows"):
            sopq_scan(4, 5, 1, 3, 1e300)


class TestVerdictProperties:
    ABOVE = float(np.nextafter(IDENTITY_RTOL, 1.0))

    @staticmethod
    def eigen(pcr=0.0, gcr=0.0, gcr_value=4.0):
        return EigenIdentityReport(
            g=A, x=B, k=1, pcr_value=2.0, lambda_ratio=2.0,
            gcr_value=gcr_value, weight_period=4.0, pcr_rel_error=pcr,
            gcr_rel_error=gcr)

    def test_identity_passes_at_the_tolerance(self):
        assert self.eigen(pcr=IDENTITY_RTOL, gcr=IDENTITY_RTOL).passed

    @pytest.mark.parametrize("field", ["pcr", "gcr"])
    def test_identity_fails_just_above_the_tolerance(self, field):
        assert not self.eigen(**{field: self.ABOVE}).passed

    def test_period_of_one_fails(self):
        assert not self.eigen(gcr_value=1.0).passed
        assert self.eigen(gcr_value=float(np.nextafter(1.0, 2.0))).passed

    @staticmethod
    def collar(rhs):
        return CollarReport(g=A, h=B, k=1, lhs=3.0, rhs=rhs, weight_rhs=1.5,
                            holds=True, margin=3.0 - rhs,
                            sign_indeterminate=False)

    def test_weight_chain_slack(self):
        at_slack = 1.5 - WEIGHT_CHAIN_SLACK
        below = float(np.nextafter(at_slack, 0.0))
        assert self.collar(at_slack).weight_chain_ok
        assert not self.collar(below).weight_chain_ok

    def test_ratio_columns_agree(self):
        def row(delta):
            return CounterexampleRow(x=1.0, ratio_gamma=1.0,
                                     ratio_delta=delta, root_length=0.0)
        # binary gaps either side of RATIO_AGREEMENT_RTOL = 1e-8
        assert row(1.0 + 2.0 ** -27).columns_agree
        assert not row(1.0 + 2.0 ** -26).columns_agree
        assert 2.0 ** -27 < RATIO_AGREEMENT_RTOL < 2.0 ** -26


class TestDuality:
    def test_h_verdicts_agree_5_1(self):
        rep = fuchsian_locus((5, 1), REF)
        drep = dual_rep(rep)
        d = rep.dim
        for x, y, z in itertools.permutations((A, B, A.inverse()), 3):
            primal = check_Hk(rep, 1, (x, y, z))
            dual = check_Hk(drep, d - 1, (x, y, z))
            assert (primal > 1e-4) == (dual > 1e-4)
            assert primal > 1e-4

    def test_c_verdicts_agree_7_1(self):
        # separated triple: fixed points of a, b, a^-1 are pairwise
        # further than 0.4 on the boundary circle
        rep = fuchsian_locus((7, 1), REF)
        drep = dual_rep(rep)
        d = rep.dim
        for x, y, z in itertools.permutations((A, B, A.inverse()), 3):
            primal = check_Ck(rep, 1, (x, y, z))
            dual = check_Ck(drep, d - 1 - 1, (x, y, z))
            assert (primal > 1e-4) == (dual > 1e-4)
            assert primal > 1e-4


class TestSignPositivity:
    def test_fg_all_words_positive_ratio(self):
        for x in (0.5, 2.0):
            rep = fg_rep(x)
            for w in words_of_length(2, 3):
                if len(w) == 0:
                    continue
                g = eigenvalue_ratios(evaluate(rep, w), 1)
                assert g.lambda_ratio_signed is not None
                assert g.lambda_ratio_signed > 0


class TestReportFormat:
    """Key order and value types of every report's ``to_dict``."""

    AB = (A, B, A * B)

    REPORTS = {
        "gap": (GapScanReport(
            rep_label="r", k=1, max_length=3, lengths=(1, 2, 3),
            min_log_gaps=(0.1, 0.2, 0.3), slope=0.1, intercept=0.0,
            verdict="anosov-like"),
            ["rep", "k", "L", "lengths", "min_log_gaps", "slope",
             "intercept", "verdict"]),
        "transversality": (TransversalityScanReport(
            kind="Hk", rep_label="r", k=1, max_length=2,
            certification={1: "anosov-like", 2: "flat"}, certified=False,
            n_points=3, n_triples=6, gap_failures=0, min_defect=0.5,
            verdict="pass", worst_triple=AB, max_defect=0.7,
            min_separation=0.3),
            ["kind", "rep", "k", "L", "certification", "certified",
             "n_points", "n_triples", "gap_failures", "min_defect", "max_defect", "min_separation", "verdict",
             "worst_triple"]),
        "positivity": (PositivityScanReport(
            rep_label="r", k=1, max_length=2, n_points=4, n_quadruples=8,
            min_gcr=1.5, worst_quadruple=AB + (B * A,), passed=True),
            ["rep", "k", "L", "n_points", "n_quadruples", "min_gcr",
             "worst_quadruple", "passed"]),
        "eigen": (EigenIdentityReport(
            g=A, x=B, k=1, pcr_value=2.0, lambda_ratio=2.0, gcr_value=4.0,
            weight_period=4.0, pcr_rel_error=0.0, gcr_rel_error=0.0),
            ["g", "x", "k", "pcr_value", "lambda_ratio", "gcr_value",
             "weight_period", "pcr_rel_error", "gcr_rel_error"]),
        "collar": (CollarReport(
            g=A, h=B, k=1, lhs=3.0, rhs=2.0, weight_rhs=1.5, holds=True,
            margin=1.0, sign_indeterminate=False),
            ["g", "h", "k", "lhs", "rhs", "weight_rhs", "holds", "margin",
             "sign_indeterminate"]),
        "counterexample": (CounterexampleRow(
            x=1.0, ratio_gamma=6.8, ratio_delta=6.8, root_length=1.9),
            ["x", "ratio_gamma", "ratio_delta", "root_length"]),
    }

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_key_order(self, name):
        report, keys = self.REPORTS[name]
        assert list(report.to_dict()) == keys

    def test_words_tuples_and_keys_become_json_types(self):
        doc = self.REPORTS["transversality"][0].to_dict()
        assert doc["certification"] == {"1": "anosov-like", "2": "flat"}
        assert doc["worst_triple"] == ["a", "b", "ab"]
        assert self.REPORTS["gap"][0].to_dict()["lengths"] == [1, 2, 3]
        assert self.REPORTS["positivity"][0].to_dict()["worst_quadruple"] == [
            "a", "b", "ab", "ba"]
        eigen = self.REPORTS["eigen"][0].to_dict()
        assert (eigen["g"], eigen["x"]) == ("a", "b")

    def test_missing_worst_triple_is_null(self):
        rep = fuchsian_locus((5, 1), REF)
        doc = ck_scan(rep, 1, 2).to_dict()
        assert doc["verdict"] == "non-certifiable"
        assert doc["worst_triple"] is None and doc["min_defect"] is None

    def test_eigen_errors_are_fields(self):
        report = check_eigen_identities(fg_rep(1.0), 1, A, B)
        assert report.pcr_rel_error == (
            abs(report.pcr_value - report.lambda_ratio)
            / abs(report.lambda_ratio))
        assert report.gcr_rel_error == (
            abs(report.gcr_value - report.weight_period)
            / abs(report.weight_period))
