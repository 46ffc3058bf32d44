import itertools
import math
import re
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anosovlab import spectral, verification
from anosovlab.core_linalg import (
    Spectrum,
    Subspace,
    direct_sum_defect,
    grassmann_distance,
    intersect,
    span,
    spectrum,
    wedge_volume,
)
from anosovlab.crossratio import gcr, pcr_quotient
from anosovlab.errors import (
    AmbiguityError,
    DomainError,
    GapError,
    InputError,
    PreconditionError,
)
from anosovlab.groups import (
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
from anosovlab.verification import (
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
    BoundaryAtlas,
    _arrangement_minimum,
    _gap_scans,
    _wedge_table,
    _WordBall,
    anosov_gap_scan,
    attractor_convergence_slope,
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
    required_indices_h,
    sopq_model_triple_defect,
    sopq_positivity_coeffs,
    sopq_scan,
)

REF = punctured_torus_reference()
A, B = Word((1,)), Word((2,))
LAMBDA1 = (7 + 3 * np.sqrt(5)) / 2


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
    decide; the first summand to raise decides a triple's outcome.
    """
    atlas = BoundaryAtlas(rep, max_length)
    d = rep.dim
    space = atlas.space
    angles = atlas.angles

    def summands(x, y, z):
        # through the module attribute, so a monkeypatched intersect applies
        if kind == "Hk":
            return [space(x, k),
                    verification.intersect(space(y, k), space(z, d - k + 1)),
                    space(z, d - k - 1)]
        return [space(x, d - k - 2),
                verification.intersect(space(x, d - k + 1), space(y, k)),
                space(z, k + 1)]

    n_triples = gap_failures = ambiguous_items = 0
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
        except AmbiguityError:
            ambiguous_items += 1
            continue
        defects.append(defect)
        triples.append(t)
    if not defects:
        return dict(n_triples=n_triples, gap_failures=gap_failures,
                    ambiguous_items=ambiguous_items, min_defect=None,
                    max_defect=None, worst_triple=None, verdict="ambiguous")
    min_defect = min(defects)
    if min_defect > SCAN_ACCEPT:
        verdict = "ambiguous" if ambiguous_items else "pass"
    elif min_defect < SCAN_REJECT:
        verdict = "fail"
    else:
        verdict = "ambiguous"
    worst = triples[defects.index(min_defect)]
    return dict(n_triples=n_triples, gap_failures=gap_failures,
                ambiguous_items=ambiguous_items, min_defect=min_defect,
                max_defect=max(defects),
                worst_triple=tuple(atlas.words[i] for i in worst),
                verdict=verdict)


def reference_arrangement_minimum(wedge):
    """One arrangement at a time: the rotations of every angle-sorted
    4-subset in combinations order; a strict < keeps the first minimum."""
    min_gcr, worst, count = np.inf, None, 0
    for quad in itertools.combinations(range(len(wedge)), 4):
        for rot in range(4):
            x, y, z, w = quad[rot:] + quad[:rot]
            val = (wedge[x, z] / wedge[x, y]) * (wedge[w, y] / wedge[w, z])
            count += 1
            if val < min_gcr:
                min_gcr, worst = val, (x, y, z, w)
    return float(min_gcr), worst, count


def pairwise_arrangement_minimum(wedge):
    """The same first minimum in array code, O(n^4): the 4-subsets of one
    leading pair (a, b) at a time, their four rotations as (m, 4) index
    arrays; a row-major argmin and a strict < across pairs keep the first."""
    n = len(wedge)
    min_gcr, worst = np.inf, None
    tails = np.column_stack(np.triu_indices(n, 1))   # (c, d), c < d, sorted
    rotations = (np.arange(4)[:, None] + np.arange(4)) % 4   # r-th starts at r
    for a, b in itertools.combinations(range(n - 2), 2):
        cd = tails[np.searchsorted(tails[:, 0], b + 1):]   # b < c < d
        quads = np.concatenate((np.broadcast_to((a, b), (len(cd), 2)), cd), 1)
        x, y, z, w = quads[:, rotations].transpose(2, 0, 1)
        values = (wedge[x, z] / wedge[x, y]) * (wedge[w, y] / wedge[w, z])
        s, r = divmod(int(np.argmin(values)), 4)   # subset, then rotation
        if values[s, r] < min_gcr:
            min_gcr, worst = float(values[s, r]), quads[s, rotations[r]]
    return min_gcr, tuple(worst.tolist())


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
    k_flags = [atlas.space(i, k) for i in range(n)]
    dk_flags = [atlas.space(i, d - k) for i in range(n)]
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
    for field in ("worst_triple", "n_triples", "gap_failures",
                  "ambiguous_items", "verdict"):
        assert getattr(report, field) == reference[field], field


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
            assert np.array_equal(ball.image(w), evaluate(rep, w).entries)
            try:
                expected = rp1_fixed_points(evaluate(rep.reference, w))
            except DomainError:
                continue
            assert ball.fixed_points(w) == expected

    def test_reference_without_a_generator_is_an_input_error(self):
        fg = fg_rep(1.0)
        short = Representation(dim=2, generator_images=(
            REF.generator_images[0],))
        rep = Representation(dim=3, generator_images=fg.generator_images,
                             reference=short)
        with pytest.raises(InputError,
                           match="word uses generator 2, representation has 1"):
            BoundaryAtlas(rep, 1)

    def test_word_outside_ball_evaluated_and_kept(self):
        rep = fuchsian_locus((7, 1), REF)
        ball = _WordBall(rep, 3)
        w = Word((1, 2, -1, -2, 1, 1, 2, 2))
        assert np.array_equal(ball.image(w), evaluate(rep, w).entries)
        assert ball.image(w) is ball.image(w)

    def test_eigen_identity_scan_computes_each_item_once(self, monkeypatch):
        spaces, points = Counter(), Counter()

        def counting_space(m, k):
            spaces[getattr(m, "entries", m).tobytes(), k] += 1
            return attracting_space(m, k)

        def counting_points(m):
            points[getattr(m, "entries", m).tobytes()] += 1
            return rp1_fixed_points(m)

        monkeypatch.setattr(verification, "attracting_space", counting_space)
        monkeypatch.setattr(verification, "rp1_fixed_points", counting_points)
        reports = eigen_identity_scan(fg_rep(1.0), 1, 3)
        assert len(reports) == 52
        assert len(spaces) == 104 and set(spaces.values()) == {1}
        assert len(points) == 52 and set(points.values()) == {1}


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

    def test_required_indices(self):
        assert required_indices_h(1, 6) == (1, 2)
        assert required_indices_c(1, 6) == (1, 2, 3)
        assert required_indices_h(5, 6) == (4, 5)
        assert required_indices_c(6, 8) == (5, 6, 7)


class TestBoundaryFlag:
    def test_fuchsian_3_eigen_oracle(self):
        rep = fuchsian_locus((3,), REF)
        fl = boundary_flag(rep, A, (1, 2))
        m = evaluate(rep, A).entries
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
        m = evaluate(rep, A).entries
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

    def test_ambiguous_intersection_is_counted_not_fatal(self, monkeypatch):
        # an ambiguous intersection is a property of its (y, z) pair, so it
        # makes every separated triple with middle point y0 ambiguous
        rep = fuchsian_locus((5, 1), REF)
        atlas = BoundaryAtlas(rep, 2)
        y0 = 3
        y0_space = atlas.space(y0, 1).basis

        def ambiguous_at_y0(v, w, *args, **kwargs):
            if np.array_equal(v.basis, y0_space):
                raise AmbiguityError("inside the band", spectrum=np.ones(1))
            return intersect(v, w, *args, **kwargs)

        angles = atlas.angles
        expected = sum(
            1 for t in itertools.permutations(range(len(atlas)), 3)
            if t[1] == y0 and min(
                circle_separation(angles[i], angles[j])
                for i, j in itertools.combinations(t, 2)) >= TRIPLE_SEPARATION)
        assert expected > 0
        monkeypatch.setattr(verification, "intersect", ambiguous_at_y0)
        report = hk_scan(rep, 1, 2)
        assert report.ambiguous_items == expected
        assert report.to_dict()["ambiguous_items"] == expected
        assert report.verdict == "ambiguous"
        assert report.min_defect > 1e-4

    @pytest.mark.parametrize("scan,rep,k,L,kwargs", [
        (hk_scan, fuchsian_locus((5, 1), REF), 1, 3, {}),
        (hk_scan, fuchsian_locus((5, 1), REF), 2, 2, {}),
        (hk_scan, fuchsian_locus((4, 2), REF), 1, 2, {}),
        (hk_scan, fg_rep(1.0), 1, 3, {}),
        (ck_scan, fuchsian_locus((7, 1), REF), 1, 2, {}),
        (hk_scan, fuchsian_locus((5, 1), REF), 1, 2, {"min_separation": 0}),
    ])
    def test_scan_matches_per_triple_reference(self, scan, rep, k, L, kwargs):
        report = scan(rep, k, L, **kwargs)
        kind = "Hk" if scan is hk_scan else "Ck"
        assert_matches_reference(report, reference_transversality_scan(
            rep, k, L, kind, **kwargs))

    @pytest.mark.parametrize("scan,rep", [
        (hk_scan, fuchsian_locus((5, 1), REF)),
        (ck_scan, fuchsian_locus((7, 1), REF)),
    ])
    def test_mixed_outcomes_match_per_triple_reference(self, monkeypatch,
                                                       scan, rep):
        # flags missing for some words, intersections ambiguous or zero for
        # some pairs: mixed outcomes and rank signatures in every chunk
        def gappy_space(m, dim):
            if zlib.crc32(getattr(m, "entries", m).tobytes()
                          + bytes([dim])) % 6 == 0:
                raise GapError("forced", index=dim, ratio=1.0)
            return attracting_space(m, dim)

        def fickle_intersect(v, w, *args, **kwargs):
            h = zlib.crc32(v.basis.tobytes() + w.basis.tobytes())
            if h % 4 == 0:
                raise AmbiguityError("forced", spectrum=np.ones(1))
            if h % 4 == 1:
                return Subspace.zero(v.ambient_dim)
            return intersect(v, w, *args, **kwargs)

        monkeypatch.setattr(verification, "attracting_space", gappy_space)
        monkeypatch.setattr(verification, "intersect", fickle_intersect)
        report = scan(rep, 1, 2)
        reference = reference_transversality_scan(
            rep, 1, 2, "Hk" if scan is hk_scan else "Ck")
        assert reference["gap_failures"] and reference["ambiguous_items"]
        assert reference["n_triples"] > (reference["gap_failures"]
                                         + reference["ambiguous_items"])
        assert_matches_reference(report, reference)

    def test_intersection_computed_once_per_pair(self, monkeypatch):
        pairs = Counter()

        def counting_intersect(v, w, *args, **kwargs):
            pairs[v.basis.tobytes(), w.basis.tobytes()] += 1
            return intersect(v, w, *args, **kwargs)

        monkeypatch.setattr(verification, "intersect", counting_intersect)
        # k = 2 on (7,1): y^2 n z^7, neither part is the full space
        report = hk_scan(fuchsian_locus((7, 1), REF), 2, 2)
        n = report.n_points
        assert report.n_triples > n * (n - 1)
        assert 0 < len(pairs) <= n * (n - 1) and set(pairs.values()) == {1}

    def test_ck_scan_7_1_passes(self):
        rep = fuchsian_locus((7, 1), REF)
        report = ck_scan(rep, 1, 2)
        assert report.verdict == "pass"
        assert report.min_defect > 1e-4


class TestProjectionHyperconvexity:
    def test_fg_projection(self):
        rep = fg_rep(1.0)
        samples = [w for w in words_of_length(2, 3) if len(w) > 0]
        report = check_projection_hyperconvexity(rep, 1, A, samples)
        assert report.min_defect > 1e-4
        assert report.verdict == "pass"

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
        samples = [w for w in words_of_length(2, 3) if len(w) > 0]
        report = check_projection_hyperconvexity(rep, 1, A, samples)
        assert A in report.worst_triple
        assert projection_triple_defect(
            rep, 1, A, report.worst_triple) == report.min_defect

    def test_7_1_projection(self):
        rep = fuchsian_locus((7, 1), REF)
        samples = [w for w in words_of_length(2, 2) if len(w) > 0]
        report = check_projection_hyperconvexity(rep, 1, A, samples)
        assert report.min_defect > 1e-4

    def test_zero_separation_still_drops_coincident_points(self):
        # the sample a has the base point's boundary point; keeping both
        # gave a spurious fail with min defect about 1e-33 on 17 points
        rep = fg_rep(1.0)
        samples = [w for w in words_of_length(2, 2) if len(w) > 0]
        report = check_projection_hyperconvexity(rep, 1, A, samples,
                                                 min_separation=0)
        assert report.verdict == "pass"
        assert report.n_points == 12
        assert report.min_defect > 1e-3


class TestIndexRange:
    @pytest.mark.parametrize("k", [0, 3])
    def test_positivity_rejects_k_outside_1_to_d_minus_1(self, k):
        with pytest.raises(InputError, match=f"k={k} outside 1..2"):
            check_positively_ratioed(fg_rep(1.0), k, 2)

    @pytest.mark.parametrize("scan,k,top", [
        (hk_scan, 0, 5), (hk_scan, 6, 5), (ck_scan, 0, 4), (ck_scan, 5, 4)])
    def test_transversality_scans_reject_k_out_of_range(self, scan, k, top):
        rep = fuchsian_locus((5, 1), REF)
        with pytest.raises(InputError, match=f"k={k} outside 1..{top}"):
            scan(rep, k, 2)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("check", [
        lambda rep, k: check_projection_hyperconvexity(
            rep, k, A, [B, A * B, B * A]),
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

    def test_sweep_matches_pairwise_arrays_on_fg_L4(self):
        atlas = BoundaryAtlas(fg_rep(1.0), 4)
        wedge = _wedge_table(atlas, 1)
        assert len(wedge) == 124
        assert _arrangement_minimum(wedge) == \
            pairwise_arrangement_minimum(wedge)

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
        k_fl = [atlas.space(i, 1) for i in quad]
        dk_fl = [atlas.space(i, 2) for i in quad]
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
            __import__("anosovlab.core_linalg", fromlist=["Mat"]).Mat(gen),),
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
            wl = length_functions(evaluate(rep, w).entries, 1).weight_length
            assert np.log(report.gcr_value) == pytest.approx(wl, rel=1e-7)


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
        matrices = Counter()

        def counting_spectrum(m):
            if not isinstance(m, Spectrum):
                matrices[np.asarray(m).tobytes()] += 1
            return spectrum(m)

        monkeypatch.setattr(spectral, "spectrum", counting_spectrum)
        monkeypatch.setattr(verification, "spectrum", counting_spectrum)
        reports = collar_scan(fg_rep(1.0), 1, 3)
        assert len(reports) == 1944
        assert len(matrices) == 52 and set(matrices.values()) == {1}

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
        reports = collar_scan(rep, 1, 2)
        assert reports
        for r in reports[:5]:
            direct = collar_check(rep, 1, r.g, r.h)
            assert direct.lhs == pytest.approx(r.lhs, rel=1e-12)
            assert direct.rhs == pytest.approx(r.rhs, rel=1e-12)


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

    def test_count_below_one_rejected(self):
        with pytest.raises(InputError, match="count=0"):
            sopq_scan(4, 5, 0, 7, 2.0)

    @pytest.mark.parametrize("entry_max", [0.0, -1.0, float("nan")])
    def test_empty_draw_range_rejected(self, entry_max):
        with pytest.raises(InputError, match="entry_max"):
            sopq_scan(4, 5, 2, 7, entry_max)


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
                g = eigenvalue_ratios(evaluate(rep, w).entries, 1)
                assert g.lambda_ratio_signed is not None
                assert g.lambda_ratio_signed > 0


class TestConvergence:
    def test_fg_gamma_slope(self):
        slope, dists = attractor_convergence_slope(fg_rep(1.0), A, 1)
        assert slope < -0.1
        assert dists[0] > dists[5] > dists[10]


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
            min_separation=0.3, ambiguous_items=1),
            ["kind", "rep", "k", "L", "certification", "certified",
             "n_points", "n_triples", "gap_failures", "ambiguous_items",
             "min_defect", "max_defect", "min_separation", "verdict",
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
