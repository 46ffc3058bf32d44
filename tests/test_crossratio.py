import numpy as np
import pytest

from anosovlab.core_linalg import (
    Subspace,
    direct_sum_defect,
    quotient_complement,
    span,
)
from anosovlab.crossratio import (
    gcr,
    pcr,
    pcr_quotient,
)
from anosovlab.errors import DomainError, PreconditionError
from anosovlab.groups import is_cyclically_ordered

RNG = np.random.default_rng(31415)


def line(*coords):
    return Subspace.from_spanning(np.array(coords, dtype=float))


def plane_with_normal(*n):
    normal = span(list(n), d=3)
    return Subspace(quotient_complement(normal, Subspace.full(3)))


def random_projective_points(n, min_wedge=1e-3, rng=RNG):
    """Pairwise non-coincident points on RP^1 by rejection sampling."""
    while True:
        pts = rng.normal(size=(n, 2))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        ok = all(abs(pts[i, 0] * pts[j, 1] - pts[i, 1] * pts[j, 0]) > min_wedge
                 for i in range(n) for j in range(i + 1, n))
        if ok:
            return [p for p in pts]


class TestPcr:
    def test_hand_oracle(self):
        # oracle: lifts (1,0),(1,1),(0,1),(-1,1): (1/1) * (-2/-1) = 2
        v = pcr([1, 0], [1, 1], [0, 1], [-1, 1])
        assert float(v) == pytest.approx(2.0, rel=1e-12)

    def test_equal_middle_pair_gives_one(self):
        a, b, c = line(1, 0), line(1, 1), line(0, 1)
        assert float(pcr(a, b, b, c)) == pytest.approx(1.0)

    def test_first_equals_third_gives_zero(self):
        a, b, c = line(1, 0), line(1, 1), line(0, 1)
        assert float(pcr(a, b, a, c)) == pytest.approx(0.0, abs=1e-14)

    def test_infinity_marker(self):
        # a vanishing denominator is the value infinity: a domain error
        a, b, c = line(1, 0), line(1, 1), line(0, 1)
        with pytest.raises(DomainError):
            pcr(a, a, b, c)
        with pytest.raises(DomainError):
            pcr(b, c, a, a)

    def test_threefold_coincidence_rejected(self):
        a, b = line(1, 0), line(0, 1)
        with pytest.raises(PreconditionError):
            pcr(a, a, a, b)

    def test_lift_independence(self):
        got = pcr([2, 0], [-3, -3], [0, 5], [7, -7])
        assert float(got) == pytest.approx(2.0, rel=1e-12)


class TestPcrIdentities:
    """Projective cross-ratio symmetries on random nondegenerate tuples."""

    def test_inversions(self):
        for _ in range(100):
            x1, x2, x3, x4 = random_projective_points(4)
            v = float(pcr(x1, x2, x3, x4))
            assert float(pcr(x4, x2, x3, x1)) == pytest.approx(1 / v, rel=1e-9)
            assert float(pcr(x1, x3, x2, x4)) == pytest.approx(1 / v, rel=1e-9)

    def test_cocycles(self):
        for _ in range(100):
            x1, x2, x3, x4, x5 = random_projective_points(5)
            lhs = float(pcr(x1, x2, x3, x4)) * float(pcr(x4, x2, x3, x5))
            assert lhs == pytest.approx(float(pcr(x1, x2, x3, x5)), rel=1e-9)
            lhs = float(pcr(x1, x2, x3, x4)) * float(pcr(x1, x3, x5, x4))
            assert lhs == pytest.approx(float(pcr(x1, x2, x5, x4)), rel=1e-9)

    def test_sl2_invariance(self):
        for _ in range(100):
            pts = random_projective_points(4)
            g = RNG.normal(size=(2, 2))
            while abs(np.linalg.det(g)) < 0.1:
                g = RNG.normal(size=(2, 2))
            g /= abs(np.linalg.det(g)) ** 0.5
            moved = [g @ p for p in pts]
            assert float(pcr(*moved)) == pytest.approx(
                float(pcr(*pts)), rel=1e-9)

    def test_complement_identity(self):
        for _ in range(100):
            x1, x2, x3, x4 = random_projective_points(4)
            assert float(pcr(x1, x2, x3, x4)) == pytest.approx(
                1.0 - float(pcr(x1, x2, x4, x3)), rel=1e-9, abs=1e-9)

    def test_greater_one_iff_cyclically_ordered(self):
        for _ in range(200):
            pts = random_projective_points(4)
            angles = [float(np.arctan2(p[1], p[0])) % np.pi for p in pts]
            v = float(pcr(*pts))
            assert (v > 1.0) == is_cyclically_ordered(angles)


class TestPcrQuotient:
    def test_degenerate_pencil_reduces_to_pcr(self):
        zero = Subspace.zero(2)
        full = Subspace.full(2)
        pts = [line(1, 0), line(1, 1), line(0, 1), line(-1, 1)]
        got = pcr_quotient(zero, full, *pts)
        assert float(got) == pytest.approx(2.0, rel=1e-12)

    def test_equal_middle_entries(self):
        v_low = span([1, 0, 0], d=3)
        v_high = Subspace.full(3)
        w1 = span([1, 0, 0], [0, 1, 0], d=3)
        w23 = span([1, 0, 0], [0, 1, 1], d=3)
        w4 = span([1, 0, 0], [0, 0, 1], d=3)
        assert float(pcr_quotient(v_low, v_high, w1, w23, w23, w4)) == pytest.approx(1.0)

    def test_mixed_rank_entries(self):
        # a line transverse to V_low is implicitly augmented by V_low
        v_low = span([1, 0, 0], d=3)
        v_high = Subspace.full(3)
        w1 = span([1, 0, 0], [0, 1, 0], d=3)
        lines = [line(0, 1, 1), line(0, 0, 1)]
        planes = [span([1, 0, 0], [0, 1, 1], d=3), span([1, 0, 0], [0, 0, 1], d=3)]
        w4 = span([1, 0, 0], [0, 1, -1], d=3)
        a = pcr_quotient(v_low, v_high, w1, lines[0], lines[1], w4)
        b = pcr_quotient(v_low, v_high, w1, planes[0], planes[1], w4)
        assert float(a) == pytest.approx(float(b), rel=1e-12)

    def test_containment_failure(self):
        v_low = span([1, 0, 0], d=3)
        bad = span([0, 1, 0], [0, 0, 1], d=3)  # plane not containing V_low
        good = span([1, 0, 0], [0, 1, 0], d=3)
        w = span([1, 0, 0], [0, 1, 1], d=3)
        w4 = span([1, 0, 0], [0, 0, 1], d=3)
        with pytest.raises(PreconditionError):
            pcr_quotient(v_low, Subspace.full(3), bad, good, w, w4)


class TestGcr:
    def test_degenerate_value_one(self):
        v = line(0, 0, 1)
        vp = line(1, 0, 0)
        w = plane_with_normal(1, 1, 1)
        assert float(gcr(v, w, w, vp)) == pytest.approx(1.0)

    def test_diag_4_2_eighth_configuration(self):
        # oracle by normal functionals: (n2 . v)(n1 . v') / (n1 . v)(n2 . v')
        v1 = line(0, 0, 1)
        w2 = plane_with_normal(1, 1, 1)
        w3 = plane_with_normal(1, 2, 32)
        v4 = line(1, 0, 0)
        got = gcr(v1, w2, w3, v4)
        assert float(got) == pytest.approx(32.0, rel=1e-10)

    def test_swap_inverts(self):
        v1 = line(0, 0, 1)
        w2 = plane_with_normal(1, 1, 1)
        w3 = plane_with_normal(1, 2, 32)
        v4 = line(1, 0, 0)
        assert float(gcr(v1, w3, w2, v4)) == pytest.approx(1 / 32.0, rel=1e-10)

    def test_transversality_failure_named(self):
        v1 = line(1, 0, 0)
        w2 = span([1, 0, 0], [0, 1, 0], d=3)  # contains v1
        w3 = plane_with_normal(1, 1, 1)
        v4 = line(0, 0, 1)
        with pytest.raises(DomainError, match="V1 and W2"):
            gcr(v1, w2, w3, v4)

    def test_rebasis_invariance(self):
        for _ in range(50):
            d, k = 5, 2
            v1 = Subspace.from_spanning(RNG.normal(size=(d, k)))
            v4 = Subspace.from_spanning(RNG.normal(size=(d, k)))
            w2 = Subspace.from_spanning(RNG.normal(size=(d, d - k)))
            w3 = Subspace.from_spanning(RNG.normal(size=(d, d - k)))
            try:
                before = float(gcr(v1, w2, w3, v4))
            except DomainError:
                continue

            def rebase(s):
                q, _ = np.linalg.qr(RNG.normal(size=(s.rank, s.rank)))
                return Subspace(s.basis @ q)

            after = float(gcr(rebase(v1), rebase(w2), rebase(w3), rebase(v4)))
            assert after == pytest.approx(before, rel=1e-9)


def random_gcr_tuple(d, k, rng=RNG, min_defect=1e-3):
    while True:
        v1 = Subspace.from_spanning(rng.normal(size=(d, k)))
        v4 = Subspace.from_spanning(rng.normal(size=(d, k)))
        w2 = Subspace.from_spanning(rng.normal(size=(d, d - k)))
        w3 = Subspace.from_spanning(rng.normal(size=(d, d - k)))
        defects = [direct_sum_defect([v, w])
                   for v in (v1, v4) for w in (w2, w3)]
        if min(defects) > min_defect:
            return v1, w2, w3, v4


class TestGcrIdentities:
    def test_inversions(self):
        for _ in range(60):
            v1, w2, w3, v4 = random_gcr_tuple(4, 2)
            v = float(gcr(v1, w2, w3, v4))
            assert float(gcr(v4, w2, w3, v1)) == pytest.approx(1 / v, rel=1e-9)
            assert float(gcr(v1, w3, w2, v4)) == pytest.approx(1 / v, rel=1e-9)

    def test_cocycles(self):
        for _ in range(60):
            d, k = 4, 2
            v1, w2, w3, v4 = random_gcr_tuple(d, k)
            v5 = Subspace.from_spanning(RNG.normal(size=(d, k)))
            w5 = Subspace.from_spanning(RNG.normal(size=(d, d - k)))
            try:
                lhs = float(gcr(v1, w2, w3, v4)) * float(gcr(v4, w2, w3, v5))
                rhs = float(gcr(v1, w2, w3, v5))
                assert lhs == pytest.approx(rhs, rel=1e-9)
                lhs = float(gcr(v1, w2, w3, v4)) * float(gcr(v1, w3, w5, v4))
                rhs = float(gcr(v1, w2, w5, v4))
                assert lhs == pytest.approx(rhs, rel=1e-9)
            except DomainError:
                continue

    def test_never_zero(self):
        for _ in range(60):
            tup = random_gcr_tuple(5, 2)
            assert abs(float(gcr(*tup))) > 1e-12

    def test_sl_invariance(self):
        for _ in range(60):
            d = 4
            v1, w2, w3, v4 = random_gcr_tuple(d, 2)
            g = RNG.normal(size=(d, d))
            while abs(np.linalg.det(g)) < 0.1:
                g = RNG.normal(size=(d, d))
            g /= abs(np.linalg.det(g)) ** (1 / d)
            before = float(gcr(v1, w2, w3, v4))
            after = float(gcr(v1.apply(g), w2.apply(g), w3.apply(g), v4.apply(g)))
            assert after == pytest.approx(before, rel=1e-9)
