import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab.core_linalg import (
    Subspace,
    PartialFlag,
    direct_sum_defect,
    eig_by_modulus,
    grassmann_distance,
    intersect,
    quotient_project,
    span,
    svd,
    wedge_volume,
)
from anosovlab.errors import (
    DimensionError,
    InputError,
    NumericError,
    PreconditionError,
)

RNG = np.random.default_rng(20260809)


def random_orthogonal(d, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def random_subspace(d, k, rng=RNG):
    return Subspace.from_spanning(rng.normal(size=(d, k)))


def e(d, *idx):
    return Subspace.coordinate(d, *idx)


# ---------------------------------------------------------------------------
# wedge_volume
# ---------------------------------------------------------------------------

class TestWedgeVolume:
    def test_identity_determinant(self):
        assert wedge_volume([e(3, 0), e(3, 1, 2)]) == pytest.approx(1.0)

    def test_one_transposition(self):
        assert wedge_volume([e(3, 1), e(3, 0, 2)]) == pytest.approx(-1.0)

    def test_diagonal_lines_2d(self):
        # oracle: det [[1,1],[1,-1]] / 2 = -1 on unit vectors
        v = span([1, 1], d=2)
        w = span([1, -1], d=2)
        oracle = np.linalg.det(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert oracle == pytest.approx(-1.0)
        assert wedge_volume([v, w]) == pytest.approx(oracle)

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            wedge_volume([e(3, 0), e(3, 1)])


# ---------------------------------------------------------------------------
# direct_sum_defect
# ---------------------------------------------------------------------------

class TestDirectSumDefect:
    def test_orthogonal_lines(self):
        assert direct_sum_defect([e(3, 0), e(3, 1)]) == pytest.approx(1.0)

    def test_identical_lines(self):
        assert direct_sum_defect([e(3, 0), e(3, 0)]) == pytest.approx(0.0, abs=1e-14)

    def test_oblique_pair_2x2_svd_oracle(self):
        # oracle: smallest singular value of [[1, 1/sqrt2], [0, 1/sqrt2]]
        # via the 2x2 Gram eigenvalues  1 +- 1/sqrt2
        oracle = np.sqrt(1.0 - 1.0 / np.sqrt(2.0))
        got = direct_sum_defect([e(2, 0), span([1, 1], d=2)])
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.5411961001461971, rel=1e-12)

    def test_overfull_raises(self):
        with pytest.raises(DimensionError):
            direct_sum_defect([e(2, 0, 1), e(2, 0)])

    def test_permutation_invariance_and_rank_criterion(self):
        for _ in range(25):
            d = 6
            parts = [random_subspace(d, k) for k in (1, 2, 2)]
            defect = direct_sum_defect(parts)
            perm = [parts[i] for i in RNG.permutation(3)]
            assert direct_sum_defect(perm) == pytest.approx(defect, rel=1e-9)
            concat = np.hstack([p.basis for p in parts])
            rank = np.linalg.matrix_rank(concat, tol=1e-10)
            assert (defect < 1e-10) == (rank < concat.shape[1])

    def test_zero_part_is_neutral(self):
        parts = [e(4, 0), Subspace.zero(4), e(4, 1)]
        assert direct_sum_defect(parts) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# intersect
# ---------------------------------------------------------------------------

class TestIntersect:
    def test_plane_plane_common_line(self):
        got = intersect(e(3, 0, 1), e(3, 1, 2))
        assert got.rank == 1
        assert grassmann_distance(got, e(3, 1)) < 1e-12

    def test_disjoint_lines(self):
        assert intersect(e(3, 0), e(3, 1)).rank == 0

    def test_no_spurious_second_vector(self):
        # oracle: principal cosines of the 2x2 Gram; second cosine is
        # cos(angle((e1+e2+e3)-ish dir, e2)) far below the cutoff
        v = Subspace.from_spanning(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))
        w = e(3, 0, 1)
        cos2 = np.linalg.svd((v.basis.T @ w.basis), compute_uv=False)
        assert cos2[0] > 1 - 1e-12 and cos2[1] < 0.95
        got = intersect(v, w)
        assert got.rank == 1
        assert grassmann_distance(got, e(3, 0)) < 1e-10

    @pytest.mark.parametrize("d", range(3, 10))
    def test_transverse_pairs_match_null_space_oracle(self, d):
        # V + W = R^d: the intersection is {V c : V c = W c'}, the V-half of
        # the null space of [V | -W], of dimension r = a + b - d
        rng = np.random.default_rng(d)
        for a in range(1, d):
            for b in range(d - a + 1, d):
                v, w = random_subspace(d, a, rng), random_subspace(d, b, rng)
                null = scipy.linalg.null_space(np.hstack([v.basis, -w.basis]))
                assert null.shape[1] == a + b - d
                got = intersect(v, w)
                assert got.rank == a + b - d
                oracle = Subspace.from_spanning(v.basis @ null[:a])
                assert grassmann_distance(got, oracle) <= 1e-12

    def test_rank_is_the_transversal_dimension(self):
        # two 3-spaces of R^4 sharing a plane: r = 2, that plane
        got = intersect(e(4, 0, 1, 2), e(4, 0, 1, 3))
        assert got.rank == 2
        assert grassmann_distance(got, e(4, 0, 1)) < 1e-15
        # two planes of R^4 sharing a line are not transverse: r = 0
        assert intersect(e(4, 0, 1), e(4, 0, 2)).rank == 0

    def test_full_space_shortcut(self):
        v = random_subspace(4, 2)
        assert intersect(v, Subspace.full(4)) is v
        assert intersect(Subspace.full(4), v) is v


# ---------------------------------------------------------------------------
# quotient_project
# ---------------------------------------------------------------------------

class TestQuotientProject:
    def test_line_mod_line(self):
        got = quotient_project(e(3, 1), e(3, 0), Subspace.full(3))
        assert got.ambient_dim == 2 and got.rank == 1

    def test_rank_drop_by_intersection(self):
        got = quotient_project(e(3, 0, 1), e(3, 0), Subspace.full(3))
        assert got.rank == 1

    def test_gram_schmidt_oracle(self):
        # (e1+e2) mod e1 should be the e2 direction of the quotient:
        # oracle by explicit Gram-Schmidt of the pencil basis
        v = span([1, 1, 0], d=3)
        got = quotient_project(v, e(3, 0), Subspace.full(3))
        comp = np.eye(3)[:, 1:]  # complement basis of e1 in R^3 is (e2, e3)
        oracle = comp.T @ np.array([1.0, 1.0, 0.0])
        oracle = oracle / np.linalg.norm(oracle)
        assert abs(abs(got.basis[:, 0] @ oracle) - 1.0) < 1e-12

    def test_containment_violation(self):
        with pytest.raises(PreconditionError):
            quotient_project(e(3, 2), e(3, 0), e(3, 0, 1))
        with pytest.raises(PreconditionError):
            quotient_project(e(3, 0), e(3, 0), Subspace.full(3))


# ---------------------------------------------------------------------------
# grassmann_distance
# ---------------------------------------------------------------------------

class TestAngles:
    def test_coincident(self):
        assert grassmann_distance(e(3, 0), e(3, 0)) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert grassmann_distance(e(3, 0), e(3, 1)) == pytest.approx(1.0)

    def test_45_degrees(self):
        w = span([1, 1], d=2)
        assert grassmann_distance(e(2, 0), w) == pytest.approx(np.sin(np.pi / 4), rel=1e-12)

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            grassmann_distance(e(3, 0), e(3, 0, 1))

    def test_metric_axioms_random_triples(self):
        for _ in range(50):
            x, y, z = (random_subspace(5, 2) for _ in range(3))
            dxy = grassmann_distance(x, y)
            assert dxy == pytest.approx(grassmann_distance(y, x), abs=1e-12)
            assert dxy <= grassmann_distance(x, z) + grassmann_distance(z, y) + 1e-9

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_subspace_angles(self, d, data):
        # oracle: sine of the largest principal angle from scipy, including
        # nearly equal subspaces, where sqrt(1 - cos^2) would cancel
        k = data.draw(st.integers(min_value=1, max_value=d))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1.0, 1e-3, 1e-8, 0.0]))
        x = rng.normal(size=(d, k))
        y = x + scale * rng.normal(size=(d, k))
        x, y = Subspace.from_spanning(x), Subspace.from_spanning(y)
        oracle = np.sin(scipy.linalg.subspace_angles(x.basis, y.basis)[0])
        assert grassmann_distance(x, y) == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# svd / eig_by_modulus
# ---------------------------------------------------------------------------

class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(4))
        assert np.allclose(s, 1.0)

    def test_diagonal(self):
        _, s, _ = svd(np.diag([4.0, 2.0, 0.125]))
        assert np.allclose(s, [4.0, 2.0, 0.125])

    def test_constructed_factors(self):
        q = random_orthogonal(3)
        _, s, _ = svd(q @ np.diag([3.0, 1.0, 1 / 3.0]))
        assert np.allclose(s, [3.0, 1.0, 1 / 3.0], rtol=1e-12)

    def test_unit_det_product(self):
        a = RNG.normal(size=(4, 4))
        a /= abs(np.linalg.det(a)) ** 0.25
        _, s, _ = svd(a)
        assert np.prod(s) == pytest.approx(abs(np.linalg.det(a)), rel=1e-8)

    def test_stack_matches_per_matrix(self):
        stack = RNG.normal(size=(5, 4, 4))
        u, s, vt = svd(stack)
        for i, a in enumerate(stack):
            _, si, _ = svd(a)
            assert np.allclose(s[i], si, rtol=1e-13)
            assert np.allclose(u[i] @ np.diag(s[i]) @ vt[i], a, atol=1e-12)

    def test_non_square_stack_rejected(self):
        with pytest.raises(DimensionError):
            svd(np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("rel,fails", [(1e-6, True), (1e-14, False)])
    def test_reconstruction_residual_checked_per_matrix(self, monkeypatch,
                                                        rel, fails):
        # the factors returned are those of a stack whose third matrix is
        # scaled by 1 + rel: a relative error of rel in its reconstruction
        stack = np.random.default_rng(5).normal(size=(4, 6, 6))
        exact_svd = np.linalg.svd

        def perturbed_svd(a, *args, **kwargs):
            b = np.array(a, copy=True)
            b[2] *= 1.0 + rel
            return exact_svd(b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", perturbed_svd)
        if fails:
            with pytest.raises(NumericError):
                svd(stack)
        else:
            svd(stack)


FG_GAMMA = np.array([[4.0, 4.0, 1.0], [2.0, 3.0, 1.0], [1.0, 2.0, 1.0]])


class TestEig:
    def test_diagonal(self):
        dec = eig_by_modulus(np.diag([2.0, 1.0, 0.5]))
        assert np.allclose([v.real for v in dec.values], [2, 1, 0.5])
        assert [c.size for c in dec.clusters] == [1, 1, 1]

    def test_cubic_with_known_roots(self):
        # oracle: lambda^3 - 8 lambda^2 + 8 lambda - 1 factors as
        # (lambda - 1)(lambda^2 - 7 lambda + 1)
        roots = np.sort(np.roots([1.0, -8.0, 8.0, -1.0]))[::-1]
        assert roots[0] == pytest.approx((7 + 3 * np.sqrt(5)) / 2, rel=1e-12)
        dec = eig_by_modulus(FG_GAMMA)
        got = np.array([v.real for v in dec.values])
        assert np.allclose(got, roots, rtol=1e-9)
        assert np.allclose(np.array([v.imag for v in dec.values]), 0.0, atol=1e-9)

    def test_rotation_complex_pair_one_cluster(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        dec = eig_by_modulus(rot)
        assert len(dec.clusters) == 1
        assert dec.clusters[0].size == 2
        vals = sorted(dec.values, key=lambda v: v.imag)
        assert vals[0] == pytest.approx(-1j, abs=1e-12)
        assert vals[1] == pytest.approx(1j, abs=1e-12)

    def test_det_and_trace_consistency(self):
        for _ in range(20):
            a = RNG.normal(size=(5, 5))
            dec = eig_by_modulus(a)
            prod = np.prod(np.array(dec.values))
            assert prod.real == pytest.approx(np.linalg.det(a), rel=1e-8)
            assert sum(dec.values).real == pytest.approx(np.trace(a), rel=1e-8)

    def test_cluster_bases_invariant(self):
        a = FG_GAMMA
        dec = eig_by_modulus(a)
        for cluster in dec.clusters:
            p = cluster.basis
            resid = np.linalg.norm(a @ p - p @ (p.T @ a @ p), 2)
            assert resid <= 1e-8 * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("angle,fails", [(1e-6, True), (1e-14, False)])
    def test_invariance_residual_checked(self, monkeypatch, angle, fails):
        # turn two eigenvectors by a plane rotation: each column then spans
        # an invariant line only up to ``angle``
        exact_eig = np.linalg.eig

        def turned_eig(a):
            vals, vecs = exact_eig(a)
            c, s = np.cos(angle), np.sin(angle)
            vecs = vecs.copy()
            vecs[..., [0, -1]] = vecs[..., [0, -1]] @ np.array([[c, -s], [s, c]])
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", turned_eig)
        if fails:
            with pytest.raises(NumericError):
                eig_by_modulus(FG_GAMMA)
        else:
            eig_by_modulus(FG_GAMMA)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_subspace_requires_orthonormal(self):
        with pytest.raises(InputError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("index", [-1, 3, 5])
    def test_coordinate_rejects_indices_outside_0_to_d_minus_1(self, index):
        # numpy took -1 as the last column, e_3
        with pytest.raises(InputError, match="outside 0..2"):
            Subspace.coordinate(3, 0, index)

    def test_coordinate_without_indices_is_the_zero_space(self):
        assert Subspace.coordinate(3).basis.shape == (3, 0)

    def test_flag_containment(self):
        PartialFlag((e(3, 0), e(3, 0, 1)))
        with pytest.raises(PreconditionError):
            PartialFlag((e(3, 2), e(3, 0, 1)))

    def test_flag_ranks_strictly_increase(self):
        with pytest.raises(InputError):
            PartialFlag((e(3, 0), e(3, 1)))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_subspace_rank_bounds(self, d, k):
        if k > d:
            with pytest.raises(DimensionError):
                Subspace(np.zeros((d, k)))
        else:
            rng = np.random.default_rng(d * 7 + k)
            s = Subspace.from_spanning(rng.normal(size=(d, k))) if k else Subspace.zero(d)
            assert s.rank == k


# ---------------------------------------------------------------------------
# cross-op invariants
# ---------------------------------------------------------------------------

def test_wedge_equivariance_up_to_scalings():
    # A * parts changes each wedge by det(A) times per-part scalings;
    # ratios of wedges with repeated parts are exactly invariant.
    d = 4
    v1, v4 = random_subspace(d, 1), random_subspace(d, 1)
    w2, w3 = random_subspace(d, 3), random_subspace(d, 3)
    a = RNG.normal(size=(d, d))
    a /= abs(np.linalg.det(a)) ** (1 / d)

    def ratio(p1, q2, q3, p4):
        return (wedge_volume([p1, q3]) / wedge_volume([p1, q2])
                * wedge_volume([p4, q2]) / wedge_volume([p4, q3]))

    before = ratio(v1, w2, w3, v4)
    after = ratio(v1.apply(a), w2.apply(a), w3.apply(a), v4.apply(a))
    assert after == pytest.approx(before, rel=1e-9)
