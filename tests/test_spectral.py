import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import spectral
from anosovlab.core_linalg import (
    Subspace,
    eig_by_modulus,
    grassmann_distance,
    spectrum,
)
from anosovlab.errors import GapError, NumericError
from anosovlab.groups import Word, evaluate
from anosovlab.representations import fuchsian_locus, punctured_torus_reference
from anosovlab.spectral import (
    attracting_space,
    eigenvalue_ratios,
    length_functions,
    singular_gap,
    weight_period,
)

RNG = np.random.default_rng(1123)

FG_GAMMA = np.array([[4.0, 4.0, 1.0], [2.0, 3.0, 1.0], [1.0, 2.0, 1.0]])
LAMBDA1 = (7 + 3 * np.sqrt(5)) / 2


def random_orthogonal(d, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


# every reader of the eigenvalue record, at index 1
RECORD_READERS = {
    "eig_by_modulus": eig_by_modulus,
    "attracting_space": lambda m: attracting_space(m, 1),
    "eigenvalue_ratios": lambda m: eigenvalue_ratios(m, 1),
    "length_functions": lambda m: length_functions(m, 1),
    "weight_period": lambda m: weight_period(m, 1),
}


class TestSpectrum:
    def test_sorted_by_modulus_then_real_then_imaginary(self):
        a = np.diag([0.0, 0.0, -2.0, 0.5, 2.0])
        a[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]    # eigenvalues +-i
        spec = spectrum(a)
        assert np.allclose(spec.values, [2.0, -2.0, 1j, -1j, 0.5], atol=1e-15)
        assert spec.norm == pytest.approx(2.0)
        assert spec.entries is a

    def test_record_returned_unchanged(self):
        spec = spectrum(FG_GAMMA)
        assert spectrum(spec) is spec
        assert not spec.values.flags.writeable

    @pytest.mark.parametrize("reader", sorted(RECORD_READERS))
    def test_reader_gives_the_same_from_the_record(self, reader):
        fn = RECORD_READERS[reader]
        from_matrix, from_record = fn(FG_GAMMA), fn(spectrum(FG_GAMMA))
        if isinstance(from_matrix, Subspace):
            assert np.array_equal(from_matrix.basis, from_record.basis)
        elif reader == "eig_by_modulus":
            assert from_matrix.values == from_record.values
        else:
            assert from_matrix == from_record

    @pytest.mark.parametrize("reader", sorted(RECORD_READERS))
    @pytest.mark.parametrize("scale,fails", [(1 + 1e-3, True), (1 + 1e-14, False)])
    def test_characteristic_residual_checked(self, monkeypatch, reader, scale,
                                             fails):
        exact = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: exact(a) * scale)
        if fails:
            with pytest.raises(NumericError):
                RECORD_READERS[reader](FG_GAMMA)
        else:
            RECORD_READERS[reader](FG_GAMMA)

    def test_residual_error_names_the_first_failing_eigenvalue(
            self, monkeypatch):
        # the two smaller eigenvalues of FG_GAMMA (1 and 7 - 3 sqrt 5) are
        # moved off; the error reports the first of them in sorted order
        exact = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals",
            lambda a: np.where(np.abs(exact(a)) < 5, exact(a) * 1.001,
                               exact(a)))
        with pytest.raises(NumericError) as exc:
            spectrum(FG_GAMMA)
        lam = exc.value.diagnostics["eigenvalue"]
        assert lam == pytest.approx(1.001, rel=1e-9)
        assert exc.value.diagnostics["residual"] == pytest.approx(
            abs(np.linalg.det(FG_GAMMA - lam * np.eye(3))), rel=1e-9)

    @pytest.mark.parametrize("fn", [attracting_space, eigenvalue_ratios,
                                    length_functions, weight_period])
    @pytest.mark.parametrize("k", [0, 3])
    def test_bad_index_decomposes_nothing(self, monkeypatch, fn, k):
        def no_spectrum(m):
            raise AssertionError("decomposed before checking the index")

        monkeypatch.setattr(spectral, "spectrum", no_spectrum)
        with pytest.raises(GapError):
            fn(FG_GAMMA, k)

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_readers_agree_on_random_matrices(self, d, seed):
        m = np.random.default_rng(seed).normal(size=(d, d))
        assert np.array_equal(spectrum(m).values,
                              np.array(eig_by_modulus(m).values))
        for k in range(1, d):
            lengths = length_functions(m, k)
            period, _ = weight_period(m, k)
            ratio = eigenvalue_ratios(m, k).lambda_ratio_modulus
            # moduli of a complex pair tie exactly: a length can be 0
            assert np.log(abs(period)) == pytest.approx(
                lengths.weight_length, rel=1e-10, abs=1e-12)
            assert np.log(ratio) == pytest.approx(
                lengths.root_length, rel=1e-10, abs=1e-12)


class TestSingularGap:
    def test_identity(self):
        assert singular_gap(np.eye(4), 2) == pytest.approx(1.0)

    def test_diagonal(self):
        assert singular_gap(np.diag([4.0, 2.0, 0.125]), 1) == pytest.approx(2.0)

    def test_fg_gamma_consistent_with_unit_det(self):
        # oracle: product of singular values is |det| = 1
        s = np.linalg.svd(FG_GAMMA, compute_uv=False)
        assert np.prod(s) == pytest.approx(1.0, rel=1e-10)
        assert singular_gap(FG_GAMMA, 1) == pytest.approx(s[0] / s[1], rel=1e-12)

    def test_bad_index(self):
        with pytest.raises(GapError):
            singular_gap(np.eye(3), 3)
        with pytest.raises(GapError):
            singular_gap(np.eye(3), 0)


class TestAttractingSpace:
    def test_diagonal(self):
        s = attracting_space(np.diag([4.0, 2.0, 0.125]), 2)
        assert grassmann_distance(s, Subspace.coordinate(3, 0, 1)) < 1e-12

    def test_triangular_2x2_eigenline_oracle(self):
        # oracle: eigenvector of [[2, 1], [0, 0.5]] for 2 is e1
        a = np.array([[2.0, 1.0], [0.0, 0.5]])
        s = attracting_space(a, 1)
        assert grassmann_distance(s, Subspace.coordinate(2, 0)) < 1e-10

    def test_fg_gamma_top_eigenline(self):
        # oracle: eigenvector for (7+3*sqrt5)/2 from numpy.linalg.eig
        vals, vecs = np.linalg.eig(FG_GAMMA)
        idx = int(np.argmax(np.abs(vals)))
        oracle = Subspace.from_spanning(vecs[:, idx].real)
        s = attracting_space(FG_GAMMA, 1)
        assert grassmann_distance(s, oracle) < 1e-10

    def test_invariance(self):
        s = attracting_space(FG_GAMMA, 1)
        assert grassmann_distance(s, s.apply(FG_GAMMA)) < 1e-8

    def test_modulus_tie_raises(self):
        with pytest.raises(GapError):
            attracting_space(np.diag([2.0, 2.0, 0.25]), 1)

    def test_leading_complex_pair_gives_rotation_plane(self):
        # oracle: rotation-scaling block on span(q0, q1), eigenvalue 0.25 on q2
        q = random_orthogonal(3)
        block = np.zeros((3, 3))
        block[:2, :2] = 2.0 * np.array([[np.cos(0.7), -np.sin(0.7)],
                                        [np.sin(0.7), np.cos(0.7)]])
        block[2, 2] = 0.25
        a = q @ block @ q.T
        s = attracting_space(a, 2)
        assert grassmann_distance(s, Subspace(q[:, :2])) < 1e-12
        with pytest.raises(GapError):
            attracting_space(a, 1)

    def test_fuchsian_7_1_codim_one_matches_left_eigenvector(self):
        # eigenvalue moduli span ~1.5e9; the top-7 space is the kernel of
        # the left eigenvector of the smallest-modulus eigenvalue
        rep = fuchsian_locus((7, 1), punctured_torus_reference())
        m = evaluate(rep, Word((2, -1)))
        vals, left = np.linalg.eig(m.T)
        y = left[:, int(np.argmin(np.abs(vals)))].real
        oracle = Subspace(scipy.linalg.null_space(y[None, :]))
        s = attracting_space(m, 7)
        assert grassmann_distance(s, oracle) < 1e-8

    def test_repelling_via_inverse(self):
        s = attracting_space(np.linalg.inv(FG_GAMMA), 1)
        vals, vecs = np.linalg.eig(FG_GAMMA)
        idx = int(np.argmin(np.abs(vals)))
        assert grassmann_distance(s, Subspace.from_spanning(vecs[:, idx].real)) < 1e-10


class TestEigenvalueRatios:
    def test_signed_positive(self):
        g = eigenvalue_ratios(np.diag([2.0, 1.0, 0.5]), 1)
        assert g.lambda_ratio_signed == pytest.approx(2.0)
        assert g.lambda_ratio_modulus == pytest.approx(2.0)

    def test_signed_negative(self):
        g = eigenvalue_ratios(np.diag([2.0, -1.0, -0.5]), 1)
        assert g.lambda_ratio_signed == pytest.approx(-2.0)
        assert g.lambda_ratio_modulus == pytest.approx(2.0)

    def test_fg_gamma(self):
        g = eigenvalue_ratios(FG_GAMMA, 1)
        assert g.lambda_ratio_signed == pytest.approx(LAMBDA1, rel=1e-9)

    def test_complex_pair_no_signed_value(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]]) * 2.0
        block = np.zeros((3, 3))
        block[:2, :2] = rot
        block[2, 2] = 0.25
        g = eigenvalue_ratios(block, 2)
        assert g.lambda_ratio_signed is None
        assert g.lambda_ratio_modulus == pytest.approx(8.0)

    def test_signed_modulus_consistency(self):
        for _ in range(20):
            a = RNG.normal(size=(4, 4))
            g = eigenvalue_ratios(a, 2)
            if g.lambda_ratio_signed is not None:
                assert abs(g.lambda_ratio_signed) == pytest.approx(
                    g.lambda_ratio_modulus, rel=1e-9)


class TestLengthFunctions:
    def test_diagonal(self):
        lp = length_functions(np.diag([2.0, 1.0, 0.5]), 1)
        assert lp.weight_length == pytest.approx(np.log(4.0))
        assert lp.root_length == pytest.approx(np.log(2.0))

    def test_identity(self):
        lp = length_functions(np.eye(3), 1)
        assert lp.weight_length == pytest.approx(0.0, abs=1e-12)
        assert lp.root_length == pytest.approx(0.0, abs=1e-12)

    def test_fg_gamma(self):
        # oracle: lambda_2 = 1 and det = 1 force lambda_3 = 1/lambda_1
        lp = length_functions(FG_GAMMA, 1)
        assert lp.weight_length == pytest.approx(2 * np.log(LAMBDA1), rel=1e-9)
        assert lp.root_length == pytest.approx(np.log(LAMBDA1), rel=1e-9)

    def test_weight_at_least_root(self):
        for _ in range(30):
            a = RNG.normal(size=(5, 5))
            if abs(np.linalg.det(a)) < 1e-6:
                continue
            for k in range(1, 5):
                lp = length_functions(a, k)
                assert lp.weight_length >= lp.root_length - 1e-9

    def test_inverse_symmetry(self):
        for _ in range(10):
            a = RNG.normal(size=(4, 4))
            a /= abs(np.linalg.det(a)) ** 0.25
            for k in (1, 2, 3):
                w = length_functions(a, k).weight_length
                wi = length_functions(np.linalg.inv(a), k).weight_length
                assert w == pytest.approx(wi, rel=1e-9, abs=1e-9)

    def test_singular_matrix(self):
        with pytest.raises(NumericError):
            length_functions(np.diag([1.0, 0.0]), 1)


class TestConvergenceToAttractor:
    def test_cartan_power_converges(self):
        # oracle: the top left singular vector of gamma^n (the Cartan
        # attractor) tends to the attracting line
        target = attracting_space(FG_GAMMA, 1)
        dists = []
        p = np.eye(3)
        for _ in range(1, 20):
            p = FG_GAMMA @ p
            p /= np.linalg.norm(p, 2)
            u = np.linalg.svd(p)[0]
            dists.append(grassmann_distance(Subspace(u[:, :1]), target))
        dists = np.array(dists)
        # decreasing until the accuracy floor of the reference subspace
        assert np.all(np.diff(dists) < 1e-13)
        logs = np.log(np.maximum(dists, 1e-17))
        slope = np.polyfit(np.arange(1, 20), logs, 1)[0]
        assert slope < -0.1
