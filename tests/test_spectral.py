import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import spectral
from anosovlab.ball import BoundaryAtlas
from anosovlab.core_linalg import (
    Subspace,
    _invariant_bases,
    _orthonormal_basis,
    _spectra,
    eig_by_modulus,
    grassmann_distance,
    spectrum,
)
from anosovlab.errors import GapError, NumericError
from anosovlab.groups import Word, evaluate, words_of_length
from anosovlab.representations import (
    fg_rep,
    fuchsian_locus,
    punctured_torus_reference,
)
from anosovlab.spectral import (
    attracting_space,
    eigenvalue_ratios,
    length_functions,
    singular_gap,
    singular_gaps,
)

RNG = np.random.default_rng(1123)

FG_GAMMA = np.array([[4.0, 4.0, 1.0], [2.0, 3.0, 1.0], [1.0, 2.0, 1.0]])
LAMBDA1 = (7 + 3 * np.sqrt(5)) / 2
REF = punctured_torus_reference()


def schur_attracting_space(m, k):
    """Oracle: the attracting space from a real Schur form reordered (LAPACK
    trsen) so that the eigenvalues of modulus above sqrt(|lambda_k|
    |lambda_(k+1)|) lead.  None when the reordering picks other than k
    eigenvalues: the gap is below the resolution of the Schur form."""
    moduli = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    threshold = np.sqrt(moduli[k - 1] * moduli[k])
    _, z, sdim = scipy.linalg.schur(
        m, output="real", sort=lambda re, im: bool(np.hypot(re, im) > threshold))
    return Subspace(z[:, :k]) if sdim == k else None


def random_orthogonal(d, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


# every reader of the eigenvalue record, at index 1
RECORD_READERS = {
    "eig_by_modulus": eig_by_modulus,
    "attracting_space": lambda m: attracting_space(m, 1),
    "eigenvalue_ratios": lambda m: eigenvalue_ratios(m, 1),
    "length_functions": lambda m: length_functions(m, 1),
}


class TestSpectrum:
    def test_sorted_by_modulus_then_real_then_imaginary(self):
        a = np.diag([0.0, 0.0, -2.0, 0.5, 2.0])
        a[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]    # eigenvalues +-i
        spec = spectrum(a)
        assert np.allclose(spec.values, [[2.0, -2.0, 1j, -1j, 0.5]], atol=1e-15)
        assert spec.norms[0] == pytest.approx(2.0)
        assert spec.entries.shape == (1, 5, 5)
        assert np.shares_memory(spec.entries, a)

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
        exact = np.linalg.eig

        def scaled_eig(a):
            vals, vecs = exact(a)
            return vals * scale, vecs

        monkeypatch.setattr(np.linalg, "eig", scaled_eig)
        if fails:
            with pytest.raises(NumericError):
                RECORD_READERS[reader](FG_GAMMA)
        else:
            RECORD_READERS[reader](FG_GAMMA)

    def test_residual_error_names_the_first_failing_eigenvalue(
            self, monkeypatch):
        # the two smaller eigenvalues of FG_GAMMA (1 and 7 - 3 sqrt 5) are
        # moved off; the error reports the first of them in sorted order
        exact = np.linalg.eig

        def moved_eig(a):
            vals, vecs = exact(a)
            return np.where(np.abs(vals) < 5, vals * 1.001, vals), vecs

        monkeypatch.setattr(np.linalg, "eig", moved_eig)
        with pytest.raises(NumericError) as exc:
            spectrum(FG_GAMMA)
        lam = exc.value.diagnostics["eigenvalue"]
        assert lam == pytest.approx(1.001, rel=1e-9)
        assert exc.value.diagnostics["residual"] == pytest.approx(
            abs(np.linalg.det(FG_GAMMA - lam * np.eye(3))), rel=1e-9)

    @pytest.mark.parametrize("fn", [attracting_space, eigenvalue_ratios,
                                    length_functions])
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
        assert np.array_equal(spectrum(m).values[0],
                              np.array(eig_by_modulus(m).values))
        for k in range(1, d):
            lengths = length_functions(m, k)
            columns = spectral._eigenvalue_columns(spectrum(m).values, k)
            ratio = eigenvalue_ratios(m, k).lambda_ratio_modulus
            # moduli of a complex pair tie exactly: a length can be 0
            assert np.log(abs(columns.period[0])) == pytest.approx(
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

    def test_row_blocks_change_no_value(self):
        # 3 full blocks of 8x8 matrices and a partial fourth
        step = spectral.SVD_BLOCK // 64
        stack = RNG.normal(size=(3 * step + 37, 8, 8))
        indices = (1, 3, 7)
        one_by_one = np.stack([singular_gaps(m, indices) for m in stack])
        assert np.array_equal(singular_gaps(stack, indices), one_by_one)

    @pytest.mark.parametrize("block", [spectral.SVD_BLOCK, 16 * 5])
    def test_underflow_names_its_row_and_index(self, monkeypatch, block):
        # sigma_3 = 1e-301 in a later block (of 4x4 matrices: 512 rows at
        # SVD_BLOCK, 5 at 80 entries); a later row underflows too
        stack = RNG.normal(size=(2 * (spectral.SVD_BLOCK // 16) + 9, 4, 4))
        row = spectral.SVD_BLOCK // 16 + 3
        stack[row] = np.diag([2.0, 1.0, 1e-301, 1e-302])
        stack[-1] = np.diag([2.0, 1e-303, 1e-304, 1e-305])
        monkeypatch.setattr(spectral, "SVD_BLOCK", block)
        with pytest.raises(NumericError, match=(
                rf"sigma_3 = 1e-301 of row {row} underflows at gap index 2")
                ) as info:
            singular_gaps(stack, (2, 3))
        assert info.value.diagnostics == {"row": row, "index": 2}

    def test_reconstruction_residual_checked_per_matrix(self, monkeypatch):
        # the last block's last matrix is decomposed scaled by 1 + 1e-6
        step = spectral.SVD_BLOCK // 36
        stack = RNG.normal(size=(2 * step + 5, 6, 6))
        exact_svd = np.linalg.svd

        def perturbed_svd(a, *args, **kwargs):
            b = np.array(a, copy=True)
            b[(b == stack[-1]).all(axis=(-2, -1))] *= 1.0 + 1e-6
            return exact_svd(b, *args, **kwargs)

        singular_gaps(stack, (1,))
        monkeypatch.setattr(np.linalg, "svd", perturbed_svd)
        with pytest.raises(NumericError, match="reconstruction residual"):
            singular_gaps(stack, (1,))


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

    def test_zero_eigenvalue_after_the_selection_is_a_gap(self):
        # |lambda_1| / |lambda_2| is infinite, as the collar rule reads it;
        # the clusters of eig_by_modulus have the same gaps
        m = np.diag([2.0, 0.0, 0.0])
        m[1, 2] = 1.0
        s = attracting_space(m, 1)
        assert grassmann_distance(s, Subspace.coordinate(3, 0)) < 1e-15
        assert [c.size for c in eig_by_modulus(m).clusters] == [1, 2]

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


def mp_attracting_space(m, k, digits=40):
    """Oracle: the span of the k top eigenvectors at ``digits`` digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        vals, vecs = mpmath.eig(mpmath.matrix(m.tolist()))
        top = sorted(range(len(vals)), key=lambda j: -abs(vals[j]))[:k]
        assert all(abs(mpmath.im(vals[j])) <= 1e-25 * abs(vals[j]) for j in top)
        basis = [[float(mpmath.re(vecs[r, j])) for j in top]
                 for r in range(len(m))]
    return Subspace.from_spanning(np.array(basis))


@st.composite
def block_spectra(draw):
    """(M, moduli): M = P B P^-1 with B real 1x1 and rotation-scaling 2x2
    blocks of distinct moduli at least a factor e^0.05 apart, and P an
    orthogonal matrix times a unit upper-triangular one."""
    d = draw(st.integers(min_value=2, max_value=8))
    pairs = draw(st.integers(min_value=0, max_value=d // 2))
    logs = draw(st.lists(st.integers(min_value=-40, max_value=40),
                         min_size=d - pairs, max_size=d - pairs, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, moduli = [], []
    for i, log in enumerate(logs):
        r = np.exp(0.05 * log)
        if i < pairs:
            t = rng.uniform(0.2, np.pi - 0.2)
            blocks.append(r * np.array([[np.cos(t), -np.sin(t)],
                                        [np.sin(t), np.cos(t)]]))
            moduli += [r, r]
        else:
            blocks.append(np.array([[r * rng.choice([-1.0, 1.0])]]))
            moduli.append(r)
    b = np.zeros((d, d))
    i = 0
    for block in blocks:
        n = len(block)
        b[i:i + n, i:i + n] = block
        i += n
    p = random_orthogonal(d, rng) @ (
        np.eye(d) + np.triu(rng.uniform(-0.5, 0.5, (d, d)), 1))
    return p @ b @ np.linalg.inv(p), np.sort(moduli)[::-1]


class TestAgainstSchur:
    """The attracting space from the record's eigenvectors against the
    reordered real Schur form: sine distance <= 1e-9."""

    @pytest.mark.parametrize("partition,dims,max_length,undecided", [
        # the two eigenvalues 1 of (5,1) tie: at k = 3 there is no gap
        # (GapError), or one of 2.2e-8 that the Schur reordering cannot see
        ((5, 1), (1, 2, 3, 4), 4, [("aBAA", 3), ("bABB", 3)]),
        ((4, 2), (1, 3, 5), 4, []),
        ((3, 3), (2, 4), 4, []),       # a repeated eigenvalue in the selection
        ((7, 1), (1, 2), 3, []),
        (None, (1, 2), 4, []),         # fg(1)
    ])
    def test_atlas_words(self, partition, dims, max_length, undecided):
        rep = fg_rep(1.0) if partition is None else fuchsian_locus(partition, REF)
        atlas = BoundaryAtlas(rep, max_length)
        compared, missed = 0, []
        for w in atlas.words:
            m = atlas.ball.images[atlas.ball.row(w)]
            for k in dims:
                try:
                    space = attracting_space(m, k)
                except GapError:
                    continue
                oracle = schur_attracting_space(m, k)
                if oracle is None:
                    missed.append((str(w), k))
                    continue
                assert grassmann_distance(space, oracle) <= 1e-9, (str(w), k)
                compared += 1
        assert sorted(missed) == sorted(undecided)
        assert compared >= len(atlas)

    def test_seven_one_at_length_four_as_accurate_as_schur(self):
        # eigenvalue moduli of these words span up to 1e7 while their
        # norms reach 2e7; both methods are off the 40-digit oracle by up
        # to 4e-8 there, so where they differ by more than 1e-9 the one
        # from eigenvectors is held to twice the error of the Schur form
        atlas = BoundaryAtlas(fuchsian_locus((7, 1), REF), 4)
        far = []
        for w in atlas.words:
            m = atlas.ball.images[atlas.ball.row(w)]
            for k in (1, 2):
                space, oracle = attracting_space(m, k), schur_attracting_space(m, k)
                if grassmann_distance(space, oracle) <= 1e-9:
                    continue
                far.append((str(w), k))
                truth = mp_attracting_space(m, k)
                assert grassmann_distance(space, truth) <= 2 * grassmann_distance(
                    oracle, truth), (str(w), k)
        assert len(far) == 10

    @given(block_spectra())
    @settings(max_examples=80, deadline=None)
    def test_random_block_spectra(self, case):
        m, moduli = case
        d = len(m)
        vals = np.linalg.eigvals(m)
        vals = vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]
        assert np.array_equal(spectrum(m).values[0], vals)
        for k in range(1, d):
            if np.isclose(moduli[k - 1], moduli[k], rtol=1e-6):
                with pytest.raises(GapError):   # k splits a complex pair
                    attracting_space(m, k)
                continue
            oracle = schur_attracting_space(m, k)
            assert oracle is not None
            assert grassmann_distance(attracting_space(m, k), oracle) <= 1e-9

    def test_jordan_block_inside_the_selection(self):
        # oracle: the generalized eigenspace of 2 is span(e1, e2); its
        # eigenvectors alone span only e1
        m = np.diag([2.0, 2.0, 0.25])
        m[0, 1] = 1.0
        space = attracting_space(m, 2)
        assert grassmann_distance(space, Subspace.coordinate(3, 0, 1)) < 1e-15
        assert grassmann_distance(space, schur_attracting_space(m, 2)) < 1e-15

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7])
    def test_conjugated_jordan_block(self, size):
        # rounding splits the eigenvalue 2 of J_size(2) by about
        # eps^(1/size) and leaves nearly parallel eigenvectors; the class
        # is still one generalized eigenspace, span(q_1 .. q_size)
        rng = np.random.default_rng(size)
        m = np.diag([2.0] * size + [0.5]) + np.diag([1.0] * (size - 1) + [0.0], 1)
        for _ in range(5):
            q = random_orthogonal(size + 1, rng)
            a = q @ m @ q.T
            space = attracting_space(a, size)
            assert grassmann_distance(space, Subspace(q[:, :size])) < 1e-12
            assert grassmann_distance(space, schur_attracting_space(a, size)) < 1e-9

    def test_three_by_three_jordan_block_inside_five_by_five(self):
        m = np.diag([3.0, 3.0, 3.0, 1.0, 0.5])
        m[0, 1] = m[1, 2] = 1.0
        m[0, 4] = m[2, 3] = 0.7
        space = attracting_space(m, 3)
        assert grassmann_distance(space, Subspace.coordinate(5, 0, 1, 2)) < 1e-15
        with pytest.raises(GapError):
            attracting_space(m, 2)
        assert len(eig_by_modulus(m).clusters) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_two_distinct_jordan_blocks_in_one_selection(self, seed):
        # J_2(3) + J_3(2) + (0.5): the rounding-split eigenvalues near 3 and
        # near 2 are all defective and deflate as one set
        m = np.diag([3.0, 3.0, 2.0, 2.0, 2.0, 0.5])
        m[0, 1] = m[2, 3] = m[3, 4] = 1.0
        q = random_orthogonal(6, np.random.default_rng(seed))
        a = q @ m @ q.T
        for k in (2, 5):
            space = attracting_space(a, k)
            assert grassmann_distance(space, Subspace(q[:, :k])) < 1e-12
            assert grassmann_distance(space, schur_attracting_space(a, k)) < 1e-9

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_complex_jordan_block(self, size, seed):
        # the real Jordan form of a block J_size(1.5 + 2i) and its conjugate:
        # blocks C on the diagonal and I above it, then (0.5)
        c = np.array([[1.5, -2.0], [2.0, 1.5]])
        m = np.zeros((2 * size + 1, 2 * size + 1))
        for i in range(size):
            m[2 * i:2 * i + 2, 2 * i:2 * i + 2] = c
            if i:
                m[2 * i - 2:2 * i, 2 * i:2 * i + 2] = np.eye(2)
        m[-1, -1] = 0.5
        q = random_orthogonal(2 * size + 1, np.random.default_rng(seed))
        a = q @ m @ q.T
        space = attracting_space(a, 2 * size)
        assert grassmann_distance(space, Subspace(q[:, :2 * size])) < 1e-12
        assert grassmann_distance(
            space, schur_attracting_space(a, 2 * size)) < 1e-9

    @pytest.mark.parametrize("partition,reads", [
        ((5, 1), 176), ((7, 1), 268), ((3, 3), 88), (None, 88)])
    def test_atlas_flags_are_the_orthonormalized_eigenvectors(self, partition,
                                                               reads):
        # no eigenvalue of these words is defective, so every flag is the
        # SVD of its eigenvector columns, bit for bit: real and imaginary
        # parts of those with positive imaginary part, then the real ones
        rep = fg_rep(1.0) if partition is None else fuchsian_locus(partition, REF)
        atlas = BoundaryAtlas(rep, 3)
        compared = 0
        for w in atlas.words:
            spec = atlas.ball.spectrum(w)
            for k in range(1, rep.dim):
                try:
                    space = attracting_space(spec, k)
                except GapError:
                    continue
                values, vectors = spec.values[0, :k], spec.vectors[0, :, :k]
                upper = vectors[:, values.imag > 0]
                columns = np.hstack(
                    (upper.real, upper.imag, vectors[:, values.imag == 0].real))
                assert np.array_equal(
                    space.basis, _orthonormal_basis(columns)[0]), (str(w), k)
                compared += 1
        assert compared == reads


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


class TestInvariantBases:
    """The batched kernel on rows of every kind against ``attracting_space``
    on each row alone, which is the kernel on that one row."""

    def test_synthetic_rows_equal_the_one_row_calls(self):
        q = random_orthogonal(4, np.random.default_rng(21))
        pair = np.diag([0.0, 0.0, 1.0, 0.5])
        pair[:2, :2] = 3.0 * rotation(0.7)     # a leading complex pair
        jordan = np.diag([2.0, 2.0, 1.0, 0.5])
        jordan[0, 1] = 1.0                     # J_2(2): a deflation set
        tied = np.diag([3.0, 2.0, 2.0, 0.5])   # [0, 2) splits the tie
        plain = np.diag([4.0, -2.0, 1.0, 0.25])
        table = _spectra([q @ m @ q.T for m in (pair, jordan, tied, plain,
                                                plain)])
        assert table.values.dtype.kind == "c" and not table.errors
        # the last row's eigenvector turned by 1e-6 off its line: the
        # residual fails
        vectors = table.vectors.copy()
        turned = vectors[4]
        turned[:, [0, 3]] = turned[:, [0, 3]] @ rotation(1e-6)
        table = dataclasses.replace(table, vectors=vectors)
        bases, missing, errors = _invariant_bases(table, range(5), 0, 2)
        assert bases.shape == (5, 4, 2)
        assert missing.tolist() == [False, False, True, False, False]
        assert list(errors) == [4]
        for i in range(5):
            row = table.take([i])
            # the real rows are read in real arithmetic, as alone
            assert row.values.dtype.kind == ("c" if i == 0 else "f")
            if missing[i]:
                with pytest.raises(GapError):
                    attracting_space(row, 2)
                assert not bases[i].any()
            elif i in errors:
                with pytest.raises(NumericError) as exc:
                    attracting_space(row, 2)
                assert str(exc.value) == str(errors[i])
                assert "residual" in errors[i].diagnostics
            else:
                assert np.array_equal(bases[i], attracting_space(row, 2).basis)
        for i in (0, 1, 3):   # each spans the first two columns of q
            assert grassmann_distance(Subspace(bases[i]),
                                      Subspace(q[:, :2])) < 1e-12


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



def scalar_eigenvalue_values(values, k):
    """Oracle: the one-matrix formulas the kernel replaced, on one sorted
    eigenvalue row (real dtype when every eigenvalue is real), as
    (modulus, signed or None, (period, real), weight, root, zero)."""
    tol = spectral.REAL_IMAG_TOL
    lk, lk1 = values[k - 1:k + 1]
    modulus = float(abs(lk) / abs(lk1)) if abs(lk1) > 0 else np.inf
    signed = None
    if (abs(lk.imag) <= tol * abs(lk) and abs(lk1.imag) <= tol * abs(lk1)
            and lk1.real != 0.0):
        signed = float(lk.real / lk1.real)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.prod(values[:k]) / np.prod(values[-k:])
        logs = np.log(np.abs(values))
    if abs(ratio.imag) <= tol * abs(ratio):
        period = (float(ratio.real), True)
    else:
        period = (float(abs(ratio)), False)
    return (modulus, signed, period,
            float(np.sum(logs[:k]) - np.sum(logs[-k:])),
            float(logs[k - 1] - logs[k]), np.abs(values)[-1] < 1e-300)


class TestEigenvalueColumns:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kernel_rows_equal_the_one_row_calls(self, k):
        # the rotation rep's L=3 ball mixes real and complex spectra; then
        # the (3,1) generator b (no gap at k=2), a zero eigenvalue, and a
        # complex pair of modulus below 1e-300 under two real eigenvalues:
        # its ratios are signed only at k=1, where both are real
        from test_verification import rotation_rep

        rep = rotation_rep(5)
        tiny = np.zeros((4, 4))
        tiny[0, 0], tiny[1, 1] = 1e-303, 1e-305
        tiny[2:, 2:] = 1e-310 * np.array([[1.0, -1.0], [1.0, 1.0]])
        matrices = [evaluate(rep, w) for w in words_of_length(2, 3)] + [
            fuchsian_locus((3, 1), REF).generator_images[1],
            np.diag([2.0, 1.0, 0.5, 0.0]), tiny]
        with np.errstate(divide="ignore"):   # det of the singular shifts
            records = [spectrum(m) for m in matrices]
        assert {r.values.dtype.kind for r in records} == {"f", "c"}
        columns = spectral._eigenvalue_columns(
            np.concatenate([r.values for r in records]), k)
        for i, record in enumerate(records):
            modulus, signed, period, weight, root, zero = (
                scalar_eigenvalue_values(record.values[0], k))
            assert (columns.modulus[i], columns.zero[i]) == (modulus, zero)
            assert columns.ratio_signed[i] == (signed is not None)
            assert columns.ratio[i] == (modulus if signed is None else signed)
            assert columns.no_gap[i] == (modulus <= 1 + spectral.EIGEN_GAP_MIN)
            # the tiny pair's product underflows: its period is NaN
            assert repr(period) == repr(
                (float(columns.period[i]), bool(columns.period_real[i])))
            assert eigenvalue_ratios(record, k) == spectral.SpectralGaps(
                k, signed, modulus)
            if zero:
                with pytest.raises(NumericError, match="modulus zero"):
                    length_functions(record, k)
            else:
                assert length_functions(record, k) == spectral.LengthPair(
                    weight, root)
                assert (columns.weight_length[i], columns.root_length[i]) == (
                    weight, root)
        expected = {1: (False, True, True), 2: (True, True, False),
                    3: (False, True, False)}[k]
        assert (columns.no_gap[-3], columns.zero[-2],
                columns.ratio_signed[-1]) == expected
        assert columns.ratio[-1] == columns.modulus[-1]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_signed_ratios_have_the_modulus_ratio(self, d):
        # a scale per matrix down to 1e-320 and one per row put eigenvalues,
        # complex pairs among them, into the subnormal range; a value is
        # real only relative to its own modulus, so every signed ratio's
        # magnitude is the modulus ratio, bit for bit
        rng = np.random.default_rng(2004 + d)
        scales = rng.uniform(-320, 0, (400, 1)) + rng.uniform(-5, 5, (400, d))
        stack = 10.0 ** scales[..., None] * rng.normal(size=(400, d, d))
        with np.errstate(all="ignore"):
            values = _spectra(stack).values
        assert np.abs(values[:, -1]).min() < 2.3e-308
        for k in range(1, d):
            columns = spectral._eigenvalue_columns(values, k)
            signed = columns.ratio_signed
            assert signed.any()
            assert np.array_equal(np.abs(columns.ratio[signed]),
                                  columns.modulus[signed])

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
