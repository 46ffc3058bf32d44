import numpy as np
import pytest

from anosovlab.errors import (
    ConstructionError,
    DimensionError,
    DomainError,
    InputError,
)
from anosovlab.groups import Word, evaluate
from anosovlab.representations import (
    Representation,
    coxeter_number_B,
    dual_rep,
    fg_rep,
    fuchsian_locus,
    in_positive_cone,
    punctured_torus_reference,
    rep_from_json,
    rep_to_json,
    sopq_E,
    sopq_ab,
    sopq_form,
    sopq_positive,
    sym_power,
)

RNG = np.random.default_rng(2718)


def random_sl2(rng=RNG, max_cond=10.0):
    # rejection keeps relative-error assertions meaningful downstream
    while True:
        a = rng.normal(size=(2, 2))
        if np.linalg.det(a) > 0.1 and np.linalg.cond(a) < max_cond:
            return a / np.linalg.det(a) ** 0.5


def cone_vector(data, rng=None, first=2.0, last_mag=0.5):
    """A vector in the positive cone of the J form of the model."""
    m = data.q - data.p + 2
    v = np.zeros(m)
    v[0] = first if rng is None else rng.uniform(0.5, 2.5)
    mag = last_mag if rng is None else rng.uniform(0.1, 0.6)
    v[-1] = (-1.0) ** (data.p - 1) * mag
    return v


class TestGeneratorImages:
    """A Representation checks its generator images where it is built."""

    def test_rejects_nan(self):
        with pytest.raises(InputError, match="must be finite"):
            Representation(dim=2, generator_images=(
                np.array([[np.nan, 0.0], [0.0, 1.0]]),))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError,
                           match=r"must be square, got shape \(2, 3\)"):
            Representation(dim=2, generator_images=(np.ones((2, 3)),))

    def test_rejects_non_numeric(self):
        with pytest.raises(InputError, match="not a real matrix"):
            Representation(dim=2, generator_images=([[1.0, "x"], [0.0, 1.0]],))

    def test_unimodular_check(self):
        Representation(dim=3, generator_images=fg_rep(1.0).generator_images)
        with pytest.raises(ConstructionError, match="determinant differs"):
            Representation(dim=3, generator_images=(2 * np.eye(3),))

    def test_overflowing_norm_is_a_construction_error(self):
        # sigma_1^d of a unimodular matrix may exceed the float range
        with pytest.raises(ConstructionError, match="float range"):
            Representation(dim=2,
                           generator_images=(np.diag([1e200, 1e-200]),))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InputError, match="dimension 3, expected 2"):
            Representation(dim=2, generator_images=(np.eye(3),))

    @pytest.mark.parametrize("dtype", [int, float])
    def test_images_are_read_only_float_copies(self, dtype):
        a = np.array([[1, 1], [1, 2]], dtype=dtype)
        rep = Representation(dim=2, generator_images=(a,))
        g = rep.generator_images[0]
        assert g.dtype == float and not g.flags.writeable
        a[0, 0] = 5
        assert g[0, 0] == 1.0


    def test_rejects_reference_not_2x2(self):
        rep = fg_rep(1.0)
        with pytest.raises(InputError, match="boundary reference must be 2x2"):
            Representation(dim=3, generator_images=rep.generator_images,
                           reference=rep)

    def test_rejects_reference_with_more_generators(self):
        rep = fg_rep(1.0)
        ref = Representation(dim=2, generator_images=(
            *rep.reference.generator_images, [[2, 1], [1, 1]]))
        with pytest.raises(InputError, match="boundary reference has 3 "
                           "generators, representation has 2"):
            Representation(dim=3, generator_images=rep.generator_images,
                           reference=ref)

    def test_rejects_reference_generator_not_loxodromic(self):
        # a parabolic generator: trace 2
        ref = Representation(dim=2,
                             generator_images=(np.array([[1, 1], [0, 1]]),))
        with pytest.raises(InputError, match=r"loxodromic \(\|trace\| > 2\)"):
            Representation(dim=2, generator_images=ref.generator_images,
                           reference=ref)

class TestSymPower:
    def test_diagonal_weights(self):
        t = 1.7
        got = sym_power(np.diag([t, 1 / t]), 3)
        assert np.allclose(got, np.diag([t ** 2, 1.0, t ** -2]))

    def test_unipotent_hand_oracle(self):
        # oracle: expand (x+y)^2, (x+y)y, y^2 in the monomial basis
        got = sym_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 3)
        expected = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        assert np.allclose(got, expected)

    def test_singular_input_rejected(self):
        with pytest.raises(InputError, match="input matrix is singular"):
            sym_power(np.diag([1.0, 0.0]), 3)

    def test_negative_determinant_odd_dimension_negates(self):
        # diag(1, -1) goes to diag(1, -1, 1) of determinant -1; the
        # global sign makes it unimodular
        got = sym_power(np.diag([1.0, -1.0]), 3)
        assert np.array_equal(got, np.diag([-1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("d", [2, 6])
    def test_negative_determinant_even_dimension_raises(self, d):
        # diag(1, -1) goes to determinant (-1)^(d(d-1)/2), -1 at d = 2, 6
        with pytest.raises(ConstructionError, match="cannot be scaled to 1 "
                           f"in even dimension {d}"):
            sym_power(np.diag([1.0, -1.0]), d)

    def test_dimension_one(self):
        got = sym_power(random_sl2(), 1)
        assert np.allclose(got, [[1.0]])

    def test_multiplicative(self):
        for d in (2, 3, 5):
            for _ in range(20):
                a, b = random_sl2(), random_sl2()
                lhs = sym_power(a @ b, d)
                rhs = sym_power(a, d) @ sym_power(b, d)
                assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * np.linalg.norm(lhs, 2)

    def test_unit_determinant(self):
        for d in (2, 3, 4, 6):
            for _ in range(10):
                got = sym_power(random_sl2(), d)
                assert np.linalg.det(got) == pytest.approx(1.0, rel=1e-9)


class TestFuchsianLocus:
    def test_partition_2_is_reference(self):
        ref = punctured_torus_reference()
        rep = fuchsian_locus((2,), ref)
        for g, r in zip(rep.generator_images, ref.generator_images):
            assert np.allclose(g, r)

    def test_weights_3_1(self):
        ref = Representation(
            dim=2, generator_images=(np.diag([2.0, 0.5]),), label="diag")
        rep = fuchsian_locus((3, 1), ref)
        assert np.allclose(rep.generator_images[0],
                           np.diag([4.0, 1.0, 0.25, 1.0]))

    def test_5_1_weight_exponents(self):
        # weight bookkeeping oracle: exponents (4,2,0,-2,-4) plus (0)
        t = 3.0
        ref = Representation(
            dim=2, generator_images=(np.diag([t, 1 / t]),), label="diag")
        rep = fuchsian_locus((5, 1), ref)
        s = np.linalg.svd(rep.generator_images[0], compute_uv=False)
        expected = np.sort([t ** 4, t ** 2, 1.0, t ** -2, t ** -4, 1.0])[::-1]
        assert np.allclose(s, expected, rtol=1e-10)
        # no singular gap at k = 3 on the diagonal subgroup
        assert s[2] / s[3] == pytest.approx(1.0)

    def test_partition_must_be_sorted(self):
        with pytest.raises(InputError):
            fuchsian_locus((1, 5), punctured_torus_reference())

    @pytest.mark.parametrize("partition, entry", [
        ((5.7, 1), "5.7"), ((True, 1), "True"), ((5, 1.0), "1.0")])
    def test_partition_entries_must_be_integers(self, partition, entry):
        # int() would truncate: (5.7, 1) built the (5,1) locus
        with pytest.raises(InputError,
                           match=f"partition entry {entry} is not an integer"):
            fuchsian_locus(partition, punctured_torus_reference())

    def test_numpy_integer_partition_accepted(self):
        rep = fuchsian_locus(np.array([5, 1]), punctured_torus_reference())
        assert rep.label == "fuchsian-(5,1)"

    def test_reference_attached(self):
        rep = fuchsian_locus((3,), punctured_torus_reference())
        assert rep.reference is not None and rep.reference.dim == 2


class TestFgRep:
    def test_matrix_at_x_equal_1(self):
        rep = fg_rep(1.0)
        assert np.allclose(rep.generator_images[0],
                           [[4, 4, 1], [2, 3, 1], [1, 2, 1]])

    def test_unit_determinant_on_grid(self):
        for x in (0.1, 1.0, 7.0):
            rep = fg_rep(x)
            for g in rep.generator_images:
                assert np.linalg.det(g) == pytest.approx(1.0, rel=1e-10)

    def test_characteristic_polynomial_coefficients(self):
        # trace and second elementary symmetric function of both generators
        for x in (0.3, 1.0, 4.2):
            rep = fg_rep(x)
            c2 = 4 * x ** (-1 / 3) + 4 * x ** (2 / 3)
            c1 = 4 * x ** (1 / 3) + 4 * x ** (-2 / 3)
            for g in rep.generator_images:
                a = g
                tr = np.trace(a)
                e2 = (tr ** 2 - np.trace(a @ a)) / 2
                assert tr == pytest.approx(c2, rel=1e-12)
                assert e2 == pytest.approx(c1, rel=1e-12)

    def test_eigenvalues_at_one(self):
        rep = fg_rep(1.0)
        lam = np.sort(np.linalg.eigvals(rep.generator_images[0]).real)[::-1]
        l1 = (7 + 3 * np.sqrt(5)) / 2
        assert np.allclose(lam, [l1, 1.0, 1 / l1], rtol=1e-10)

    def test_generators_share_characteristic_polynomial(self):
        rep = fg_rep(0.37)
        a, b = (g for g in rep.generator_images)
        assert np.trace(a) == pytest.approx(np.trace(b), rel=1e-12)
        assert np.trace(a @ a) == pytest.approx(np.trace(b @ b), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            fg_rep(0.0)
        with pytest.raises(InputError):
            fg_rep(-2.0)

    def test_reference_commutator_trace(self):
        ref = punctured_torus_reference()
        comm = evaluate(ref, Word.from_letters([1, 2, -1, -2]))
        assert np.trace(comm) == pytest.approx(-2.0, rel=1e-12)


class TestDualRep:
    def test_orthogonal_rep_self_dual(self):
        theta = 0.4
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        # loxodromic reference check does not apply: no reference attached
        rep = Representation(dim=2, generator_images=(rot,), label="rot")
        dd = dual_rep(rep)
        assert np.allclose(dd.generator_images[0], rot)

    def test_involution(self):
        rep = fg_rep(1.5)
        back = dual_rep(dual_rep(rep))
        for g, h in zip(back.generator_images, rep.generator_images):
            assert np.allclose(g, h, atol=1e-10)

    def test_singular_values_reversed_reciprocals(self):
        rep = fg_rep(2.0)
        dd = dual_rep(rep)
        for g, gd in zip(rep.generator_images, dd.generator_images):
            s = np.linalg.svd(g, compute_uv=False)
            sd = np.linalg.svd(gd, compute_uv=False)
            assert np.allclose(sd, 1.0 / s[::-1], rtol=1e-10)


class TestSopq:
    def test_form_signature(self):
        for p, q in ((3, 3), (4, 5), (5, 6), (4, 9)):
            data = sopq_form(p, q)
            assert np.allclose(data.Q, data.Q.T)
            eig = np.linalg.eigvalsh(data.Q)
            assert int(np.sum(eig > 0)) == p
            assert int(np.sum(eig < 0)) == q

    @pytest.mark.parametrize("p, q, bad", [
        (4.0, 5, "p=4.0"), (4, 5.5, "q=5.5"), (True, 5, "p=True")])
    def test_form_rejects_non_integer_signature(self, p, q, bad):
        with pytest.raises(InputError, match=f"{bad} is not an integer"):
            sopq_form(p, q)

    def test_E_zero_is_identity_limit(self):
        data = sopq_form(4, 5)
        e = sopq_E(data, 1, 1e-12)
        assert np.allclose(e, np.eye(9), atol=1e-10)

    def test_E1_positions_p4_q5(self):
        data = sopq_form(4, 5)
        v = 0.7
        e = sopq_E(data, 1, v)
        expected = np.eye(9)
        expected[0, 1] = v   # position (1,2)
        expected[7, 8] = v   # position (8,9)
        assert np.allclose(e, expected)

    def test_E_invariance_all_indices(self):
        for p, q in ((4, 5), (5, 6), (3, 7)):
            data = sopq_form(p, q)
            for k in range(1, p - 1):
                sopq_E(data, k, 1.3)  # certification inside
            v = cone_vector(data)
            assert in_positive_cone(data, v)
            sopq_E(data, p - 1, v)

    def test_E_last_rejects_cone_violation(self):
        data = sopq_form(4, 5)
        v = np.array([-1.0, 0.0, 0.5])
        with pytest.raises(DomainError):
            sopq_E(data, 4 - 1, v)

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_E_index_outside_range_rejected(self, k):
        with pytest.raises(InputError, match=f"index k={k} outside 1..3"):
            sopq_E(sopq_form(4, 5), k, 1.0)

    @pytest.mark.parametrize("v", [0.0, -0.5, np.nan, np.inf])
    def test_E_scalar_must_be_positive(self, v):
        with pytest.raises(DomainError, match="E_1 needs a positive scalar"):
            sopq_E(sopq_form(4, 5), 1, v)

    def test_E_last_rejects_wrong_length(self):
        # (4, 5): the J block, and the vector, has length 5 - 4 + 2 = 3
        with pytest.raises(DomainError, match=r"E_3 needs a vector of "
                           r"length 3, got shape \(4,\)"):
            sopq_E(sopq_form(4, 5), 3, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_ab_superdiagonal_entries(self):
        # entries of each ab factor at (d-k-1, d-k) and (d-k, d-k+1)
        # equal the scalar parameters; with all scalars 1 both are 1
        for p, q in ((4, 5), (5, 6)):
            data = sopq_form(p, q)
            d = data.d
            vbar = [1.0] * (p - 2) + [cone_vector(data)]
            ab = sopq_ab(data, vbar)
            for k in range(1, p - 2):
                assert ab[d - k - 2, d - k - 1] == pytest.approx(1.0)
                assert ab[d - k - 1, d - k] == pytest.approx(1.0)

    def test_positive_element_certified(self):
        data = sopq_form(4, 5)
        rng = np.random.default_rng(5)
        for _ in range(5):
            vbars = []
            for _ in range(coxeter_number_B(data.p - 1) // 2):
                vbars.append([rng.uniform(0.1, 2.0)
                              for _ in range(data.p - 2)] + [cone_vector(data, rng)])
            p_el = sopq_positive(data, vbars)
            resid = np.linalg.norm(
                p_el.T @ data.Q @ p_el - data.Q, 2)
            assert resid <= 1e-10 * np.linalg.norm(data.Q, 2) * 10

    def test_positive_element_needs_half_coxeter_factors(self):
        data = sopq_form(4, 5)
        with pytest.raises(InputError):
            sopq_positive(data, [])

    def test_coxeter_number(self):
        assert coxeter_number_B(3) == 6
        assert coxeter_number_B(4) == 8


class TestSerialization:
    def test_round_trip_bit_stable(self):
        rep = fg_rep(0.7310585786300049)
        text = rep_to_json(rep)
        back = rep_from_json(text)
        assert back.dim == rep.dim
        assert back.label == rep.label
        for g, h in zip(back.generator_images, rep.generator_images):
            assert np.array_equal(g, h)
        assert back.reference is not None
        for g, h in zip(back.reference.generator_images,
                        rep.reference.generator_images):
            assert np.array_equal(g, h)

    def test_rejects_non_unimodular(self):
        doc = '{"dim": 2, "generators": [[[2.0, 0.0], [0.0, 2.0]]], "label": "bad"}'
        with pytest.raises(ConstructionError):
            rep_from_json(doc)
