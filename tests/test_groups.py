import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import groups
from anosovlab.errors import (
    BudgetError,
    DomainError,
    InputError,
    PreconditionError,
)
from anosovlab.groups import (
    ANGLE_SEPARATION,
    Word,
    _ball_size,
    _close_pairs,
    _tree_row,
    _word_tree,
    circle_separation,
    evaluate,
    is_cyclically_ordered,
    is_linked,
    rp1_fixed_points,
    words_of_length,
)
from anosovlab.representations import (
    Representation,
    fg_rep,
    fuchsian_locus,
    punctured_torus_reference,
)
from anosovlab.verification import linked_pairs

RNG = np.random.default_rng(7)

GOLDEN = (1 + np.sqrt(5)) / 2


class TestWord:
    def test_reduction(self):
        assert Word.from_letters([1, -1]).letters == ()
        assert Word.from_letters([1, 2, -2, -1, 1]).letters == (1,)

    def test_rejects_unreduced(self):
        with pytest.raises(InputError):
            Word((1, -1))

    def test_inverse(self):
        w = Word((1, 2, -1))
        assert (w * w.inverse()).letters == ()
        assert w.inverse().letters == (1, -2, -1)

    def test_str(self):
        assert str(Word((1, -2, 1))) == "aBa"
        assert str(Word()) == "1"

    def test_str_names_each_word_once(self):
        # "e" names generator 5, so the identity prints as "1"
        ball = words_of_length(5, 2)
        assert len({str(w) for w in ball}) == len(ball)

    @pytest.mark.parametrize("rank, max_length", [(2, 3), (3, 2)])
    def test_parse_inverts_str(self, rank, max_length):
        for w in words_of_length(rank, max_length)[1:]:
            assert Word.parse(str(w), rank) == w

    def test_parse_reduces(self):
        assert Word.parse("abBa", 2) == Word((1, 1))

    @pytest.mark.parametrize("text, message", [
        ("ac", "'c' is not a generator letter (ab or AB for rank 2)"),
        ("", "empty word"),
        ("1", "'1' is not a generator letter"),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Word.parse(text, 2)

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_from_letters_is_reduced(self, letters):
        w = Word.from_letters(letters)
        assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


class TestWordsOfLength:
    def test_rank2_counts(self):
        assert len(words_of_length(2, 1)) == 5
        assert len(words_of_length(2, 2)) == 17
        # sphere of radius l has 4 * 3^(l-1) words
        assert len(words_of_length(2, 5)) == 1 + sum(4 * 3 ** (l - 1) for l in range(1, 6))

    def test_rank1(self):
        assert len(words_of_length(1, 3)) == 7

    def test_deduplicated(self):
        ball = words_of_length(2, 3)
        assert len(set(ball)) == len(ball)

    @pytest.mark.parametrize("rank, max_length, message", [
        (2, 1.5, "max length 1.5"), (2, 2.0, "max length 2.0"),
        (2, True, "max length True"), (2.0, 2, "rank 2.0"),
        (True, 2, "rank True")])
    def test_non_integers_rejected(self, rank, max_length, message):
        with pytest.raises(InputError, match=f"{message} is not an integer"):
            words_of_length(rank, max_length)

    def test_numpy_integers_accepted(self):
        assert words_of_length(np.int32(2), np.int64(2)) == words_of_length(2, 2)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(groups, "WORD_BALL_CAP", 1000)
        with pytest.raises(BudgetError, match="cap of 1000 words"):
            words_of_length(2, 12)

    def test_budget_raises_before_any_word_is_built(self, monkeypatch):
        # the real cap: rank 2 at length 12 is 797,161 words
        built = []
        trusted = Word._trusted.__func__

        def counted(cls, letters):
            built.append(letters)
            return trusted(cls, letters)

        monkeypatch.setattr(Word, "_trusted", classmethod(counted))
        for build in (words_of_length, _word_tree):
            with pytest.raises(BudgetError, match=(
                    f"cap of {groups.WORD_BALL_CAP} words")):
                build(2, 12)
        assert built == []
        words_of_length(2, 1)
        assert len(built) == 4

    def test_cap_is_closed_form(self):
        # a rank-1 ball grows by 2 words a letter, larger ranks at least 3x
        assert _ball_size(1, 249_999) == 499_999
        for rank, max_length in ((1, 250_000), (1, 10 ** 9), (2, 10 ** 9),
                                 (4, 10 ** 9)):
            with pytest.raises(BudgetError):
                _ball_size(rank, max_length)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_equals_validated_words(self, rank):
        ball = words_of_length(rank, 5)
        validated = [Word(w.letters) for w in ball]
        assert ball == validated
        assert [hash(w) for w in ball] == [hash(w) for w in validated]
        assert all(type(x) is int for w in ball for x in w.letters)
        assert [len(w) for w in ball] == sorted(len(w) for w in ball)


class TestWordTree:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_columns_are_the_words(self, rank):
        # row i's parent is the row of its prefix, its last letter and
        # length are its word's (0 and 0 for the identity)
        for max_length in range(5):
            words = words_of_length(rank, max_length)
            rows = {w.letters: i for i, w in enumerate(words)}
            assert [_tree_row(rank, w.letters) for w in words] == list(
                range(len(words)))
            lengths, parents, last = _word_tree(rank, max_length)
            assert lengths.tolist() == [len(w) for w in words]
            assert parents.tolist() == [rows[w.letters[:-1]] for w in words]
            assert last.tolist() == [w.letters[-1] if w.letters else 0
                                     for w in words]

    def test_rejects_what_words_of_length_rejects(self):
        for rank, max_length in ((0, 2), (2, -1), (2, 1.5)):
            with pytest.raises(InputError):
                _word_tree(rank, max_length)


class TestEvaluate:
    def test_empty_word(self):
        ref = punctured_torus_reference()
        assert np.allclose(evaluate(ref, Word()), np.eye(2))

    def test_pre_reduction(self):
        ref = punctured_torus_reference()
        w = Word.from_letters([1, -1])
        assert np.allclose(evaluate(ref, w), np.eye(2))

    def test_homomorphism_on_random_pairs(self):
        ref = punctured_torus_reference()
        words = words_of_length(2, 6)
        idx = RNG.integers(0, len(words), size=(40, 2))
        for i, j in idx:
            w1, w2 = words[i], words[j]
            lhs = evaluate(ref, w1 * w2)
            rhs = evaluate(ref, w1) @ evaluate(ref, w2)
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_long_word_renormalizes(self):
        ref = punctured_torus_reference()
        w = Word.from_letters([1, 2] * 20)  # length 40 > 30
        m = evaluate(ref, w)
        assert np.all(np.isfinite(m))
        assert np.linalg.norm(m, 2) == pytest.approx(1.0, rel=1e-9)
        # a positive multiple of the image: (AB)^20 / ||(AB)^20||_2
        power = np.linalg.matrix_power(
            ref.generator_images[0] @ ref.generator_images[1], 20)
        assert np.allclose(m, power / np.linalg.norm(power, 2),
                           rtol=1e-9, atol=0)

    def test_image_is_read_only(self):
        m = evaluate(punctured_torus_reference(), Word((1, 2)))
        assert m.dtype == float and not m.flags.writeable

    def test_overflow_raises_input_error(self):
        big = Representation(
            dim=2, generator_images=(np.diag([1e100, 1e-100]),))
        with np.errstate(over="ignore"), pytest.raises(
                InputError, match="must be finite"):
            evaluate(big, Word((1, 1, 1, 1)))


class TestFixedPoints:
    def test_diagonal(self):
        att, rep = rp1_fixed_points(np.diag([2.0, 0.5]))
        assert att == pytest.approx(0.0, abs=1e-12)
        assert rep == pytest.approx(np.pi / 2, rel=1e-12)

    def test_returns_two_floats(self):
        points = rp1_fixed_points(evaluate(punctured_torus_reference(),
                                           Word((1, -2))))
        assert type(points) is tuple and len(points) == 2
        assert all(type(p) is float and 0.0 <= p < np.pi for p in points)

    def test_golden_ratio_slopes(self):
        # oracle: eigenvectors of [[1,1],[1,2]] are (1, lambda - 1) with
        # lambda = (3 +- sqrt5)/2, slopes phi and -1/phi
        a = np.array([[1.0, 1.0], [1.0, 2.0]])
        att, rep = rp1_fixed_points(a)
        assert np.tan(att) == pytest.approx(GOLDEN, rel=1e-10)
        assert np.tan(rep) == pytest.approx((1 - np.sqrt(5)) / 2, rel=1e-10)

    def test_inverse_swaps(self):
        a = np.array([[1.0, 1.0], [1.0, 2.0]])
        att, rep = rp1_fixed_points(a)
        att_i, rep_i = rp1_fixed_points(np.linalg.inv(a))
        assert att == pytest.approx(rep_i, abs=1e-12)
        assert rep == pytest.approx(att_i, abs=1e-12)

    def test_elliptic_rejected(self):
        with pytest.raises(DomainError):
            rp1_fixed_points(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_parabolic_rejected(self):
        with pytest.raises(DomainError):
            rp1_fixed_points(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("rep", [
        fg_rep(1.0), fg_rep(0.6),
        fuchsian_locus((5, 1), punctured_torus_reference())],
        ids=["fg1", "fg0.6", "51"])
    def test_batched_rows_equal_the_one_row_call(self, rep):
        # every row of the L=6 ball's reference images, bit for bit, and
        # against the per-matrix formulas the kernel replaced; a row
        # without fixed points gives the one-row call's DomainError
        stack = np.array([evaluate(rep.reference, w)
                          for w in words_of_length(2, 6)])
        ends, loxodromic = groups._rp1_fixed_points(stack)
        assert ends.shape == (1457, 2) and (~loxodromic).sum() == 25
        for m, row, lox in zip(stack, ends, loxodromic):
            if lox:
                assert rp1_fixed_points(m) == tuple(row.tolist())
                assert scalar_fixed_points(m) == tuple(row.tolist())
            else:
                assert np.isnan(row).all()
                with pytest.raises(DomainError) as exc:
                    rp1_fixed_points(m)
                assert str(exc.value) == str(groups._not_loxodromic(m))
                assert str(exc.value).startswith("matrix is not loxodromic")


def scalar_fixed_points(a) -> tuple:
    """Oracle: the fixed points of one loxodromic 2x2 matrix, one scalar
    operation at a time."""
    tr = a[0, 0] + a[1, 1]
    sq = np.sqrt(tr * tr - 4.0 * (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
    lams = sorted(((tr + sq) / 2.0, (tr - sq) / 2.0), key=abs, reverse=True)
    points = []
    for lam in lams:
        cand1 = np.array([a[0, 1], lam - a[0, 0]])
        cand2 = np.array([lam - a[1, 1], a[1, 0]])
        v = (cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2)
             else cand2)
        v = v / np.linalg.norm(v)
        theta = float(np.arctan2(v[1], v[0])) % np.pi
        points.append(0.0 if theta >= np.pi else theta)
    return tuple(points)


class TestCyclicOrder:
    def test_monotone(self):
        assert is_cyclically_ordered([0.1, 0.9, 1.7, 2.5])

    def test_shuffled(self):
        assert not is_cyclically_ordered([0.1, 1.7, 0.9, 2.5])

    def test_reversal_preserves(self):
        pts = [0.1, 0.9, 1.7, 2.5]
        assert is_cyclically_ordered(pts[::-1])

    def test_cyclic_shift_preserves(self):
        pts = [0.1, 0.9, 1.7, 2.5]
        for s in range(4):
            assert is_cyclically_ordered(pts[s:] + pts[:s])

    def test_coincident_raises(self):
        with pytest.raises(PreconditionError):
            is_cyclically_ordered([0.1, 0.1, 1.7, 2.5])

    def test_needs_four(self):
        with pytest.raises(PreconditionError):
            is_cyclically_ordered([0.1, 0.9, 1.7])

    def test_wraparound(self):
        # points straddling the RP^1 wrap at pi
        assert is_cyclically_ordered([3.0, 0.2, 0.8, 1.5])

    @given(st.lists(st.floats(min_value=0.0, max_value=3.1), min_size=4,
                    max_size=7, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_shift_and_reversal_invariance(self, angles):
        for a, b in ((x, y) for i, x in enumerate(angles) for y in angles[i + 1:]):
            if circle_separation(a, b) < 1e-6:
                return
        verdict = is_cyclically_ordered(angles)
        assert is_cyclically_ordered(angles[::-1]) == verdict
        assert is_cyclically_ordered(angles[2:] + angles[:2]) == verdict

    def test_mobius_action_preserves_order(self):
        # orientation-preserving action on RP^1 preserves cyclic order
        ref = punctured_torus_reference()
        g = evaluate(ref, Word((1, 2)))
        angles = [0.2, 0.9, 1.8, 2.7]
        moved = []
        for t in angles:
            v = g @ np.array([np.cos(t), np.sin(t)])
            moved.append(float(np.arctan2(v[1], v[0])) % np.pi)
        assert is_cyclically_ordered(angles) == is_cyclically_ordered(moved)


def brute_close_pairs(angles):
    """Every pair (i, j), i < j, of ``angles`` closer than
    ``ANGLE_SEPARATION``, from the whole table of separations."""
    pairs = itertools.combinations(range(len(angles)), 2)
    return sorted((i, j) for i, j in pairs if circle_separation(
        angles[i], angles[j]) < ANGLE_SEPARATION)


TIGHT = ANGLE_SEPARATION * (1 - 1e-6)
LOOSE = ANGLE_SEPARATION * (1 + 1e-6)
NEAR_ANGLES = [0.0, TIGHT, LOOSE, np.pi - 1e-11, np.pi - TIGHT, -TIGHT,
               1.0, 1.0 + TIGHT, 1.0 + LOOSE, 1.0 - TIGHT, 1.0 + 1.5 * LOOSE,
               1.0 + np.pi, 1.0 - 2 * np.pi + TIGHT, 2.0, 2.0 - LOOSE]
# each angle closer than the tolerance to the next, not to the one after
CHAIN = [1.0 + i * 0.75 * ANGLE_SEPARATION for i in range(6)]


class TestClosePairs:
    def check(self, angles):
        angles = np.array(angles, dtype=float)
        a, b = _close_pairs(angles)
        # each close pair once
        assert sorted(zip(np.minimum(a, b).tolist(),
                          np.maximum(a, b).tolist())) == brute_close_pairs(
            angles)
        # b after a in the stable order mod pi, or before it across the wrap
        ring = np.mod(angles, np.pi)
        rank = np.argsort(np.argsort(ring, kind="stable"))
        across = ring[a] - ring[b] > np.pi / 2
        assert np.array_equal(rank[b] < rank[a], across)
        return a, b

    @pytest.mark.parametrize("angles", [
        [], [1.0], [1.0, 2.0], [1.0, 1.0],
        [1.0, 1.0 + TIGHT, 2.0, 2.0 + LOOSE],
        [0.5, 2.0, 0.5, 0.5, 2.0, 0.5, 1.0],
        [np.pi - 1e-11, 0.0, 1.0, np.pi - TIGHT, TIGHT],
        [1.0 + np.pi, -0.5, 1.0 - np.pi, np.pi - 0.5 - LOOSE, 7.0, -1e-20,
         0.0],
        [0.7] * 6,
    ], ids=["n0", "n1", "n2", "exact", "near-tolerance", "clusters", "wrap",
            "outside-0-pi", "all-coincident"])
    def test_equals_the_brute_force_on_constructed_angles(self, angles):
        self.check(angles)

    def test_chain_pairs_only_neighbours_within_the_tolerance(self):
        a, b = self.check(CHAIN)
        assert sorted(zip(a.tolist(), b.tolist())) == [
            (i, i + 1) for i in range(5)]

    def test_the_pair_across_pi_starts_at_the_later_angle(self):
        a, b = self.check([0.0, 1.0, np.pi - TIGHT / 2])
        assert (a.tolist(), b.tolist()) == ([2], [0])

    @given(st.lists(st.one_of(st.sampled_from(NEAR_ANGLES),
                              st.floats(-4.0, 7.0)), max_size=14))
    @settings(deadline=None)
    def test_equals_the_brute_force_on_drawn_angles(self, angles):
        self.check(angles)

    def test_separations_read_only_nearby_candidates(self, monkeypatch):
        # spread angles have no candidate, so no square table is built
        sizes = []

        def recording(a, b):
            sizes.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
            return circle_separation(a, b)

        monkeypatch.setattr(groups, "circle_separation", recording)
        a, b = _close_pairs(np.linspace(0.0, np.pi, 1000, endpoint=False))
        assert len(a) == len(b) == 0
        assert sizes == [(0,)]


def schottky_reference():
    """Ping-pong pair with nested fixed-point intervals (axes disjoint)."""

    def axis_matrix(theta1, theta2, t=4.0):
        s = np.column_stack([[np.cos(theta1), np.sin(theta1)],
                             [np.cos(theta2), np.sin(theta2)]])
        m = s @ np.diag([t, 1 / t]) @ np.linalg.inv(s)
        return m / abs(np.linalg.det(m)) ** 0.5

    return Representation(
        dim=2,
        generator_images=(axis_matrix(0.0, np.pi / 2), axis_matrix(0.3, 0.6)),
        reference=None,
        label="schottky-reference")


class TestLinked:
    def test_punctured_torus_generators_linked(self):
        # oracle: slopes -1/phi, 1/phi... axes of a and b cross
        ref = punctured_torus_reference()
        assert is_linked(Word((1,)), Word((2,)), ref)

    def test_power_shares_fixed_points(self):
        ref = punctured_torus_reference()
        with pytest.raises(PreconditionError):
            is_linked(Word((1,)), Word((1, 1)), ref)

    def test_schottky_nested_not_linked(self):
        ref = schottky_reference()
        assert not is_linked(Word((1,)), Word((2,)), ref)
        # conjugating an unlinked configuration keeps it unlinked
        w = Word.from_letters([1, 2, -1])
        assert not is_linked(Word((1,)), w, ref)

    @pytest.mark.parametrize("rep", [
        fg_rep(1.0), fg_rep(0.5),
        fuchsian_locus((3, 1), punctured_torus_reference()),
        dataclasses.replace(schottky_reference(),
                            reference=schottky_reference()),
    ], ids=["fg1", "fg0.5", "fuchsian31", "schottky"])
    def test_linked_pairs_match_per_pair_reference(self, rep):
        # the linkage mask against is_linked on every ordered pair in
        # permutations order, coincident fixed points left out
        loxodromic = []
        for w in words_of_length(rep.rank, 3)[1:]:
            try:
                rp1_fixed_points(evaluate(rep.reference, w))
            except DomainError:
                continue
            loxodromic.append(w)
        expected, coincident = [], 0
        for g, h in itertools.permutations(loxodromic, 2):
            try:
                if is_linked(g, h, rep.reference):
                    expected.append((g, h))
            except PreconditionError:
                coincident += 1
        assert expected and coincident
        assert linked_pairs(rep, 3) == expected

    def test_symmetry_and_inversion_invariance(self):
        ref = punctured_torus_reference()
        words = [w for w in words_of_length(2, 2) if len(w) > 0]
        pairs = 0
        for g in words[:8]:
            for h in words[:8]:
                try:
                    v = is_linked(g, h, ref)
                except PreconditionError:
                    continue
                assert is_linked(h, g, ref) == v
                assert is_linked(g, h.inverse(), ref) == v
                pairs += 1
        assert pairs > 10
