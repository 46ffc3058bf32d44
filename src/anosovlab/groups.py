"""Free-group words, their matrix images, and boundary order on RP^1.

Word images are multiplied in one place, ``_word_products``, over a prefix
tree of words: the word ball calls it on its whole tree, and ``evaluate``
on a word's chain of prefixes.

Boundary combinatorics (cyclic order, linkedness) is always read off a
fixed 2x2 reference representation; the boundary circle of the group
does not depend on the target representation, and RP^1 carries an
explicit angle coordinate.  The default reference is the once-punctured
torus pair A = [[1,1],[1,2]], B = [[1,-1],[-1,2]] whose commutator has
trace -2 and whose generator axes cross.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core_linalg import STACK_BLOCK, _readonly
from .errors import (
    BudgetError,
    DomainError,
    InputError,
    PreconditionError,
    check_integer,
)

__all__ = [
    "Word",
    "words_of_length",
    "evaluate",
    "rp1_fixed_points",
    "is_cyclically_ordered",
    "is_linked",
    "circle_separation",
]

RENORMALIZE_ABOVE = 30      # word length beyond which products are rescaled
ANGLE_SEPARATION = 1e-10    # below this two boundary angles count as coincident
LOXODROMIC_TRACE = 2.0 + 1e-8
LETTERS = "abcdefgh"        # generator names; capitals are the inverses
WORD_BALL_CAP = 500_000     # largest word ball words_of_length builds


def _reduce(letters) -> tuple:
    out = []
    for letter in letters:
        if letter == 0:
            raise InputError("generator indices are nonzero signed integers")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(int(letter))
    return tuple(out)


@dataclass(frozen=True, order=True)
class Word:
    """Freely reduced word; letters are signed 1-based generator indices."""

    letters: tuple = ()

    def __post_init__(self):
        letters = tuple(int(x) for x in self.letters)
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise InputError(f"word {letters} is not freely reduced")
        if any(x == 0 for x in letters):
            raise InputError("generator indices are nonzero signed integers")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _trusted(cls, letters: tuple) -> "Word":
        """A word from a tuple of ints already known to be freely reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def from_letters(cls, letters) -> "Word":
        """Build a word, freely reducing adjacent inverse pairs."""
        return cls(_reduce(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        out = []
        for x in self.letters:
            name = (LETTERS[abs(x) - 1] if abs(x) <= len(LETTERS)
                    else f"g{abs(x)}")
            out.append(name.upper() if x < 0 else name)
        return "".join(out)

    @classmethod
    def parse(cls, text: str, rank: int) -> "Word":
        """The word ``text`` in the letters of ``__str__`` (a generator in
        lower case, its inverse in upper case), freely reduced."""
        names = LETTERS[:rank]
        hint = f"({names} or {names.upper()} for rank {rank})"
        if not text:
            raise InputError(f"empty word: give generator letters {hint}")
        letters = []
        for ch in text:
            if ch not in names + names.upper():
                raise InputError(f"{ch!r} is not a generator letter {hint}")
            idx = names.index(ch.lower()) + 1
            letters.append(idx if ch.islower() else -idx)
        return cls.from_letters(letters)


def _ball_size(rank: int, max_length: int) -> int:
    """The number of freely reduced words of length <= max_length in rank
    ``rank``, 1 + sum over l of 2r (2r-1)^(l-1), found before anything is
    built; a BudgetError when it exceeds ``WORD_BALL_CAP``."""
    for name, value in (("rank", rank), ("max length", max_length)):
        check_integer(value, f"{name} {value!r}")
    if rank < 1:
        raise InputError("rank must be >= 1")
    if max_length < 0:
        raise InputError("max length must be >= 0")
    q = 2 * int(rank) - 1
    # from rank 2 on a sphere is 3 or more times the last, so 64 letters
    # are past the cap already and the power stays small
    size = (1 + 2 * int(max_length) if q == 1 else
            1 + (q + 1) * (q ** min(int(max_length), 64) - 1) // (q - 1))
    if size > WORD_BALL_CAP:
        raise BudgetError(
            f"word ball exceeds the cap of {WORD_BALL_CAP} words")
    return size


def words_of_length(rank: int, max_length: int) -> list:
    """All freely reduced words of length <= max_length, identity first.

    Sphere l + 1 lists the children of sphere l, parent-major, each
    followed by the letters 1..rank, -1..-rank but the inverse of its
    last.  The sphere of radius l in rank n has 2n (2n-1)^(l-1) words; a
    BudgetError is raised, before any is built, when the ball would
    exceed ``WORD_BALL_CAP``.
    """
    _ball_size(rank, max_length)
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    ball = [Word()]
    sphere = [()]
    for _ in range(max_length):
        # no letter follows its inverse, so every word is reduced as built
        sphere = [w + (letter,) for w in sphere for letter in letters
                  if not w or letter != -w[-1]]
        ball.extend(map(Word._trusted, sphere))
    return ball


def _word_tree(rank: int, max_length: int) -> tuple:
    """The ball of ``words_of_length(rank, max_length)`` as three columns
    in its order, built by array arithmetic without a Word:
    ``(lengths, parents, last)``, each word's length, the row of the word
    less its last letter and its signed last letter (0 and 0 for the
    identity)."""
    size = _ball_size(rank, max_length)
    r = int(rank)
    letters = np.concatenate([np.arange(1, r + 1), -np.arange(1, r + 1)])
    # by letter index: the indices of the letters that may follow it, in
    # order, all but its inverse's
    follow = np.array([[j for j in range(2 * r) if j != (i + r) % (2 * r)]
                       for i in range(2 * r)], dtype=np.intp)
    lengths = np.zeros(size, dtype=np.intp)
    parents = np.zeros(size, dtype=np.intp)
    index = np.zeros(size, dtype=np.intp)    # letter index of the last
    start, stop = 0, 1
    for length in range(1, max_length + 1):
        if length == 1:
            end = 1 + 2 * r
            index[1:end] = np.arange(2 * r)
        else:
            end = stop + (stop - start) * (2 * r - 1)
            parents[stop:end] = np.repeat(np.arange(start, stop), 2 * r - 1)
            index[stop:end] = follow[index[start:stop]].ravel()
        lengths[stop:end] = length
        start, stop = stop, end
    last = letters[index]
    last[0] = 0
    return lengths, parents, last


def _tree_row(rank: int, letters: tuple) -> int:
    """The row of the reduced word ``letters`` (generators 1..rank) in
    ``words_of_length(rank, L)`` for any L >= its length, by arithmetic on
    its letters: the children of the identity are rows 1..2r, those of
    row p > 0 start at row (2r - 1) p + 2, and a parent's children skip
    the inverse of its last letter."""
    row, prev = 0, None
    for x in letters:
        index = x - 1 if x > 0 else rank - 1 - x
        row = 1 + index if prev is None else (
            (2 * rank - 1) * row + 2 + index
            - (index > (prev + rank) % (2 * rank)))
        prev = index
    return row


def _word_products(rep, lengths, parents, last) -> np.ndarray:
    """The (n, d, d) images under ``rep`` of a prefix tree of words, its
    rows sorted by length, row 0 the identity: ``lengths``, ``parents``
    (the row of the word less its last letter) and ``last`` (its signed
    last letter).  Each row is its parent's times the image of its last
    letter, one stacked matmul per block of ``STACK_BLOCK`` entries of a
    run of one length; a row longer than ``RENORMALIZE_ABOVE`` letters is
    then divided by its 2-norm.  InputError where a letter names a
    generator ``rep`` lacks or an entry is not finite."""
    gens, d = rep.generator_images, rep.dim
    used = int(np.abs(last).max())
    if used > len(gens):
        raise InputError(
            f"word uses generator {used}, representation has {len(gens)}")
    # steps[x] is the image of the signed letter x
    steps = np.stack([np.eye(d), *gens,
                      *(np.linalg.inv(g) for g in reversed(gens))])
    images = np.empty((len(lengths), d, d))
    images[0] = steps[0]
    block = max(1, STACK_BLOCK // (d * d))
    cuts = (np.flatnonzero(np.diff(lengths)) + 1).tolist()
    for lo, hi in zip(cuts, cuts[1:] + [len(lengths)]):
        for a in range(lo, hi, block):
            b = min(a + block, hi)
            np.matmul(images[parents[a:b]], steps[last[a:b]],
                      out=images[a:b])
            if lengths[lo] > RENORMALIZE_ABOVE:
                images[a:b] /= np.linalg.norm(images[a:b], 2, axis=(-2, -1),
                                              keepdims=True)
    if not np.all(np.isfinite(images)):
        raise InputError("word images overflow: matrix entries must be finite")
    return images


def evaluate(rep, word: Word) -> np.ndarray:
    """Image of a word, as a read-only float array: the ordered product of
    generator images and inverses, the last row of ``_word_products`` on
    the word's chain of prefixes.  Non-finite entries raise InputError.

    Each partial product past the 30th letter is divided by its largest
    singular value, so a longer word's result is a positive multiple of
    its image with unit 2-norm; every ratio read off it (singular and
    eigenvalue gaps, attracting spaces, cross ratios) is unchanged.
    """
    n = len(word)
    images = _word_products(rep, np.arange(n + 1), np.arange(-1, n),
                            np.array((0, *word.letters)))
    return _readonly(images[-1])


def circle_separation(a, b):
    """Distance of two angles on RP^1 (circle of circumference pi); floats
    or arrays, elementwise."""
    delta = np.abs(a - b) % np.pi
    return np.minimum(delta, np.pi - delta)


def _close_pairs(angles) -> tuple:
    """Every pair of the finite ``angles`` closer than ``ANGLE_SEPARATION``
    on RP^1, once: ``(a, b)`` index arrays, b after a in the stable order
    mod pi, counted across the wrap.  An angle's candidates are the at
    most n - 1 angles less than twice the tolerance ahead of it, found by
    ``searchsorted``; ``circle_separation`` keeps the close ones."""
    angles = np.asarray(angles, dtype=float)
    n = len(angles)
    ring = np.mod(angles, np.pi)
    order = np.argsort(ring, kind="stable")
    ring = ring[order]
    ahead = np.searchsorted(np.concatenate((ring, ring + np.pi)),
                            ring + 2 * ANGLE_SEPARATION)
    count = np.minimum(ahead - np.arange(1, n + 1), n - 1)
    first = np.repeat(np.arange(n), count)
    # candidate j of an angle lies j places ahead of it, j = 1..count
    step = np.arange(1, len(first) + 1) - np.searchsorted(first, first)
    a, b = order[first], order[(first + step) % n]
    close = circle_separation(angles[a], angles[b]) < ANGLE_SEPARATION
    return a[close], b[close]


def _rp1_fixed_points(stack) -> tuple:
    """Fixed lines on RP^1 of an (n, 2, 2) stack: ``(ends, loxodromic)``.

    ``ends`` is (n, 2), the (attracting, repelling) angles in [0, pi) of
    each loxodromic row and NaN elsewhere; ``loxodromic`` is the mask of
    rows with |tr| > ``LOXODROMIC_TRACE`` sqrt|det| and a positive
    discriminant.  Each eigendirection is the better-conditioned kernel
    row of M - lambda I, normalized by its 2-norm (``np.vecdot``, which
    rounds as ``np.linalg.norm`` of the one vector does).
    """
    a = np.asarray(stack, dtype=float)
    a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    tr = a00 + a11
    det = a00 * a11 - a01 * a10
    disc = tr * tr - 4.0 * det
    loxodromic = ~((np.abs(tr) <= LOXODROMIC_TRACE * np.sqrt(np.abs(det)))
                   | (disc <= 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.sqrt(disc)
        lam = np.stack([(tr + sq) / 2.0, (tr - sq) / 2.0], axis=1)
        swap = np.abs(lam[:, 0]) < np.abs(lam[:, 1])
        lam[swap] = lam[swap, ::-1]
        # rows of (a - lam I) are proportional; pick the better-conditioned kernel
        cand1 = np.stack(np.broadcast_arrays(a01[:, None], lam - a00[:, None]),
                         axis=-1)
        cand2 = np.stack(np.broadcast_arrays(lam - a11[:, None], a10[:, None]),
                         axis=-1)
        norm1 = np.sqrt(np.vecdot(cand1, cand1))
        norm2 = np.sqrt(np.vecdot(cand2, cand2))
        first = norm1 >= norm2
        v = np.where(first[..., None], cand1, cand2)
        v = v / np.where(first, norm1, norm2)[..., None]
        ends = np.arctan2(v[..., 1], v[..., 0]) % np.pi
    ends[ends >= np.pi] = 0.0
    ends[~loxodromic] = np.nan
    return ends, loxodromic


def _not_loxodromic(m) -> DomainError:
    """The DomainError of a 2x2 matrix without fixed points to read."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return DomainError(
        f"matrix is not loxodromic: trace {tr:.6g}, det {det:.6g}")


def rp1_fixed_points(m) -> tuple:
    """Angles in [0, pi) of the attracting and repelling fixed lines of a
    loxodromic 2x2 matrix, as ``(attracting, repelling)`` floats: the
    one-row call of ``_rp1_fixed_points``."""
    a = np.asarray(m, dtype=float)
    if a.shape != (2, 2):
        raise InputError("fixed points on RP^1 need a 2x2 matrix")
    ends, loxodromic = _rp1_fixed_points(a[None])
    if not loxodromic[0]:
        raise _not_loxodromic(a)
    return tuple(ends[0].tolist())


def is_cyclically_ordered(angles) -> bool:
    """True iff the sequence of angles in [0, pi) is monotone around RP^1
    for one orientation: its cyclic descents number 1 or n - 1.

    Cyclic shifts and full reversal of the sequence preserve the verdict;
    coincident points (separation below ``ANGLE_SEPARATION``) are a
    precondition error.
    """
    angles = [float(a) for a in angles]
    n = len(angles)
    if n < 4:
        raise PreconditionError("cyclic order needs at least 4 points")
    for i, j in itertools.combinations(range(n), 2):
        if circle_separation(angles[i], angles[j]) < ANGLE_SEPARATION:
            raise PreconditionError(
                f"boundary points {i} and {j} coincide (angles {angles[i]:.12g}, "
                f"{angles[j]:.12g})")
    descents = sum(
        1 for i in range(n) if angles[(i + 1) % n] < angles[i])
    return descents == 1 or descents == n - 1


def is_linked(g: Word, h: Word, ref) -> bool:
    """Whether the axes of g and h cross: (g-, h-, g+, h+) cyclically ordered.

    ``ref`` is a 2x2 reference representation supplying the boundary
    circle.  Both images must be loxodromic and the four fixed points
    pairwise distinct.
    """
    g_plus, g_minus = rp1_fixed_points(evaluate(ref, g))
    h_plus, h_minus = rp1_fixed_points(evaluate(ref, h))
    return is_cyclically_ordered([g_minus, h_minus, g_plus, h_plus])
