"""The word ball: the words a scan or check reads, their images and every
per-word value read off them, each a table built by one batched call; and
the boundary atlas, its deduplicated attracting fixed points."""

from __future__ import annotations

import numpy as np

from .core_linalg import (
    Spectrum,
    Subspace,
    _invariant_bases,
    _spectra,
    spectrum,
)
from .errors import (
    GapError,
    InputError,
)
from .groups import (
    RENORMALIZE_ABOVE,
    Word,
    circle_separation,
    _not_loxodromic,
    _rp1_fixed_points,
    evaluate,
    words_of_length,
)
from .representations import Representation
from .spectral import _eigenvalue_columns

POINT_DEDUP_TOL = 1e-8    # boundary angles closer than this are one point


class _WordBall:
    """The words a scan or check reads, and everything it reads off them.

    ``words`` is the ball ``words_of_length(rep.rank, max_length)``, its
    first ``size`` words, then the prefixes of the named words and of their
    inverses that it lacks, shortest first, then by letters.  ``images``
    stacks their images in one read-only (n, d, d) array.  Every per-word
    value below is a table, a row per word, built on first use by one
    batched call and kept for the life of the ball (one scan or check):

    - the 2x2 reference images (``_products``) and their fixed points, one
      ``groups._rp1_fixed_points`` call (``reference_ends``), read by
      ``fixed_points`` and ``loxodromic``;
    - the Spectrum table of ``images``, one ``core_linalg._spectra`` call;
      a word whose row failed its residual check raises its NumericError
      only when it is read (``spectrum``, ``flags``);
    - the eigenvalue-side values at each index k, one
      ``spectral._eigenvalue_columns`` call (``eigenvalues``);
    - one attracting-flag table per dimension: ``fill`` computes the rows
      it lacks in one ``core_linalg._invariant_bases`` call and keeps
      their errors, and ``flags`` raises them where their rows are read.
    """

    def __init__(self, rep: Representation, max_length: int, named=()):
        self.rep = rep
        self.words = words_of_length(rep.rank, max_length)
        self.size = len(self.words)
        self._rows = {w.letters: i for i, w in enumerate(self.words)}
        extra = {v.letters[:i] for w in named for v in (w, w.inverse())
                 for i in range(1, len(v) + 1)}.difference(self._rows)
        for letters in sorted(sorted(extra), key=len):
            self._rows[letters] = len(self.words)
            self.words.append(Word._trusted(letters))
        # each (length, last letter) group's rows and their prefixes' rows,
        # and the rows beyond RENORMALIZE_ABOVE letters
        groups, self._long = {}, []
        for i, w in enumerate(self.words[1:], 1):
            letters = w.letters
            if len(letters) > RENORMALIZE_ABOVE:
                self._long.append(i)
            else:
                rows, prefixes = groups.setdefault(
                    (len(letters), letters[-1]), ([], []))
                rows.append(i)
                prefixes.append(self._rows[letters[:-1]])
        self._steps = sorted(groups.items())
        self._used = max((abs(w.letters[-1]) for w in self.words[1:]),
                         default=0)
        images = self._products(rep)
        if not np.all(np.isfinite(images)):
            raise InputError("word images overflow: matrix entries must be finite")
        images.flags.writeable = False
        self.images = images
        self._reference = None
        self._spectrum = None
        self._eigenvalues: dict = {}
        self._flags: dict = {}
        self._spaces: dict = {}

    def _products(self, rep: Representation) -> np.ndarray:
        """The (n, dim, dim) images of ``words`` under ``rep``, equal to
        ``evaluate`` bit for bit: beyond ``RENORMALIZE_ABOVE`` letters its
        result, else the prefix's row times a generator or its inverse,
        one stacked matmul per (length, last letter) group, shortest
        first."""
        if self._used > rep.rank:
            raise InputError(f"word uses generator {self._used}, "
                             f"representation has {rep.rank}")
        steps = {}
        for i, g in enumerate(rep.generator_images, 1):
            steps[i], steps[-i] = g, np.linalg.inv(g)
        images = np.empty((len(self.words), rep.dim, rep.dim))
        images[0] = np.eye(rep.dim)   # the ball's first word is the identity
        for (_, letter), (rows, prefixes) in self._steps:
            images[rows] = images[prefixes] @ steps[letter]
        for i in self._long:
            images[i] = evaluate(rep, self.words[i])
        return images

    def row(self, w: Word) -> int:
        """The row of ``w`` in ``words`` and ``images``."""
        return self._rows[w.letters]

    def reference_ends(self) -> tuple:
        """``(ends, loxodromic)`` of every row: the (n, 2) attracting and
        repelling angles of its reference image (NaN where it is not
        loxodromic) and the loxodromic mask."""
        if self._reference is None:
            ref = self.rep.reference
            if ref is None:
                raise InputError(
                    "representation carries no 2x2 boundary reference")
            images = self._products(ref)
            self._reference = (images, *_rp1_fixed_points(images))
        return self._reference[1:]

    def fixed_points(self, w: Word) -> tuple:
        """Attracting and repelling angles of ``w`` on the reference circle;
        DomainError where its reference image is not loxodromic."""
        ends, loxodromic = self.reference_ends()
        row = self._rows[w.letters]
        if not loxodromic[row]:
            raise _not_loxodromic(self._reference[0][row])
        return tuple(ends[row].tolist())

    def loxodromic_rows(self) -> np.ndarray:
        """The rows of the nontrivial ball words, not the named ones, with
        reference fixed points, in order."""
        return np.flatnonzero(self.reference_ends()[1][1:self.size]) + 1

    def loxodromic(self) -> tuple:
        """The words of ``loxodromic_rows`` and their (n, 2) (attracting,
        repelling) angles."""
        rows = self.loxodromic_rows()
        return [self.words[r] for r in rows], self.reference_ends()[0][rows]

    def _spectra(self) -> Spectrum:
        """The Spectrum table of ``images``, built on first use."""
        if self._spectrum is None:
            self._spectrum = _spectra(self.images)
        return self._spectrum

    def failed(self) -> np.ndarray:
        """The mask of rows that failed their residual check."""
        return np.isin(np.arange(len(self.words)),
                       list(self._spectra().errors))

    def spectrum(self, w: Word) -> Spectrum:
        """The one-row Spectrum of the image of ``w``, or its error raised."""
        return spectrum(self._spectra().take([self._rows[w.letters]]))

    def eigenvalues(self, k: int):
        """``spectral._eigenvalue_columns`` at index k of every row, one
        call; a failed row reads as the identity."""
        if k not in self._eigenvalues:
            self._eigenvalues[k] = _eigenvalue_columns(np.where(
                self.failed()[:, None], 1.0, self._spectra().values), k)
        return self._eigenvalues[k]

    def fill(self, dim: int, rows) -> tuple:
        """The flag table of dimension ``dim``, 0 < dim < d, with ``rows``
        computed: ``(bases, missing, errors, done)`` over all rows.

        ``errors`` starts as the Spectrum table's; the rows not yet done
        that passed their residual check are computed by one
        ``core_linalg._invariant_bases`` call, which adds the errors of
        its checks.  Nothing is raised.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if dim not in self._flags:
            n, d = len(self.words), self.rep.dim
            self._flags[dim] = (np.zeros((n, d, dim)), np.zeros(n, dtype=bool),
                                dict(self._spectra().errors),
                                np.zeros(n, dtype=bool))
        bases, missing, errors, done = self._flags[dim]
        todo = np.unique(rows[~done[rows]])
        if todo.size:
            good = todo[~self.failed()[todo]]
            bases[good], missing[good], found = _invariant_bases(
                self._spectra(), good, 0, dim)
            errors.update((int(good[i]), e) for i, e in found.items())
            done[todo] = True
        return self._flags[dim]

    def flags(self, dim: int, rows) -> tuple:
        """Attracting spaces of dimension ``dim`` of the images of ``rows``:
        ``(bases, missing)``, (len(rows), d, dim) orthonormal bases, and
        True where a row has no eigenvalue-modulus gap at ``dim`` (its
        basis is zero).

        The rows are read from the table of ``dim`` (``fill``); a row
        whose residual or kernel check failed raises its NumericError
        here, the first in ``rows`` order.  Dimensions 0 and d are the
        zero and the whole space.
        """
        d = self.rep.dim
        if dim < 0 or dim > d:
            raise InputError(f"flag dimension {dim} outside 0..{d}")
        rows = np.asarray(rows, dtype=np.intp)
        if dim in (0, d):
            return (np.broadcast_to(np.eye(d)[:, :dim], (len(rows), d, dim)),
                    np.zeros(len(rows), dtype=bool))
        bases, missing, errors, _ = self.fill(dim, rows)
        if errors:
            for r in rows.tolist():
                if r in errors:
                    raise errors[r].with_traceback(None)
        return bases[rows], missing[rows]

    def gap_error(self, dim: int, row: int) -> GapError:
        """The GapError of a row missing from the flag table of ``dim``,
        naming its word."""
        moduli = np.abs(self._spectra().values[row])
        ratio = float(moduli[dim - 1] / max(moduli[dim], 1e-300))
        return GapError(
            f"no eigenvalue gap at dimension {dim} for word {self.words[row]}: "
            f"|lambda_{dim}|/|lambda_{dim + 1}| = {ratio:.6g}",
            index=dim, ratio=ratio)

    def space(self, w: Word, dim: int) -> Subspace:
        """Attracting space of dimension ``dim`` of the image of ``w``: its
        row of the flag table, or its GapError."""
        if (w, dim) not in self._spaces:
            row = self._rows[w.letters]
            bases, missing = self.flags(dim, [row])
            if missing[0]:
                raise self.gap_error(dim, row)
            self._spaces[w, dim] = Subspace(bases[0])
        return self._spaces[w, dim]


class BoundaryAtlas:
    """Deduplicated attracting fixed points of a word ball, with flag access.

    ``angles`` ascends in [0, pi); ``angles[i]`` is the attracting angle,
    in the 2x2 reference, of ``words[i]``.  The loxodromic words of
    ``self.ball`` are stably sorted by it, and a point within
    ``POINT_DEDUP_TOL`` of the last kept one (or, across the wrap, of the
    first) is dropped.  Non-loxodromic words are skipped and counted.
    Boundary flags are read from the same ball's flag tables; ``rows``
    holds the ball row of each point.
    """

    def __init__(self, rep: Representation, max_length: int):
        self.ball = _WordBall(rep, max_length)
        words, ends = self.ball.loxodromic()
        self.skipped_nonloxodromic = len(self.ball.words) - 1 - len(words)
        attracting = ends[:, 0].tolist()
        kept = []
        for i in sorted(range(len(words)), key=attracting.__getitem__):
            if kept and circle_separation(
                    attracting[kept[-1]], attracting[i]) < POINT_DEDUP_TOL:
                continue
            kept.append(i)
        # the sort is linear but the circle wraps: the last can equal the first
        if len(kept) > 1 and circle_separation(
                attracting[kept[0]], attracting[kept[-1]]) < POINT_DEDUP_TOL:
            kept.pop()
        self.words = [words[i] for i in kept]
        self.angles = ends[kept, 0]
        self.rows = self.ball.loxodromic_rows()[kept]

    def __len__(self) -> int:
        return len(self.words)

    def flags(self, dim: int, points) -> tuple:
        """``(bases, missing)`` of the flags of dimension ``dim`` at the
        point indices ``points``: ``_WordBall.flags`` on their rows."""
        return self.ball.flags(dim, self.rows[points])
