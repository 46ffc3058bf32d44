"""The word ball: the words a scan or check reads, held as a prefix tree of
columns (each row's length, parent row and last letter), their images, of
the columns alone, and every per-word value read off them, each a table
built by one batched call; their Word objects are built only when read.
And the boundary atlas, its attracting fixed points less coincident ones
(``_close_pairs``)."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core_linalg import (
    Spectrum,
    Subspace,
    _invariant_bases,
    _spectra,
    spectrum,
)
from .errors import InputError
from .groups import (
    Word,
    _close_pairs,
    _not_loxodromic,
    _rp1_fixed_points,
    _tree_row,
    _word_products,
    _word_tree,
    words_of_length,
)
from .representations import Representation
from .spectral import _eigenvalue_columns, _gap_error


class _WordBall:
    """The words a scan or check reads, and everything it reads off them.

    The rows are the ball ``words_of_length(rep.rank, max_length)``, its
    first ``size`` rows, then the prefixes of the named words and of their
    inverses that it lacks, shortest first, then by letters.  The ball is
    held as columns, built by array arithmetic (``groups._word_tree``):
    ``lengths``, ``parents`` (the row of the word less its last letter)
    and ``last`` (its signed last letter).  ``words``, their Word objects,
    is built only when first read; ``row`` finds a word's row from its
    letters.  ``images`` stacks the images in one read-only (n, d, d)
    array, one ``groups._word_products`` call on the columns.
    Every per-word value below is a table, a row per word, built on first
    use by one batched call and kept for the life of the ball (one scan
    or check):

    - the 2x2 reference images (``groups._word_products``) and their
      fixed points, one ``groups._rp1_fixed_points`` call
      (``reference_ends``), read by ``fixed_points`` and ``loxodromic``;
    - the Spectrum table of ``images`` and the mask of its failed rows
      (``failed``); a word whose row failed its residual check raises its
      NumericError only when it is read (``spectrum``, ``flags``).  The
      table is values-only (one ``core_linalg._spectra`` call without
      eigenvectors) until a flag or a one-row ``spectrum`` is read, which
      replaces it by one table with eigenvectors.  LAPACK runs the same QR
      sweeps either way, so its values, and all read off them before,
      stay the same bit for bit;
    - the eigenvalue-side values at each index k, one
      ``spectral._eigenvalue_columns`` call (``eigenvalues``);
    - one attracting-flag table per dimension over every row that passed
      its residual check, one ``core_linalg._invariant_bases`` call, whose
      errors ``flags`` raises where their rows are read.
    """

    def __init__(self, rep: Representation, max_length: int, named=()):
        self.rep = rep
        self.max_length = max_length
        lengths, parents, last = _word_tree(rep.rank, max_length)
        self.size = len(lengths)
        # the named rows: each prefix of a named word or of its inverse
        # that lies outside the ball, shortest first, then by letters
        prefixes = {v.letters[:i] for w in named for v in (w, w.inverse())
                    for i in range(1, len(v) + 1)}
        extra = [letters for letters in sorted(sorted(prefixes), key=len)
                 if not self._in_ball(letters)]
        self._named = {letters: i for i, letters in enumerate(extra, self.size)}
        if extra:
            lengths = np.concatenate([lengths, [len(v) for v in extra]])
            parents = np.concatenate([parents,
                                      [self._row(v[:-1]) for v in extra]])
            last = np.concatenate([last, [v[-1] for v in extra]])
        self.lengths, self.parents, self.last = lengths, parents, last
        self.images = _word_products(rep, lengths, parents, last)
        self.images.flags.writeable = False
        self._reference = None
        self._spectrum = None
        self._failed = None
        self._eigenvalues: dict = {}
        self._flags: dict = {}
        self._spaces: dict = {}

    def __len__(self) -> int:
        """The number of rows."""
        return len(self.lengths)

    @cached_property
    def words(self) -> list:
        """The Word of every row: ``words_of_length``, then the named rows'
        words, built on first read."""
        words = words_of_length(self.rep.rank, self.max_length)
        words.extend(map(Word._trusted, self._named))
        return words

    def _in_ball(self, letters: tuple) -> bool:
        return len(letters) <= self.max_length and all(
            abs(x) <= self.rep.rank for x in letters)

    def _row(self, letters: tuple) -> int:
        """The row of the reduced word ``letters``: in the ball,
        ``groups._tree_row``; else the named row's (KeyError if none)."""
        if not self._in_ball(letters):
            return self._named[letters]
        return _tree_row(self.rep.rank, letters)

    def row(self, w: Word) -> int:
        """The row of ``w`` in ``words`` and ``images``."""
        return self._row(w.letters)

    def reference_ends(self) -> tuple:
        """``(ends, loxodromic)`` of every row: the (n, 2) attracting and
        repelling angles of its reference image (NaN where it is not
        loxodromic) and the loxodromic mask."""
        if self._reference is None:
            ref = self.rep.reference
            if ref is None:
                raise InputError(
                    "representation carries no 2x2 boundary reference")
            images = _word_products(ref, self.lengths, self.parents,
                                    self.last)
            self._reference = (images, *_rp1_fixed_points(images))
        return self._reference[1:]

    def fixed_points(self, w: Word) -> tuple:
        """Attracting and repelling angles of ``w`` on the reference circle;
        DomainError where its reference image is not loxodromic."""
        ends, loxodromic = self.reference_ends()
        row = self.row(w)
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

    def _spectra(self, vectors: bool = False) -> Spectrum:
        """The Spectrum table of ``images``, built on first use, values
        only until ``vectors`` is asked for."""
        if self._spectrum is None or (vectors
                                      and self._spectrum.vectors is None):
            self._spectrum = _spectra(self.images, vectors)
        return self._spectrum

    def failed(self) -> np.ndarray:
        """The mask of rows that failed their residual check, built with
        the Spectrum table."""
        if self._failed is None:
            errors = self._spectra().errors
            self._failed = np.zeros(len(self), dtype=bool)
            self._failed[list(errors)] = True
        return self._failed

    def spectrum(self, w: Word) -> Spectrum:
        """The one-row Spectrum of the image of ``w``, or its error raised."""
        return spectrum(self._spectra(vectors=True).take([self.row(w)]))

    def eigenvalues(self, k: int):
        """``spectral._eigenvalue_columns`` at index k of every row, one
        call; a failed row reads as the identity."""
        if k not in self._eigenvalues:
            self._eigenvalues[k] = _eigenvalue_columns(np.where(
                self.failed()[:, None], 1.0, self._spectra().values), k)
        return self._eigenvalues[k]

    def flags(self, dim: int, rows) -> tuple:
        """Attracting spaces of dimension ``dim`` of the images of ``rows``:
        ``(bases, missing)``, (len(rows), d, dim) orthonormal bases, and
        True where a row has no eigenvalue-modulus gap at ``dim`` (its
        basis is zero).

        The rows are read from the table of ``dim``, built on first read
        over every row that passed its residual check by one
        ``core_linalg._invariant_bases`` call.  A row whose residual or
        kernel check failed raises its NumericError here, the first in
        ``rows`` order.  Dimensions 0 and d are the zero and the whole
        space.
        """
        d = self.rep.dim
        if dim < 0 or dim > d:
            raise InputError(f"flag dimension {dim} outside 0..{d}")
        rows = np.asarray(rows, dtype=np.intp)
        if dim in (0, d):
            return (np.broadcast_to(np.eye(d)[:, :dim], (len(rows), d, dim)),
                    np.zeros(len(rows), dtype=bool))
        if dim not in self._flags:
            table = self._spectra(vectors=True)
            n, good = len(self), np.flatnonzero(~self.failed())
            bases, missing = np.zeros((n, d, dim)), np.zeros(n, dtype=bool)
            bases[good], missing[good], found = _invariant_bases(
                table, good, 0, dim)
            errors = dict(table.errors)
            errors.update((int(good[i]), e) for i, e in found.items())
            self._flags[dim] = bases, missing, errors
        bases, missing, errors = self._flags[dim]
        if errors:
            for r in rows.tolist():
                if r in errors:
                    raise errors[r].with_traceback(None)
        return bases[rows], missing[rows]

    def gap_error(self, dim: int, row: int):
        """The GapError of a row missing from the flag table of ``dim``,
        naming its word (``spectral._gap_error``)."""
        return _gap_error(self.eigenvalues(dim), row, dim, self.words[row])

    def space(self, w: Word, dim: int) -> Subspace:
        """Attracting space of dimension ``dim`` of the image of ``w``: its
        row of the flag table, or its GapError."""
        if (w, dim) not in self._spaces:
            row = self.row(w)
            bases, missing = self.flags(dim, [row])
            if missing[0]:
                raise self.gap_error(dim, row)
            self._spaces[w, dim] = Subspace(bases[0])
        return self._spaces[w, dim]


class BoundaryAtlas:
    """Deduplicated attracting fixed points of a word ball.

    ``angles`` ascends in [0, pi); ``angles[i]`` is the attracting angle,
    in the 2x2 reference, of ``words[i]``.  The loxodromic words of
    ``self.ball`` are stably sorted by it, and the later point of every
    close pair (``groups._close_pairs``, the linkage's rule) is dropped,
    the last across the wrap: a chain of points each close to the next
    keeps only its first.  Non-loxodromic words are skipped and counted.
    Boundary flags are read from the same ball's flag tables; ``rows``
    holds the ball row of each point.
    """

    def __init__(self, rep: Representation, max_length: int):
        self.ball = _WordBall(rep, max_length)
        words, ends = self.ball.loxodromic()
        self.skipped_nonloxodromic = len(self.ball) - 1 - len(words)
        order = np.argsort(ends[:, 0], kind="stable")
        dropped = np.zeros(len(order), dtype=bool)
        dropped[np.maximum(*_close_pairs(ends[order, 0]))] = True
        kept = order[~dropped]
        self.words = [words[i] for i in kept]
        self.angles = ends[kept, 0]
        self.rows = self.ball.loxodromic_rows()[kept]

    def __len__(self) -> int:
        return len(self.words)
