"""The benchmark's workloads: one public scan each, at a fixed size, with
the answer check every scan must pass.

Each workload is chosen so that one planned optimisation does most of its
work there and almost none in another workload (see ``why``).  The seed
only moves the free parameter x of the fg family; the Fuchsian workloads
have no free parameter, so every seed runs the same input there.
Conjugating their 2x2 reference would change the workload (the C_k scan
stops being certifiable), not re-sample it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from anosovlab import verification as ver
from anosovlab.crossratio import gcr
from anosovlab.groups import words_of_length
from anosovlab.representations import (
    fg_rep,
    fuchsian_locus,
    punctured_torus_reference,
)

K = 1
COLLAR_L = 3
REL_TOL = 1e-7   # relative tolerance of float answers; replacing subspace
                 # iteration by a reordered Schur form moves them by <= 1e-10


@dataclass(frozen=True)
class Answer:
    """What one scan reports, reduced to the quantities the check compares."""

    counts: dict          # integer sizes that must match exactly
    value: float          # min defect, min collar margin or min gcr - 1
    recomputed: float     # the worst item, recomputed by the single-item API
    verdict: bool         # the verdict the paper's theorems predict
    candidates: int       # items before filtering (base of items_kept_share)

    @property
    def items(self) -> int:
        return self.counts["items"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    uses_x: bool                           # whether the seed draws fg's x
    build: Callable                        # x -> Representation
    scan: Callable                         # rep -> report
    answer: Callable                       # (rep, report) -> Answer
    reference_counts: dict                 # exact at every seed
    reference_value: float                 # at seed 0 (x = 1 for fg)


def fg_parameter(seed: int) -> float:
    """x = 1 at seed 0, otherwise log-uniform in [0.5, 2]."""
    if seed == 0:
        return 1.0
    rng = random.Random(seed)
    return math.exp(rng.uniform(math.log(0.5), math.log(2.0)))


def _fuchsian(partition):
    return lambda x: fuchsian_locus(partition, punctured_torus_reference())


def _transversality_answer(check_one):
    def answer(rep, report) -> Answer:
        n = report.n_points
        return Answer(
            counts={"points": n, "items": report.n_triples,
                    "gap_failures": report.gap_failures},
            value=report.min_defect,
            recomputed=check_one(rep, K, report.worst_triple),
            verdict=report.verdict == "pass",
            candidates=n * (n - 1) * (n - 2))
    return answer


def _collar_answer(rep, reports) -> Answer:
    worst = min(reports, key=lambda r: r.margin)
    words = len(words_of_length(rep.rank, COLLAR_L)) - 1
    return Answer(
        counts={"items": len(reports)},
        value=worst.margin,
        recomputed=ver.collar_check(rep, K, worst.g, worst.h).margin,
        verdict=all(r.holds for r in reports),
        candidates=words * (words - 1))


def _positivity_answer(rep, report) -> Answer:
    d = rep.dim
    x, y, z, w = (ver.boundary_flag(rep, word, (K, d - K))
                  for word in report.worst_quadruple)
    value = gcr(x.part(K), y.part(d - K), z.part(d - K), w.part(K))
    return Answer(
        counts={"points": report.n_points, "items": report.n_quadruples},
        value=report.min_gcr - 1.0,
        recomputed=float(value) - 1.0,
        verdict=report.passed,
        candidates=report.n_quadruples)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="hk-fuchsian51-L3",
        why="38,280 cheap H_k triples on 44 points: the per-triple path "
            "(scan loop, direct_sum_defect, intersect) is ~55% of the time; "
            "batched triple kernels and intersection caches show here",
        uses_x=False,
        build=_fuchsian((5, 1)),
        scan=lambda rep: ver.hk_scan(rep, K, 3),
        answer=_transversality_answer(ver.check_Hk),
        reference_counts={"points": 44, "items": 38280, "gap_failures": 0},
        reference_value=0.00664840506557898),
    Workload(
        name="ck-fuchsian71-L2",
        why="Only 648 C_k triples but d=8 flags: attracting_space subspace "
            "iteration is ~80% of the time, certification ~20%; a Schur-based "
            "attracting space shows here, triple kernels do not",
        uses_x=False,
        build=_fuchsian((7, 1)),
        scan=lambda rep: ver.ck_scan(rep, K, 2),
        answer=_transversality_answer(ver.check_Ck),
        reference_counts={"points": 12, "items": 648, "gap_failures": 0},
        reference_value=0.0011321459396576598),
    Workload(
        name="collar-fg-L3",
        why="1,944 linked pairs, no attracting_space and no triple kernel: "
            "eig_by_modulus on 52 distinct matrices is ~66%; control for "
            "those, and where one spectrum record per word shows",
        uses_x=True,
        build=fg_rep,
        scan=lambda rep: ver.collar_scan(rep, K, COLLAR_L),
        answer=_collar_answer,
        reference_counts={"items": 1944},
        reference_value=45.80789337049672),
    Workload(
        name="posratio-fg-L3",
        why="543,004 cyclic arrangements: the O(n^4) Python quadruple loop "
            "is ~68% of the time and runs nowhere else; an O(n^3) positivity "
            "scan shows only here",
        uses_x=True,
        build=fg_rep,
        scan=lambda rep: ver.check_positively_ratioed(rep, K, 3),
        answer=_positivity_answer,
        reference_counts={"points": 44, "items": 543004},
        reference_value=5.06501274966098e-06),
)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def check_answer(workload: Workload, x: float | None, answer: Answer) -> list:
    """Problems with one scan's answer; empty when the answer is right.

    Counts depend only on the 2x2 reference, so they must match at every
    seed; the reported minimum is compared with the reference when the
    input is the seed-0 input.  The worst item is compared by value only:
    the collar scan has 104 pairs tied at its minimum margin.
    """
    problems = []
    if not answer.verdict:
        problems.append("verdict contradicts the theorem")
    if answer.counts != workload.reference_counts:
        problems.append(
            f"counts {answer.counts} != {workload.reference_counts}")
    if (not workload.uses_x or x == 1.0) and not _close(
            answer.value, workload.reference_value):
        problems.append(
            f"value {answer.value!r} != reference "
            f"{workload.reference_value!r} within {REL_TOL:g}")
    if not _close(answer.recomputed, answer.value):
        problems.append(
            f"worst item recomputes to {answer.recomputed!r}, scan "
            f"reported {answer.value!r}")
    return problems
