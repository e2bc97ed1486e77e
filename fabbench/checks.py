"""Correctness checks shared by the workloads.

Each check returns a :class:`~fabbench.common.Check`; the benchmark's
tests feed them deliberately corrupted outputs to show they fail.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from fabbench.common import Check

#: Score tolerance between two forward paths of the same weights (float32
#: summation order differs between batch shapes and kernels).
SCORE_TOL = 1e-4

ABSTAIN = -1


def selective_decisions(
    name: str,
    labels: Sequence[int],
    raw_labels: Sequence[int],
    scores: Sequence[float],
    ref_raw_labels: Sequence[int],
    ref_scores: Sequence[float],
    threshold: float,
) -> Check:
    """Served selective decisions against a reference forward pass.

    Requires equal argmax labels, selection scores within
    :data:`SCORE_TOL`, ``label == raw_label`` exactly where the score
    clears the threshold and ``ABSTAIN`` elsewhere, and the same
    accept/abstain decision as the reference except for scores within
    the tolerance of the threshold, where float rounding decides.
    """
    labels = np.asarray(labels, dtype=np.int64)
    raw = np.asarray(raw_labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    ref_raw = np.asarray(ref_raw_labels, dtype=np.int64)
    ref_scores = np.asarray(ref_scores, dtype=np.float64)
    if not (len(labels) == len(raw) == len(scores) == len(ref_raw) == len(ref_scores)):
        return Check(name, False, "output and reference lengths differ")
    if len(labels) == 0:
        return Check(name, False, "nothing was compared")
    tol = SCORE_TOL * np.maximum(1.0, np.abs(ref_scores))
    bad_raw = raw != ref_raw
    bad_score = ~(np.abs(scores - ref_scores) <= tol)
    expected = np.where(scores >= threshold, raw, ABSTAIN)
    bad_label = labels != expected
    decided = np.abs(ref_scores - threshold) > tol
    bad_decision = decided & ((scores >= threshold) != (ref_scores >= threshold))
    bad = bad_raw | bad_score | bad_label | bad_decision
    detail = (
        f"{len(labels)} compared, {int(bad.sum())} wrong "
        f"(label {int(bad_raw.sum())}, score {int(bad_score.sum())}, "
        f"abstain {int((bad_label | bad_decision).sum())}), "
        f"{int((~decided).sum())} within tolerance of the threshold"
    )
    return Check(name, not bad.any(), detail)


def finite_decreasing(name: str, losses: Sequence[float]) -> Check:
    """Epoch losses are finite and trend down.

    Every epoch after the first ends below the first, and the last ends
    below the second.  Adjacent epochs are not compared: once a run
    covers more than a handful of epochs, Adam's epoch loss may tick up
    by a fraction of a percent without anything being wrong.
    """
    values = [float(v) for v in losses]
    if len(values) < 2:
        return Check(name, False, f"need two epochs, got {len(values)}")
    finite = all(np.isfinite(values))
    below_first = all(v < values[0] for v in values[1:])
    still_falling = len(values) < 3 or values[-1] < values[1]
    detail = "epoch losses " + ", ".join(f"{v:.4f}" for v in values)
    return Check(name, finite and below_first and still_falling, detail)


def count_check(name: str, wrong: int, total: int, what: str) -> Check:
    """Passes when none of ``total`` operations went wrong."""
    return Check(name, wrong == 0 and total > 0, f"{wrong} of {total} {what}")
