"""Exact probability vectors: their tolerance, their checks and their CDFs.

One numeric tolerance, :data:`TOLERANCE`, for every comparison in the
package: probabilities that dip below zero by more than it are treated
as bugs, not noise, and cells below it are never drawn.  A measurement
basis is a bare matrix whose column i is its i-th ket, and the joint
index convention for a pair is (n1, n2) -> n1 * d + n2.

The package works on pure states and exact tables only.  The dense
density-operator route it is tested against (Born rule, nonselective
measurement, partial trace) lives with the tests, in ``tests/dense.py``.
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    """``p`` clipped at 0, once each distribution along its last axis is
    checked: no cell below -``TOLERANCE``, and a sum within it of 1."""
    if p.min() < -TOLERANCE:
        raise ValueError(f"probability {float(p.min())!r} below -tolerance; "
                         "upstream state is corrupt")
    p = np.clip(p, 0.0, None)
    totals = np.atleast_1d(p.sum(axis=-1))
    wrong = np.abs(totals - 1.0) > TOLERANCE
    if wrong.any():
        raise ValueError(f"probabilities sum to {float(totals[wrong][0])!r}, expected 1")
    return p


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution(s) along the last axis, safe to invert.

    Cells below ``TOLERANCE`` become exact zeros, and each CDF reads
    exactly 1.0 from its last possible cell on.  An inverse-CDF lookup
    with ``u < 1`` therefore lands on an outcome of nonzero probability,
    whatever the round-off in the running sums.
    """
    p = np.where(probs < TOLERANCE, 0.0, probs)
    cum = np.cumsum(p, axis=-1)
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(p.shape[-1]) >= np.expand_dims(last, -1)] = 1.0
    return _frozen(cum)
