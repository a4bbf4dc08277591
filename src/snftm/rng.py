"""Named counter-based random streams.

All randomness in the package flows from one master seed through streams
named by one string: ``"dgp"`` (cohort sampling), ``"cfsim"``
(counterfactual draws) and ``"mcgcomp"`` (Monte-Carlo G-computation).
Each draws one row of uniforms per subject, draw or path from its stream,
so row ``i`` does not depend on how many rows follow it: subject 7's draws
do not depend on the cohort size.  Streams are Philox counter-based
generators; none depends on which other streams were used.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 77003917

_KEY_TAG = 0x02  # the first spawn-key word of every stream: another value re-keys them all


def stream(seed: int, name: str) -> np.random.Generator:
    """A generator for the stream named ``name`` under ``seed``."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = (_KEY_TAG, int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:8], "little"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def categorical(probs, u):
    """Inverse-CDF draw of a code from ``probs`` at ``u`` uniform in [0, 1).
    A ``u`` past a cumulative sum rounded below 1 gets the last code with
    positive probability, never a trailing zero-probability one.

    Row-wise for a ``(rows x codes)`` matrix and a vector ``u``: row ``i``
    draws at ``u[i]`` with the same sequential sums, so each code equals
    the draw from that row alone."""
    if np.ndim(probs) == 2:
        probs = np.asarray(probs, dtype=float)
        below = np.asarray(u)[:, None] < np.cumsum(probs, axis=1)
        fallback = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
        return np.where(below.any(axis=1), np.argmax(below, axis=1), fallback)
    acc = 0.0
    for code, p in enumerate(probs):
        acc += p
        if u < acc:
            return code
    return max((code for code, p in enumerate(probs) if p > 0.0), default=len(probs) - 1)
