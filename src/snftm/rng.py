"""Named counter-based random streams.

All randomness in the package flows from one master seed through streams
addressed by a path such as ``("dgp", subject)`` or
``("mc", replicate)``.  Streams are Philox counter-based generators, so any
stream can be reconstructed independently of how many others were used —
subject 7's draws do not depend on the cohort size or on thread scheduling.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 77003917

_INT_TAG = 0x01
_STR_TAG = 0x02


def _words(component) -> tuple[int, ...]:
    if isinstance(component, (bool,)):
        raise TypeError("stream path components must be ints or strings")
    if isinstance(component, (int, np.integer)):
        v = int(component) & 0xFFFFFFFFFFFFFFFF
        return (_INT_TAG, v & 0xFFFFFFFF, (v >> 32) & 0xFFFFFFFF)
    if isinstance(component, str):
        digest = hashlib.sha256(component.encode("utf-8")).digest()
        return (
            _STR_TAG,
            int.from_bytes(digest[:4], "little"),
            int.from_bytes(digest[4:8], "little"),
        )
    raise TypeError(f"stream path components must be ints or strings, got {component!r}")


def stream(seed: int, *path) -> np.random.Generator:
    """A generator for the stream named by ``path`` under ``seed``."""
    key = tuple(w for c in path for w in _words(c))
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
