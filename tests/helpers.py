"""Test-only helpers: a seeded generator and a finite-difference gradient
checker."""

from __future__ import annotations

from typing import Callable

import numpy as np

from plcfe.errors import NumericError, ParameterError


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed and call sequence give identical
    streams on every platform."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def finite_diff_check(
    scalar_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params: np.ndarray,
    eps: float = 1e-6,
) -> float:
    """Compare the analytic gradient of scalar_fn against central finite
    differences.

    scalar_fn maps a flat parameter vector to (loss, gradient). Returns the
    max over coordinates of |g_fd - g| / max(1, |g|).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    params = np.asarray(params, dtype=np.float64)
    loss, grad = scalar_fn(params)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise NumericError("scalar_fn returned a non-finite loss or gradient")
    worst = 0.0
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + eps
        hi, _ = scalar_fn(bumped)
        bumped[i] = params[i] - eps
        lo, _ = scalar_fn(bumped)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite loss while probing coordinate {i}")
        g_fd = (hi - lo) / (2.0 * eps)
        err = abs(g_fd - grad[i]) / max(1.0, abs(grad[i]))
        worst = max(worst, err)
    return worst
