"""Host-speed calibration.

The benchmark runs on a small shared machine whose speed drifts by 10-70%
within minutes while nothing in the benchmark changes (the same thresholds
pass took 13.4 s and 22.8 s ten minutes apart).  ``burst()`` times two
fixed kernels that never change with the package: ``small``, a loop of
``kron``, leg permutation and ``eigh`` on 8 x 8 complex matrices (the shape of
the verify suites' operator code), and ``eig81``, one Hermitian eigensolve of
an 81 x 81 complex matrix (the motif norms that dominate ``thresholds``).
Each workload names the kernel whose time tracked its pass times when both
were measured side by side; a pass's times are rescaled by
``REFERENCE_S[kernel] / median burst``, which reports them at the host speed
the reference times were taken at.
"""

from __future__ import annotations

import time

import numpy as np

#: median kernel times on the 2-core x86-64 host (2.0 GHz, one BLAS thread)
#: the bounds were set on; they only fix the scale of the rescaled times
REFERENCE_S = {"small": 0.0036, "eig81": 0.0010}

_RNG = np.random.default_rng(0)
_H81 = _RNG.normal(size=(81, 81)) + 1j * _RNG.normal(size=(81, 81))
_H81 = _H81 + _H81.conj().T
_A8 = _RNG.normal(size=(8, 8)) + 1j * _RNG.normal(size=(8, 8))
_A8 = _A8 + _A8.conj().T
_EYE8 = np.eye(8, dtype=complex)
_PERM = [2, 1, 0, 5, 4, 3]


def burst() -> dict:
    """Seconds taken by each fixed kernel, timed once."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(20):
        big = np.kron(_A8, _EYE8).reshape((4,) * 6).transpose(_PERM).reshape(64, 64)
        w, v = np.linalg.eigh(_A8)
        acc += float(np.linalg.norm(big - big.conj().T))
        acc += float(((v * np.exp(1j * w)) @ v.conj().T).real.sum())
    middle = time.perf_counter()
    acc += float(np.linalg.eigvalsh(_H81)[0])
    end = time.perf_counter()
    if not np.isfinite(acc):
        raise RuntimeError("calibration arithmetic failed")
    return {"small": middle - start, "eig81": end - middle}


def scale(bursts: list, kernel: str) -> float:
    """Factor that rescales times taken alongside ``bursts`` to the
    reference host speed."""
    return REFERENCE_S[kernel] / float(np.median([b[kernel] for b in bursts]))
