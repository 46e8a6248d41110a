"""A fixed reference kernel that measures how fast the machine runs right now.

The hosts this benchmark runs on change speed by up to 2x over minutes, for
identical work in one process (CPU time tracks wall time, so it is not a
wait for a core).  A pass's wall time therefore says as much about the host
as about robustgd.  The benchmark times this kernel right before and right
after every pass and reports the pass time rescaled to the kernel's nominal
time; see NOTES.md, "Normalised wall time".

The kernel is frozen: it never imports robustgd, and its inputs come from a
fixed seed, so a change to the program cannot change it.  Its mix follows
the workloads' hot paths: per-column root iterations on narrow and wide
matrices (Python-level overhead around small NumPy calls, and vectorised
work), and single-row and full-batch softmax gradients.
"""

import time

import numpy as np

# Seconds one sample() typically took on a 2-core Xeon VM.  It only sets
# the unit: a normalised time is pass_s * NOMINAL_S / reference_s, which
# reads as plain seconds on a host where a sample takes NOMINAL_S.
NOMINAL_S = 0.45
# The kernel runs this many times per sample, about 0.45 s in all: shorter
# samples follow the host's second-to-second jitter instead of its drift.
REPEATS = 12


class _Chi:
    """Bounded even criterion, the same algebra as the program's default."""

    def __init__(self, c):
        self.c = c

    def chi(self, u):
        t = u * u
        return 1.0 - 1.0 / (1.0 + t) - self.c


def _rescale(r, chi, iters):
    sigma = np.maximum(r.std(axis=0), 1e-12)
    for _ in range(iters):
        h = chi.chi(r / sigma).mean(axis=0)
        sigma = sigma * np.sqrt(np.maximum(1.0 + h / chi.c, 0.0))
    return sigma


def _softmax_grad(X, y, W):
    z = X @ W
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(X.shape[0]), y] -= 1.0
    return (p[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20170601)
        self.chi = _Chi(0.3)
        self.narrow = [rng.lognormal(0.0, 1.75, (500, 2)) for _ in range(8)]
        self.wide = rng.lognormal(0.0, 1.75, (500, 128))
        self.X = rng.standard_normal((2000, 20))
        self.y = rng.integers(0, 3, 2000)
        self.W = rng.standard_normal((20, 3)) * 0.1
        self.kernel()  # warm caches and NumPy's dispatch

    def kernel(self):
        acc = 0.0
        for x in self.narrow:
            acc += float(_rescale(x - np.median(x, axis=0), self.chi, 40).sum())
        acc += float(_rescale(self.wide - self.wide.mean(axis=0), self.chi, 12).sum())
        for i in range(400):
            acc += float(_softmax_grad(self.X[i:i + 1], self.y[i:i + 1], self.W).sum())
        for _ in range(4):
            acc += float(_softmax_grad(self.X, self.y, self.W).sum())
        return acc

    def sample(self):
        """Wall seconds of REPEATS runs of the kernel."""
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            self.kernel()
        return time.perf_counter() - t0
