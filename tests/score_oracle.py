"""Reference moments for the exam-score distribution.

Computes, without importing the package under test:

* the exact mean/std of the continuous normal(70, 10) truncated to
  [1, 100] (closed form via erf) -- the reference the sampled scores are
  checked against;
* the exact mean/std of the integer-rounded variant (probability mass on
  1..100) as a cross-check that rounding shifts moments well inside the
  stated tolerances.

It also keeps the score sampler as numpy array code, the reference that
the package's plain-Python sampler must match draw for draw.
"""

import math


def phi(x):
    return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


def cdf(x):
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


def truncated_moments(mu=70.0, sigma=10.0, lo=1.0, hi=100.0):
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    z = cdf(b) - cdf(a)
    mean = mu + sigma * (phi(a) - phi(b)) / z
    var = sigma * sigma * (
        1 + (a * phi(a) - b * phi(b)) / z - ((phi(a) - phi(b)) / z) ** 2
    )
    return mean, math.sqrt(var)


def rounded_moments(mu=70.0, sigma=10.0):
    z = cdf((100 - mu) / sigma) - cdf((1 - mu) / sigma)
    total = m1 = m2 = 0.0
    for k in range(1, 101):
        lo = max(k - 0.5, 1.0)
        hi = min(k + 0.5, 100.0)
        p = (cdf((hi - mu) / sigma) - cdf((lo - mu) / sigma)) / z
        total += p
        m1 += p * k
        m2 += p * k * k
    assert abs(total - 1) < 1e-12
    return m1, math.sqrt(m2 - m1 * m1)


if __name__ == "__main__":
    m, s = truncated_moments()
    print(f"continuous truncated: mean={m:.6f} std={s:.6f}")
    m, s = rounded_moments()
    print(f"rounded variant     : mean={m:.6f} std={s:.6f}")


def reference_sample_scores(n, rng, redraws=None):
    """The score sampler as numpy array code, the reference for the stream.

    Draws n rounded normal(70, 10) scores from the Generator `rng`, redraws
    the out-of-range positions together until all lie in [1, 100] and
    redraws the whole group on a collision.  `redraws`, a dict, counts the
    "range" and "collision" redraws made.
    """
    import numpy as np

    counts = {} if redraws is None else redraws
    while True:
        draw = np.rint(rng.normal(70, 10, n)).astype(int)
        bad = (draw < 1) | (draw > 100)
        while bad.any():
            counts["range"] = counts.get("range", 0) + 1
            draw[bad] = np.rint(rng.normal(70, 10, int(bad.sum()))).astype(int)
            bad = (draw < 1) | (draw > 100)
        if len(set(draw.tolist())) == n:
            return tuple(int(x) for x in draw)
        counts["collision"] = counts.get("collision", 0) + 1
