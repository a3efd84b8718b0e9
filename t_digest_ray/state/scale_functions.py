"""Scale functions for the t-digest.

A scale function maps quantiles ``q in [0, 1]`` to a "k-index" whose unit
spacing defines the maximum cluster sizes of a t-digest: a centroid covering
quantile range ``[q0, q1]`` is legal iff ``k(q1) - k(q0) <= 1``.  The core
variants (semantics per the reference implementation,
``/root/reference/core/src/main/java/com/tdunning/math/stats/ScaleFunction.java``):

* ``K_0``  (ScaleFunction.java:34)  — uniform cluster sizes, constant accuracy.
* ``K_1``  (ScaleFunction.java:75)  — arcsine scale; error ~ sqrt(q(1-q)).
* ``K_2``  (ScaleFunction.java:300) — log-odds scale; cluster size ~ q(1-q),
  with normalizer ``Z(c, n) = 4 ln(n/c) + 24`` (ScaleFunction.java:360).
* ``K_3``  (ScaleFunction.java:462) — log scale; cluster size ~ min(q, 1-q),
  with ``Z(c, n) = 4 ln(n/c) + 21``.

Each provides four operations used by the merge kernel and invariant checks:

* ``k(q, normalizer)``        — quantile → k-index
* ``q(k, normalizer)``        — k-index → quantile (inverse)
* ``max_size(q, normalizer)`` — max *relative* cluster weight at quantile q
* ``normalizer(compression, n)``

All are vectorized over numpy arrays (scalar floats also accepted).
``next_q_many(q, normalizer)`` is the merge walk's step, ``q(k(q) + 1)``,
over arrays but rounded exactly as the scalar ``k_scalar``/``q_scalar``
calls round, so a batched walk finds the scalar walk's clusters.  Inputs
to ``k`` are clamped to ``[1e-15, 1 - 1e-15]`` exactly like the reference's
``limitCall`` guard (ScaleFunction.java:926-940).
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-15


def _clip_q(q):
    return np.clip(q, _EPS, 1.0 - _EPS)


def _map(fn, x: np.ndarray) -> np.ndarray:
    """A scalar ``math`` function applied to each element of ``x``."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


class ScaleFunction:
    """Base interface; subclasses are stateless singletons."""

    name: str = "base"

    def k(self, q, normalizer):
        raise NotImplementedError

    def q(self, k, normalizer):
        raise NotImplementedError

    # scalar fast paths (math module beats numpy by ~20x on scalars); used in
    # the merge kernel's per-centroid emit loop
    def k_scalar(self, q: float, normalizer: float) -> float:
        return float(self.k(q, normalizer))

    def q_scalar(self, k: float, normalizer: float) -> float:
        return float(self.q(k, normalizer))

    def next_q_many(self, q: np.ndarray, normalizer: np.ndarray) -> np.ndarray:
        """``q_scalar(k_scalar(q, z) + 1.0, z)`` for each ``(q, z)`` pair:
        the quantile one k-step above q, as the scalar walk computes it."""
        k_fn, q_fn = self.k_scalar, self.q_scalar
        return np.array([q_fn(k_fn(a, z) + 1.0, z)
                         for a, z in zip(q.tolist(), normalizer.tolist())],
                        dtype=np.float64)

    def max_size(self, q, normalizer):
        """Maximum relative cluster weight at quantile q (ScaleFunction.java:831-850)."""
        raise NotImplementedError

    def normalizer(self, compression: float, n: float) -> float:
        raise NotImplementedError

    # Stateless: all instances of a class are one function, including the
    # copies that pickling a module singleton makes in a Ray worker, so they
    # compare and hash equal (``tdigest._unit_starts`` caches on the scale).
    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):  # pragma: no cover
        return self.name


class K0(ScaleFunction):
    """Uniform cluster sizes: k(q) = normalizer * q, normalizer = c/2."""

    name = "K_0"

    def k(self, q, normalizer):
        return np.multiply(normalizer, q)

    def q(self, k, normalizer):
        return np.divide(k, normalizer)

    def max_size(self, q, normalizer):
        return np.broadcast_to(np.float64(1.0 / normalizer), np.shape(q)).copy() \
            if np.ndim(q) else 1.0 / normalizer

    def k_scalar(self, q, normalizer):
        return normalizer * q

    def q_scalar(self, k, normalizer):
        return k / normalizer

    def normalizer(self, compression, n):
        return compression / 2.0


class K1(ScaleFunction):
    """Arcsine scale: k(q) = normalizer * asin(2q - 1), normalizer = c/(2*pi)."""

    name = "K_1"

    def k(self, q, normalizer):
        return normalizer * np.arcsin(2.0 * _clip_q(q) - 1.0)

    def q(self, k, normalizer):
        x = np.clip(np.divide(k, normalizer), -np.pi / 2, np.pi / 2)
        return (np.sin(x) + 1.0) / 2.0

    def max_size(self, q, normalizer):
        q = np.asarray(q, dtype=np.float64)
        out = 2.0 * np.sin(0.5 / normalizer) * np.sqrt(np.maximum(q * (1.0 - q), 0.0))
        # hard zero at the boundaries (ScaleFunction.java:134-141)
        out = np.where((q <= 0.0) | (q >= 1.0), 0.0, out)
        return out if out.ndim else float(out)

    def k_scalar(self, q, normalizer):
        q = min(max(q, _EPS), 1.0 - _EPS)
        return normalizer * math.asin(2.0 * q - 1.0)

    def q_scalar(self, k, normalizer):
        x = min(max(k / normalizer, -math.pi / 2), math.pi / 2)
        return (math.sin(x) + 1.0) / 2.0

    def normalizer(self, compression, n):
        return compression / (2.0 * np.pi)


class K2(ScaleFunction):
    """Log-odds scale: k(q) = normalizer * ln(q/(1-q)).

    normalizer = c / Z(c, n) with Z = 4 ln(n/c) + 24 (ScaleFunction.java:355-361).
    Cluster sizes are proportional to q(1-q) -> strictly bounded centroid count.
    """

    name = "K_2"

    def k(self, q, normalizer):
        qc = _clip_q(q)
        return normalizer * np.log(qc / (1.0 - qc))

    def q(self, k, normalizer):
        w = np.exp(np.divide(k, normalizer))
        return w / (1.0 + w)

    def max_size(self, q, normalizer):
        q = np.asarray(q, dtype=np.float64)
        out = np.maximum(q * (1.0 - q), 0.0) / normalizer
        return out if out.ndim else float(out)

    def k_scalar(self, q, normalizer):
        q = min(max(q, _EPS), 1.0 - _EPS)
        return normalizer * math.log(q / (1.0 - q))

    def q_scalar(self, k, normalizer):
        w = math.exp(k / normalizer)
        return w / (1.0 + w)

    def next_q_many(self, q, normalizer):
        # the scalar pair inlined (a quarter off the batched fold's time):
        # numpy's float64 arithmetic rounds as Python's does; log and exp
        # stay math's, one element at a time (numpy's SIMD log/exp may
        # round differently on another CPU). A subclass with its own
        # scalar pair takes the generic form.
        cls = type(self)
        if cls.k_scalar is not K2.k_scalar or cls.q_scalar is not K2.q_scalar:
            return super().next_q_many(q, normalizer)
        q = np.minimum(np.maximum(q, _EPS), 1.0 - _EPS)
        k = normalizer * _map(math.log, q / (1.0 - q))
        w = _map(math.exp, (k + 1.0) / normalizer)
        return w / (1.0 + w)

    def normalizer(self, compression, n):
        return compression / self.z(compression, n)

    @staticmethod
    def z(compression, n):
        return 4.0 * math.log(max(n, 1.0) / compression) + 24.0


class K3(ScaleFunction):
    """Log scale: k(q) = normalizer * ln(2q) for q<=0.5, odd-symmetric above.

    Cluster sizes ~ min(q, 1-q); Z = 4 ln(n/c) + 21 (ScaleFunction.java:462-528).
    """

    name = "K_3"

    def k(self, q, normalizer):
        qc = _clip_q(np.asarray(q, dtype=np.float64))
        lo = np.log(2.0 * np.minimum(qc, 1.0 - qc)) * normalizer
        out = np.where(qc <= 0.5, lo, -lo)
        return out if out.ndim else float(out)

    def q(self, k, normalizer):
        k = np.asarray(k, dtype=np.float64)
        lo = np.exp(-np.abs(k) / normalizer) / 2.0
        out = np.where(k <= 0, lo, 1.0 - lo)
        return out if out.ndim else float(out)

    def max_size(self, q, normalizer):
        q = np.asarray(q, dtype=np.float64)
        out = np.maximum(np.minimum(q, 1.0 - q), 0.0) / normalizer
        return out if out.ndim else float(out)

    def k_scalar(self, q, normalizer):
        q = min(max(q, _EPS), 1.0 - _EPS)
        if q <= 0.5:
            return normalizer * math.log(2.0 * q)
        return -normalizer * math.log(2.0 * (1.0 - q))

    def q_scalar(self, k, normalizer):
        lo = math.exp(-abs(k) / normalizer) / 2.0
        return lo if k <= 0 else 1.0 - lo

    def normalizer(self, compression, n):
        return compression / self.z(compression, n)

    @staticmethod
    def z(compression, n):
        return 4.0 * math.log(max(n, 1.0) / compression) + 21.0


def fast_asin(x):
    """Piecewise-polynomial asin approximation, |err| <= 1e-6 on [-1, 1]
    (ScaleFunction.fastAsin, ScaleFunction.java:861-924: four blended
    rational models below 0.9, exact asin above). Vectorized."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    sign = np.sign(x)
    a = np.abs(x)
    out = np.full_like(a, np.nan)
    big = a > 0.9
    out[big & (a <= 1.0)] = np.arcsin(a[big & (a <= 1.0)])
    small = ~big & (a <= 1.0)
    if small.any():
        s = a[small]
        c0_high, c1_high = 0.1, 0.55
        c2_low, c2_high = 0.5, 0.8
        c3_low, c3_high = 0.75, 0.9
        c4_low = 0.87
        m = np.array([
            [0.2955302411, 1.2221903614, 0.1488583743, 0.2422015816,
             -0.3688700895, 0.0733398445],
            [-0.0430991920, 0.9594035750, -0.0362312299, 0.1204623351,
             0.0457029620, -0.0026025285],
            [-0.034873933724, 1.054796752703, -0.194127063385,
             0.283963735636, 0.023800124916, -0.000872727381],
            [-0.37588391875, 2.61991859025, -2.48835406886, 1.48605387425,
             0.00857627492, -0.00015802871]])
        inv = 1.0 / (1.0 - s)
        vars_ = np.stack([np.ones_like(s), s, s * s, s ** 3, inv, inv * inv])
        b = np.clip
        x0 = b((c0_high - s) / c0_high, 0, 1)
        x1 = b((c1_high - s) / (c1_high - c2_low), 0, 1)
        x2 = b((c2_high - s) / (c2_high - c3_low), 0, 1)
        x3 = b((c3_high - s) / (c3_high - c4_low), 0, 1)
        mix = np.stack([x0, (1 - x0) * x1, (1 - x1) * x2, (1 - x2) * x3])
        mix4 = 1 - x3
        r = (mix * (m @ vars_)).sum(axis=0) + mix4 * np.arcsin(s)
        out[small] = r
    out = sign * out
    return float(out[0]) if scalar else out


class K1Glued(K1):
    """K_1 glued linear below the split point (signalfx asymmetric scale,
    ScaleFunction.java:154-231): constant cluster size on [0, 0.5], arcsine
    above — cheap low quantiles, accurate high quantiles."""

    name = "K_1_GLUED"
    split = 0.5

    def k(self, q, normalizer):
        q = np.asarray(_clip_q(q), dtype=np.float64)
        lo = normalizer * (2.0 * q - 1.0)  # asin(0) + (q-s)/sqrt(s(1-s))
        hi = normalizer * np.arcsin(2.0 * q - 1.0)
        out = np.where(q <= self.split, lo, hi)
        return out if out.ndim else float(out)

    def q(self, k, normalizer):
        k = np.asarray(k, dtype=np.float64)
        lo = np.divide(k, normalizer) * 0.5 + self.split
        hi = (np.sin(np.clip(np.divide(k, normalizer),
                             -np.pi / 2, np.pi / 2)) + 1.0) / 2.0
        out = np.where(k <= 0.0, lo, hi)
        return out if out.ndim else float(out)

    def max_size(self, q, normalizer):
        q = np.asarray(q, dtype=np.float64)
        lo = 0.5 / normalizer
        hi = 2.0 * np.sin(0.5 / normalizer) * np.sqrt(
            np.maximum(q * (1.0 - q), 0.0))
        out = np.where(q <= self.split, lo, hi)
        out = np.where((q <= 0.0) | (q >= 1.0), 0.0, out)
        return out if out.ndim else float(out)

    def k_scalar(self, q, normalizer):
        q = min(max(q, _EPS), 1.0 - _EPS)
        if q <= self.split:
            return normalizer * (2.0 * q - 1.0)
        return normalizer * math.asin(2.0 * q - 1.0)

    def q_scalar(self, k, normalizer):
        if k <= 0:
            return k / normalizer * 0.5 + self.split
        return (math.sin(min(k / normalizer, math.pi / 2)) + 1.0) / 2.0


class K1Fast(K1):
    """K_1 with the fastAsin approximation in k() (ScaleFunction.java:235)."""

    name = "K_1_FAST"

    def k(self, q, normalizer):
        return normalizer * fast_asin(2.0 * np.asarray(_clip_q(q)) - 1.0)

    def k_scalar(self, q, normalizer):
        q = min(max(q, _EPS), 1.0 - _EPS)
        return normalizer * fast_asin(2.0 * q - 1.0)


class K2Glued(K2):
    """K_2 glued linear below 0.5 (ScaleFunction.java:368-458)."""

    name = "K_2_GLUED"
    split = 0.5

    def k(self, q, normalizer):
        q = np.asarray(_clip_q(q), dtype=np.float64)
        lo = normalizer * (4.0 * q - 2.0)  # (q-s)/s/(1-s) + ln(s/(1-s))
        hi = normalizer * np.log(q / (1.0 - q))
        out = np.where(q <= self.split, lo, hi)
        return out if out.ndim else float(out)

    def q(self, k, normalizer):
        k = np.asarray(k, dtype=np.float64)
        lo = 0.25 * np.divide(k, normalizer) + self.split
        w = np.exp(np.minimum(np.divide(k, normalizer), 700.0))
        hi = w / (1.0 + w)
        out = np.where(k <= 0.0, lo, hi)
        return out if out.ndim else float(out)

    def max_size(self, q, normalizer):
        q = np.asarray(q, dtype=np.float64)
        out = np.where(q <= self.split, 0.25 / normalizer,
                       np.maximum(q * (1.0 - q), 0.0) / normalizer)
        return out if out.ndim else float(out)

    def k_scalar(self, q, normalizer):
        q = min(max(q, _EPS), 1.0 - _EPS)
        if q <= self.split:
            return normalizer * (4.0 * q - 2.0)
        return normalizer * math.log(q / (1.0 - q))

    def q_scalar(self, k, normalizer):
        if k <= 0:
            return 0.25 * k / normalizer + self.split
        w = math.exp(min(k / normalizer, 700.0))
        return w / (1.0 + w)


class K3Glued(K3):
    """K_3 glued linear below 0.5 (ScaleFunction.java:535-601)."""

    name = "K_3_GLUED"

    def k(self, q, normalizer):
        q = np.asarray(_clip_q(q), dtype=np.float64)
        lo = normalizer * (2.0 * q - 1.0)
        hi = -normalizer * np.log(2.0 * (1.0 - q))
        out = np.where(q <= 0.5, lo, hi)
        return out if out.ndim else float(out)

    def q(self, k, normalizer):
        k = np.asarray(k, dtype=np.float64)
        lo = (np.divide(k, normalizer) + 1.0) / 2.0
        hi = 1.0 - np.exp(-np.divide(k, normalizer)) / 2.0
        out = np.where(k <= 0.0, lo, hi)
        return out if out.ndim else float(out)

    def max_size(self, q, normalizer):
        q = np.asarray(q, dtype=np.float64)
        out = np.where(q <= 0.5, 0.5 / normalizer,
                       np.maximum(1.0 - q, 0.0) / normalizer)
        return out if out.ndim else float(out)

    def k_scalar(self, q, normalizer):
        q = min(max(q, _EPS), 1.0 - _EPS)
        if q <= 0.5:
            return normalizer * (2.0 * q - 1.0)
        return -normalizer * math.log(2.0 * (1.0 - q))

    def q_scalar(self, k, normalizer):
        if k <= 0:
            return (k / normalizer + 1.0) / 2.0
        return 1.0 - math.exp(-k / normalizer) / 2.0


class KQuadratic(ScaleFunction):
    """Cluster sizes ~ 1/(1+q) (ScaleFunction.java:608-645)."""

    name = "K_QUADRATIC"

    def k(self, q, normalizer):
        q = np.asarray(q, dtype=np.float64)
        out = normalizer * (q * q + 2.0 * q) / 3.0
        return out if out.ndim else float(out)

    def q(self, k, normalizer):
        k = np.asarray(k, dtype=np.float64)
        out = np.sqrt(np.maximum(normalizer * (normalizer + 3.0 * k), 0.0)) \
            / normalizer - 1.0
        return out if out.ndim else float(out)

    def max_size(self, q, normalizer):
        q = np.asarray(q, dtype=np.float64)
        out = 1.5 / normalizer / (1.0 + q)
        return out if out.ndim else float(out)

    def k_scalar(self, q, normalizer):
        return normalizer * (q * q + 2.0 * q) / 3.0

    def q_scalar(self, k, normalizer):
        return math.sqrt(max(normalizer * (normalizer + 3.0 * k), 0.0)) \
            / normalizer - 1.0

    def normalizer(self, compression, n):
        return compression / 2.0


class K2NoNorm(K2):
    """K_2 without the Z(c, n) normalizer: centroid count grows ~ log(n)
    (ScaleFunction.java:652-706 — good accuracy, unbounded size)."""

    name = "K_2_NO_NORM"

    def normalizer(self, compression, n):
        return compression


class K3NoNorm(K3):
    """K_3 without the normalizer (ScaleFunction.java:709-765)."""

    name = "K_3_NO_NORM"

    def normalizer(self, compression, n):
        return compression


K_0 = K0()
K_1 = K1()
K_2 = K2()
K_3 = K3()
K_1_GLUED = K1Glued()
K_1_FAST = K1Fast()
K_2_GLUED = K2Glued()
K_3_GLUED = K3Glued()
K_QUADRATIC = KQuadratic()
K_2_NO_NORM = K2NoNorm()
K_3_NO_NORM = K3NoNorm()

SCALE_FUNCTIONS: dict[str, ScaleFunction] = {
    s.name: s for s in (K_0, K_1, K_2, K_3, K_1_GLUED, K_1_FAST, K_2_GLUED,
                        K_3_GLUED, K_QUADRATIC, K_2_NO_NORM, K_3_NO_NORM)
}
# numeric codes used by the serialized digest header
SCALE_CODES: dict[str, int] = {
    "K_0": 0, "K_1": 1, "K_2": 2, "K_3": 3, "K_1_GLUED": 4, "K_1_FAST": 5,
    "K_2_GLUED": 6, "K_3_GLUED": 7, "K_QUADRATIC": 8, "K_2_NO_NORM": 9,
    "K_3_NO_NORM": 10,
}
SCALE_FROM_CODE: dict[int, ScaleFunction] = {
    SCALE_CODES[name]: fn for name, fn in SCALE_FUNCTIONS.items()
}


def get_scale(name_or_fn) -> ScaleFunction:
    if isinstance(name_or_fn, ScaleFunction):
        return name_or_fn
    return SCALE_FUNCTIONS[str(name_or_fn)]
