"""Adaptive Gauss-Kronrod integration and bracketed root finding.

All floating-point policy for the continuous-case modules lives here: explicit
tolerances, a hard subdivision budget, deterministic results (two calls with
identical inputs produce bit-identical output), and rational changes of
variable that fold infinite intervals onto finite ones.

The integrator is an adaptive bisection scheme over 15-point Kronrod panels
with the embedded 7-point Gauss rule supplying the error estimate.  Endpoint
power singularities x**p with p > -1 are resolved by refinement (panel nodes
are strictly interior, so the integrand is never evaluated at the endpoints).
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    NoSignChange,
    NonConvergence,
    NonFinite,
    PathwayEntropyError,
)

__all__ = ["QuadratureSpec", "integrate", "find_root"]

# 7-point Gauss-Legendre abscissae and the Kronrod extension, positive half,
# descending.  Indices 1, 3, 5, 7 of _XGK are the Gauss nodes.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node layout, ascending in [-1, 1].
_NODES = np.concatenate((-_XGK[:7], _XGK[7:8], _XGK[6::-1]))
_W_KRONROD = np.concatenate((_WGK[:7], _WGK[7:8], _WGK[6::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[[1, 3, 5, 7, 9, 11, 13]] = np.concatenate((_WG[:3], _WG[3:4], _WG[2::-1]))

_HEAD_PANELS = 8      # initial uniform split of the integration interval
_BATCH = 4            # worst panels refined per sweep

_ROOT_MAX_ITER = 300                          # Brent steps before NonConvergence
_ROOT_RTOL = 4.0 * sys.float_info.epsilon     # relative part of the root tolerance


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration request: interval, tolerances, and refinement budget.

    `lower` and `upper` may be -inf/+inf.  The accepted result satisfies
    estimated_error <= max(abs_tol, rel_tol * |integral|); exhausting the
    subdivision budget first raises NonConvergence.
    """

    lower: float
    upper: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise DomainError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


class _Evaluator:
    """Calls the integrand on node batches, vectorizing when the callable
    accepts arrays and silently falling back to a scalar loop otherwise.
    The package's own errors are answers, not a sign of a scalar-only
    callable, so they propagate from the first batch at once."""

    def __init__(self, f: Callable[[float], float]):
        self._f = f
        self._vectorized: bool | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._vectorized is None:
            # the first batch decides: vectorized when f(array) returns an
            # array of the batch's shape without raising
            try:
                out = np.asarray(self._f(x))
            except PathwayEntropyError:
                raise
            except Exception:
                out = None
            self._vectorized = out is not None and out.shape == x.shape
            if self._vectorized:
                return np.asarray(out, dtype=float)
        if self._vectorized:
            return np.asarray(self._f(x), dtype=float)
        return np.fromiter((float(self._f(float(v))) for v in x), dtype=float, count=x.size)


def _fold_infinite(f: Callable, lower: float, upper: float):
    """Return (g, a, b): a finite-interval integrand equivalent to f on
    [lower, upper].  Rational maps keep power-law tails integrable."""
    lo_inf = math.isinf(lower)
    hi_inf = math.isinf(upper)
    if not lo_inf and not hi_inf:
        return f, float(lower), float(upper)

    if lo_inf and hi_inf:
        def g(t, _f=f):
            t = np.asarray(t, dtype=float)
            inside = np.abs(t) < 1.0
            ts = np.where(inside, t, 0.5)
            denom = 1.0 - ts * ts
            x = ts / denom
            jac = (1.0 + ts * ts) / (denom * denom)
            return np.where(inside, np.asarray(_f(x), dtype=float) * jac, 0.0)
        return g, -1.0, 1.0

    if hi_inf:
        a, sign = float(lower), 1.0
    else:
        a, sign = float(upper), -1.0

    def g(t, _f=f, _a=a, _sign=sign):
        t = np.asarray(t, dtype=float)
        inside = t < 1.0
        ts = np.where(inside, t, 0.5)
        x = _a + _sign * ts / (1.0 - ts)
        jac = 1.0 / (1.0 - ts) ** 2
        return np.where(inside, np.asarray(_f(x), dtype=float) * jac, 0.0)
    return g, 0.0, 1.0


def _panels(evaluate: _Evaluator, lo: np.ndarray, hi: np.ndarray):
    """Kronrod value and scaled error estimate for a batch of panels."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    fv = evaluate(nodes.ravel()).reshape(nodes.shape)
    if not np.all(np.isfinite(fv)):
        bad = nodes.ravel()[~np.isfinite(fv.ravel())][0]
        raise NonFinite(f"integrand returned a non-finite value near x={bad!r}")
    kron = half * (fv @ _W_KRONROD)
    gauss = half * (fv @ _W_GAUSS)
    mean = kron / (2.0 * half)
    resasc = half * (np.abs(fv - mean[:, None]) @ _W_KRONROD)
    diff = np.abs(kron - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, diff)
    return kron, err


def integrate(f: Callable[[float], float], spec: QuadratureSpec) -> float:
    """Integrate f over spec's interval to the requested tolerance.

    Raises NonConvergence when max_subdivisions bisections are not enough and
    NonFinite when the integrand returns NaN or an infinity at a node.
    """
    g, a, b = _fold_infinite(f, spec.lower, spec.upper)
    evaluate = _Evaluator(g)

    edges = np.linspace(a, b, _HEAD_PANELS + 1)
    kron, err = _panels(evaluate, edges[:-1], edges[1:])

    # heap entries: (-error, sequence, lo, hi, value, error)
    heap = []
    seq = 0
    for i in range(_HEAD_PANELS):
        heap.append((-err[i], seq, edges[i], edges[i + 1], kron[i], err[i]))
        seq += 1
    heapq.heapify(heap)

    used = 0
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(item[5] for item in heap)
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return total
        if used >= spec.max_subdivisions:
            raise NonConvergence(
                f"estimated error {total_err:.3e} above tolerance {tol:.3e} "
                f"after {used} subdivisions")
        batch = []
        while heap and len(batch) < _BATCH and used + len(batch) < spec.max_subdivisions:
            batch.append(heapq.heappop(heap))
        used += len(batch)
        lo = np.empty(2 * len(batch))
        hi = np.empty(2 * len(batch))
        for i, (_, _, pa, pb, _, _) in enumerate(batch):
            pm = 0.5 * (pa + pb)
            lo[2 * i], hi[2 * i] = pa, pm
            lo[2 * i + 1], hi[2 * i + 1] = pm, pb
        kron, err = _panels(evaluate, lo, hi)
        for i in range(lo.size):
            heapq.heappush(heap, (-err[i], seq, lo[i], hi[i], kron[i], err[i]))
            seq += 1


def find_root(f: Callable[[float], float], bracket: Sequence[float], tol: float) -> float:
    """Locate a sign change of f inside `bracket` to width `tol`.

    Bracketing Brent iteration (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) following scipy's `brentq` step for step, so
    the roots are the same bits: convergence is guaranteed once the
    endpoints straddle a sign change; otherwise NoSignChange is raised.
    NonFinite is raised when f returns NaN, NonConvergence after 300 steps.
    """
    tol = float(tol)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise DomainError(f"need bracket[0] < bracket[1], got {bracket!r}")
    fa = float(f(a))
    fb = float(f(b))
    if math.isnan(fa) or math.isnan(fb):
        raise NonFinite("bracket endpoint evaluated to NaN")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChange(
            f"f({a}) = {fa:.6g} and f({b}) = {fb:.6g} have the same sign")
    # xcur is the best iterate, xblk the contrapoint across the sign change,
    # xpre the previous iterate; scur and spre are the last two steps
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if (fpre > 0) != (fcur > 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic step
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # IEEE division gives inf or nan: bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NonFinite(f"f({xcur!r}) evaluated to NaN")
    raise NonConvergence(f"Failed to converge after {_ROOT_MAX_ITER} iterations.")
