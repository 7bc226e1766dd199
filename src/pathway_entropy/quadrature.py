"""Adaptive Gauss-Kronrod integration, the package's one quadrature engine.

All floating-point policy for the continuous-case modules lives here: explicit
tolerances, a hard subdivision budget, deterministic results (two calls with
identical inputs produce bit-identical output), and rational changes of
variable that fold infinite intervals onto finite ones.

The integrator is an adaptive bisection scheme over 15-point Kronrod panels
with the embedded 7-point Gauss rule supplying the error estimate, as in
QUADPACK (Piessens et al., 1983).  It is vector-valued in the manner of
scipy's `quad_vec`: an integrand may return one row of values per integral,
and the rows share the panels while each meets its own tolerance.  The
panel state lives in arrays, and each sweep bisects, in one batch, every
panel whose error is above its share (1/panels) of its row's tolerance.
The first sweep takes 8 equal head panels; those of [0, 1], which every
half-infinite fold and maxent integral uses, and of [-1, 1], the whole
line's fold, are read-only constants, and f gets a copy of the nodes.
Endpoint power singularities x**p with p > -1 are resolved by refinement
(panel nodes are strictly interior, so the integrand is never evaluated at
the endpoints); a panel refined down to the float spacing, where its nodes
collapse or an outer node would round onto a finite endpoint, raises
NonConvergence.  A non-finite node value, or an integral that overflows the
float range from finite ones, raises NonFinite; the nodes are scanned only
once a sum is not finite, which every non-finite node value makes it, as
the Kronrod weights are positive.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    NonConvergence,
    NonFinite,
    PathwayEntropyError,
)

__all__ = ["QuadratureSpec", "integrate"]

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

# One product of the node values with these columns gives the Kronrod sum,
# 200 times the Kronrod-Gauss difference, and each value's deviation from
# the panel mean, which is half the Kronrod sum.
_RULES = np.column_stack((_W_KRONROD, 200.0 * (_W_KRONROD - _W_GAUSS),
                          np.eye(15) - 0.5 * _W_KRONROD[:, None]))
_TINY = sys.float_info.min

# Initial uniform split of the integration interval into 8 panels: centers
# and half-widths as fractions of the interval's length.
_HEAD_PANELS = np.array([np.arange(1.0, 16.0, 2.0), np.ones(8)]) / 16.0


def _head(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The 8 head panels of [a, b] (centers, half-widths) and their nodes."""
    panels = (b - a) * _HEAD_PANELS
    panels[0] += a
    return panels, panels[0][:, None] + panels[1][:, None] * _NODES


def _frozen(arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


# [0, 1] takes every maxent integral and every half-infinite fold, and
# [-1, 1] the fully infinite fold, so their heads are built once.
_HEADS = {(0.0, 1.0): _frozen(_head(0.0, 1.0)), (-1.0, 1.0): _frozen(_head(-1.0, 1.0))}


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


def _spec_over(lower: float, upper: float,
               template: QuadratureSpec | None = None) -> QuadratureSpec:
    """Integration spec over [lower, upper], tolerances taken from
    `template` when given."""
    if template is None:
        return QuadratureSpec(lower, upper)
    return replace(template, lower=lower, upper=upper)


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at the nodes x as floats, one per node or one row per integral:
    from one call on the array when it returns that shape, else from one
    call per node.  Only a TypeError or ValueError, what scalar-only code
    raises on an array, sends f to the per-node calls; if those fail too,
    the array call's error is named as the cause.  The package's own errors
    and every other exception propagate at once."""
    def per_node():
        return np.array([f(float(v)) for v in x]).T

    try:
        out = np.asarray(f(x))
    except PathwayEntropyError:
        raise
    except (TypeError, ValueError) as array_error:
        try:
            out = per_node()
        except Exception as exc:
            raise exc from array_error
    else:
        if out.ndim not in (1, 2) or out.shape[-1:] != x.shape:
            out = per_node()
    return np.asarray(out, dtype=float)


def _fold_infinite(f: Callable, lower: float, upper: float):
    """Return (g, a, b, x_of): a finite-interval integrand g on [a, b]
    equivalent to f on [lower, upper], and the map from g's variable back
    to x.  Rational maps keep power-law tails integrable."""
    lo_inf = math.isinf(lower)
    hi_inf = math.isinf(upper)
    if not lo_inf and not hi_inf:
        return lambda t: _evaluate(f, t), float(lower), float(upper), lambda t: t

    if lo_inf and hi_inf:
        a, b = -1.0, 1.0

        def x_of(t):
            return t / (1.0 - t * t)

        def fold(t, fx):
            u = 1.0 - t * t
            return fx * ((1.0 + t * t) / (u * u))
    else:
        a, b = 0.0, 1.0
        edge, sign = (float(lower), 1.0) if hi_inf else (float(upper), -1.0)

        def x_of(t):
            return edge + sign * (t / (1.0 - t))

        def fold(t, fx):
            u = 1.0 - t
            return fx / (u * u)

    # nodes round onto the folded interval's ends only on panels narrower
    # than the float spacing there; they get an interior stand-in and weight 0
    def g(t):
        inside = np.abs(t) < 1.0
        t = np.where(inside, t, 0.5)
        return np.where(inside, fold(t, _evaluate(f, x_of(t))), 0.0)
    return g, a, b, x_of


def _rule(kept: np.ndarray | None, panels: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """The panel state: the columns of `kept`, then one column for each
    panel with center panels[0], half-width panels[1] and node values fv.
    A column holds the center and half-width, then the Kronrod value of
    every integrand row on the panel, then its scaled error estimate, so
    the shape is (2 + 2 rows, panels).  Finite values may overflow here;
    the caller ignores that and raises on the totals."""
    half = panels[1]
    rows = fv.shape[0]
    if kept is None:
        kept = np.empty((2 + 2 * rows, 0))
    state = np.empty((2 + 2 * rows, kept.shape[1] + half.size))
    state[:, :kept.shape[1]] = kept
    new = state[:, kept.shape[1]:]
    new[:2] = panels
    sums = fv @ _RULES
    np.multiply(half, sums[..., 0], out=new[2:2 + rows])
    # QUADPACK's estimate.  The Kronrod-Gauss difference never exceeds
    # resasc much, so the ratio below stays in [0, 1], and it is 0 where
    # the values are constant.
    resasc = np.abs(sums[..., 2:]) @ _W_KRONROD
    ratio = np.minimum(np.abs(sums[..., 1]), resasc)
    ratio /= resasc + _TINY
    ratio **= 1.5
    ratio *= resasc
    np.multiply(half, ratio, out=new[2 + rows:])
    return state


def integrate(f: Callable, spec: QuadratureSpec) -> float | np.ndarray:
    """Integrate f over spec's interval to the requested tolerance.

    f maps an array of n nodes to n values, or to shape (m, n) for m
    integrals over the same interval, which then share the panels and
    return as an array of m values; a scalar integrand returns a float.
    Each batch probes f with one call on the array; a scalar-only f is then
    called once per node.
    Every row meets its own max(abs_tol, rel_tol * |integral|).  Each sweep
    bisects every panel whose error, as a share of its row's tolerance, is
    above 1/panels in some row, which is always at least one panel until
    every row has converged.

    Raises NonConvergence when max_subdivisions bisections are not enough or
    a panel has narrowed to the float spacing (its midpoint rounds to an
    endpoint of the panel, or an outer node to an end of the interval, so f
    is never evaluated at a finite end), and NonFinite when a row of the
    integrand returns NaN or an infinity at a node or its integral overflows
    the float range.
    """
    g, a, b, x_of = _fold_infinite(f, spec.lower, spec.upper)

    def at(t):  # a node of g as the x it stands for, in messages
        with np.errstate(divide="ignore"):
            return float(x_of(np.float64(t)))

    # only a half-width up to this many float spacings can have reached the
    # float spacing, or put an outer node within a spacing of an end
    narrow = math.ulp(max(abs(a), abs(b))) * 2.0 / (1.0 - _XGK[0])
    # the ends no node may round onto: a finite interval's own; the ends of a
    # folded one stand for infinite x, where `_fold_infinite` weights a node 0
    finite = math.isfinite(spec.lower) and math.isfinite(spec.upper)
    lo, hi = (a, b) if finite else (-math.inf, math.inf)

    panels, nodes = _HEADS.get((a, b)) or _head(a, b)
    state = None
    used = 0
    while True:
        fv = g(nodes.flatten())   # a copy: f may write to its nodes
        vector = fv.ndim == 2 if state is None else vector   # the first batch decides
        fv = fv.reshape(-1, *nodes.shape)
        rows = fv.shape[0]
        # the integrand runs outside this: its own warnings stay as they are
        with np.errstate(over="ignore", invalid="ignore"):
            state = _rule(state, panels, fv)
            sums = state[2:].sum(axis=1)
        if not np.isfinite(sums).all():
            # every Kronrod weight is positive, so a non-finite node value
            # leaves its row's sum non-finite and is only looked for here
            if not np.isfinite(fv).all():
                row, panel, node = np.argwhere(~np.isfinite(fv))[0]
                raise NonFinite(f"integrand returned a non-finite value near "
                                f"x={at(nodes[panel, node])!r} in row {row}")
            raise NonFinite("an integral overflows the float range")
        tol = np.abs(sums[:rows])
        tol *= spec.rel_tol
        np.maximum(tol, spec.abs_tol, out=tol)
        if (sums[rows:] <= tol).all():
            break
        if used >= spec.max_subdivisions:
            worst = int(np.argmax(sums[rows:] / tol))
            raise NonConvergence(
                f"estimated error {sums[rows + worst]:.3e} above tolerance "
                f"{tol[worst]:.3e} after {used} subdivisions")
        share = (state[2 + rows:] / tol[:, None]).max(axis=0)
        split = share > 1.0 / share.size
        n = np.count_nonzero(split)
        if used + n > spec.max_subdivisions:
            n = spec.max_subdivisions - used
            split[np.argsort(-share, kind="stable")[n:]] = False
        used += n
        center, half = state[0, split], 0.5 * state[1, split]
        panels = np.array((np.concatenate((center - half, center + half)),
                           np.concatenate((half, half))))
        if half.min() <= narrow:
            # a child whose midpoint equals an endpoint has nodes that
            # collapse onto it, and one whose outer node rounds onto a finite
            # end would evaluate f there: the float spacing is as fine as
            # panels get
            mag = np.abs(panels[0])
            flat = ((mag + panels[1] == mag) | (panels[0] + panels[1] * _NODES[0] <= lo)
                    | (panels[0] + panels[1] * _NODES[-1] >= hi))
            if flat.any():
                raise NonConvergence(
                    f"panel at x={at(panels[0, np.argmax(flat)])!r} narrowed "
                    f"to the float spacing after {used} subdivisions")
        state = state[:, ~split]
        nodes = panels[0][:, None] + panels[1][:, None] * _NODES

    try:
        totals = [math.fsum(row) for row in state[2:2 + rows].tolist()]
    except OverflowError:  # fsum's running sum overflowed where numpy's did not
        raise NonFinite("a partial sum overflows the float range") from None
    return np.array(totals) if vector else totals[0]

