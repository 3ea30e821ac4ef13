"""Knot-aware adaptive Simpson quadrature.

One adaptive loop serves every integral in this package: composite
adaptive Simpson with Richardson extrapolation, the interval pre-split at
the integrand's known discontinuity points (knots), absolute tolerance,
and a hard recursion depth cap.  :func:`integrate` returns the weighted
sum of the accepted nodes; :func:`adaptive_nodes` returns the nodes and
weights themselves, for integrals that are solved many times over one
integrand shape.  Subdivision is batched so the integrand is always called
on arrays, which keeps many-knot models (dense tabulated CDFs) fast.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import DomainError

# Piece endpoints are nudged inward by this fraction of the piece width before
# evaluation, so a right-continuous integrand is always sampled on the correct
# side of a knot.  The induced error is O(f' * width * EDGE_NUDGE), far below
# any tolerance used here.
EDGE_NUDGE = 1e-9

DEFAULT_TOL = 1e-10
MAX_DEPTH = 60


def split_at_knots(a: float, b: float, knots: Iterable[float]) -> np.ndarray:
    """Edges of [a, b] split at every knot strictly inside it."""
    if not b > a:
        raise DomainError(f"empty integration interval [{a}, {b}]")
    inner = np.asarray([k for k in knots if a < k < b], dtype=float)
    return np.unique(np.concatenate(([a, b], inner)))


def adaptive_nodes(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    knots: Iterable[float] = (),
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on which ``f`` integrates to ``tol`` over [a, b].

    The rule can be reused for integrands that share ``f``'s shape: same
    knots, same singular points.
    """
    x, w, _ = _refine(f, a, b, knots, tol, MAX_DEPTH)
    return x, w


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    knots: Iterable[float] = (),
    tol: float = DEFAULT_TOL,
    max_depth: int = MAX_DEPTH,
) -> float:
    """Integrate a vectorized integrand over [a, b].

    ``f`` receives a 1-D array of abscissae and must return the matching
    array of values.  ``tol`` is an absolute tolerance for the whole
    integral; it is apportioned to pieces by width.
    """
    _, w, fx = _refine(f, a, b, knots, tol, max_depth)
    return float(w @ fx)


def _refine(f, a, b, knots, tol, max_depth):
    """The adaptive loop: nodes, weights and values of the accepted pieces.

    Each piece compares Simpson on its halves with Simpson on the whole;
    the Richardson-corrected estimate it keeps is Boole's rule, with
    weights W/90 * (7, 32, 12, 32, 7) on its five points.  A piece is
    accepted within its share of ``tol``, at the depth cap, when its
    error is not a number (so NaN reaches the result instead of splitting
    forever), or when its quarter points no longer separate from its edges.
    """
    edges = split_at_knots(a, b, knots)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    width = hi - lo
    mid = 0.5 * (lo + hi)

    # Edge evaluations are nudged into the open piece; midpoints are interior.
    x_lo = lo + EDGE_NUDGE * width
    x_hi = hi - EDGE_NUDGE * width
    f_lo, f_mid, f_hi = f(x_lo), f(mid), f(x_hi)
    coarse = width / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    tol_piece = tol * width / (b - a)
    depth = 0

    xs, ws, fs = [], [], []
    while lo.size:
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        # Quarter points that round onto an edge (which may be a singular
        # knot) collapse to the midpoint, and the piece is accepted.
        stuck = (m1 <= lo) | (m2 >= hi)
        m1 = np.where(stuck, mid, m1)
        m2 = np.where(stuck, mid, m2)
        f_m1 = f(m1)
        f_m2 = f(m2)
        left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_m1 + f_mid)
        right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_m2 + f_hi)
        err = (left + right - coarse) / 15.0
        done = ~(np.abs(err) > tol_piece) | stuck | (depth >= max_depth)
        if done.any():
            w90 = (hi[done] - lo[done]) / 90.0
            xs += [x_lo[done], m1[done], mid[done], m2[done], x_hi[done]]
            ws += [7.0 * w90, 32.0 * w90, 12.0 * w90, 32.0 * w90, 7.0 * w90]
            fs += [f_lo[done], f_m1[done], f_mid[done], f_m2[done], f_hi[done]]

        keep = ~done
        lo, mid_k, hi = lo[keep], mid[keep], hi[keep]
        x_lo, x_hi = x_lo[keep], x_hi[keep]
        f_lo, f_mid_k, f_hi = f_lo[keep], f_mid[keep], f_hi[keep]
        m1, m2, f_m1, f_m2 = m1[keep], m2[keep], f_m1[keep], f_m2[keep]
        tol_half = 0.5 * tol_piece[keep]
        depth += 1

        lo, hi = np.concatenate((lo, mid_k)), np.concatenate((mid_k, hi))
        x_lo, x_hi = np.concatenate((x_lo, mid_k)), np.concatenate((mid_k, x_hi))
        mid = np.concatenate((m1, m2))
        f_lo, f_hi = np.concatenate((f_lo, f_mid_k)), np.concatenate((f_mid_k, f_hi))
        f_mid = np.concatenate((f_m1, f_m2))
        coarse = np.concatenate((left[keep], right[keep]))
        tol_piece = np.concatenate((tol_half, tol_half))
    return np.concatenate(xs), np.concatenate(ws), np.concatenate(fs)
