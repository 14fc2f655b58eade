"""Globally adaptive Gauss-Kronrod quadrature in pure Python.

``quad`` follows QUADPACK's QAG with the 21-point rule (Piessens, de
Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*, Springer 1983): each
panel is integrated by the 21-point Kronrod rule, whose 10-point Gauss
subrule gives the error estimate of QK21, and the panel with the largest
estimated error is bisected until the summed error meets
max(epsabs, epsrel |I|) or ``limit`` panels exist.  ``tplquad`` nests it.
"""

from __future__ import annotations

import heapq
import math
import sys

# Kronrod abscissae on [-1, 1] (the positive half, descending) with their
# weights; the odd-indexed abscissae are the 10-point Gauss nodes, weighted
# by _WG.  The centre x = 0 carries _WGK_CENTRE.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600525452252, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

_EPS = sys.float_info.epsilon
_ABS_FLOOR = sys.float_info.min / (50 * _EPS)


def _qk21(f, a: float, b: float):
    """(integral, error estimate) of f over one panel [a, b]."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centre)
    pairs = [(f(centre - half * x), f(centre + half * x)) for x in _XGK]
    resk = _WGK_CENTRE * fc + sum(w * (lo + hi) for w, (lo, hi) in zip(_WGK, pairs))
    resg = sum(w * (lo + hi) for w, (lo, hi) in zip(_WG, pairs[1::2]))
    resabs = _WGK_CENTRE * abs(fc) + sum(w * (abs(lo) + abs(hi))
                                          for w, (lo, hi) in zip(_WGK, pairs))
    mean = 0.5 * resk
    resasc = _WGK_CENTRE * abs(fc - mean) + sum(w * (abs(lo - mean) + abs(hi - mean))
                                                 for w, (lo, hi) in zip(_WGK, pairs))
    scale = abs(half)
    err = abs((resk - resg) * half)
    resabs *= scale
    resasc *= scale
    # QK21's estimate: the Gauss-Kronrod difference, scaled against the
    # deviation from the mean and floored at the rounding of the sum
    if resasc and err:
        err = resasc * min(1.0, (200 * err / resasc) ** 1.5)
    if resabs > _ABS_FLOOR:
        err = max(50 * _EPS * resabs, err)
    return resk * half, err


def quad(f, a: float, b: float, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
         limit: int = 50):
    """(integral_a^b f(x) dx, estimated absolute error) by global adaptive
    bisection over at most ``limit`` panels, so f is called at most
    21 (2 limit - 1) times.  A NaN or infinite estimate ends the loop (every
    comparison with NaN is false); the caller decides what a non-finite
    value means."""
    value, err = _qk21(f, a, b)
    heap = [(-err, a, b, value)]  # worst panel first
    total = value
    while len(heap) < limit and err > max(epsabs, epsrel * abs(total)):
        neg_worst, lo, hi, old = heap[0]
        mid = 0.5 * (lo + hi)
        v1, e1 = _qk21(f, lo, mid)
        v2, e2 = _qk21(f, mid, hi)
        heapq.heapreplace(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total += v1 + v2 - old
        err += e1 + e2 + neg_worst
    return (math.fsum(panel[3] for panel in heap),
            math.fsum(-panel[0] for panel in heap))


_rule = quad


def tplquad(func, a: float, b: float, c: float, d: float, e: float, f: float,
            epsabs: float = 1.49e-8, epsrel: float = 1.49e-8):
    """(integral of func(z, y, x) over x in [a, b], y in [c, d], z in [e, f],
    estimated absolute error of the outer integral) by three nested calls of
    the rule at the same tolerances.  The calls go to ``_rule``, bound when
    the module loads, so a wrapper later put on the module's ``quad`` sees
    none of them."""

    def over_y(x):
        return _rule(lambda y: _rule(lambda z: func(z, y, x), e, f, epsabs, epsrel)[0],
                     c, d, epsabs, epsrel)[0]

    return _rule(over_y, a, b, epsabs, epsrel)
