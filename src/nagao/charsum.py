"""Character sums S(f) = sum over x in F_p of chi(f(x)), for one prime.

char_sum reduces f to its squarefree part and sums that in closed form up to
degree 2, by counting the points of an elliptic curve at degree 3
(curve_order: baby-step giant-step on the curve and its quadratic twist,
O(p^(1/4))), and with the O(p) numpy table sum (kernels.table_char_sum)
above.  Results are memoized per prime on the FieldCtx, so the chi_sum kernel
(fiber_sum) and trace_correction share them.  fiber_sum imports this module
only where a character sum is needed, so a family whose sum is a bare root
count never loads it.
"""

from __future__ import annotations

import math

from . import fp_poly
from .prime_field import FieldCtx, legendre

Point = tuple[int, int] | None  # None is the point at infinity O


def _ec_add(P: Point, Q: Point, a2: int, a4: int, p: int) -> Point:
    """P + Q on Y^2 = X^3 + a2 X^2 + a4 X + a6 over F_p (affine chord and
    tangent; a6 does not enter)."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - a2 - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_neg(P: Point, p: int) -> Point:
    return None if P is None else (P[0], -P[1] % p)


def _ec_mul(n: int, P: Point, a2: int, a4: int, p: int) -> Point:
    """nP for n >= 0, by double and add from the top bit."""
    out = None
    for bit in bin(n)[2:]:
        out = _ec_add(out, out, a2, a4, p)
        if bit == "1":
            out = _ec_add(out, P, a2, a4, p)
    return out


def _multiples(P: Point, a2: int, a4: int, lo: int, hi: int, p: int) -> set[int]:
    """The n in [lo, hi] with nP = O, by baby-step giant-step.

    Baby steps store jP for 0 <= j < m; the giant steps -(lo + i)P, i a
    multiple of m, meet jP exactly when (lo + i + j)P = O.  A baby step that
    reaches O gives the order itself."""
    m = math.isqrt(hi - lo) + 1
    baby: dict[Point, int] = {}
    R = None
    for j in range(m):
        baby[R] = j
        R = _ec_add(R, P, a2, a4, p)
        if R is None:  # the order j + 1 is below m
            return set(range(-(-lo // (j + 1)) * (j + 1), hi + 1, j + 1))
    step = _ec_neg(R, p)  # -mP
    Q = _ec_neg(_ec_mul(lo, P, a2, a4, p), p)
    out = set()
    for i in range(0, hi - lo + 1, m):
        j = baby.get(Q)
        if j is not None and lo + i + j <= hi:
            out.add(lo + i + j)
        Q = _ec_add(Q, step, a2, a4, p)
    return out


def curve_order(g: tuple[int, ...], p: int) -> int | None:
    """#E(F_p) for E: y^2 = g(x), g a monic squarefree cubic mod p, or None
    when the points of E and its twist leave more than one candidate.

    Each x with v = g(x) != 0 gives the point (v x, v^2) on
    Y^2 = X^3 + v a2 X^2 + v^2 a4 X + v^3 a6, which is E when v is a square
    and its quadratic twist E' otherwise.  #E lies in the Hasse interval H,
    and #E' = 2p + 2 - #E.  A point of E keeps the candidates n in H that it
    annihilates, a point of E' those with 2p + 2 - n annihilating it, so the
    survivors are the candidates compatible with the lcm of the orders seen
    on each curve (Mestre; Cohen, GTM 138, Sec. 7.4).  #E always survives, so
    a single survivor is #E.  For p > 229 one always remains in the end
    (Cremona and Sutherland, JTNB 22 (2010)), usually after one point.
    """
    a6, a4, a2 = g[:3]
    w = math.isqrt(4 * p)  # |a_p| <= 2 sqrt(p)
    lo, hi = p + 1 - w, p + 1 + w
    left = None  # None stands for all of H
    for x in range(p):
        v = fp_poly.eval_at(g, x, p)
        if v == 0:
            continue
        found = _multiples((v * x % p, v * v % p), v * a2 % p, v * v * a4 % p, lo, hi, p)
        if legendre(v, p) < 0:  # a point of the twist
            found = {2 * p + 2 - n for n in found}
        left = found if left is None else left & found
        if len(left) == 1:
            return left.pop()
    return None


def _squarefree_sum(g: tuple[int, ...], ctx: FieldCtx) -> int:
    """S(g) for a monic squarefree g."""
    p = ctx.p
    d = fp_poly.deg(g)
    if d <= 2:  # 1: p; linear: 0; a quadratic with nonzero discriminant: -1
        return (p, 0, -1)[d]
    if d == 3:
        n = curve_order(g, p)
        if n is not None:
            return n - p - 1  # #E = p + 1 + S(g)
        return sum(legendre(fp_poly.eval_at(g, x, p), p) for x in range(p))
    from .kernels import table_char_sum  # the O(p) numpy sum

    return table_char_sum(g, ctx)


def char_sum(f: tuple[int, ...], ctx: FieldCtx) -> int:
    """S(f) = sum over x in F_p of chi(f(x)), for f with integer coefficients;
    memoized per prime in ctx.char_sums.

    With f = lc * prod q_e^e (fp_poly.squarefree_decomposition), chi(f(x)) is
    chi(lc) chi(g(x)) for g the product of the q_e of odd e, except at the
    roots of the q_e of even e, where it is 0.  So S(f) is chi(lc) times S(g)
    less chi(g) summed over those roots.  f = 0 gives 0.
    """
    p = ctx.p
    f = fp_poly.trim(c % p for c in f)
    s = ctx.char_sums.get(f)
    if s is not None:
        return s
    odd, even = (1,), (1,)
    for q, e in fp_poly.squarefree_decomposition(f, p):
        if e % 2:
            odd = fp_poly.mul(odd, q, p)
        else:
            even = fp_poly.mul(even, q, p)
    s = 0
    if f:
        s = _squarefree_sum(odd, ctx)
        if len(even) > 1:
            s -= sum(legendre(fp_poly.eval_at(odd, r, p), p) for r in fp_poly.roots(even, p))
        s *= legendre(f[-1], p)
    ctx.char_sums[f] = s
    return s


def curve_trace(curve: tuple[int, ...], ctx: FieldCtx) -> int:
    """a_p of the smooth projective y^2 = G(x), G squarefree mod p of
    degree deg G over Z: -S(G), less chi(lc) when the degree is even."""
    trace = -char_sum(curve, ctx)
    if (len(curve) - 1) % 2 == 0:
        trace -= legendre(curve[-1], ctx.p)
    return trace
