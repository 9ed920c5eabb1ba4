"""Character sums S(f) = sum over x in F_p of chi(f(x)), for one prime, and
the coset kernel, which needs no numpy.

char_sum reduces f to its squarefree part and sums that in closed form up to
degree 2, by counting the points of an elliptic curve at degree 3
(curve_order: baby-step giant-step on the curve and its quadratic twist,
O(p^(1/4))), and with the O(p) numpy table sum (kernels.table_char_sum)
above.  Results are memoized per prime on the FieldCtx, so the chi_sum kernel
(fiber_sum) and trace_correction share them.

coset_sum is the kernel for y^2 = G(x) + lam t^d, in O(p) and without numpy:
one Python loop over the powers of a primitive root builds a table of
discrete logarithms mod L <= 2d, and the values of the covers are bucketed by
it in passes that run in C (itertools, bytes, Counter).

fiber_sum imports this module only where a character sum or the coset kernel
is needed, so a family whose sum is a bare root count never loads it.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, cycle, islice, repeat

from . import fp_poly
from .family_model import BivarPoly
from .fiber_sum import split_covers
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


def primitive_root(p: int) -> int:
    """The least generator of F_p^*, tested against the prime factors of p - 1
    (trial division)."""
    n, factors, q = p - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _values(f: tuple[int, ...], p: int):
    """f(0), ..., f(p - 1) mod p, as an iterator.

    The forward differences of f at 0 are summed up level by level with
    itertools.accumulate, exactly over Z and in C, and each value is then
    reduced mod p once."""
    ys = [fp_poly.eval_at(f, x, p) for x in range(max(len(f), 1))]
    diffs = []
    while ys:
        diffs.append(ys[0])
        ys = [b - a for a, b in zip(ys, ys[1:])]
    values = repeat(diffs.pop())
    for start in reversed(diffs):
        values = accumulate(values, initial=start)
    return map(int.__mod__, islice(values, p), repeat(p))


def coset_sum(polys: tuple[BivarPoly, ...], ctx: FieldCtx) -> int:
    """sum_c N_affine(c) when the cover with t is G(x) + lam t^d, d >= 3, and
    the covers without t give the weight w(x) = prod_i (1 + chi(G_i(x))).

    The sum is sum_x w(x) (p + S(G(x))) with S(u) = sum_c chi(u + lam c^d).
    Substituting c -> mu c gives S(u mu^d) = chi(mu)^d S(u).  Let
    e = gcd(d, p - 1) and g be a primitive root: g^e is a mu^d, so
    S(g^(k + e)) = (-1)^e S(g^k), and S is constant on the L cosets of the
    L-th powers, L = lcm(2, e).  So the sum needs the weight b[k] of the x
    with G(x) in the coset of g^k (b[L] for G(x) = 0), S(0), and S(g^k) for
    k < e:

    - S(0) = chi(lam) (p - 1) at even d, and 0 at odd d.
    - lam = 0 mod p: S(u) = p chi(u).
    - e = 1: c^d runs over F_p, so S(u) = 0.
    - d = 3: char_sum, by baby-step giant-step.
    - d >= 4: as c^d runs e times over the e-th powers,
      S(u) = chi(u) (1 + e R[log(lam / u) mod e]) for u != 0, where R[j] is
      chi(1 + y) summed over y in g^j (F_p^*)^e: one more pass over F_p.
    """
    p = ctx.p
    free, varying = split_covers(polys, p)
    d = len(varying) - 1
    lam = varying[d][0] if varying[d] else 0
    e = math.gcd(d, p - 1)
    L = e if e % 2 == 0 else 2 * e  # L <= 2d, so a class fits in a byte for d < 128
    g = primitive_root(p)
    cls = bytearray([L]) * p  # cls[u] = log_g(u) mod L, and L at u = 0
    u = 1
    for k in islice(cycle(range(L)), p - 1):
        cls[u] = k
        u = u * g % p
    b = [0] * (L + 1)
    classes = [bytes(map(cls.__getitem__, _values(f, p))) for f in (varying[0], *free)]
    if free:  # a factor 1 + chi(G_i(x)) of w is 1 at a root, 2 at a square, 0 else
        for (k, *rest), n in Counter(zip(*classes)).items():
            b[k] += n * math.prod(1 if c == L else 2 - c % 2 * 2 for c in rest)
    else:  # counting the bytes themselves, not 1-tuples, takes a third of the time
        for k, n in Counter(classes[0]).items():
            b[k] = n
    if not lam:
        base = [p * (-1) ** k for k in range(e)]
    elif e == 1:
        base = [0]
    elif d == 3:
        base = [char_sum((pow(g, k, p), 0, 0, lam), ctx) for k in range(e)]
    else:
        r = [0] * e
        for (k, j), n in Counter(zip(cls[1:], cls[2:] + cls[:1])).items():  # (y, 1 + y)
            if j < L:
                r[k % e] += n * (-1) ** j
        base = [(-1) ** k * (1 + e * r[(cls[lam] - k) % e]) for k in range(e)]
    s = [(-1) ** (k - k % e) * base[k % e] for k in range(L)]
    s.append(legendre(lam, p) * (p - 1) if d % 2 == 0 else 0)  # S(0)
    return sum(n * (p + sk) for n, sk in zip(b, s))
