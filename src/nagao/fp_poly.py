"""Dense univariate polynomial arithmetic over F_p.

Polynomials are tuples of residues in ascending degree with no trailing
zeros; () is the zero polynomial.  The run path uses it for root counts and
roots mod p (powmod, linear_part, roots) and for the singular fibers; bulk
evaluation over all of F_p is done in kernels.
"""

from __future__ import annotations

import itertools


def trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def deg(f: tuple[int, ...]) -> int:
    return len(f) - 1


def deriv(f: tuple[int, ...], p: int) -> tuple[int, ...]:
    return trim((i * c) % p for i, c in enumerate(f) if i > 0)


def monic(f: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return tuple((c * inv) % p for c in f)


def divmod_(f: tuple[int, ...], g: tuple[int, ...], p: int):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    for i in range(len(f) - len(g), -1, -1):
        c = (r[i + len(g) - 1] * inv) % p
        if c:
            q[i] = c
            for j, gc in enumerate(g):
                r[i + j] = (r[i + j] - c * gc) % p
    return trim(q), trim(r)


def sub(f: tuple[int, ...], g: tuple[int, ...], p: int) -> tuple[int, ...]:
    return trim((a - b) % p for a, b in itertools.zip_longest(f, g, fillvalue=0))


def mul(f: tuple[int, ...], g: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def gcd(f: tuple[int, ...], g: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Monic gcd by the Euclidean algorithm."""
    a, b = trim(f), trim(g)
    while b:
        _, r = divmod_(a, b, p)
        a, b = b, r
    return monic(a, p)


def powmod(f: tuple[int, ...], n: int, m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """f^n mod m for n >= 0, by square and multiply from the top bit of n;
    m must be nonzero.  Products are folded mod m with x^k = -(m_0 + ... +
    m_(k-1) x^(k-1)) for monic m of degree k, over the nonzero m_j only, and
    reduced mod p once per coefficient."""
    m = monic(m, p)
    k = len(m) - 1
    if k == 0:
        return ()
    fold = [(j, -c) for j, c in enumerate(m[:-1]) if c]

    def mulmod(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b, i):
                    out[j] += u * v
        for i in range(len(out) - 1, k - 1, -1):
            c = out[i] % p
            if c:
                for j, w in fold:
                    out[i - k + j] += c * w
        return [c % p for c in out[:k]]

    base = list(divmod_(f, m, p)[1]) or [0]
    out = [1]
    for bit in bin(n)[2:]:
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(out, base)
    return trim(out)


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a nonzero square a mod an odd prime p (Tonelli-Shanks,
    with the least non-square as generator)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def linear_part(f: tuple[int, ...], p: int) -> tuple[int, ...]:
    """gcd(f, x^p - x), the monic product of x - r over the distinct roots r
    of f in F_p; f must be nonzero.  Its degree is the number of roots."""
    return gcd(f, sub(powmod((0, 1), p, f, p), (0, 1), p), p)


def roots(f: tuple[int, ...], p: int) -> list[int]:
    """The distinct roots of a nonzero f in F_p, ascending.

    Equal-degree splitting of h = linear_part(f) (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 14), made deterministic by trying the shifts
    d = 0, 1, 2, ...: s = (x + d)^((p-1)/2) mod h is 1 at exactly the roots r
    with r + d a nonzero square, so gcd(g, s - 1) splits each factor g of h
    whose roots fall on both sides.  Two roots r != s fall on different sides
    for some d < p, or the squares would be invariant under translation by
    r - s, so every factor ends of degree <= 2.  A quadratic factor
    x^2 + b x + c gives its roots (-b +- sqrt(b^2 - 4c)) / 2.
    """
    h = linear_part(f, p)
    parts = [h]
    for d in range(p):
        if all(len(g) <= 3 for g in parts):
            break
        s = sub(powmod((d, 1), (p - 1) // 2, h, p), (1,), p)
        split = []
        for g in parts:
            a = gcd(g, s, p) if len(g) > 3 else g
            split += [g] if len(a) in (1, len(g)) else [a, divmod_(g, a, p)[0]]
        parts = split
    else:
        raise ArithmeticError(f"p = {p}: no shift splits {h}")
    out = []
    for g in parts:
        if len(g) == 2:
            out.append(-g[0] % p)
        elif len(g) == 3:
            r = sqrt_mod((g[1] * g[1] - 4 * g[0]) % p, p)
            half = (p + 1) // 2  # 1/2 mod p
            out += [(-g[1] + r) * half % p, (-g[1] - r) * half % p]
    return sorted(out)


def eval_at(f: tuple[int, ...], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def squarefree_decomposition(f: tuple[int, ...], p: int):
    """Squarefree decomposition over F_p, valid for every degree.

    Returns [(q_e, e), ...] in ascending e with f = lc * prod q_e^e, where q_e
    is the monic product of the irreducible factors of multiplicity exactly e.
    Yun's loop splits off the multiplicities prime to p.  What it leaves is a
    p-th power, whose p-th root is read off the coefficients at multiples of
    p and split the same way, with its multiplicities scaled by p.
    """
    f = trim(f)
    if deg(f) < 1:
        return []
    out = []
    f, scale = monic(f, p), 1
    while deg(f) > 0:
        c = gcd(f, deriv(f, p), p)
        w, _ = divmod_(f, c, p)
        e = 1
        while deg(w) > 0:
            y = gcd(w, c, p)
            q, _ = divmod_(w, y, p)
            if deg(q) > 0:
                out.append((q, e * scale))
            c, _ = divmod_(c, y, p)
            w = y
            e += 1
        f, scale = c[::p], scale * p
    return sorted(out, key=lambda part: part[1])


def odd_multiplicity_part(f: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Monic product of the irreducible factors of f with odd multiplicity;
    (1,) when f is a constant times a perfect square."""
    out = (1,)
    for q, e in squarefree_decomposition(f, p):
        if e % 2 == 1:
            out = mul(out, q, p)
    return out
