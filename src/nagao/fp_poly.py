"""Dense univariate polynomial arithmetic over F_p.

Polynomials are tuples of residues in ascending degree with no trailing
zeros; () is the zero polynomial.  Only the small amounts needed by the
singular-fiber slow path live here; bulk evaluation is done in kernels.
"""

from __future__ import annotations


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
