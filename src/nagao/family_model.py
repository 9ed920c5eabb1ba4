"""Curve fibrations over P^1_Q: parsing, validation, reduction mod p.

A family is given by one polynomial y^2 = F(x, t) (hyperelliptic or constant)
or a pair y^2 = F1(x, t), z^2 = F2(x, t) (multicover), each written in Python's
expression grammar with ^ for powers (see parse_poly).  The module owns the
family file format, the bad-prime set over which all averaging is skipped,
and the specialization of the family to a fiber over c in P^1(F_p).
"""

from __future__ import annotations

import ast
import functools
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .prime_field import FieldCtx, is_prime, legendre, primes_in_range


class ParseError(ValueError):
    """Malformed expression or family file; carries line/column."""

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class ValidationError(ValueError):
    """Structurally valid file describing an inconsistent family."""


class BadPrime(ValueError):
    """Operation requested at a prime in the family's bad set."""


# ---------------------------------------------------------------------------
# Bivariate integer polynomials
# ---------------------------------------------------------------------------


class BivarPoly:
    """Integer polynomial in x and t, stored as sorted ((i, j), coeff) terms.

    i is the x-degree, j the t-degree; zero coefficients are never stored.
    A value: equal and hashed by its terms, which are not to be reassigned.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int, int], ...]) -> None:
        self.terms = terms

    def __eq__(self, other) -> bool:
        return type(other) is BivarPoly and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"BivarPoly({self.terms!r})"

    @staticmethod
    def from_dict(coeffs: dict[tuple[int, int], int]) -> "BivarPoly":
        terms = tuple(
            sorted((i, j, c) for (i, j), c in coeffs.items() if c != 0)
        )
        return BivarPoly(terms)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c in self.terms}

    @property
    def deg_x(self) -> int:
        return max((i for i, _, _ in self.terms), default=-1)

    @property
    def deg_t(self) -> int:
        return max((j for _, j, _ in self.terms), default=-1)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        d = self.as_dict()
        for (i, j), c in other.as_dict().items():
            d[(i, j)] = d.get((i, j), 0) + c
        return BivarPoly.from_dict(d)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly(tuple((i, j, -c) for i, j, c in self.terms))

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        d: dict[tuple[int, int], int] = {}
        for i1, j1, c1 in self.terms:
            for i2, j2, c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                d[key] = d.get(key, 0) + c1 * c2
        return BivarPoly.from_dict(d)

    def dx(self) -> "BivarPoly":
        """Partial derivative with respect to x."""
        return BivarPoly.from_dict(
            {(i - 1, j): i * c for i, j, c in self.terms if i > 0}
        )

    def leading_x_coeff(self) -> tuple[int, ...]:
        """Coefficient of x^deg_x as a univariate integer polynomial in t."""
        d = self.deg_x
        out: dict[int, int] = {}
        for i, j, c in self.terms:
            if i == d:
                out[j] = c
        return _dense(out)

    def specialize_t(self, c: int, p: int) -> tuple[int, ...]:
        """Coefficients (ascending in x) of F(x, c) mod p, trailing zeros trimmed."""
        out = [0] * (self.deg_x + 1)
        for i, j, coeff in self.terms:
            out[i] = (out[i] + coeff * pow(c, j, p)) % p
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def t_coeff_polys(self) -> list[tuple[int, ...]]:
        """List indexed by t-degree j of ascending-x integer coefficient tuples."""
        by_j: dict[int, dict[int, int]] = {}
        for i, j, c in self.terms:
            by_j.setdefault(j, {})[i] = c
        return [_dense(by_j.get(j, {})) for j in range(self.deg_t + 1)]

    def render(self) -> str:
        """Pretty-print in the grammar accepted by parse_poly."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, j, c in sorted(self.terms, key=lambda s: (-s[0], -s[1])):
            mono = []
            if i:
                mono.append("x" if i == 1 else f"x^{i}")
            if j:
                mono.append("t" if j == 1 else f"t^{j}")
            body = "*".join(mono)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(("+ " if c > 0 else "- ") + text)
        return " ".join(parts)


def _dense(by_deg: dict[int, int]) -> tuple[int, ...]:
    if not by_deg:
        return ()
    out = [0] * (max(by_deg) + 1)
    for d, c in by_deg.items():
        out[d] = c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# Expression parser: Python's own, on a whitelist of nodes
# ---------------------------------------------------------------------------

_OPS = {ast.Add: BivarPoly.__add__, ast.Sub: BivarPoly.__sub__, ast.USub: BivarPoly.__neg__,
        ast.UAdd: lambda f: f}
_VARS = {"x": BivarPoly(((1, 0, 1),)), "t": BivarPoly(((0, 1, 1),))}
_ONE = BivarPoly(((0, 0, 1),))
# whitespace and a literal's leading zeros (Python rejects them) become spaces
_BLANKS_RE = re.compile(r"\s|\b0+(?=\d)")


# Largest x- or t-degree of a power of a polynomial with more than one term,
# and largest number of terms (deg_x k + 1)(deg_t k + 1) that its expansion
# can have, both checked before it is expanded.  A monomial power is one term
# at any degree.
MAX_POWER_DEGREE = 1024
MAX_POWER_TERMS = 2**19
# Largest number of term-by-term products that the products and powers of one
# expression, or of all the expressions of one family file, may take
# together, about a second of work.
MAX_EXPANSION_WORK = 4 * 10**6
# Largest log2 |c| of a coefficient that a product or a power may build,
# checked before the integer is built: 2^14000 has 4215 digits, so render can
# still write every coefficient within Python's 4300-digit int-to-str limit,
# which already bounds a literal.
MAX_COEFF_BITS = 14_000


def parse_poly(text: str, line: int = 0) -> BivarPoly:
    """Parse an integer polynomial in x and t: decimal integers, x, t, ( ),
    binary + - *, unary - and +, and ^ with a decimal integer exponent.  A
    power of a sum whose x- or t-degree would exceed MAX_POWER_DEGREE, or
    whose expansion could exceed MAX_POWER_TERMS terms, raises ParseError
    before it is expanded, and so does a product once the expression's
    products exceed MAX_EXPANSION_WORK term products in all.  So does a
    product, or a power of one term, whose coefficients could exceed
    2^MAX_COEFF_BITS: log2 |c| adds up over the factors of a product and is
    k log2 |c| for c^k.

    ^ is read as ** and precedence is Python's, so ^ binds tighter than unary
    minus: x + -t^2 is x - t^2.  The ast.parse tree is folded leaves first,
    without recursion; any node outside this grammar raises ParseError.
    """
    return _parse_poly(text, line, 0)[0]


def _parse_poly(text: str, line: int, work: int) -> tuple[BivarPoly, int]:
    """parse_poly after `work` term products spent elsewhere; the polynomial
    and the work spent in all."""
    for bad in ("**", "#", "\0"):
        if bad in text:
            raise ParseError(f"unexpected {bad!r}", line, text.index(bad) + 1)
    src = _BLANKS_RE.sub(lambda m: " " * len(m[0]), text).replace("^", "**")
    lead = len(src) - len(src := src.lstrip())  # eval mode rejects an indent
    raw = src.encode()

    def col(offset: int) -> int:  # 1-based column in text, undoing ^ -> **
        return lead + offset - src.count("**", 0, offset) + 1

    try:
        body = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        raise ParseError(f"invalid expression ({exc.msg})", line, col((exc.offset or 1) - 1))
    except (RecursionError, MemoryError):
        raise ParseError("expression nested too deeply", line)
    value: dict[ast.expr, BivarPoly] = {}

    def check_size(log2_size: float, node: ast.expr) -> None:
        if log2_size > MAX_COEFF_BITS:
            raise ParseError(f"coefficient of up to 2^{math.ceil(log2_size)} exceeds the bound "
                             f"2^{MAX_COEFF_BITS}", line, col(node.col_offset))

    def mul(f: BivarPoly, g: BivarPoly, node: ast.expr) -> BivarPoly:
        nonlocal work
        work += len(f.terms) * len(g.terms)
        if work > MAX_EXPANSION_WORK:
            raise ParseError(f"expansion exceeds the bound of {MAX_EXPANSION_WORK} term products",
                             line, col(node.col_offset))
        check_size(_log2_size(f) + _log2_size(g), node)
        return f * g

    for node in reversed(list(ast.walk(body))):  # every child before its parent
        if not isinstance(node, ast.expr):
            continue  # an operator or context, judged with its parent
        op = type(getattr(node, "op", None))
        if isinstance(node, ast.BinOp) and op is ast.Mult:
            value[node] = mul(value[node.left], value[node.right], node)
        elif isinstance(node, ast.BinOp) and op in _OPS:
            value[node] = _OPS[op](value[node.left], value[node.right])
        elif isinstance(node, ast.BinOp) and op is ast.Pow and isinstance(node.right, ast.Constant):
            base, k = value[node.left], node.right.value  # the leaf test below passed k
            dx, dt = base.deg_x, base.deg_t
            if len(base.terms) > 1 and max(dx, dt) * k > MAX_POWER_DEGREE:
                raise ParseError(f"power of degree {max(dx, dt)}*{k} exceeds "
                                 f"the bound {MAX_POWER_DEGREE}", line, col(node.col_offset))
            if len(base.terms) > 1 and (dx * k + 1) * (dt * k + 1) > MAX_POWER_TERMS:
                raise ParseError(f"power of up to {(dx * k + 1) * (dt * k + 1)} terms exceeds "
                                 f"the bound {MAX_POWER_TERMS}", line, col(node.col_offset))
            if len(base.terms) == 1:
                check_size(k * _log2_size(base), node)
            out = _ONE
            while k:  # square and multiply from the low bit
                if k & 1:
                    out = mul(out, base, node)
                k >>= 1
                if k:
                    base = mul(base, base, node)
            value[node] = out
        elif isinstance(node, ast.UnaryOp) and op in _OPS:
            value[node] = _OPS[op](value[node.operand])
        elif isinstance(node, ast.Constant) and raw[node.col_offset:node.end_col_offset].isdigit():
            value[node] = BivarPoly.from_dict({(0, 0): node.value})
        elif isinstance(node, ast.Name) and node.id in _VARS:
            value[node] = _VARS[node.id]
        else:
            what = ast.get_source_segment(src, node).replace("**", "^")
            raise ParseError(f"unsupported term {what!r}", line, col(node.col_offset))
    return value[body], work


def _log2_size(f: BivarPoly) -> float:
    """log2 of the largest |coefficient| of f; 0 for f = 0."""
    return max((math.log2(abs(c)) for _, _, c in f.terms), default=0.0)


# ---------------------------------------------------------------------------
# Family specification
# ---------------------------------------------------------------------------


class InfinityRule(NamedTuple):
    """The infinity line, derived from F by validate_family: trace_zero for
    one cover, affine_plus nu for two, nu = len(infinity_leads).  Each fiber's
    points over x = infinity follow infinity_leads, not this line."""

    kind: str
    nu: int = 0


class TraceSpec(NamedTuple):
    """Constant part of the Jacobian, as a product of Jacobians of explicit
    curves y^2 = G_i(x) over Q; empty tuple means trivial trace."""

    curves: tuple[tuple[int, ...], ...] = ()

    def is_trivial(self) -> bool:
        return not self.curves


class MRule(NamedTuple):
    """Rational-component count of a singular fiber as a function of p.

    kinds: const m; 'chi': m_yes if chi_p(d) == want else m_no;
    'mod':  m_yes if p % mod == rem else m_no.
    """

    kind: str
    m: int = 1
    d: int = 0
    want: int = 1
    mod: int = 0
    rem: int = 0
    m_yes: int = 0
    m_no: int = 0

    def value(self, p: int) -> int:
        if self.kind == "const":
            return self.m
        if self.kind == "chi":
            return self.m_yes if legendre(self.d, p) == self.want else self.m_no
        if self.kind == "mod":
            return self.m_yes if p % self.mod == self.rem else self.m_no
        raise ValueError(f"unknown m-rule kind {self.kind}")


class FiberDescriptor(NamedTuple):
    label: str
    n: int
    orbits: int
    m_rule: MRule


class FiberConfiguration(NamedTuple):
    """Declared combinatorics of the singular fibers: total geometric
    components n_c, Galois orbit counts, and per-prime rational-component
    rules.  User-declared, never inferred from point counts."""

    fibers: tuple[FiberDescriptor, ...] = ()


class FamilySpec(NamedTuple):
    name: str
    kind: str  # hyperelliptic | multicover | constant; derived, see validate_family
    polys: tuple[BivarPoly, ...]
    genus: int
    trace: TraceSpec
    infinity_rule: InfinityRule
    extra_bad_primes: frozenset[int] = frozenset()
    fiber_config: FiberConfiguration | None = None


def involves_t(spec: FamilySpec) -> bool:
    """Whether some cover involves t.  When none does, the surface is C x P^1
    and the fiber over t = infinity is C, the curve of every finite fiber."""
    return any(poly.deg_t > 0 for poly in spec.polys)


def subcovers(polys: tuple[BivarPoly, ...]) -> tuple[BivarPoly, ...]:
    """The products G_I over the subsets I of the covers, the empty product
    first: by Kani-Rosen, Jac(C) ~ prod over I != {} of Jac(w^2 = G_I)."""
    out = [_ONE]
    for poly in polys:
        out += [g * poly for g in out]
    return tuple(out)


def fiber_genus(polys: tuple[BivarPoly, ...]) -> int:
    """Genus of the generic fiber: sum over I != {} of (deg G_I - 1) // 2."""
    return sum((g.deg_x - 1) // 2 for g in subcovers(polys)[1:])


@functools.lru_cache(maxsize=64)
def infinity_leads(polys: tuple[BivarPoly, ...]) -> tuple[tuple[int, ...], ...]:
    """The leading x-coefficients lc_I in Z[t] of the G_I of even x-degree,
    (1,) for the empty product first.

    A finite fiber without an x-degree drop has sum_I chi(lc_I(c)) points over
    x = infinity: w^2 = G_I is ramified there at odd degree, and splits there
    at even degree exactly when chi(lc_I) = 1."""
    return tuple(g.leading_x_coeff() for g in subcovers(polys) if g.deg_x % 2 == 0)


class FiberModel(NamedTuple):
    """Specialization of the family at a single point of P^1(F_p).

    c is None for the point at infinity.  polys hold ascending-x coefficients
    mod p, one tuple per cover; generic_deg the x-degrees over Q(t)."""

    c: int | None
    polys: tuple[tuple[int, ...], ...]
    generic_deg: tuple[int, ...]

    @property
    def at_infinity(self) -> bool:
        return self.c is None


# ---------------------------------------------------------------------------
# Validation: generic squarefreeness is read off the singular-locus resultants
# ---------------------------------------------------------------------------


# Largest x- or t-degree of a cover and largest x-degree of a trace curve.  The
# exact resultants behind validation grow like deg^5; a dense two-cover family
# at this bound with 20-digit coefficients validates in about 0.6 s.
MAX_DEGREE = 7


def validate_family(spec: FamilySpec) -> FamilySpec:
    """Check that F is a family of curves, and that the kind, genus and
    infinity lines are the ones F gives."""
    n_polys = len(spec.polys)
    if not 1 <= n_polys <= 2:
        raise ValidationError(f"{spec.name}: a family has one or two poly lines, not {n_polys}")
    degrees = [("x-degree", poly.deg_x) for poly in spec.polys]
    degrees += [("t-degree", poly.deg_t) for poly in spec.polys]
    degrees += [("trace curve x-degree", len(curve) - 1) for curve in spec.trace.curves]
    for what, d in degrees:
        if d > MAX_DEGREE:
            raise ValidationError(f"{spec.name}: {what} {d} exceeds the bound {MAX_DEGREE}")
    if any(poly.deg_x < 1 for poly in spec.polys):
        raise ValidationError("each cover must have positive x-degree")
    # over Q(t), with lc_x != 0, F is squarefree in x iff Res_x(F, F_x) != 0,
    # and F1*F2 is iff both are and Res_x(F1, F2) != 0
    if not all(singular_locus_polys(spec)[::2]):
        raise ValidationError(f"{spec.name}: generic fiber polynomial is not squarefree in x over Q(t)")
    for disc in trace_curve_discriminants(spec):
        if not disc:  # also 0 for a constant curve
            raise ValidationError(
                f"{spec.name}: trace curve polynomial is not squarefree of positive degree"
            )
    genus = fiber_genus(spec.polys)
    if genus < 1:
        raise ValidationError(f"{spec.name}: the generic fiber has genus {genus}; it must be >= 1")
    if n_polys == 2:
        kinds, rule = ["multicover"], InfinityRule("affine_plus", len(infinity_leads(spec.polys)))
    else:
        kinds = ["hyperelliptic"] + ([] if involves_t(spec) else ["constant"])
        rule = InfinityRule("trace_zero")
    for key, declared, derived in (
        ("kind", spec.kind, kinds),
        ("genus", str(spec.genus), [str(genus)]),
        ("infinity", _render_infinity(spec.infinity_rule), [_render_infinity(rule)]),
    ):
        if declared not in derived:
            raise ValidationError(f"{spec.name}: the file declares '{key} {declared}', but F gives "
                                  + " or ".join(f"'{key} {d}'" for d in derived))
    return spec


# ---------------------------------------------------------------------------
# Family file format
# ---------------------------------------------------------------------------

_M_RULE_CONST = re.compile(r"^\s*(\d+)\s*$")
_M_RULE_CHI = re.compile(
    r"^\s*(\d+)\s+if\s+chi\(\s*(-?\d+)\s*\)\s*==\s*(-?1)\s+else\s+(\d+)\s*$"
)
_M_RULE_MOD = re.compile(
    r"^\s*(\d+)\s+if\s+p\s*%\s*(\d+)\s*==\s*(\d+)\s+else\s+(\d+)\s*$"
)


def parse_m_rule(text: str, line: int = 0) -> MRule:
    m = _M_RULE_CONST.match(text)
    if m:
        return MRule(kind="const", m=int(m.group(1)))
    m = _M_RULE_CHI.match(text)
    if m:
        return MRule(
            kind="chi",
            m_yes=int(m.group(1)),
            d=int(m.group(2)),
            want=int(m.group(3)),
            m_no=int(m.group(4)),
        )
    m = _M_RULE_MOD.match(text)
    if m:
        if int(m.group(2)) == 0:
            raise ParseError(f"m-rule modulus must be positive in {text!r}", line)
        return MRule(
            kind="mod",
            m_yes=int(m.group(1)),
            mod=int(m.group(2)),
            rem=int(m.group(3)),
            m_no=int(m.group(4)),
        )
    raise ParseError(f"unparseable m-rule {text!r}", line)


_FIBER_RE = re.compile(
    r'^(\S+)\s+n=(\d+)\s+orbits=(\d+)\s+m="([^"]*)"\s*$'
)


def parse_family(text: str) -> FamilySpec:
    """Parse the line-oriented family file format; '#' starts a comment.

    The poly and trace curve expressions share one MAX_EXPANSION_WORK budget,
    so the time to refuse a file does not grow with its number of lines."""
    work = 0  # term products spent by the expressions so far
    name = None
    kind = None
    polys: list[BivarPoly] = []
    genus = None
    trace_curves: list[tuple[int, ...]] = []
    trace_seen = False
    infinity: InfinityRule | None = None
    extra_bad: set[int] = set()
    fibers: list[FiberDescriptor] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "family":
            m = re.match(r'^"([^"]*)"$', rest)
            if not m:
                raise ParseError('family name must be quoted: family "<name>"', lineno)
            name = m.group(1)
        elif key == "kind":
            kind = rest
        elif key == "poly":
            poly, work = _parse_poly(rest, lineno, work)
            polys.append(poly)
        elif key == "genus":
            try:
                genus = int(rest)
            except ValueError:
                raise ParseError(f"genus must be an integer, got {rest!r}", lineno)
        elif key == "trace":
            trace_seen = True
            if rest == "none":
                pass
            elif rest.startswith("curve "):
                poly, work = _parse_poly(rest[len("curve "):], lineno, work)
                if poly.deg_t > 0:
                    raise ParseError("trace curve must be a polynomial in x only", lineno)
                coeffs = [0] * (poly.deg_x + 1)
                for i, _, c in poly.terms:
                    coeffs[i] = c
                trace_curves.append(tuple(coeffs))
            else:
                raise ParseError(f"trace must be 'none' or 'curve <expr>', got {rest!r}", lineno)
        elif key == "infinity":
            parts = rest.split()
            if parts == ["trace_zero"]:
                infinity = InfinityRule("trace_zero")
            elif len(parts) == 3 and parts[0] == "affine_plus":
                try:
                    nu, m = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ParseError("affine_plus takes two integers", lineno)
                if m != 1:  # a fiber that is not refused is one curve
                    raise ValidationError(f"line {lineno}: 'infinity {rest}' declares m = {m}, "
                                          "but every fiber has m = 1")
                infinity = InfinityRule("affine_plus", nu)
            else:
                raise ParseError(f"bad infinity rule {rest!r}", lineno)
        elif key == "badprimes":
            for tok in rest.split():
                try:
                    q = int(tok)
                except ValueError:
                    raise ParseError(f"bad prime {tok!r}", lineno)
                try:
                    prime = is_prime(q)
                except ValueError as exc:
                    raise ParseError(f"badprimes entry: {exc}", lineno)
                if not prime:
                    raise ParseError(f"badprimes entry {q} is not prime", lineno)
                extra_bad.add(q)
        elif key == "fiber":
            m = _FIBER_RE.match(rest)
            if not m:
                raise ParseError(
                    'fiber line must be: fiber <label> n=<int> orbits=<int> m="<rule>"', lineno
                )
            fibers.append(
                FiberDescriptor(
                    label=m.group(1),
                    n=int(m.group(2)),
                    orbits=int(m.group(3)),
                    m_rule=parse_m_rule(m.group(4), lineno),
                )
            )
        else:
            raise ParseError(f"unknown key {key!r}", lineno)

    if name is None:
        raise ParseError("missing 'family' line")
    if kind is None:
        raise ParseError("missing 'kind' line")
    if genus is None:
        raise ParseError("missing 'genus' line")
    if not trace_seen:
        raise ParseError("missing 'trace' line")
    if infinity is None:
        raise ParseError("missing 'infinity' line")
    for fd in fibers:
        if not 1 <= fd.orbits <= fd.n:
            raise ValidationError(f"fiber {fd.label}: need 1 <= orbits <= n")
        rule = fd.m_rule
        if not all(0 <= m <= fd.n for m in (rule.m, rule.m_yes, rule.m_no)):
            raise ValidationError(f"fiber {fd.label}: the m-rule gives a value outside 0..n")

    spec = FamilySpec(
        name=name,
        kind=kind,
        polys=tuple(polys),
        genus=genus,
        trace=TraceSpec(tuple(trace_curves)),
        infinity_rule=infinity,
        extra_bad_primes=frozenset(extra_bad),
        fiber_config=FiberConfiguration(tuple(fibers)) if fibers else None,
    )
    return validate_family(spec)


def render_family(spec: FamilySpec) -> str:
    """Inverse of parse_family, up to coefficient normalization."""
    lines = [f'family "{spec.name}"', f"kind {spec.kind}"]
    for poly in spec.polys:
        lines.append(f"poly {poly.render()}")
    lines.append(f"genus {spec.genus}")
    if spec.trace.is_trivial():
        lines.append("trace none")
    else:
        for curve in spec.trace.curves:
            poly = BivarPoly.from_dict({(i, 0): c for i, c in enumerate(curve)})
            lines.append(f"trace curve {poly.render()}")
    lines.append(f"infinity {_render_infinity(spec.infinity_rule)}")
    if spec.extra_bad_primes:
        lines.append("badprimes " + " ".join(str(q) for q in sorted(spec.extra_bad_primes)))
    if spec.fiber_config:
        for fd in spec.fiber_config.fibers:
            lines.append(
                f'fiber {fd.label} n={fd.n} orbits={fd.orbits} m="{_render_m_rule(fd.m_rule)}"'
            )
    return "\n".join(lines) + "\n"


def _render_infinity(rule: InfinityRule) -> str:
    return f"affine_plus {rule.nu} 1" if rule.kind == "affine_plus" else rule.kind


def _render_m_rule(rule: MRule) -> str:
    if rule.kind == "const":
        return str(rule.m)
    if rule.kind == "chi":
        return f"{rule.m_yes} if chi({rule.d}) == {rule.want} else {rule.m_no}"
    return f"{rule.m_yes} if p % {rule.mod} == {rule.rem} else {rule.m_no}"


# ---------------------------------------------------------------------------
# Bad primes and discriminant machinery
# ---------------------------------------------------------------------------


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _interpolate(xs: list[int], ys: list[int]) -> tuple[int, ...]:
    """Ascending coefficients of the integer polynomial through (xs, ys)."""
    coef = [Fraction(y) for y in ys]
    for k in range(1, len(xs)):  # Newton divided differences
        for i in range(len(xs) - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - k])
    poly: list[Fraction] = []
    for x0, c in zip(reversed(xs), reversed(coef)):  # Horner in the Newton basis
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] -= x0 * poly[k + 1]
        poly[0] += c
    assert all(c.denominator == 1 for c in poly)
    return _dense({k: int(c) for k, c in enumerate(poly)})


def resultant_x(f: BivarPoly, g: BivarPoly) -> tuple[int, ...]:
    """Res_x(f, g) in Z[t], ascending in t; () when it vanishes identically.

    The Sylvester determinant at the x-degrees n, m of f and g over Z[t],
    lc(f)^m lc(g)^n prod (a_i - b_j) over their roots; 0 when either is zero,
    1 when both are constants.  The polynomial of larger x-degree takes the
    first rows, so for n < m this is Res_x(g, f) = (-1)^(nm) Res_x(f, g); the
    sign does not move a root.  The t-degree is at most m deg_t f + n deg_t g,
    so the determinant is taken exactly at that many plus one integer points
    t and interpolated back.
    """
    if f.deg_x < g.deg_x:
        f, g = g, f
    n, m = f.deg_x, g.deg_x
    if m < 0:
        return ()
    xs = list(range(m * f.deg_t + n * g.deg_t + 1))
    ys = []
    for t0 in xs:
        fc, gc = [0] * (n + 1), [0] * (m + 1)
        for poly, cs in ((f, fc), (g, gc)):
            for i, j, c in poly.terms:
                cs[i] += c * t0**j
        fc.reverse()  # Sylvester rows run from the leading coefficient down
        gc.reverse()
        rows = [[0] * k + fc + [0] * (m - 1 - k) for k in range(m)]
        rows += [[0] * k + gc + [0] * (n - 1 - k) for k in range(n)]
        ys.append(_bareiss_det(rows))
    return _interpolate(xs, ys)


@functools.lru_cache(maxsize=64)
def singular_locus_polys(spec: FamilySpec) -> tuple[tuple[int, ...], ...]:
    """Integer polynomials in t whose roots mod p cut out the singular fibers.

    Per cover: Res_x(F_i, dF_i/dx) and the leading x-coefficient; for
    multicovers additionally Res_x(F_i, F_j), since a common root of the two
    cover polynomials is a singular point of the fiber.
    """
    out: list[tuple[int, ...]] = []
    for poly in spec.polys:
        out.append(resultant_x(poly, poly.dx()))
        out.append(poly.leading_x_coeff())
    if len(spec.polys) == 2:
        out.append(resultant_x(*spec.polys))
    return tuple(out)


def _content(coeffs: tuple[int, ...]) -> int:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    return g


# Trial division in _prime_factors stops here: a content it leaves unfactored
# has only prime factors above it, so the bad primes up to it stay exact.
FACTOR_BOUND = 10**6


def _prime_factors(n: int) -> tuple[set[int], int]:
    """The prime factors of n up to FACTOR_BOUND, and the cofactor left
    unfactored (1 when there is none), whose prime factors all exceed it."""
    n = abs(n)
    out: set[int] = set()
    d = 2
    while d * d <= n and d <= FACTOR_BOUND:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if 1 < n < d * d:  # prime
        out.add(n)
        n = 1
    return out, n


@functools.lru_cache(maxsize=64)
def _bad_primes_and_cofactors(spec: FamilySpec) -> tuple[frozenset[int], bool]:
    bad: set[int] = {2}
    bad |= set(spec.extra_bad_primes)
    cofactor = False
    for res in singular_locus_polys(spec):
        c = _content(res)
        if c == 0:
            continue  # identically zero resultant is caught by validation
        primes, rest = _prime_factors(c)
        bad |= primes
        cofactor |= rest > 1
    return frozenset(bad), cofactor


def bad_primes(spec: FamilySpec) -> frozenset[int]:
    """The finite set S of primes excluded from every averaged sum.

    Contains 2, every prime at which some cover loses x-degree or fails to be
    squarefree over F_p(t), and the declared extras.  Degeneracy at p is
    detected exactly: the obstructions are the integer contents of the
    singular-locus polynomials (the generic x-degree drops exactly at the
    divisors of a leading x-coefficient's content), so the candidate primes
    are their divisors.  The set is exact up to FACTOR_BOUND, and everywhere
    unless check_bad_primes_known refuses a larger T.
    """
    return _bad_primes_and_cofactors(spec)[0]


def check_bad_primes_known(spec: FamilySpec, t_max: int) -> None:
    """Raise ValidationError when t_max exceeds FACTOR_BOUND and a content
    kept a cofactor that trial division left unfactored."""
    if t_max > FACTOR_BOUND and _bad_primes_and_cofactors(spec)[1]:
        raise ValidationError(
            f"{spec.name}: a singular-locus content has a factor above {FACTOR_BOUND} "
            f"that is not factored, so the bad primes up to T = {t_max} are unknown"
        )


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------


def fiber_at(spec: FamilySpec, ctx: FieldCtx, c: int | None) -> FiberModel:
    """The fiber over c in P^1(F_p), where c = None is t = infinity.

    Over infinity, a family that involves t gets no polys, and trace 0."""
    if ctx.p in bad_primes(spec):
        raise BadPrime(f"p = {ctx.p} lies in the bad set of {spec.name}")
    degs = tuple(poly.deg_x for poly in spec.polys)
    if c is None:
        polys = () if involves_t(spec) else tuple(
            poly.specialize_t(0, ctx.p) for poly in spec.polys)
        return FiberModel(None, polys, degs)
    c = int(c)
    if not 0 <= c < ctx.p:
        raise ValueError(f"c = {c} not in F_{ctx.p}")
    polys = tuple(poly.specialize_t(c, ctx.p) for poly in spec.polys)
    return FiberModel(c, polys, degs)


@functools.lru_cache(maxsize=64)
def trace_curve_discriminants(spec: FamilySpec) -> tuple[int, ...]:
    """|Res(G_i, G_i')| per trace curve; primes dividing one are skipped."""
    out = []
    for curve in spec.trace.curves:
        g = BivarPoly.from_dict({(i, 0): c for i, c in enumerate(curve)})
        res = resultant_x(g, g.dx())
        out.append(abs(res[0]) if res else 0)
    return tuple(out)
