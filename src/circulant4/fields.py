"""Polynomial scalar fields on R^4.

The metric coefficients handled by this package are smooth functions of a
point p = (x1, x2, x3, x4). Restricting them to polynomials keeps every
derivative exact: gradients and Hessians are themselves polynomials obtained
by coefficient arithmetic, so the connection and curvature routines never
depend on numerical differentiation. The tests compare them with the same
terms evaluated exactly, over Fractions, in the private module
`circulant4._oracles`.

The geometry pipeline evaluates fields through their compiled form
(`CompiledField`): flat exponent and coefficient arrays for several fields
and their 14 distinct partials each, evaluated for N points at once by
`jets`. Each partial is the polynomial `ScalarField.partial` gives, so
there is one differentiation rule, and the compiled form reproduces
`ScalarField.__call__`, `gradient` and `hessian` bit for bit, which stay
as the per-point reference. Both form x**e by repeated multiplication,
((x * x) * x) ..., in IEEE arithmetic, so the bits do not depend on the
host's power function. A `ManifoldSpec` keeps the compiled form of its
three fields.

Fields can be built programmatically (`ScalarField.coordinate`, arithmetic
operators) or parsed from a small expression grammar:

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-'* power
    power    := atom ('^' exponent)?
    atom     := literal | coordinate | '(' expr ')'
    literal  := decimal | integer '/' integer
    exponent := non-negative integer, at most MAX_EXPONENT / (the base's
                largest exponent of one coordinate)

Coordinates are named x1..x4, whitespace is insignificant and there is no
implicit multiplication. Decimal literals may carry an exponent suffix
(1e-3) so that printed fields always re-parse; a literal beyond the float
range (1e400) is refused. No product, and so no power, may form more than
MAX_TERMS pairs of terms, and no parsed product may take a coordinate above
degree MAX_EXPONENT. Parentheses nest at most MAX_DEPTH levels deep.
"""

from __future__ import annotations

import math
import re
from itertools import repeat, zip_longest
from operator import add

import numpy as np

__all__ = [
    "ScalarField",
    "CompiledField",
    "ParseError",
    "MAX_EXPONENT",
    "MAX_TERMS",
    "MAX_DEPTH",
    "parse_field",
    "as_point",
    "jets",
]

_NVARS = 4
_ZERO = (0, 0, 0, 0)

# the highest degree in one coordinate that a power or a parsed product may
# produce: the parser and `**` reject a larger exponent (of a larger base
# degree), and the parser a product of larger degree, before expanding it;
# the jets tabulate every power of a coordinate up to its degree
MAX_EXPONENT = 1000

# the most levels of parentheses the parser accepts; each level costs a few
# Python frames, so the bound keeps parsing far below the recursion limit
MAX_DEPTH = 100

# the most pairs of terms one product may multiply, len(left) * len(right);
# it is checked before the product is formed, so it bounds the time of
# every product and the size of every term map that `*` and `^` expand to
MAX_TERMS = 10_000

# jet slots of a compiled field: 0 is the value, 1 + i the partial d_i and
# 5 + k the second partial d_i d_j, i <= j, of the k-th pair below
_SECOND_PAIRS = tuple((i, j) for i in range(_NVARS) for j in range(i, _NVARS))
_HESSIAN_SLOTS = np.empty((_NVARS, _NVARS), dtype=np.intp)
for _k, (_i, _j) in enumerate(_SECOND_PAIRS):
    _HESSIAN_SLOTS[_i, _j] = _HESSIAN_SLOTS[_j, _i] = 1 + _NVARS + _k
# slots needed for jets up to order 0, 1, 2
_ORDER_SLOTS = (1, 1 + _NVARS, 1 + _NVARS + len(_SECOND_PAIRS))


def _holds_bool(given) -> bool:
    """Whether array-like input holds a bool, which `np.asarray` would take as 0 or 1."""
    return any(isinstance(x, (bool, np.bool_)) for x in np.asarray(given, dtype=object).flat)


def as_point(p) -> np.ndarray:
    """Coerce to a float array of shape (4,), rejecting bools and non-finite input."""
    q = np.asarray(p, dtype=float)
    if q.shape != (_NVARS,):
        raise ValueError(f"expected 4 coordinates, got shape {q.shape}")
    if q is not p and _holds_bool(p):
        raise ValueError(f"point coordinates must be numbers, not bools, got {list(p)}")
    if not np.all(np.isfinite(q)):
        raise ValueError("point coordinates must be finite")
    return q


def _as_points(points) -> np.ndarray:
    """Coerce to a float array of shape (N, 4), rejecting bools and non-finite input.

    A float array is taken as it is; only input that `np.asarray` converts
    is searched for bools, as `as_point` does.
    """
    q = np.asarray(points, dtype=float)
    if q.ndim != 2 or q.shape[1] != _NVARS:
        raise ValueError(f"expected points of shape (N, 4), got shape {q.shape}")
    if q is not points and _holds_bool(points):
        raise ValueError("point coordinates must be numbers, not bools")
    if not np.all(np.isfinite(q)):
        raise ValueError("point coordinates must be finite")
    return q


def _graded_key(item):
    """Sort key of a (exponents, coefficient) pair: total degree, then exponents, descending."""
    exps = item[0]
    return (-sum(exps), [-e for e in exps])


# Polynomial arithmetic on term maps (exponent tuple -> float coefficient).
# `ScalarField` and the parser share it; a canonical map has no zero
# coefficients and lists its terms in graded-lexicographic order.


def _canonical(terms: dict) -> dict:
    return dict(sorted((item for item in terms.items() if item[1] != 0.0), key=_graded_key))


def _accumulate(total: dict, terms: dict) -> None:
    """Add terms into total in place, coefficient by coefficient."""
    for exps, coeff in terms.items():
        total[exps] = total.get(exps, 0.0) + coeff


def _negated(terms: dict) -> dict:
    return {exps: -coeff for exps, coeff in terms.items()}


def _product(left: dict, right: dict) -> dict:
    """The product of two canonical maps, summed pair by pair in their term order.

    Raises ValueError, before any work, where it would multiply more than
    MAX_TERMS pairs of terms.
    """
    if len(left) * len(right) > MAX_TERMS:
        raise ValueError(
            f"expansion too large ({len(left)} by {len(right)} terms; a product "
            f"may multiply at most {MAX_TERMS} pairs of terms)"
        )
    out = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _degrees(terms: dict) -> tuple[int, ...]:
    """The largest exponent of each coordinate in a term map, 0 where it has none."""
    return tuple(map(max, zip(_ZERO, *terms)))


def _check_degree(degree: int, what: str, operation: str) -> None:
    """ValueError where a power or a product would reach a degree past MAX_EXPONENT."""
    if degree > MAX_EXPONENT:
        raise ValueError(
            f"{what} too large (a {operation} may not exceed degree {MAX_EXPONENT} "
            "in any coordinate)"
        )


def _check_exponent(base: dict, n: int) -> None:
    """ValueError where base**n would take a coordinate above degree MAX_EXPONENT."""
    _check_degree(n * max(max(_degrees(base)), 1), "exponent", "power")


def _power(base: dict, n: int) -> dict:
    """base**n of a canonical map, as n products from the constant 1."""
    result = {_ZERO: 1.0}
    for _ in range(n):
        result = _product(_canonical(result), base)
    return result


class ScalarField:
    """A polynomial in x1..x4 stored as a monomial-to-coefficient map.

    The map is canonicalized on construction: zero coefficients are dropped
    and terms are kept in graded-lexicographic order, so evaluation order,
    equality and printing are all deterministic. Instances are immutable,
    so sharing them across threads is safe, and they pickle.

    Parameters
    ----------
    terms : mapping, optional
        Maps exponent 4-tuples to coefficients, e.g. ``{(1, 1, 0, 0): 2.0}``
        for ``2*x1*x2``. Omitted or empty gives the zero field.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != _NVARS or any(
                not isinstance(e, (int, np.integer)) or e < 0 for e in exps
            ):
                raise ValueError(f"bad exponent tuple {exps!r}")
            clean[exps] = float(coeff)
        object.__setattr__(self, "_terms", _canonical(clean))

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    def __reduce__(self):
        # bypass __setattr__ when unpickling
        return (ScalarField, (self._terms,))

    # construction helpers

    @classmethod
    def constant(cls, value) -> "ScalarField":
        return cls({_ZERO: float(value)})

    @classmethod
    def coordinate(cls, i: int) -> "ScalarField":
        """The coordinate function x_i, i in 1..4."""
        if not 1 <= i <= _NVARS:
            raise ValueError(f"coordinate index must be 1..4, got {i}")
        exps = [0] * _NVARS
        exps[i - 1] = 1
        return cls({tuple(exps): 1.0})

    # inspection

    def terms(self) -> dict:
        """A copy of the monomial map in canonical order."""
        return dict(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero field."""
        return max((sum(e) for e in self._terms), default=0)

    # evaluation and derivatives

    def __call__(self, p) -> float:
        p = as_point(p)
        total = 0.0
        for exps, coeff in self._terms.items():
            mono = coeff
            for x, e in zip(p, exps):
                if e:
                    mono *= math.prod(repeat(x, e))
            total += mono
        return total

    def partial(self, i: int) -> "ScalarField":
        """Exact partial derivative with respect to x_i, i in 1..4."""
        if not 1 <= i <= _NVARS:
            raise ValueError(f"coordinate index must be 1..4, got {i}")
        k = i - 1
        out = {}
        for exps, coeff in self._terms.items():
            e = exps[k]
            if e:
                lowered = list(exps)
                lowered[k] = e - 1
                out[tuple(lowered)] = coeff * e
        return ScalarField(out)

    def gradient(self, p) -> np.ndarray:
        p = as_point(p)
        return np.array([self.partial(i)(p) for i in range(1, 5)])

    def hessian(self, p) -> np.ndarray:
        """Second derivative matrix, symmetric by construction."""
        p = as_point(p)
        firsts = [self.partial(i) for i in range(1, 5)]
        h = np.empty((_NVARS, _NVARS))
        for i in range(_NVARS):
            for j in range(i, _NVARS):
                h[i, j] = h[j, i] = firsts[i].partial(j + 1)(p)
        return h

    # arithmetic

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return ScalarField.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        _accumulate(merged, other._terms)
        return ScalarField(merged)

    __radd__ = __add__

    def __neg__(self):
        return ScalarField(_negated(self._terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ScalarField(_product(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        n = int(n)
        _check_exponent(self._terms, n)
        return ScalarField(_power(self._terms, n))

    def __eq__(self, other):
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # printing

    def to_string(self) -> str:
        """Canonical expression text; parsing it back reproduces the field."""
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self._terms.items():
            negative = coeff < 0
            magnitude = abs(coeff)
            factors = []
            for k, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{k + 1}")
                elif e > 1:
                    factors.append(f"x{k + 1}^{e}")
            if not factors:
                body = repr(magnitude)
            elif magnitude == 1.0:
                body = "*".join(factors)
            else:
                body = repr(magnitude) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append((" - " if negative else " + ") + body)
        return "".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"ScalarField({self.to_string()!r})"


class CompiledField:
    """Fields and their 14 distinct partials as flat exponent/coefficient arrays.

    Slot 0 of a field holds the field, slots 1-4 its first partials and
    slots 5-14 the second partials d_i d_j, i <= j. Each slot is the
    polynomial `ScalarField.partial` gives, d_i for a first partial and
    d_i then d_j for a second, as `gradient` and `hessian` form them, with
    its terms in canonical order. Each distinct (exponents, coefficient)
    term of the slots is one row, numbered where it first occurs, slot by
    slot and field by field within a slot, so the rows of the slots up to
    an order are a prefix and one schedule sums every field. No canonical
    coefficient is zero, so c and -c never share a row. `evaluate` forms
    and sums the terms as `ScalarField.__call__` does, so the results agree
    with `__call__`, `gradient` and `hessian` bit for bit.
    """

    __slots__ = ("exponents", "coefficients", "max_exponents", "_schedules")

    def __init__(self, fields):
        # per field, its slots: itself, its first partials, then firsts[i].partial(j + 1)
        slots = []
        for f in fields:
            firsts = [f.partial(i + 1) for i in range(_NVARS)]
            slots.append([f, *firsts, *(firsts[i].partial(j + 1) for i, j in _SECOND_PAIRS)])
        if not slots:
            raise ValueError("CompiledField needs at least one field")
        # row[(exponents, coefficient)]: a distinct term's row, in the order terms first occur
        terms = (t for slot in zip(*slots) for s in slot for t in s._terms.items())
        row = {t: k for k, t in enumerate(dict.fromkeys(terms))}
        self.exponents = np.array([e for e, _ in row], dtype=np.int64).reshape(-1, _NVARS)
        self.coefficients = np.array([c for _, c in row], dtype=float)
        self.max_exponents = self.exponents.max(axis=0, initial=0)
        # schedule[j, f, s]: the row of the j-th term of slot s of field f; past
        # its last term, -1, the zero row evaluate() appends. No partial has more
        # terms than its field, so the fields set the depth of every order.
        columns = ([row[t] for t in s._terms.items()] for field in slots for s in field)
        schedule = np.array(list(zip_longest(*columns, fillvalue=-1)), dtype=np.intp)
        schedule = schedule.reshape(-1, len(slots), _ORDER_SLOTS[-1])
        # per order: (the rows its slots use, a prefix, and the schedule of its slots)
        orders = [np.ascontiguousarray(schedule[..., :n]) for n in _ORDER_SLOTS]
        self._schedules = [(int(part.max(initial=-1)) + 1, part) for part in orders]

    def evaluate(self, points, order: int = 2) -> np.ndarray:
        """Slots 0 .. (1, 5, 15)[order] - 1 of each field at N points, (F, slots, N).

        points is (N, 4), finite, not bools; order is 0, 1 or 2, not a bool
        (ValueError otherwise).
        The powers of each coordinate are a table of products (`_power_table`),
        as `__call__` forms them: no power function is called. Overflows give
        inf and NaN, without warnings.

        The points lie on the last axis throughout, so each gather, product
        and sum is one contiguous loop over the N points, and one gather per
        coordinate and one add per schedule row serve every field at once.
        Each distinct term is formed once, (c * x1^e1) * x2^e2 * x3^e3 * x4^e4,
        and each slot is a sum from 0.0 of its terms in canonical order, one
        per row, as __call__ sums: neither sharing nor layout changes a bit.
        """
        if isinstance(order, (bool, np.bool_)) or order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        points = _as_points(points)
        nterms, schedule = self._schedules[order]
        exps = self.exponents[:nterms]
        n = len(points)
        mono = np.empty((nterms + 1, n))
        with np.errstate(over="ignore", invalid="ignore"):
            powers = [_power_table(x, int(top)) for x, top in zip(points.T, self.max_exponents)]
            np.multiply(self.coefficients[:nterms, None], powers[0][exps[:, 0]], out=mono[:nterms])
            for k in range(1, _NVARS):
                mono[:nterms] *= powers[k][exps[:, k]]
            mono[nterms] = 0.0
            # adding the zero padding leaves every partial sum unchanged: a sum
            # from 0.0 is never -0.0
            out = np.zeros((*schedule.shape[1:], n))
            for row in schedule:
                out += mono[row]
        return out


def _power_table(column: np.ndarray, top: int) -> np.ndarray:
    """The table of x**e, e = 0 .. top, of the coordinates of N points, (top + 1, N).

    Row e is row e - 1 times x, as `ScalarField.__call__` forms x**e: e - 1
    correctly rounded products, so a relative error of at most about
    (e - 1) u, u = 2**-53, and the same bits on every host.
    """
    table = np.empty((top + 1, len(column)))
    table[0] = 1.0
    if top >= 1:
        table[1] = column
    for e in range(2, top + 1):
        np.multiply(table[e - 1], table[1], out=table[e])
    return table


def jets(compiled: CompiledField, points, order: int = 2):
    """Values, gradients and Hessians of the compiled fields at N points at once.

    Returns (values (F, N), gradients (F, 4, N), hessians (F, 4, 4, N)) for
    the F fields of `compiled`, the points last; with order 0 or 1 the
    higher derivatives are skipped and returned as None. Entry for entry,
    the results equal `__call__`, `gradient` and `hessian` of each field at
    each point.

    The fields are evaluated together, on one schedule, into one block
    (F, slots, N) (`CompiledField.evaluate`); the values and gradients are
    views of it (`_jet_views`).
    """
    return _jet_views(compiled.evaluate(points, order), order)


def _jet_views(block: np.ndarray, order: int):
    """The results of `jets` from its block; the Hessians are gathered into a new array."""
    gradients = block[:, 1 : 1 + _NVARS] if order >= 1 else None
    hessians = block[:, _HESSIAN_SLOTS] if order == 2 else None
    return block[:, 0], gradients, hessians


# expression parsing

class ParseError(ValueError):
    """Raised on malformed field expressions; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.message = message
        self.position = position


_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()/])"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    @property
    def is_integer(self):
        return self.kind == "number" and not any(c in self.text for c in ".eE")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


def _expand(op: _Token, expansion, *operands) -> dict:
    """expansion(*operands), with its ValueError (a refusal) as a ParseError at op."""
    try:
        return expansion(*operands)
    except ValueError as exc:
        raise ParseError(str(exc), op.pos) from exc


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.index = 0
        self.depth = 0  # open parentheses around the current token

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def at_op(self, *ops):
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.text in ops

    def end_position(self):
        return len(self.text)

    # each rule returns a term map; operands are made canonical before each
    # product and power, so the arithmetic, and with it every coefficient
    # and the term order, is that of the ScalarField operators

    def expression(self) -> dict:
        total = self.term()
        while self.at_op("+", "-"):
            op = self.advance()
            rhs = self.term()
            _accumulate(total, rhs if op.text == "+" else _negated(rhs))
        return total

    def term(self) -> dict:
        terms = self.unary()
        while self.at_op("*"):
            op = self.advance()
            left, right = _canonical(terms), _canonical(self.unary())
            degree = max(map(add, _degrees(left), _degrees(right)))
            _expand(op, _check_degree, degree, "degree", "product")
            terms = _expand(op, _product, left, right)
        if self.at_op("/"):
            tok = self.peek()
            raise ParseError(
                "'/' is only valid inside an integer rational literal", tok.pos
            )
        return terms

    def unary(self) -> dict:
        # negating twice is exact, so an even count of signs negates nothing
        negate = False
        while self.at_op("-"):
            self.advance()
            negate = not negate
        terms = self.power()
        return _negated(terms) if negate else terms

    def power(self) -> dict:
        base = self.atom()
        if self.at_op("^"):
            op = self.advance()
            base = _canonical(base)
            return _expand(op, _power, base, self.exponent(base))
        return base

    def exponent(self, base: dict) -> int:
        minus = None
        if self.at_op("-"):
            minus = self.advance()
        tok = self.peek()
        if tok is None or tok.kind != "number":
            pos = tok.pos if tok is not None else self.end_position()
            raise ParseError("expected an integer exponent", pos)
        self.advance()
        if not tok.is_integer:
            raise ParseError("non-integer exponent", tok.pos)
        if minus is not None:
            raise ParseError("negative exponent", minus.pos)
        try:
            n = int(tok.text)
        except ValueError:  # thousands of digits
            n = MAX_EXPONENT + 1
        _expand(tok, _check_exponent, base, n)
        return n

    def atom(self) -> dict:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.end_position())
        if tok.kind == "number":
            self.advance()
            if self.at_op("/"):
                slash = self.advance()
                if not tok.is_integer:
                    raise ParseError(
                        "rational literal requires an integer numerator", slash.pos
                    )
                denom = self.peek()
                if denom is None or denom.kind != "number" or not denom.is_integer:
                    pos = denom.pos if denom is not None else self.end_position()
                    raise ParseError(
                        "rational literal requires an integer denominator", pos
                    )
                self.advance()
                try:
                    numerator, denominator = int(tok.text), int(denom.text)
                except ValueError as exc:  # thousands of digits
                    raise ParseError("rational literal out of range", tok.pos) from exc
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal", denom.pos)
                try:
                    return {_ZERO: numerator / denominator}
                except OverflowError as exc:
                    raise ParseError("rational literal out of range", tok.pos) from exc
            value = float(tok.text)
            if math.isinf(value):
                raise ParseError("literal out of range", tok.pos)
            return {_ZERO: value}
        if tok.kind == "ident":
            self.advance()
            if tok.text in ("x1", "x2", "x3", "x4"):
                exps = [0] * _NVARS
                exps[int(tok.text[1]) - 1] = 1
                return {tuple(exps): 1.0}
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(
                    f"expression nested too deeply (at most {MAX_DEPTH} levels of "
                    "parentheses)",
                    tok.pos,
                )
            self.advance()
            self.depth += 1
            terms = self.expression()
            if not self.at_op(")"):
                pos = self.peek().pos if self.peek() is not None else self.end_position()
                raise ParseError("expected ')'", pos)
            self.advance()
            self.depth -= 1
            return terms
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)


def parse_field(text: str) -> ScalarField:
    """Parse an expression in x1..x4 into a ScalarField.

    Raises ParseError (with a 0-based character offset) on syntax errors,
    unknown identifiers, literals out of range, invalid exponents, products
    or powers past MAX_TERMS or MAX_EXPONENT and parentheses nested more
    than MAX_DEPTH levels deep.
    """
    parser = _Parser(_tokenize(text), text)
    terms = parser.expression()
    parser.expect_end()
    return ScalarField(terms)
