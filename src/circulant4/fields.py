"""Polynomial scalar fields on R^4.

The metric coefficients handled by this package are smooth functions of a
point p = (x1, x2, x3, x4). Restricting them to polynomials keeps every
derivative exact: gradients and Hessians are themselves polynomials obtained
by coefficient arithmetic, so the connection and curvature routines never
depend on numerical differentiation. A central-difference routine is still
provided (`fd_gradient`) as an independent check on the analytic path.

The geometry pipeline evaluates fields through their compiled form
(`ScalarField.compile`): flat exponent and coefficient arrays for the field
and its 14 distinct partials, evaluated for N points at once by `jets`. It
reproduces `ScalarField.__call__`, `gradient` and `hessian` bit for bit,
which stay as the per-point reference.

Fields can be built programmatically (`ScalarField.coordinate`, arithmetic
operators) or parsed from a small expression grammar:

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    atom     := literal | coordinate | '(' expr ')'
    literal  := decimal | integer '/' integer
    exponent := non-negative integer

Coordinates are named x1..x4, whitespace is insignificant and there is no
implicit multiplication. Decimal literals may carry an exponent suffix
(1e-3) so that printed fields always re-parse.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = [
    "ScalarField",
    "CompiledField",
    "ParseError",
    "parse_field",
    "fd_gradient",
    "as_point",
    "jets",
    "scalar_pow",
]

_NVARS = 4
_ZERO = (0, 0, 0, 0)

# jet slots of a compiled field: 0 is the value, 1 + i the partial d_i and
# 5 + k the second partial d_i d_j, i <= j, of the k-th pair below
_SECOND_PAIRS = tuple((i, j) for i in range(_NVARS) for j in range(i, _NVARS))
_SLOT_FIRST = np.array([-1] + list(range(_NVARS)) + [i for i, _ in _SECOND_PAIRS])
_SLOT_SECOND = np.array([-1] * (1 + _NVARS) + [j for _, j in _SECOND_PAIRS])
# derivative counts per variable, [slot, var]
_SLOT_DERIVATIVES = (np.arange(_NVARS) == _SLOT_FIRST[:, None]).astype(np.int64) + (
    np.arange(_NVARS) == _SLOT_SECOND[:, None]
)
_HESSIAN_SLOTS = np.empty((_NVARS, _NVARS), dtype=np.intp)
for _k, (_i, _j) in enumerate(_SECOND_PAIRS):
    _HESSIAN_SLOTS[_i, _j] = _HESSIAN_SLOTS[_j, _i] = 1 + _NVARS + _k
# slots needed for jets up to order 0, 1, 2
_ORDER_SLOTS = (1, 1 + _NVARS, 1 + _NVARS + len(_SECOND_PAIRS))


def as_point(p) -> np.ndarray:
    """Coerce to a float array of shape (4,), rejecting non-finite input."""
    q = np.asarray(p, dtype=float)
    if q.shape != (_NVARS,):
        raise ValueError(f"expected 4 coordinates, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("point coordinates must be finite")
    return q


def _as_points(points) -> np.ndarray:
    """Coerce to a float array of shape (N, 4), rejecting non-finite input."""
    q = np.asarray(points, dtype=float)
    if q.ndim != 2 or q.shape[1] != _NVARS:
        raise ValueError(f"expected points of shape (N, 4), got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("point coordinates must be finite")
    return q


def _pow_or_inf(x: float, e: int) -> float:
    try:
        return math.pow(x, e)
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


def scalar_pow(values, e: int) -> np.ndarray:
    """values**e elementwise, bit for bit as a Python or numpy scalar computes it.

    Scalar powers call the C library's pow. numpy's array power, and repeated
    multiplication, differ from it in the last bit on a few percent of
    inputs, which would make batched and per-point results disagree.
    Overflow gives inf with the sign of the exact power.
    """
    values = np.asarray(values, dtype=float)
    flat = values.ravel().tolist()
    try:
        out = [math.pow(x, e) for x in flat]
    except OverflowError:
        out = [_pow_or_inf(x, e) for x in flat]
    return np.array(out, dtype=float).reshape(values.shape)


def _graded_lex_key(exps):
    return (-sum(exps), tuple(-e for e in exps))


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

    __slots__ = ("_terms", "_compiled")

    def __init__(self, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != _NVARS or any(
                not isinstance(e, (int, np.integer)) or e < 0 for e in exps
            ):
                raise ValueError(f"bad exponent tuple {exps!r}")
            coeff = float(coeff)
            if coeff != 0.0:
                clean[exps] = coeff
        object.__setattr__(
            self,
            "_terms",
            dict(sorted(clean.items(), key=lambda kv: _graded_lex_key(kv[0]))),
        )

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

    def compile(self) -> "CompiledField":
        """The compiled form, built on first use and kept on the field."""
        try:
            return self._compiled
        except AttributeError:
            compiled = CompiledField(self._terms)
            object.__setattr__(self, "_compiled", compiled)
            return compiled

    def __call__(self, p) -> float:
        p = as_point(p)
        total = 0.0
        for exps, coeff in self._terms.items():
            mono = coeff
            for x, e in zip(p, exps):
                if e:
                    mono *= x**e
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
        for exps, coeff in other._terms.items():
            merged[exps] = merged.get(exps, 0.0) + coeff
        return ScalarField(merged)

    __radd__ = __add__

    def __neg__(self):
        return ScalarField({e: -c for e, c in self._terms.items()})

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
        out = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return ScalarField(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ScalarField.constant(1.0)
        for _ in range(int(n)):
            result = result * self
        return result

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
    """A field and its 14 distinct partials as flat exponent/coefficient arrays.

    Slot 0 holds the field, slots 1-4 its first partials and slots 5-14 the
    second partials d_i d_j, i <= j. Lowering one exponent of every term
    keeps the canonical term order, so each slot lists its terms in the
    field's order, with the coefficients `ScalarField.partial` computes
    (c * e_i, then times e_j). `evaluate` multiplies and sums in the order
    of `ScalarField.__call__`, so the results agree with `__call__`,
    `gradient` and `hessian` bit for bit.
    """

    __slots__ = ("exponents", "coefficients", "schedule", "max_exponents", "_prefix")

    def __init__(self, terms: dict):
        exps = np.array(list(terms), dtype=np.int64).reshape(-1, _NVARS)
        coeffs = np.array(list(terms.values()), dtype=float)
        lowered = exps[None, :, :] - _SLOT_DERIVATIVES[:, None, :]  # [slot, term, var]
        keep = np.all(lowered >= 0, axis=2)
        # the exponents a slot's coefficient is multiplied by, first d_i,
        # then d_j of the lowered term; 1, an exact no-op, where it has none
        first = np.where(_SLOT_FIRST[:, None] < 0, 1, exps[:, _SLOT_FIRST].T)
        second = np.where(
            _SLOT_SECOND[:, None] < 0,
            1,
            exps[:, _SLOT_SECOND].T - (_SLOT_FIRST == _SLOT_SECOND)[:, None],
        )
        slot_of, term_of = np.nonzero(keep)  # slot-major, terms in field order
        counts = keep.sum(axis=1)
        # schedule[j, s]: flat index of the j-th term of slot s; -1 pads,
        # and evaluate() appends a zero column for it to read
        schedule = np.full((counts.max(), len(counts)), -1, dtype=np.intp)
        schedule[np.cumsum(keep, axis=1)[slot_of, term_of] - 1, slot_of] = np.arange(
            len(slot_of)
        )
        self.exponents = lowered[slot_of, term_of]
        # a huge coefficient times an exponent gives inf, as in `partial`
        with np.errstate(over="ignore"):
            self.coefficients = (
                coeffs[term_of] * first[slot_of, term_of] * second[slot_of, term_of]
            )
        self.schedule = schedule
        self.max_exponents = exps.max(axis=0, initial=0)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        # per order: (terms used, schedule rows used)
        self._prefix = tuple((int(offsets[n]), int(counts[:n].max())) for n in _ORDER_SLOTS)

    def evaluate(self, powers, order: int = 2) -> np.ndarray:
        """Slots 0 .. (1, 5, 15)[order] - 1 at N points, shape (N, slots).

        powers[k] is the table of x_{k+1}**e, shape (N, e_max + 1), with
        column e computed by `scalar_pow`.
        """
        nterms, rows = self._prefix[order]
        exps = self.exponents[:nterms]
        mono = self.coefficients[:nterms] * powers[0][:, exps[:, 0]]
        for k in range(1, _NVARS):
            mono *= powers[k][:, exps[:, k]]
        mono = np.concatenate([mono, np.zeros((len(mono), 1))], axis=1)
        schedule = self.schedule[:rows, : _ORDER_SLOTS[order]]
        # one term per slot at a time, from 0.0, as __call__ sums; adding
        # the zero padding leaves every partial sum unchanged
        out = np.zeros((len(mono), schedule.shape[1]))
        for row in schedule:
            out += mono[:, row]
        return out


def _power_table(column: np.ndarray, top: int) -> np.ndarray:
    table = np.empty((len(column), top + 1))
    table[:, 0] = 1.0
    if top >= 1:
        table[:, 1] = column
    for e in range(2, top + 1):
        table[:, e] = scalar_pow(column, e)
    return table


def jets(fields, points, order: int = 2):
    """Values, gradients and Hessians of several fields at N points at once.

    Returns (values (N, F), gradients (N, F, 4), hessians (N, F, 4, 4)) for
    F fields; with order 0 or 1 the higher derivatives are skipped and
    returned as None. Entry for entry, the results equal `__call__`,
    `gradient` and `hessian` of each field at each point.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    points = _as_points(points)
    compiled = [field.compile() for field in fields]
    top = np.max([c.max_exponents for c in compiled], axis=0)
    powers = [_power_table(points[:, k], int(top[k])) for k in range(_NVARS)]
    with np.errstate(over="ignore", invalid="ignore"):
        slots = np.stack([c.evaluate(powers, order) for c in compiled], axis=1)
    values = slots[:, :, 0]
    gradients = slots[:, :, 1 : 1 + _NVARS] if order >= 1 else None
    hessians = slots[:, :, _HESSIAN_SLOTS] if order == 2 else None
    return values, gradients, hessians


def fd_gradient(field, p, h: float | None = None) -> np.ndarray:
    """Central-difference gradient, an independent check on the exact one.

    With ``h`` omitted the step adapts per axis to 1e-5 * max(1, |x_i|).
    An explicit non-positive step is rejected.
    """
    p = as_point(p)
    if h is not None and not h > 0:
        raise ValueError("step h must be positive")
    out = np.empty(_NVARS)
    for k in range(_NVARS):
        step = h if h is not None else 1e-5 * max(1.0, abs(p[k]))
        offset = np.zeros(_NVARS)
        offset[k] = step
        out[k] = (field(p + offset) - field(p - offset)) / (2.0 * step)
    return out


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


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.index = 0

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

    def expression(self):
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = node + rhs if op.text == "+" else node - rhs
        return node

    def term(self):
        node = self.unary()
        while self.at_op("*"):
            self.advance()
            node = node * self.unary()
        if self.at_op("/"):
            tok = self.peek()
            raise ParseError(
                "'/' is only valid inside an integer rational literal", tok.pos
            )
        return node

    def unary(self):
        if self.at_op("-"):
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            return base ** self.exponent()
        return base

    def exponent(self) -> int:
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
        return int(tok.text)

    def atom(self):
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
                if int(denom.text) == 0:
                    raise ParseError("zero denominator in rational literal", denom.pos)
                return ScalarField.constant(int(tok.text) / int(denom.text))
            return ScalarField.constant(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in ("x1", "x2", "x3", "x4"):
                return ScalarField.coordinate(int(tok.text[1]))
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expression()
            if not self.at_op(")"):
                pos = self.peek().pos if self.peek() is not None else self.end_position()
                raise ParseError("expected ')'", pos)
            self.advance()
            return node
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)


def parse_field(text: str) -> ScalarField:
    """Parse an expression in x1..x4 into a ScalarField.

    Raises ParseError (with a 0-based character offset) on syntax errors,
    unknown identifiers and invalid exponents.
    """
    parser = _Parser(_tokenize(text), text)
    field = parser.expression()
    parser.expect_end()
    return field
