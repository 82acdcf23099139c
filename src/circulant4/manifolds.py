"""Manifold descriptions: three scalar fields plus domain bookkeeping.

A manifold here is R^4 (minus excluded loci) carrying the circulant metric
whose components at p are (A(p), B(p), C(p)). Validity of a point means it
avoids the excluded loci, the triple is finite and it is ordered
A > C > B > 0, which is sufficient for positive definiteness. Both the
field jets (`ManifoldSpec.jets`) and validity (`ManifoldSpec.domain_reasons`,
a code per point into a tuple of reason texts) work on N points at once;
`triple_at` and `domain_valid` are their N = 1 views.

The built-in example uses

    A = x1^2 + x2^2 + x3^2 + x4^2
    B = x1*x2 + x2*x3 + x1*x4 + x3*x4
    C = 2*x1*x3 + 2*x2*x4

with the lines (x, x, x, x) and (-x, x, -x, x) excluded; on those lines
A - C = (x1 - x3)^2 + (x2 - x4)^2 collapses to zero and the metric
degenerates. User manifolds come from a small line-oriented config format:

    # comment
    name = my manifold
    A = x1^2 + 1
    B = 1/2 * x1 * x2
    C = x3

Keys are name, A, B, C; the three field expressions are required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .circulant import CirculantTriple, metric_components
from .fields import CompiledField, ParseError, ScalarField, as_point, jets, parse_field

__all__ = [
    "SignLineLocus",
    "DomainStatus",
    "ManifoldSpec",
    "ConfigError",
    "MAX_CONFIG_BYTES",
    "example_manifold",
    "constant_manifold",
    "manifold_from_config",
    "load_manifold",
]


@dataclass(frozen=True)
class SignLineLocus:
    """The punctured line p = (s1*x, s2*x, s3*x, s4*x) for signs s_i = +-1."""

    label: str
    signs: tuple[int, int, int, int]

    def contains(self, p) -> bool:
        return bool(self.contains_points(as_point(p)[None])[0])

    def contains_points(self, points) -> np.ndarray:
        """Membership of each row of an (N, 4) array of points."""
        v = np.asarray(points, dtype=float) * np.asarray(self.signs)
        return (v[:, 0] == v[:, 1]) & (v[:, 1] == v[:, 2]) & (v[:, 2] == v[:, 3])


@dataclass(frozen=True)
class DomainStatus:
    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class ManifoldSpec:
    name: str
    A: ScalarField
    B: ScalarField
    C: ScalarField
    excluded_loci: tuple[SignLineLocus, ...] = field(default=())

    @cached_property
    def compiled(self) -> CompiledField:
        """The compiled form of A, B and C.

        Built on the first `jets` call, not when the manifold is made, so
        making or loading one compiles nothing; kept on the manifold and
        freed with it. `dataclasses.replace` gives a new manifold, which
        compiles its own fields.
        """
        return CompiledField((self.A, self.B, self.C))

    def jets(self, points, order: int = 2):
        """Values (N, 3), gradients (N, 3, 4) and Hessians (N, 3, 4, 4) of A, B, C.

        They are evaluated from `compiled`, on one schedule. Derivatives
        above `order` are skipped and returned as None.
        """
        return jets(self.compiled, points, order)

    def triple_at(self, p) -> CirculantTriple:
        """The field values at p.

        Raises ValueError with the reason `domain_reasons` gives where one
        is not finite (`A is not finite`).
        """
        values, _, _ = self.jets(as_point(p)[None], order=0)
        for name, value in zip("ABC", values[0].tolist()):
            if not math.isfinite(value):
                raise ValueError(f"{name} is not finite")
        return CirculantTriple(*values[0].tolist())

    def metric_at(self, p):
        return metric_components(self.triple_at(p))

    def domain_reasons(self, points, triples) -> tuple:
        """Why each point is invalid, as (codes, reasons).

        points is (N, 4) and triples the field values there, (N, 3).
        codes is an (N,) intp array that indexes the tuple reasons, whose
        entry 0 is None, the code of a valid point. The tests run in a
        fixed sequence (excluded loci, a non-finite component, then A > C,
        C > B, B > 0), and a point's code is the first one that fails.
        """
        points = np.asarray(points, dtype=float)
        a, b, c = np.asarray(triples, dtype=float).T
        with np.errstate(invalid="ignore"):
            tests = [
                *((locus.contains_points(points), f"excluded locus {locus.label}")
                  for locus in self.excluded_loci),
                *((~np.isfinite(v), f"{name} is not finite") for name, v in zip("ABC", (a, b, c))),
                (~(a > c), "A > C violated"),
                (~(c > b), "C > B violated"),
                (~(b > 0), "B > 0 violated"),
            ]
        codes = np.zeros(len(points), dtype=np.intp)
        # in reverse, so that the first test that fails is assigned last
        for code, (failed, _) in reversed(list(enumerate(tests, 1))):
            codes[failed] = code
        return codes, (None, *(reason for _, reason in tests))

    def domain_valid(self, p) -> DomainStatus:
        """Pointwise validity, the N = 1 view of `domain_reasons`."""
        p = as_point(p)[None]
        values, _, _ = self.jets(p, order=0)
        codes, reasons = self.domain_reasons(p, values)
        reason = reasons[codes[0]]
        return DomainStatus(reason is None, reason)


def example_manifold() -> ManifoldSpec:
    """The built-in quadratic example, q-parallel everywhere it is valid."""
    return ManifoldSpec(
        name="example",
        A=parse_field("x1^2 + x2^2 + x3^2 + x4^2"),
        B=parse_field("x1*x2 + x2*x3 + x1*x4 + x3*x4"),
        C=parse_field("2*x1*x3 + 2*x2*x4"),
        excluded_loci=(
            SignLineLocus("(x,x,x,x)", (1, 1, 1, 1)),
            SignLineLocus("(-x,x,-x,x)", (-1, 1, -1, 1)),
        ),
    )


def constant_manifold(a: float, b: float, c: float, name: str = "constant") -> ManifoldSpec:
    """Constant coefficients: a flat space, handy as a reference case."""
    return ManifoldSpec(
        name=name,
        A=ScalarField.constant(a),
        B=ScalarField.constant(b),
        C=ScalarField.constant(c),
    )


# the largest config file `load_manifold` reads, in bytes
MAX_CONFIG_BYTES = 1 << 20

# the most bytes `load_manifold` asks for in one read: a read allocates what
# it asks for before it shrinks to the bytes it got, so one read of the
# 290-byte perturbed.cfg took 21 us asking for MAX_CONFIG_BYTES + 1 and
# 5.2 us asking for 64 KiB (timeit, best of 5 x 2000, 2-vCPU Xeon)
_READ_BYTES = 1 << 16


class ConfigError(ValueError):
    """Malformed manifold config: bad line, unknown or missing key, bad field."""


_CONFIG_KEYS = ("name", "A", "B", "C")


def manifold_from_config(text: str, name: str | None = None) -> ManifoldSpec:
    """Parse the line-oriented config format into a ManifoldSpec.

    ``#`` starts a comment, blank lines are skipped, each remaining line must
    read ``key = value``. Errors carry the line number, and field expression
    errors additionally carry the field name and character position.
    """
    seen: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        seen[key] = (lineno, value)

    for key in ("A", "B", "C"):
        if key not in seen:
            raise ConfigError(f"missing field {key}")

    parsed: dict[str, ScalarField] = {}
    for key in ("A", "B", "C"):
        lineno, expr = seen[key]
        try:
            parsed[key] = parse_field(expr)
        except ParseError as exc:
            raise ConfigError(f"field {key} (line {lineno}): {exc}") from exc

    resolved = seen.get("name", (0, ""))[1] or name or "custom"
    return ManifoldSpec(resolved, parsed["A"], parsed["B"], parsed["C"])


# the distinct configs `load_manifold` keeps parsed, a fixed bound: one
# entry of perfbench/manifolds/cubic.cfg (970 bytes), with the compiled form
# a check builds on it, retains about 30 KB (tracemalloc), its key included;
# a key may hold up to MAX_CONFIG_BYTES
_CONFIG_CACHE_SIZE = 4


# ConfigError and UnicodeDecodeError propagate and are not cached
@lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def _parsed_config(data: bytes, stem: str) -> ManifoldSpec:
    # a byte order mark, as some editors save one, is not part of the text
    return manifold_from_config(data.decode("utf-8-sig"), name=stem)


def load_manifold(path) -> ManifoldSpec:
    """The manifold of a UTF-8 config file of at most MAX_CONFIG_BYTES bytes, BOM or not.

    The file is read in pieces of at most 64 KiB, and a longer file is
    refused with ConfigError after reading one byte past the bound, so a
    device or a huge file is never read to its end.

    The file is read on every call, but parsed and compiled once per
    distinct content in a process: the same bytes under the same file stem
    (the default name) give the same ManifoldSpec, shared as it and its
    fields are immutable, and an edited file is parsed again. The last
    `_CONFIG_CACHE_SIZE` distinct configs are kept.
    """
    path = Path(path)
    pieces, size = [], 0
    with path.open("rb") as file:
        while size <= MAX_CONFIG_BYTES:
            piece = file.read(min(_READ_BYTES, MAX_CONFIG_BYTES + 1 - size))
            if not piece:
                break
            pieces.append(piece)
            size += len(piece)
    data = b"".join(pieces)
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"larger than {MAX_CONFIG_BYTES} bytes")
    return _parsed_config(data, path.stem)
