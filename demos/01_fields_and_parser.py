"""Polynomial coefficient fields, built by hand and parsed from text.

Everything downstream (metrics, connection, curvature) consumes these
fields, so this is the natural place to start. A field is a polynomial
in the four coordinates x1..x4 with float coefficients; derivatives are
exact, not numerical.
"""

import numpy as np

from circulant4 import ParseError, ScalarField, parse_field
from circulant4._oracles import exact_jets

# build a field from the coordinate generators
x1 = ScalarField.coordinate(1)
x2 = ScalarField.coordinate(2)
x3 = ScalarField.coordinate(3)

f = x1**2 * x3 - x2 * 2.5 + 1.0
print("f =", f)
print("degree:", f.degree)

p = (1.0, 2.0, 3.0, 4.0)
print(f"f{p} =", f(p))

# derivatives are computed on the coefficients, so they are exact
print("grad f =", f.gradient(p))
print("hess f =")
print(f.hessian(p))

# the exact reference takes the same terms in Fractions; the float
# gradient differs from it by rounding alone
gap = np.max(np.abs(f.gradient(p) - exact_jets([f], [p])[1][0, 0].astype(float)))
print(f"float vs exact gradient: {gap:.2e}")

# the same field can come from text
g = parse_field("x1^2*x3 - 2.5*x2 + 1")
print("parsed equals built:", g == f)

# printing and parsing are inverses
print("round trip:", parse_field(f.to_string()) == f)

# rational literals survive exactly when written as integer fractions
h = parse_field("1/3*x4^2")
print("1/3 literal:", h.terms())

# parse errors carry the offending position
try:
    parse_field("x1^2 + x5")
except ParseError as err:
    print("error:", err)
