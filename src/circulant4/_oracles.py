"""Independent reference routes, for the tests and demos only.

Each function here recomputes something the package computes otherwise,
by another method, so the two can be compared: central differences for
gradients (`fd_gradient`) and for the Christoffel partials and R
(`christoffel_partials_fd`, `riemann_fd`), generic determinants for
positive definiteness (`leading_principal_minors`), contraction with the
inverse metric (`raise_index`) and one basis 4-tuple of the slot-transfer
identity at a time (`curvature_q_invariance_residual`). None of them is
part of the public API.
"""

from __future__ import annotations

import numpy as np

from .circulant import apply_affinor, inverse_metric
from .connection import christoffel
from .curvature import _assemble_riemann, contract_lowered, riemann_lowered
from .fields import _NVARS, as_point
from .manifolds import ManifoldSpec


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


def leading_principal_minors(matrix) -> np.ndarray:
    """Determinants of the four leading principal submatrices.

    All strictly positive iff the matrix is positive definite; kept separate
    from the ordering test so the two can corroborate each other.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    return np.array([np.linalg.det(matrix[:k, :k]) for k in range(1, 5)])


def christoffel_partials_fd(m: ManifoldSpec, p, h: float = 1e-4) -> np.ndarray:
    """Central differences of christoffel, the independent route to d Gamma."""
    p = as_point(p)
    if not h > 0:
        raise ValueError("step h must be positive")
    out = np.empty((4, 4, 4, 4))
    for k in range(4):
        offset = np.zeros(4)
        offset[k] = h
        out[k] = (christoffel(m, p + offset) - christoffel(m, p - offset)) / (2.0 * h)
    return out


def riemann_fd(m: ManifoldSpec, p, h: float = 1e-4) -> np.ndarray:
    """Same assembly with finite-difference Christoffel partials."""
    dgamma = christoffel_partials_fd(m, p, h)
    out, scratch = np.empty((2, *dgamma.shape, 1))
    return _assemble_riemann(christoffel(m, p)[..., None], dgamma[..., None], out, scratch)[..., 0]


def raise_index(t, r4: np.ndarray) -> np.ndarray:
    """Inverse of lower_index, contracting with the inverse metric."""
    return np.einsum("hl,hkji->lkji", inverse_metric(t), r4)


def curvature_q_invariance_residual(m: ManifoldSpec, p, x, y, z, u) -> float:
    """|R(x, y, z, qu) - R(x, y, q^3 z, u)| at p."""
    r4 = riemann_lowered(m, p)
    lhs = contract_lowered(r4, x, y, z, apply_affinor(1, u))
    rhs = contract_lowered(r4, x, y, apply_affinor(3, z), u)
    return abs(lhs - rhs)
