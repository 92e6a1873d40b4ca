"""Sparse SPD factorization backend for the session layer.

The session core factors ``G - iD`` (and the shifted/capacitance
variants) thousands of times per sweep; for the SPD matrices the paper
guarantees below the runaway current, a symmetric factorization is the
natural kernel — roughly half the fill of a general LU on the layered
package meshes, and the standard backend of large-grid thermal
simulators such as 3D-ICE.

:func:`spd_factorize` is the single seam: SciPy's SuperLU restricted
to symmetric mode with diagonal pivoting suppressed and an MMD ordering
on ``A + A'``.  With no off-diagonal pivoting the factorization of an
SPD matrix is exactly the ``LDL'`` Cholesky up to scaling, every pivot
is positive, and a non-positive pivot certifies the matrix was not
positive definite — the same oracle :mod:`repro.linalg.spd` uses.  The
factor exposes one ``solve`` method accepting a vector or an ``(n, k)``
right-hand-side block, like a ``splu`` handle.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class NotPositiveDefiniteError(ValueError):
    """The matrix handed to :func:`spd_factorize` is not SPD.

    For ``G - iD`` this means the current is at or beyond the runaway
    current ``lambda_m`` (Theorem 1), exactly the condition the other
    backends report as a singular system.
    """


class CholeskyFactor:
    """A factored SPD matrix with a ``splu``-compatible ``solve``.

    ``nnz`` is the factor fill (nonzeros of ``L + U``) — the
    memory-accounting hook the backend benchmarks use to compare
    solver-state footprints.
    """

    __slots__ = ("_solve", "shape", "nnz")

    def __init__(self, solve, shape, nnz=0):
        self._solve = solve
        self.shape = shape
        self.nnz = int(nnz)

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        return self._solve(rhs)


def spd_factorize(matrix):
    """Factor a sparse SPD matrix, returning an object with ``solve``.

    Parameters
    ----------
    matrix:
        Sparse symmetric positive definite matrix (any SciPy sparse
        format; converted to CSC).

    Returns
    -------
    CholeskyFactor
        ``factor.solve(rhs)`` accepts a vector or an ``(n, k)`` block.

    Raises
    ------
    NotPositiveDefiniteError
        If the matrix is singular or indefinite.  Callers solving
        ``G - iD`` translate this into their at-runaway error.
    """
    if not sp.issparse(matrix):
        raise TypeError(
            "spd_factorize needs a sparse matrix, got {}".format(
                type(matrix).__name__
            )
        )
    csc = matrix.tocsc()
    if csc.shape[0] != csc.shape[1]:
        raise ValueError("matrix must be square, got {}".format(csc.shape))
    try:
        # MMD on A + A' is the ordering SuperLU documents for symmetric
        # mode — on the layered package meshes it roughly halves the
        # fill (and factor time) versus the default COLAMD.
        lu = splu(
            csc,
            diag_pivot_thresh=0.0,
            permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True},
        )
    except RuntimeError as error:
        # SuperLU only raises when a pivot is exactly zero; treat it as
        # the boundary case of a non-positive pivot.
        raise NotPositiveDefiniteError(
            "matrix is singular (zero pivot in symmetric factorization)"
        ) from error
    if not np.all(lu.U.diagonal() > 0.0):
        raise NotPositiveDefiniteError(
            "matrix is not positive definite (non-positive pivot)"
        )
    return CholeskyFactor(lu.solve, csc.shape, nnz=lu.nnz)
