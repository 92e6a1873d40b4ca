"""Irreducibility of square matrices via graph connectivity.

Definition 1 of the paper: a square matrix is *irreducible* if it
cannot be written (after a symmetric permutation) as the direct sum of
two square matrices.  For a symmetric matrix this is equivalent to the
connectivity of its adjacency graph — the graph with an edge ``(k, l)``
whenever ``M[k, l] != 0``.

For the thermal conductance matrix ``G`` irreducibility encodes a
physical fact: heat can flow (possibly through intermediate tiles)
between any two nodes of the package, so no part of the chip is
thermally isolated from the ambient.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


def adjacency_graph(matrix, tol=0.0):
    """The undirected adjacency graph of a symmetric matrix.

    Returned as a symmetric boolean CSR matrix over nodes ``0..n-1``:
    entry ``(k, l)`` (``k != l``) is set whenever ``|M[k, l]| > tol``.
    Diagonal entries are ignored, so the graph has ``nnz // 2`` edges.
    """
    if sp.issparse(matrix):
        coo = sp.coo_matrix(matrix)
        if coo.shape[0] != coo.shape[1]:
            raise ValueError("matrix must be square, got shape {}".format(coo.shape))
        keep = (coo.row != coo.col) & (np.abs(coo.data) > tol)
        rows, cols = coo.row[keep], coo.col[keep]
        n = coo.shape[0]
    else:
        dense = np.asarray(matrix, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("matrix must be square, got shape {}".format(dense.shape))
        mask = np.abs(dense) > tol
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        n = dense.shape[0]
    # Symmetrize so a one-sided entry still links both ends; the CSR
    # conversion merges the duplicates.
    return sp.coo_matrix(
        (np.ones(2 * rows.size, dtype=bool),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    ).tocsr()


def is_irreducible(matrix, tol=0.0):
    """Return True if the (symmetric) matrix is irreducible.

    Implemented as connectivity of :func:`adjacency_graph`.  A 1x1
    matrix is irreducible by convention (it is not a direct sum of two
    non-empty square matrices).
    """
    count, _ = connected_components(adjacency_graph(matrix, tol=tol), directed=False)
    return count <= 1


def irreducible_components(matrix, tol=0.0):
    """Return the node sets of the direct-sum blocks of ``matrix``.

    A reducible symmetric matrix is (up to permutation) the direct sum
    of the sub-matrices indexed by these components; an irreducible
    matrix yields a single component covering every index.
    """
    count, labels = connected_components(
        adjacency_graph(matrix, tol=tol), directed=False
    )
    return [np.flatnonzero(labels == k).tolist() for k in range(count)]
