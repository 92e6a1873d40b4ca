"""Reference oracle for ``lambda_m``: the dense reduced support solve.

Factor ``G`` and restrict to the Peltier support ``S`` of ``D`` (one
hot and one cold node per deployed TEC): the nonzero eigenvalues of
``G^{-1} D`` equal those of the ``|S| x |S|`` matrix
``K = (G^{-1})[S, S] diag(d_S)``, so ``lambda_m = 1 / mu_max(K)``.
Exact up to round-off but ``O(|S|^3)``; the package computes
``lambda_m`` with the Lanczos kernel
:func:`repro.linalg.runaway.runaway_current_eigen`, and the tests
check it against this.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu


def dense_reduced_runaway(g_matrix, diag, *, return_vector=False):
    """``lambda_m`` (and, with ``return_vector``, the unit eigenvector
    lifted to full node space) by the dense reduced eigensolve."""
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[0]
    support = np.flatnonzero(diag)
    if not np.any(diag > 0.0):
        return (math.inf, None) if return_vector else math.inf
    if sp.issparse(g_matrix):
        rhs = np.zeros((n, support.size))
        rhs[support, np.arange(support.size)] = 1.0
        basis = splu(sp.csc_matrix(g_matrix)).solve(rhs)
    else:
        cho = scipy.linalg.cho_factor(np.asarray(g_matrix, dtype=float), lower=True)
        basis = scipy.linalg.cho_solve(cho, np.eye(n)[:, support])
    small = basis[support, :] * diag[support][np.newaxis, :]
    eigenvalues, eigenvectors = np.linalg.eig(small)
    # The pencil (G, D) with G SPD has a real spectrum; drop the
    # imaginary round-off of the unsymmetric reduction.
    real = np.real(eigenvalues)
    index = int(np.argmax(real))
    value = 1.0 / float(real[index])
    if not return_vector:
        return value
    lifted = basis @ (diag[support] * np.real(eigenvectors[:, index]))
    lifted /= np.linalg.norm(lifted)
    return value, (-lifted if lifted.sum() < 0.0 else lifted)
