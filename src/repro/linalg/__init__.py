"""Matrix-theory substrate for the active-cooling optimization.

The paper's optimization framework rests on the structure of the
thermal conductance matrix ``G`` and of the Peltier coupling matrix
``D`` (Section IV.C and Section V.C):

* ``G`` is an irreducible positive definite **Stieltjes matrix**
  (Lemma 1); its inverse is entrywise non-negative (Lemma 3,
  inverse-positivity).
* There is a runaway current
  ``lambda_m = min { x' G x : x' D x = 1 }`` below which ``G - i D``
  stays positive definite and above which it is not (Theorem 1).
* Every entry of ``(G - i D)^{-1}`` diverges to ``+inf`` as
  ``i -> lambda_m`` (Theorem 2 — thermal runaway).
* Under Conjecture 1, each entry of ``(G - i D)^{-1}`` is convex in
  ``i`` on ``[0, lambda_m)`` (Theorem 3).

This package implements those predicates, the runaway-current
computation (the paper's Cholesky binary search plus a
generalized-eigenvalue cross-check), and the randomized Conjecture 1
verification campaign.  It is written for *generic* matrices — the
thermal substrate produces (sparse) ``G``/``D`` pairs and hands them to
these routines.
"""

from repro.linalg.cholesky import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    spd_factorize,
)
from repro.linalg.conjecture import (
    ConjectureCampaignResult,
    conjecture1_holds,
    conjecture1_witness,
    run_conjecture_campaign,
)
from repro.linalg.inverse_positive import (
    inverse_is_nonnegative,
    inverse_nonnegative_matrix,
)
from repro.linalg.irreducible import adjacency_graph, is_irreducible
from repro.linalg.krylov import (
    DEFAULT_RTOL,
    KrylovReport,
    krylov_solve,
)
from repro.linalg.mor import (
    DEFAULT_ROM_DIM,
    DEFAULT_ROM_TOL_K,
    ROM_AUTO_MIN_NODES,
    ROM_MODES,
    CertificationError,
    ReducedModel,
    ReducedTransient,
    block_arnoldi,
    moments,
    reduce_pair,
    resolve_rom_mode,
)
from repro.linalg.runaway import (
    RunawayConvergenceError,
    RunawayCurrent,
    runaway_current,
    runaway_current_binary_search,
    runaway_current_eigen,
)
from repro.linalg.spd import cholesky_is_spd, is_positive_definite
from repro.linalg.stieltjes import (
    direct_sum,
    is_stieltjes,
    is_symmetric,
    random_stieltjes,
)

__all__ = [
    "CertificationError",
    "CholeskyFactor",
    "ConjectureCampaignResult",
    "DEFAULT_ROM_DIM",
    "DEFAULT_ROM_TOL_K",
    "DEFAULT_RTOL",
    "KrylovReport",
    "NotPositiveDefiniteError",
    "ROM_AUTO_MIN_NODES",
    "ROM_MODES",
    "ReducedModel",
    "ReducedTransient",
    "RunawayConvergenceError",
    "RunawayCurrent",
    "adjacency_graph",
    "block_arnoldi",
    "cholesky_is_spd",
    "conjecture1_holds",
    "conjecture1_witness",
    "direct_sum",
    "inverse_is_nonnegative",
    "inverse_nonnegative_matrix",
    "is_irreducible",
    "is_positive_definite",
    "is_stieltjes",
    "is_symmetric",
    "krylov_solve",
    "moments",
    "random_stieltjes",
    "reduce_pair",
    "resolve_rom_mode",
    "run_conjecture_campaign",
    "runaway_current",
    "runaway_current_binary_search",
    "runaway_current_eigen",
    "spd_factorize",
]
