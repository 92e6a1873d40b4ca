"""Properties of the ``auto`` backend heuristic.

:func:`~repro.thermal.session.select_backend` decides between the
blocked-Woodbury ``reuse`` backend, the per-current ``direct``
factorization and the geometric-multigrid ``mg`` backend from
``(num_nodes, support_size)`` alone.  Contracts:

* it always returns one of the three concrete backends of
  ``SOLVER_MODES`` (never ``auto`` itself);
* at a fixed support, growing the grid can only move the decision
  *up* the ``direct < reuse < mg`` ladder: the support threshold
  ``max(64, 4 sqrt(n))`` is nondecreasing in ``n`` (direct -> reuse
  flips at most once), and every grid at or past
  ``MG_NODE_CROSSOVER`` nodes goes multigrid regardless of support;
* the crossovers sit where the committed ``BENCH_backends.json``
  columns put them: the 64x64 package (18 444 nodes) stays on the
  factorized backends — ``4 * sqrt(18444) ~ 543``, so a 271-TEC
  deployment (support 542) reuses while 272 TECs (support 544)
  factor per current — and the 128x128 package (65 804 nodes), where
  mg already wins, goes multigrid.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.thermal.session import (
    AUTO_SUPPORT_COEFF,
    AUTO_SUPPORT_FLOOR,
    MG_NODE_CROSSOVER,
    SOLVER_MODES,
    select_backend,
)

_NODES = st.integers(min_value=1, max_value=10**7)
_SMALL_NODES = st.integers(min_value=1, max_value=MG_NODE_CROSSOVER - 1)
_SUPPORT = st.integers(min_value=0, max_value=10**5)

#: Position on the "grid size pushes the choice this way" ladder.
_RANK = {"direct": 0, "reuse": 1, "mg": 2}


class TestSelectBackendProperties:
    @given(num_nodes=_NODES, support=_SUPPORT)
    def test_result_is_a_solver_mode(self, num_nodes, support):
        backend = select_backend(num_nodes, support)
        assert backend in SOLVER_MODES
        assert backend in ("reuse", "direct", "mg")

    @given(num_nodes=_SMALL_NODES, support=st.integers(min_value=0, max_value=64))
    def test_small_supports_always_reuse_below_mg_crossover(
        self, num_nodes, support
    ):
        """Below the floor the dense update wins on any sub-chiplet grid."""
        assert AUTO_SUPPORT_FLOOR == 64
        assert select_backend(num_nodes, support) == "reuse"

    @given(num_nodes=_NODES, support=_SUPPORT)
    def test_chiplet_scale_grids_always_go_mg(self, num_nodes, support):
        """At or past the node crossover the support is irrelevant:
        the hierarchy's O(n) memory is what matters, not the Woodbury
        rank."""
        if num_nodes >= MG_NODE_CROSSOVER:
            assert select_backend(num_nodes, support) == "mg"
        else:
            assert select_backend(num_nodes, support) != "mg"

    @given(
        small=_NODES, large=_NODES, support=_SUPPORT
    )
    def test_monotone_in_num_nodes_at_fixed_support(
        self, small, large, support
    ):
        """Growing the grid only climbs the direct -> reuse -> mg
        ladder, never descends: once a support is cheap on a small
        grid it stays cheap on every larger one, until the grid itself
        is the bottleneck and multigrid takes over."""
        if small > large:
            small, large = large, small
        rank_small = _RANK[select_backend(small, support)]
        rank_large = _RANK[select_backend(large, support)]
        assert rank_small <= rank_large

    @given(
        num_nodes=_SMALL_NODES, small=_SUPPORT, large=_SUPPORT
    )
    def test_monotone_in_support_at_fixed_grid(self, num_nodes, small, large):
        """Shrinking the deployment never switches reuse -> direct."""
        if small > large:
            small, large = large, small
        if select_backend(num_nodes, large) == "reuse":
            assert select_backend(num_nodes, small) == "reuse"


class TestCrossoverRegression:
    """The crossovers follow the committed bench columns."""

    _NODES_32 = 4620  # nodes of a 32x32 package network
    _NODES_64 = 18444  # nodes of the bench's 64x64 package network
    _NODES_128 = 65804  # nodes of the bench's 128x128 package network
    _NODES_256 = 262408  # nodes of the bench's 256x256 package network

    def test_threshold_follows_sqrt_n(self):
        limit = max(
            AUTO_SUPPORT_FLOOR,
            AUTO_SUPPORT_COEFF * self._NODES_64 ** 0.5,
        )
        assert 543 < limit < 544

    def test_64_grid_crossover(self):
        assert select_backend(self._NODES_64, 542) == "reuse"
        assert select_backend(self._NODES_64, 544) == "direct"
        assert select_backend(self._NODES_64, 4096) == "direct"
        assert select_backend(self._NODES_32, 1024) == "direct"

    def test_128_grid_goes_mg(self):
        """mg solves the 128x128 column ~1.8x faster than the fastest
        factorized backend, so it sits past the node crossover while
        the 64x64 column (where factoring wins) stays below it."""
        assert self._NODES_64 < MG_NODE_CROSSOVER <= self._NODES_128
        assert select_backend(self._NODES_128, 512) == "mg"

    def test_256_grid_goes_mg(self):
        assert self._NODES_256 >= MG_NODE_CROSSOVER
        assert select_backend(self._NODES_256, 0) == "mg"
        assert select_backend(self._NODES_256, 4096) == "mg"

    def test_mg_crossover_boundary(self):
        assert select_backend(MG_NODE_CROSSOVER, 0) == "mg"
        assert select_backend(MG_NODE_CROSSOVER - 1, 0) == "reuse"
