"""Tests for the full Eq. (5) ring construction with link delays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring import build_ring, build_ring_eq5
from repro.env.network import NetworkModel


class PairDelay:
    """Test-local network: one-model hop time read from ``D[src, dst]``
    (``index`` maps device ids to matrix positions)."""

    def __init__(self, matrix, index=None):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.index = index

    def transfer_time(self, src, dst, model_units=1.0):
        if self.index is not None:
            src, dst = self.index[src], self.index[dst]
        return float(self.matrix[src, dst]) * model_units


def uniform(delay=0.0):
    """Equal delay on every peer hop (the paper's simplification)."""
    return NetworkModel(peer_latency=delay)


class TestBuildRingEq5:
    def test_uniform_delay_matches_small_to_large(self):
        """With equal delays the metric reduces to t_i: greedy from the
        fastest node reproduces the ascending order (ties by id)."""
        ids = [3, 1, 2]
        times = [0.9, 0.1, 0.5]
        eq5 = build_ring_eq5(ids, times, uniform(0.2))
        s2l = build_ring(ids, times, order="small_to_large")
        assert eq5 == s2l

    def test_delay_overrides_speed(self):
        """A huge link delay diverts the ring even toward a slower node."""
        ids = [0, 1, 2]
        times = [0.1, 0.2, 0.3]
        # delay 0->1 enormous; 0->2 free: ring goes 0, 2, 1.
        d = np.array(
            [[0.0, 100.0, 0.0],
             [100.0, 0.0, 100.0],
             [0.0, 100.0, 0.0]]
        )
        ring = build_ring_eq5(ids, times, PairDelay(d))
        assert ring == [0, 2, 1]

    def test_permutation_invariant(self):
        ids = [10, 20, 30, 40]
        times = [0.4, 0.2, 0.3, 0.1]
        ring = build_ring_eq5(ids, times, uniform(0.0))
        assert sorted(ring) == sorted(ids)

    def test_singleton_and_empty(self):
        assert build_ring_eq5([5], [0.1], uniform()) == [5]
        assert build_ring_eq5([], [], uniform()) == []

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_ring_eq5([1, 2], [0.1], uniform())

    @given(
        n=st.integers(min_value=1, max_value=15),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_valid_ring(self, n, seed):
        rng = np.random.default_rng(seed)
        ids = list(range(n))
        times = rng.uniform(0.1, 1.0, size=n)
        delays = rng.uniform(0.0, 0.5, size=(n, n))
        np.fill_diagonal(delays, 0.0)
        ring = build_ring_eq5(ids, times, PairDelay(delays))
        assert sorted(ring) == ids
        assert ring[0] == int(np.argmin(times))  # starts at the fastest


def brute_force_eq5(device_ids, unit_times, network):
    """Reference greedy: score every (current, candidate) pair, take the
    best unvisited candidate by (score, device id)."""
    ids = list(device_ids)
    times = np.asarray(unit_times, dtype=np.float64)
    if len(ids) <= 1:
        return ids
    order = [int(np.argmin(times))]
    while len(order) < len(ids):
        cur = ids[order[-1]]
        scores = [
            (network.transfer_time(cur, ids[j], 1.0) + times[j], ids[j], j)
            for j in range(len(ids))
            if j not in order
        ]
        order.append(sorted(scores)[0][2])
    return [ids[i] for i in order]


class TestMatchesBruteForce:
    """The greedy construction picks exactly the hops an exhaustive
    per-step scoring picks, ties included."""

    @given(
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_identical_rings(self, n, seed):
        rng = np.random.default_rng(seed)
        ids = list(rng.permutation(10_000)[:n])
        times = rng.uniform(0.1, 1.0, size=n)
        delays = rng.uniform(0.0, 0.5, size=(n, n))
        np.fill_diagonal(delays, 0.0)
        # Index the matrix by position, not id.
        model = PairDelay(delays, index={i: k for k, i in enumerate(ids)})
        assert build_ring_eq5(ids, times, model) == brute_force_eq5(
            ids, times, model
        )

    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_sampled_links(self, n, seed):
        """Heterogeneous delays from per-device spreads on peer links."""
        rng = np.random.default_rng(seed)
        ids = [int(i) for i in rng.permutation(500)[:n]]
        times = rng.uniform(0.1, 1.0, size=n)
        net = NetworkModel(peer_latency=0.3, peer_bandwidth=4.0,
                           latency_spread=1.0, bandwidth_spread=0.5,
                           seed=seed)
        assert build_ring_eq5(ids, times, net) == brute_force_eq5(ids, times, net)

    def test_tie_breaks_by_device_id(self):
        """Equal scores must resolve to the smallest device id."""
        ids = [42, 7, 19]
        times = [0.5, 0.2, 0.5]  # 42 and 19 tie after starting at 7
        ring = build_ring_eq5(ids, times, uniform(0.3))
        assert ring == [7, 19, 42]
