"""BatchedTrainer: stacked local SGD for a round or wave vs LocalTrainer.

Every test trains the same devices twice — sequentially through
``LocalTrainer.train`` with the canonical ``(device_id, round_idx,
unit_idx)`` stream keys, and in one ``BatchedTrainer.train_round`` call —
and demands agreement to 1e-12 (bitwise on BLAS builds whose stacked-GEMM
slices are exact; see tests/nn/test_batched_sequential.py for the canary).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.partition import Partition, partition_by_name
from repro.datasets.synthetic import mnist_like
from repro.device import batched
from repro.device.batched import BatchedTrainer, run_units
from repro.device.device import LocalTrainer
from repro.device.fleet import make_fleet
from repro.device.heterogeneity import sample_unit_counts, unit_times_from_counts
from repro.nn.batched import stacked_gemm_is_bitwise
from repro.nn.models import paper_cnn, paper_mlp
from repro.nn.serialization import get_flat_params

NUM_DEVICES = 12
FEATURES = 16
CLASSES = 10  # mnist_like is a fixed 10-class task


def _substrate(lr=0.1):
    """(trainer, fleet, w0) over ragged dirichlet shards."""
    dataset = mnist_like(num_samples=700, seed=5, feature_dim=FEATURES)
    parts = partition_by_name("dirichlet", dataset, NUM_DEVICES, seed=6, beta=0.3)
    counts = sample_unit_counts(NUM_DEVICES, 1, 10, seed=7)
    model = paper_mlp(FEATURES, CLASSES, seed=0, hidden=(12, 8))
    trainer = LocalTrainer(model, lr=lr, batch_size=20, seed=2)
    fleet = make_fleet(dataset, parts, unit_times_from_counts(counts), trainer)
    return trainer, fleet, get_flat_params(model)


def _sequential(trainer, fleet, ids, epochs, round_idx, w0, **kwargs):
    """The reference loop: per-device LocalTrainer.train on the same streams."""
    out = np.empty((len(ids), trainer.dim))
    steps = np.empty(len(ids), dtype=np.intp)
    corrections = kwargs.pop("corrections", None)
    for i, dev_id in enumerate(ids):
        correction = None if corrections is None else corrections[i]
        _, steps[i] = trainer.train(
            w0,
            fleet.shard(int(dev_id)),
            int(epochs[i]),
            stream_key=(int(dev_id), round_idx, 0),
            correction=correction,
            out=out[i],
            **kwargs,
        )
    return out, steps


def _assert_matches(trainer, fleet, ids, epochs, round_idx=1, **kwargs):
    w0 = get_flat_params(trainer.model)
    bt = BatchedTrainer(trainer, fleet)
    got = np.empty((len(ids), trainer.dim))
    got_steps = bt.train_round(
        np.asarray(ids), np.asarray(epochs), round_idx, w0, out=got, **kwargs
    )
    want, want_steps = _sequential(
        trainer, fleet, ids, epochs, round_idx, w0, **kwargs
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(got_steps, want_steps)
    return got


class TestTrainRound:
    def test_ragged_cohorts_match_sequential(self):
        trainer, fleet, _ = _substrate()
        ids = list(range(NUM_DEVICES))
        epochs = [1 + (i % 3) for i in ids]  # several (n, epochs) cohorts
        _assert_matches(trainer, fleet, ids, epochs)

    def test_subset_and_duplicated_epoch_values(self):
        trainer, fleet, _ = _substrate()
        ids = [3, 7, 1, 10, 4]
        epochs = [2, 2, 1, 2, 1]
        _assert_matches(trainer, fleet, ids, epochs)

    def test_prox_anchor(self):
        trainer, fleet, w0 = _substrate()
        anchor = w0 + 0.01
        ids = list(range(0, NUM_DEVICES, 2))
        _assert_matches(
            trainer, fleet, ids, [2] * len(ids), anchor=anchor, mu=0.05
        )

    def test_scaffold_corrections(self):
        trainer, fleet, _ = _substrate()
        ids = list(range(NUM_DEVICES))
        rng = np.random.default_rng(9)
        corrections = rng.normal(scale=1e-3, size=(len(ids), trainer.dim))
        _assert_matches(
            trainer, fleet, ids, [1] * len(ids), corrections=corrections
        )

    def test_lr_override(self):
        trainer, fleet, _ = _substrate(lr=0.02)
        ids = [0, 1, 2, 3]
        _assert_matches(trainer, fleet, ids, [1, 1, 2, 2])

    def test_round_stream_preserved(self):
        # Training round r batched must equal round r sequential — and
        # differ from round r+1 (the stream key really is per-round).
        trainer, fleet, _ = _substrate()
        ids = [0, 1, 2]
        r1 = _assert_matches(trainer, fleet, ids, [1, 1, 1], round_idx=1)
        r2 = _assert_matches(trainer, fleet, ids, [1, 1, 1], round_idx=2)
        assert not np.array_equal(r1, r2)

    def test_deterministic_across_calls(self):
        trainer, fleet, w0 = _substrate()
        bt = BatchedTrainer(trainer, fleet)
        ids = np.arange(NUM_DEVICES)
        epochs = np.full(NUM_DEVICES, 2)
        a = np.empty((NUM_DEVICES, trainer.dim))
        b = np.empty((NUM_DEVICES, trainer.dim))
        bt.train_round(ids, epochs, 1, w0, out=a)
        bt.train_round(ids, epochs, 1, w0, out=b)
        np.testing.assert_array_equal(a, b)

    def test_writes_only_receiver_rows(self):
        trainer, fleet, w0 = _substrate()
        bt = BatchedTrainer(trainer, fleet)
        out = np.full((4, trainer.dim), -1.0)
        bt.train_round(
            np.array([0, 5]), np.array([1, 1]), 1, w0, out=out[1:3]
        )
        assert np.all(out[0] == -1.0) and np.all(out[3] == -1.0)
        assert not np.any(out[1] == -1.0)


BATCH = 8
_RAGGED_DATA = mnist_like(num_samples=400, seed=5, feature_dim=FEATURES)


def _ragged_substrate(sizes):
    """(trainer, fleet) whose device ``i`` holds exactly ``sizes[i]`` samples."""
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    parts = Partition(
        np.arange(offsets[-1], dtype=np.intp), offsets.astype(np.intp),
        num_samples=len(_RAGGED_DATA),
    )
    model = paper_mlp(FEATURES, CLASSES, seed=0, hidden=(6, 5))
    trainer = LocalTrainer(model, lr=0.1, batch_size=BATCH, seed=2)
    return trainer, make_fleet(_RAGGED_DATA, parts, np.ones(len(sizes)), trainer)


# A member: (shard size, epochs, unit index).  Sizes cover n < B, n == kB
# (no tail batch), n == 1 and anything between; repeats are likely, so runs
# of equal size (shared tails) and singletons both occur.
_member = st.tuples(
    st.one_of(st.sampled_from([1, BATCH - 1, BATCH, 2 * BATCH, 3 * BATCH + 1]),
              st.integers(1, 4 * BATCH)),
    st.integers(1, 3),
    st.integers(0, 4),
)


@settings(max_examples=60, deadline=None)
@given(
    members=st.lists(_member, min_size=1, max_size=9),
    shared_start=st.booleans(),
    prox=st.booleans(),
    scaffold=st.booleans(),
    cap=st.sampled_from([2, 3, batched._MAX_STACK]),
    seed=st.integers(0, 2**16),
)
def test_ragged_wave_matches_local_trainer(
    members, shared_start, prox, scaffold, cap, seed
):
    """Any mix of shard sizes, epoch counts and unit indices, from a shared
    or per-member start, with every update term, at any stack width:
    each member's result is what ``LocalTrainer.train`` gives it alone."""
    sizes, epochs, units = (np.array(col) for col in zip(*members))
    trainer, fleet = _ragged_substrate(sizes)
    P, dim = len(members), trainer.dim
    rng = np.random.default_rng(seed)
    ids = rng.permutation(P)  # wave order is not shard order
    w0 = get_flat_params(trainer.model)
    starts = w0 if shared_start else w0 + 0.01 * rng.normal(size=(P, dim))
    kwargs = {"anchor": w0 + 0.01, "mu": 0.05} if prox else {}
    corrections = rng.normal(scale=1e-3, size=(P, dim)) if scaffold else None

    want = np.empty((P, dim))
    want_steps = np.empty(P, dtype=np.intp)
    for k, dev in enumerate(ids.tolist()):
        _, want_steps[k] = trainer.train(
            starts if shared_start else starts[k],
            fleet.shard(dev),
            int(epochs[dev]),
            stream_key=(dev, 3, int(units[dev])),
            correction=None if corrections is None else corrections[k],
            out=want[k],
            **kwargs,
        )

    with mock.patch.object(batched, "_MAX_STACK", cap):
        got = np.empty((P, dim))
        got_steps = BatchedTrainer(trainer, fleet).train_round(
            ids, epochs[ids], 3, starts, got,
            corrections=corrections, unit_idx=units[ids], **kwargs,
        )
    np.testing.assert_array_equal(got_steps, want_steps)
    if stacked_gemm_is_bitwise():
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestRunUnits:
    """``run_units``: the one entry point, stacked or scalar."""

    IDS = np.arange(5)

    def _wave(self):
        trainer, fleet = _ragged_substrate([20, 3, 20, 9, 16])
        rng = np.random.default_rng(4)
        w0 = get_flat_params(trainer.model)
        starts = list(w0 + 0.01 * rng.normal(size=(5, trainer.dim)))
        return trainer, fleet, starts

    def _scalar(self, fleet, starts, units):
        return [
            fleet.trainer.train(
                starts[i], fleet.shard(i), 2, stream_key=(i, 1, units[i])
            )[0]
            for i in range(5)
        ]

    def test_wave_matches_scalar_units_and_syncs_rows(self):
        trainer, fleet, starts = self._wave()
        units = [0, 2, 1, 0, 3]
        want = self._scalar(fleet, starts, units)
        got = np.empty((5, trainer.dim))
        fleet.round_matrix(self.IDS)
        steps = run_units(BatchedTrainer(trainer, fleet), fleet, self.IDS, 2, 1,
                          starts, got, unit_idx=units, sync=True)
        np.testing.assert_array_equal(steps, 2 * -(-fleet.num_samples // BATCH))
        for i in range(5):
            np.testing.assert_allclose(got[i], want[i], rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(fleet.weights_row(i), got[i])

    def test_sync_false_leaves_device_rows_alone(self):
        trainer, fleet, starts = self._wave()
        run_units(BatchedTrainer(trainer, fleet), fleet, self.IDS, 1, 0, starts,
                  np.empty((5, trainer.dim)))
        assert all(fleet.weights_row(i) is None for i in range(5))

    def test_wave_of_one_and_no_engine_take_the_scalar_path(self):
        trainer, fleet, starts = self._wave()
        engine = BatchedTrainer(trainer, fleet)
        one = [np.empty(trainer.dim)]
        off = [np.empty(trainer.dim) for _ in range(5)]
        with mock.patch.object(engine, "train_round") as stacked:
            run_units(engine, fleet, [3], 2, 1, [starts[3]], one, unit_idx=[1])
            run_units(None, fleet, self.IDS, 2, 1, starts, off,
                      unit_idx=np.array([0, 2, 1, 0, 3]))
        stacked.assert_not_called()
        np.testing.assert_array_equal(one[0], self._scalar(fleet, starts, [0, 0, 0, 1, 0])[3])
        for got, want in zip(off, self._scalar(fleet, starts, [0, 2, 1, 0, 3])):
            np.testing.assert_array_equal(got, want)

    def test_scalar_and_stacked_agree_on_every_term(self):
        # Shared start, per-member epochs, prox pull and SCAFFOLD rows: the
        # scalar branch honours each of them exactly as the stack does.
        trainer, fleet, _ = self._wave()
        w0 = get_flat_params(trainer.model)
        rng = np.random.default_rng(8)
        kwargs = dict(
            anchor=w0 + 0.01, mu=0.05, unit_idx=3,
            corrections=rng.normal(scale=1e-3, size=(5, trainer.dim)),
        )
        epochs = np.array([1, 2, 1, 3, 2])
        stacked, scalar = np.empty((2, 5, trainer.dim))
        s_steps = run_units(BatchedTrainer(trainer, fleet), fleet, self.IDS, epochs,
                            2, w0, stacked, **kwargs)
        o_steps = run_units(None, fleet, self.IDS, epochs, 2, w0, scalar, **kwargs)
        np.testing.assert_array_equal(s_steps, o_steps)
        if stacked_gemm_is_bitwise():
            np.testing.assert_array_equal(stacked, scalar)
        else:
            np.testing.assert_allclose(stacked, scalar, rtol=1e-12, atol=1e-12)


class TestValidation:
    def test_rejects_nonpositive_epochs(self):
        trainer, fleet, w0 = _substrate()
        bt = BatchedTrainer(trainer, fleet)
        out = np.empty((1, trainer.dim))
        with pytest.raises(ValueError, match="epochs"):
            bt.train_round(np.array([0]), np.array([0]), 1, w0, out=out)

    def test_empty_round_is_a_no_op(self):
        trainer, fleet, w0 = _substrate()
        steps = BatchedTrainer(trainer, fleet).train_round(
            np.array([], dtype=int), np.array([], dtype=int), 1, w0,
            out=np.empty((0, trainer.dim)),
        )
        assert steps.shape == (0,)

    def test_rejects_unbatchable_model(self):
        dataset = mnist_like(num_samples=80, seed=5, feature_dim=FEATURES)
        parts = partition_by_name("iid", dataset, 4, seed=6)
        unit_times = unit_times_from_counts(sample_unit_counts(4, 1, 4, seed=7))
        cnn = paper_cnn(1, 4, CLASSES, seed=0, conv_channels=2, fc_sizes=(8, 8))
        trainer = LocalTrainer(cnn, lr=0.1, batch_size=20, seed=2)
        fleet = make_fleet(dataset, parts, unit_times, trainer)
        assert not BatchedTrainer.supports(cnn)
        with pytest.raises(ValueError, match="not batchable"):
            BatchedTrainer(trainer, fleet)
