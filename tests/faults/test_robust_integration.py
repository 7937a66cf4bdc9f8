"""Integration: the tolerance mechanisms actually buy robustness.

Two claims from the issue, demonstrated end-to-end:

* Byzantine-robust aggregation (Krum / trimmed mean) holds near-clean
  accuracy under a 20% sign-flip attack that collapses plain weighted
  averaging.
* Round deadlines plus over-selection improve time-to-accuracy over
  vanilla FedAvg when stragglers dominate the barrier.
"""

from repro.experiments import ExperimentSpec, run_experiment


def _byz_spec(aggregator, **overrides):
    base = dict(
        method="fedavg",
        rounds=8,
        num_devices=10,
        num_samples=600,
        partition="iid",
        env="ideal",
        aggregator=aggregator,
        seed=1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestByzantineRobustness:
    """Each robust rule must retain >= 0.9x its *own* clean accuracy
    under a 20% sign-flip attack (Krum trades some clean accuracy for
    robustness by selecting single models, so its clean run is the fair
    baseline), while plain weighted averaging collapses."""

    def _run(self, aggregator, attacked, **overrides):
        spec = _byz_spec(aggregator, **overrides)
        if attacked:
            spec = ExperimentSpec(**{
                **spec.to_dict(),
                "faults": "byzantine",
                "fault_kwargs": {"fraction": 0.2, "attack": "sign_flip",
                                 "scale": 10.0},
            })
        return run_experiment(spec).best_accuracy

    def test_plain_averaging_collapses(self):
        clean = self._run("sample", attacked=False)
        assert self._run("sample", attacked=True) < 0.9 * clean

    def test_krum_retains_accuracy(self):
        clean = self._run("krum", attacked=False)
        assert self._run("krum", attacked=True) >= 0.9 * clean

    def test_multi_krum_retains_accuracy(self):
        clean = self._run("multi_krum", attacked=False)
        attacked = self._run("multi_krum", attacked=True)
        assert attacked >= 0.9 * clean
        # Multi-Krum also retains near the *averaging* clean baseline:
        # it averages the honest central cluster.
        assert attacked >= 0.9 * self._run("sample", attacked=False)

    def test_trimmed_mean_retains_accuracy(self):
        # The per-tail trim must cover the byzantine fraction (20%);
        # the 10% default provably cannot.
        kwargs = {"method_kwargs": {"trim_fraction": 0.25}}
        clean = self._run("trimmed_mean", attacked=False, **kwargs)
        assert self._run("trimmed_mean", attacked=True, **kwargs) >= 0.9 * clean

    def test_under_trimming_fails_open(self):
        """Documenting the sharp edge: trimming less than the byzantine
        fraction lets the attack through."""
        clean = self._run("sample", attacked=False)
        under = self._run("trimmed_mean", attacked=True,
                          method_kwargs={"trim_fraction": 0.1})
        assert under < 0.9 * clean


class TestDeadlineTimeToAccuracy:
    def test_deadline_and_over_selection_beat_vanilla_under_stragglers(self):
        """Same target accuracy, strictly less virtual time when the
        round stops waiting for the straggler tail."""
        straggler = dict(
            method="fedavg", rounds=8, num_devices=10, num_samples=600,
            partition="iid", env="ideal", participation=0.8, seed=2,
            faults="straggler",
            fault_kwargs={"straggle_prob": 0.5, "max_slowdown": 40.0},
        )
        vanilla = run_experiment(ExperimentSpec(**straggler))
        tolerant = run_experiment(ExperimentSpec(
            **straggler, round_deadline=2.0, over_select=0.25))

        target = 0.9 * vanilla.best_accuracy
        t_vanilla = vanilla.time_to_target(target)
        t_tolerant = tolerant.time_to_target(target)
        assert t_vanilla is not None
        assert t_tolerant is not None
        assert t_tolerant < t_vanilla
