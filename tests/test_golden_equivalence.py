"""Golden equivalence: env="ideal" reproduces pre-refactor runs bit-for-bit.

The JSON files under ``tests/golden/`` were captured at the commit *before*
the environment layer / channel API existed (see ``tests/golden/generate.py``).
Every registered method must still produce the exact same per-round metric
history — times, transfer counts, accuracies, losses — and the same final
weights under the default environment.  Any diff here means the refactor
changed training semantics, not just plumbing.
"""

import json
import pathlib

import pytest

from repro.core.registry import METHODS
from repro.experiments import ExperimentSpec
from tests.golden.generate import run_oracle

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))


def test_every_registered_method_has_a_golden_file():
    covered = {path.stem for path in GOLDEN_FILES}
    assert covered == set(METHODS), (
        "golden coverage out of sync with the method registry; "
        "run tests/golden/generate.py for the new method"
    )


@pytest.mark.parametrize(
    "golden_path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_ideal_env_matches_pre_refactor_history(golden_path):
    gold = json.loads(golden_path.read_text())
    # codec="none" pinned explicitly: the identity codec's channel fast
    # path must stay bit-identical to the pre-compression runs for every
    # method, not just remain the spec default.  The run is the scalar
    # oracle for the same reason: goldens assert *bitwise* equality, and
    # stacked training only guarantees that on BLAS builds whose
    # stacked-GEMM slices are exact (1e-12 elsewhere — see
    # tests/baselines/test_batched_equivalence.py for the default path).
    spec = ExperimentSpec(**{**gold["spec"], "codec": "none"})
    assert spec.env == "ideal"  # the default must be the paper's semantics

    result = run_oracle(spec)

    history = result.history.to_dict()
    for series, want in gold["history"].items():
        assert history[series] == want, (
            f"{golden_path.stem}: '{series}' diverged from the "
            f"pre-refactor run under env='ideal'"
        )
    assert result.per_round_unit == gold["per_round_unit"]
    assert float(result.final_weights.sum()) == gold["final_weights_sum"]
