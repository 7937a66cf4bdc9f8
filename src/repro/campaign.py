"""Experiment campaigns: grid expansion, parallel execution, result cache.

Every result in the paper is a *sweep* — a grid over methods x datasets x
participation x K x heterogeneity x seeds — so the campaign layer makes
"run this grid" a single call:

>>> from repro import ExperimentSpec
>>> from repro.campaign import Campaign, sweep
>>> specs = sweep(ExperimentSpec(rounds=5), {
...     "method": ["fedhisyn", "fedavg"],
...     "seed": [0, 1, 2],
... }, method_kwargs={"fedhisyn": {"num_classes": 5}})
>>> result = Campaign(specs, cache_dir=".repro-cache").run(workers=2)  # doctest: +SKIP
>>> print(result.to_table(target=0.8))                                 # doctest: +SKIP

Three design points:

- **Stable cache keys.**  :func:`spec_hash` digests the canonical JSON of
  ``ExperimentSpec.to_dict()``; every run is memoised under
  ``<cache_dir>/<hash>.json``, so re-running a campaign (or a superset of
  it) only pays for the new cells.  Runs are deterministic given a spec,
  which is what makes caching sound.
- **Process-level parallelism.**  Training is pure NumPy number crunching,
  so threads would serialise on the GIL; ``Campaign.run(workers=N)`` ships
  spec dicts to a :class:`~concurrent.futures.ProcessPoolExecutor` and
  gets result dicts back (both sides of that wire format are the lossless
  ``to_dict``/``from_dict`` round-trips on the spec and result types).
- **Seed aggregation.**  :meth:`CampaignResult.aggregate` groups runs that
  differ only in ``seed`` and reports mean±std, which is how the paper's
  averaged figures (and any honest benchmark) want their numbers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.experiments import AXES, ExperimentSpec, run_experiment
from repro.simulation.results import RunResult
from repro.utils.tables import format_table

__all__ = [
    "spec_hash",
    "sweep",
    "Campaign",
    "CampaignEntry",
    "CampaignResult",
]


def spec_hash(spec: ExperimentSpec) -> str:
    """Stable content hash of a spec — the campaign cache key.

    Canonical JSON (sorted keys, no whitespace drift) of ``to_dict()``,
    sha256-truncated to 16 hex chars.  Any field change, including inside
    ``method_kwargs``, changes the hash.
    """
    payload = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def sweep(
    base_spec: ExperimentSpec,
    grid: Mapping[str, Iterable[Any]],
    method_kwargs: Mapping[str, dict[str, Any]] | None = None,
    codec_kwargs: Mapping[str, dict[str, Any]] | None = None,
    fault_kwargs: Mapping[str, dict[str, Any]] | None = None,
    transport_kwargs: Mapping[str, dict[str, Any]] | None = None,
) -> list[ExperimentSpec]:
    """Expand a Cartesian grid of field overrides into concrete specs.

    ``grid`` maps :class:`ExperimentSpec` field names to value lists; the
    product is enumerated in the given key order (last key fastest).
    ``method_kwargs`` optionally maps a method name to extra kwargs merged
    into each matching spec's ``method_kwargs`` — the way FedHiSyn gets its
    ``num_classes`` while the baselines take none.  ``codec_kwargs``,
    ``fault_kwargs`` and ``transport_kwargs`` do the same per codec /
    fault-model / backend name, so ``--grid codec=none,topk`` can carry a
    top-k fraction that only lands on the topk cells.

    Every expanded spec re-runs ``__post_init__`` validation, so an invalid
    grid value fails here rather than mid-campaign.
    """
    spec_fields = {f.name for f in fields(ExperimentSpec)}
    unknown = sorted(set(grid) - spec_fields)
    if unknown:
        raise ValueError(
            f"unknown ExperimentSpec field(s) in grid: {unknown}"
        )
    names = list(grid)
    value_lists = [list(grid[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise ValueError(f"grid axis {name!r} is empty")
    per_name = {
        "method_kwargs": method_kwargs or {},
        "codec_kwargs": codec_kwargs or {},
        "fault_kwargs": fault_kwargs or {},
        "transport_kwargs": transport_kwargs or {},
    }

    specs: list[ExperimentSpec] = []
    for combo in itertools.product(*value_lists):
        overrides: dict[str, Any] = dict(zip(names, combo))
        merged = dict(base_spec.to_dict(), **overrides)
        for name_field, kwargs_field, _ in AXES:
            # env is deliberately not in per_name: its overrides
            # (drop_prob, availability, ...) are preset-agnostic and must
            # follow an env swap.
            if kwargs_field not in per_name:
                continue
            # The base spec's kwargs belong to the base *name*: when the
            # grid swaps the name they would be rejected by (or make no
            # sense on) the other one — fedhisyn's num_classes on fedavg,
            # a top-k fraction on the "none" codec cell — so they only
            # survive on the base name.
            if name_field in names and kwargs_field not in names:
                if merged[name_field] != getattr(base_spec, name_field):
                    merged[kwargs_field] = {}
            extra = per_name[kwargs_field].get(merged[name_field])
            if extra:
                merged[kwargs_field] = {**merged[kwargs_field], **extra}
        specs.append(ExperimentSpec.from_dict(merged))
    return specs


def _run_spec_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: spec dict in, result dict out.

    Module-level so ProcessPoolExecutor can pickle it; dict-in/dict-out so
    the wire format is exactly the JSON cache format.
    """
    spec = ExperimentSpec.from_dict(payload)
    return run_experiment(spec).to_dict()


@dataclass(frozen=True)
class CampaignEntry:
    """One campaign cell: the spec, its result, and whether it was cached."""

    spec: ExperimentSpec
    result: RunResult
    cached: bool


class Campaign:
    """A batch of experiment specs plus how to execute them.

    ``cache_dir=None`` disables the on-disk cache (every run executes);
    otherwise each finished run is written to ``<cache_dir>/<hash>.json``
    and later campaigns containing the same spec load it back instead of
    re-training.
    """

    def __init__(
        self,
        specs: Sequence[ExperimentSpec],
        cache_dir: str | Path | None = None,
    ) -> None:
        if not specs:
            raise ValueError("campaign needs at least one spec")
        self.specs = list(specs)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    # ------------------------------------------------------------- caching

    def _cache_path(self, spec: ExperimentSpec) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{spec_hash(spec)}.json"

    def _load_cached(self, spec: ExperimentSpec) -> RunResult | None:
        if self.cache_dir is None:
            return None
        path = self._cache_path(spec)
        if not path.exists():
            return None
        try:
            with path.open("r", encoding="utf-8") as fh:
                data = json.load(fh)
            return RunResult.from_dict(data["result"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # A torn or stale cache file is a miss, not a crash.
            return None

    def _store(self, spec: ExperimentSpec, result: RunResult) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(spec)
        # pid-unique tmp name: campaigns sharing a cache dir may finish the
        # same spec concurrently, and each needs its own staging file for
        # the rename to stay atomic.
        tmp = path.with_suffix(f".json.tmp.{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump({"spec": spec.to_dict(), "result": result.to_dict()}, fh)
        tmp.replace(path)  # atomic: concurrent readers never see a torn file

    # ----------------------------------------------------------- execution

    def run(
        self,
        workers: int = 1,
        progress: Callable[[str], None] | None = None,
    ) -> "CampaignResult":
        """Execute every spec (cache-first) and collect the results.

        ``workers > 1`` fans the uncached specs out to a process pool;
        ``progress`` (e.g. ``print``) receives one line per completed cell.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        notify = progress if progress is not None else (lambda _msg: None)

        entries: dict[int, CampaignEntry] = {}
        pending: list[int] = []
        done = 0  # completion counter, monotonic regardless of cache order
        for i, spec in enumerate(self.specs):
            cached = self._load_cached(spec)
            if cached is not None:
                entries[i] = CampaignEntry(spec, cached, cached=True)
                done += 1
                notify(f"[{done}/{len(self.specs)}] {self._label(spec)}: cached")
            else:
                pending.append(i)

        if pending:
            payloads = [self.specs[i].to_dict() for i in pending]
            if workers == 1:
                result_dicts = map(_run_spec_payload, payloads)
            else:
                pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
                result_dicts = pool.map(_run_spec_payload, payloads)
            try:
                for i, result_dict in zip(pending, result_dicts):
                    result = RunResult.from_dict(result_dict)
                    self._store(self.specs[i], result)
                    entries[i] = CampaignEntry(self.specs[i], result, cached=False)
                    done += 1
                    notify(
                        f"[{done}/{len(self.specs)}] {self._label(self.specs[i])}: "
                        f"final acc {result.final_accuracy:.4f}"
                    )
            finally:
                if workers > 1:
                    pool.shutdown()

        return CampaignResult([entries[i] for i in range(len(self.specs))])

    @staticmethod
    def _label(spec: ExperimentSpec) -> str:
        # Device count (or the fleet profile that pinned it) matters at
        # fleet scale: a grid over fleet_profile produces runs that differ
        # in nothing else, so the progress line must tell them apart.
        scale = spec.fleet_profile or f"n{spec.num_devices}"
        return f"{spec.method}/{spec.dataset}/{scale}/seed{spec.seed}"


class CampaignResult:
    """Ordered campaign outcomes plus seed-aggregation and rendering."""

    def __init__(self, entries: Sequence[CampaignEntry]) -> None:
        self.entries = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def results(self) -> list[RunResult]:
        return [e.result for e in self.entries]

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.entries if e.cached)

    # -------------------------------------------------------- aggregation

    def varying_fields(self) -> list[str]:
        """Spec fields (other than ``seed``) that differ across the campaign.

        ``method_kwargs`` only counts as varying when it differs *within* a
        method — across methods it just mirrors the ``method`` column
        (FedHiSyn takes ``num_classes``, the baselines take nothing).
        ``codec_kwargs`` gets the same treatment per codec.
        """
        names = [f.name for f in fields(ExperimentSpec) if f.name != "seed"]
        kwargs_of = {"method_kwargs": "method", "codec_kwargs": "codec"}
        varying = []
        for name in names:
            entries = self.entries
            if name in kwargs_of:
                owner = kwargs_of[name]
                by_owner: dict[str, set[str]] = {}
                for e in entries:
                    key = json.dumps(getattr(e.spec, name), sort_keys=True, default=str)
                    by_owner.setdefault(getattr(e.spec, owner), set()).add(key)
                if any(len(v) > 1 for v in by_owner.values()):
                    varying.append(name)
                continue
            values = {
                json.dumps(getattr(e.spec, name), sort_keys=True, default=str)
                for e in entries
            }
            if len(values) > 1:
                varying.append(name)
        return varying

    def aggregate(self, target: float | None = None) -> list[dict[str, Any]]:
        """Group runs differing only in ``seed``; report mean±std per group.

        Each row carries the group's distinguishing spec fields, the seed
        count, final/best accuracy statistics and — when ``target`` is
        given — the mean relative cost-to-target over the seeds that
        reached it (``None`` if no seed did).
        """
        group_fields = self.varying_fields()
        groups: dict[str, dict[str, Any]] = {}
        for entry in self.entries:
            spec_dict = entry.spec.to_dict()
            spec_dict.pop("seed")
            key = json.dumps(spec_dict, sort_keys=True, default=str)
            groups.setdefault(key, {"entries": []})["entries"].append(entry)

        rows: list[dict[str, Any]] = []
        for group in groups.values():
            entries: list[CampaignEntry] = group["entries"]
            finals = [e.result.final_accuracy for e in entries]
            bests = [e.result.best_accuracy for e in entries]
            row: dict[str, Any] = {
                name: getattr(entries[0].spec, name) for name in group_fields
            }
            row["seeds"] = len(entries)
            row["final_mean"] = _mean(finals)
            row["final_std"] = _std(finals)
            row["best_mean"] = _mean(bests)
            row["best_std"] = _std(bests)
            # On-wire traffic (exact bytes through the codec); absent from
            # results cached before the transport snapshot existed.
            wire = [
                e.result.transport.get("wire_bytes")
                for e in entries
                if e.result.transport.get("wire_bytes") is not None
            ]
            row["wire_bytes_mean"] = _mean(wire) if wire else None
            if target is not None:
                costs = [e.result.cost_to_target(target) for e in entries]
                reached = [c for c in costs if c is not None]
                row["cost_mean"] = _mean(reached) if reached else None
                row["cost_reached"] = len(reached)
                times = [e.result.time_to_target(target) for e in entries]
                t_reached = [t for t in times if t is not None]
                row["vtime_mean"] = _mean(t_reached) if t_reached else None
                row["vtime_reached"] = len(t_reached)
            rows.append(row)
        return rows

    # ---------------------------------------------------------- rendering

    def to_table(self, target: float | None = None, title: str | None = None) -> str:
        """Aggregated mean±std table via :func:`repro.utils.tables.format_table`."""
        group_fields = self.varying_fields()
        rows = self.aggregate(target=target)
        show_wire = any(row["wire_bytes_mean"] is not None for row in rows)
        headers = [*group_fields, "seeds", "final acc", "best acc"]
        if show_wire:
            headers.append("wire MB")
        if target is not None:
            headers.append(f"cost@{target:.0%}")
            headers.append(f"vtime@{target:.0%}")
        table_rows = []
        for row in rows:
            cells: list[Any] = [row[name] for name in group_fields]
            cells.append(row["seeds"])
            cells.append(_pm(row["final_mean"], row["final_std"], row["seeds"]))
            cells.append(_pm(row["best_mean"], row["best_std"], row["seeds"]))
            if show_wire:
                mb = row["wire_bytes_mean"]
                cells.append("?" if mb is None else f"{mb / 1e6:.2f}")
            if target is not None:
                if row["cost_mean"] is None:
                    cells.append("X")
                else:
                    cells.append(
                        f"{row['cost_mean']:.1f} "
                        f"({row['cost_reached']}/{row['seeds']} seeds)"
                    )
                if row["vtime_mean"] is None:
                    cells.append("X")
                else:
                    cells.append(f"{row['vtime_mean']:.2f}")
            table_rows.append(cells)
        return format_table(headers, table_rows, title=title)

    def to_json(self, target: float | None = None) -> str:
        """Aggregated rows as a JSON document (the CLI's ``--json`` output)."""
        return json.dumps(self.aggregate(target=target), indent=2)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    m = _mean(values)
    return (sum((v - m) ** 2 for v in values) / len(values)) ** 0.5


def _pm(mean: float, std: float, n: int) -> str:
    if n <= 1:
        return f"{mean:.4f}"
    return f"{mean:.4f} ±{std:.4f}"
