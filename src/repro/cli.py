"""Command-line interface: subcommands over the unified experiment API.

Examples
--------
One training run, with the per-round log::

    python -m repro run --method fedhisyn --dataset mnist_like \
        --devices 20 --rounds 12 --beta 0.3 --num-classes 5

Several methods on one identical setup::

    python -m repro compare --method fedhisyn,fedavg,scaffold \
        --dataset cifar10_like --rounds 15 --target 0.7

A campaign: grid over methods x seeds (x any spec field via ``--grid``),
parallel workers, on-disk result cache, mean±std aggregation::

    python -m repro sweep --method fedhisyn,fedavg --seeds 0,1,2 \
        --workers 2 --cache-dir .repro-cache --grid beta=0.1,0.3

The same run in a harsher world (and environments are grid axes too)::

    python -m repro run --method fedhisyn --env flaky_mobile --drop-prob 0.1
    python -m repro sweep --method fedavg --seeds 0,1 --grid env=ideal,wan

What is available::

    python -m repro list methods
    python -m repro list envs
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.campaign import Campaign, CampaignResult, sweep
from repro.compression import CODECS
from repro.transport import TRANSPORTS
from repro.core.aggregation import AGGREGATORS
from repro.core.async_server import STALENESS_DECAYS
from repro.core.selection import SELECTION_POLICIES
from repro.datasets.registry import DATASETS
from repro.env.registry import AVAILABILITY_KINDS, ENVIRONMENTS
from repro.faults import FAULT_MODELS
from repro.experiments import (
    AXES,
    FLEET_PROFILES,
    METHODS,
    ExperimentSpec,
    run_experiment,
)
from repro.utils.registry import Registry

__all__ = ["build_parser", "main", "spec_from_args"]


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    """Experiment-spec options shared by ``run``, ``compare`` and ``sweep``."""
    g = p.add_argument_group("experiment spec")
    g.add_argument("--dataset", default="mnist_like", choices=DATASETS.names())
    g.add_argument("--samples", type=int, default=2000, help="dataset size")
    g.add_argument("--devices", type=int, default=20)
    g.add_argument("--fleet-profile", default=None,
                   choices=sorted(FLEET_PROFILES),
                   help="fleet-scale preset supplying devices/samples/"
                        "participation defaults (explicitly set flags "
                        "win); see `repro list fleets`")
    g.add_argument("--partition", default="dirichlet",
                   choices=["iid", "contiguous", "dirichlet", "shard"])
    g.add_argument("--beta", type=float, default=0.3,
                   help="Dirichlet concentration (smaller = more skew)")
    g.add_argument("--participation", type=float, default=1.0)
    g.add_argument("--het-ratio", type=float, default=None,
                   help="exact heterogeneity H = l_max/l_min (Eq. 13)")
    g.add_argument("--units-low", type=int, default=None,
                   help="min training units per round (default: spec's 1)")
    g.add_argument("--units-high", type=int, default=None,
                   help="max training units per round (default: spec's 10)")
    g.add_argument("--rounds", type=int, default=12)
    g.add_argument("--local-epochs", type=int, default=1)
    g.add_argument("--lr", type=float, default=0.1)
    g.add_argument("--batch-size", type=int, default=50)
    g.add_argument("--eval-every", type=int, default=1,
                   help="evaluate the global model every k rounds")
    g.add_argument("--eval-time-every", type=float, default=None,
                   help="also evaluate every this many units of *virtual "
                        "time* (scheduler eval checkpoints; feeds "
                        "time-to-accuracy)")
    g.add_argument("--staleness-decay", default=None,
                   choices=sorted(STALENESS_DECAYS),
                   help="async methods: staleness decay for upload mixing "
                        "(fedasync/fedbuff; ignored by sync methods)")
    g.add_argument("--buffer-goal", type=int, default=None,
                   help="fedbuff: uploads per aggregation (K)")
    g.add_argument("--model-family", default=None, choices=["mlp", "cnn"],
                   help="override the dataset's default model family")
    g.add_argument("--model-preset", default="small", choices=["small", "paper"])
    g.add_argument("--num-classes", type=int, default=5,
                   help="FedHiSyn's K capacity clusters")
    g.add_argument("--selection", default=None,
                   choices=SELECTION_POLICIES.names(),
                   help="device-selection policy (default: the paper's "
                        "Bernoulli participation sampling)")
    g.add_argument("--selection-fraction", type=float, default=None,
                   help="fraction for --selection (default: --participation)")
    g.add_argument("--env", default="ideal",
                   choices=ENVIRONMENTS.names(),
                   help="environment preset: network + availability "
                        "(default: the paper's ideal world)")
    g.add_argument("--codec", default="none",
                   choices=CODECS.names(),
                   help="update compression codec on every transfer "
                        "(default: dense, the paper's semantics)")
    g.add_argument("--topk-frac", type=float, default=None,
                   help="topk codec: fraction of coordinates kept")
    g.add_argument("--quant-bits", type=int, default=None,
                   help="qsgd codec: quantization bits per coordinate")
    g.add_argument("--transport", default="sim",
                   choices=TRANSPORTS.names(),
                   help="execution backend: sim (in-process, default) or "
                        "live (real worker processes over loopback UDP)")
    g.add_argument("--workers-live", type=int, default=None,
                   help="live transport: number of worker processes "
                        "(default 2)")
    g.add_argument("--aggregator", default=None,
                   choices=sorted(AGGREGATORS),
                   help="fedavg-family aggregation rule (default: each "
                        "method's built-in sample weighting)")
    g.add_argument("--faults", default="none",
                   choices=FAULT_MODELS.names(),
                   help="fault-injection model applied to the run "
                        "(default: no faults, the seed semantics)")
    g.add_argument("--byzantine-frac", type=float, default=None,
                   help="byzantine faults: fraction of corrupting devices")
    g.add_argument("--crash-prob", type=float, default=None,
                   help="crash faults: per-device per-round crash "
                        "probability")
    g.add_argument("--round-deadline", type=float, default=None,
                   help="sync rounds: drop uploads later than this "
                        "virtual-time deadline and charge the deadline")
    g.add_argument("--over-select", type=float, default=None,
                   help="sync rounds: over-sample participants by this "
                        "margin to compensate for deadline losses "
                        "(default Bernoulli draw only; rejected with "
                        "--selection)")
    g.add_argument("--max-retries", type=int, default=None,
                   help="async methods: upload retransmissions before an "
                        "update is dropped")
    g.add_argument("--drop-prob", type=float, default=None,
                   help="override the preset's message-drop probability")
    g.add_argument("--availability", default=None,
                   choices=sorted(AVAILABILITY_KINDS),
                   help="override the preset's availability model")
    g.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="FedHiSyn (ICPP 2022) reproduction — federated training "
        "on a virtual-time device simulator.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    known = f"(known: {', '.join(sorted(METHODS))})"

    run_p = sub.add_parser("run", help="one method, one training run")
    run_p.add_argument("--method", default="fedhisyn", help=f"algorithm {known}")
    run_p.add_argument("--target", type=float, default=None,
                       help="report transfer cost to reach this accuracy")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress per-round log")
    run_p.add_argument("--json", action="store_true",
                       help="print the result as JSON instead of text")
    _add_spec_arguments(run_p)

    cmp_p = sub.add_parser("compare",
                           help="several methods on one identical setup")
    cmp_p.add_argument("--method", default="fedhisyn,fedavg",
                       help=f"comma-separated algorithms {known}")
    cmp_p.add_argument("--target", type=float, default=None,
                       help="report transfer cost to reach this accuracy")
    cmp_p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes")
    cmp_p.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk result cache")
    cmp_p.add_argument("--json", action="store_true")
    _add_spec_arguments(cmp_p)

    sweep_p = sub.add_parser("sweep",
                             help="campaign: methods x seeds x --grid axes, "
                                  "parallel + cached + seed-aggregated")
    sweep_p.add_argument("--method", default="fedhisyn",
                         help=f"comma-separated algorithms {known}")
    sweep_p.add_argument("--seeds", default="0",
                         help="comma-separated seeds to replicate over")
    sweep_p.add_argument("--grid", action="append", default=[],
                         metavar="FIELD=V1,V2,...",
                         help="extra sweep axis over an ExperimentSpec field "
                              "(repeatable), e.g. --grid beta=0.1,0.3")
    sweep_p.add_argument("--target", type=float, default=None,
                         help="report transfer cost to reach this accuracy")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes")
    sweep_p.add_argument("--cache-dir", default=None,
                         help="directory for the on-disk result cache")
    sweep_p.add_argument("--json", action="store_true")
    sweep_p.add_argument("--quiet", action="store_true",
                         help="suppress per-run progress lines")
    _add_spec_arguments(sweep_p)

    list_p = sub.add_parser("list", help="show registered components")
    list_p.add_argument("what", nargs="?", default="all",
                        choices=["methods", "datasets", "selections", "envs",
                                 "codecs", "fleets", "faults", "transports",
                                 "all"])

    bench_p = sub.add_parser("bench",
                             help="run the perf microbenchmark suite and "
                                  "write BENCH_perf.json")
    bench_p.add_argument("--scale", default="quick",
                         choices=["quick", "full"],
                         help="benchmark scale preset (default: quick)")
    bench_p.add_argument("--out", default="BENCH_perf.json",
                         help="report path (default: BENCH_perf.json)")
    bench_p.add_argument("--repeats", type=int, default=None,
                         help="override best-of repetitions")

    return p


def spec_from_args(args: argparse.Namespace, method: str = "fedhisyn") -> ExperimentSpec:
    """Build the base :class:`ExperimentSpec` from parsed spec options."""
    # Only the kwargs matching the *selected* name attach to the spec;
    # the full per-name map feeds sweep() so a --grid codec axis can
    # carry e.g. a top-k fraction that only lands on the topk cells.
    per_name = _axis_kwargs(args)
    axes: dict[str, Any] = {}
    for name_field, kwargs_field, default in AXES:
        # args.method may be a comma list; the caller picked one.
        name = method if name_field == "method" else getattr(args, name_field, default)
        axes[name_field] = name
        axes[kwargs_field] = per_name.get(kwargs_field, {}).get(name, {})
    # env overrides are preset-agnostic, so they are not a per-name map.
    axes["env_kwargs"] = {
        key: getattr(args, key)
        for key in ("drop_prob", "availability")
        if getattr(args, key, None) is not None
    }
    # None-valued flags defer to the ExperimentSpec defaults (the same
    # passthrough --het-ratio uses), so spec defaults stay single-sourced.
    units = {
        key: value
        for key, value in (("units_low", args.units_low),
                           ("units_high", args.units_high))
        if value is not None
    }
    return ExperimentSpec(
        **axes,
        **units,
        dataset=args.dataset,
        num_samples=args.samples,
        num_devices=args.devices,
        partition=args.partition,
        beta=args.beta,
        participation=args.participation,
        het_ratio=args.het_ratio,
        rounds=args.rounds,
        local_epochs=args.local_epochs,
        lr=args.lr,
        batch_size=args.batch_size,
        eval_every=args.eval_every,
        eval_time_every=args.eval_time_every,
        staleness_decay=args.staleness_decay,
        buffer_goal=args.buffer_goal,
        model_family=args.model_family,
        model_preset=args.model_preset,
        selection=args.selection,
        selection_fraction=args.selection_fraction,
        aggregator=getattr(args, "aggregator", None),
        round_deadline=getattr(args, "round_deadline", None),
        over_select=getattr(args, "over_select", None),
        max_retries=getattr(args, "max_retries", None),
        fleet_profile=args.fleet_profile,
        seed=args.seed,
    )


def _parse_methods(raw: str) -> list[str]:
    """Split a comma list into method names (the spec vets each one)."""
    names = [m.strip() for m in raw.split(",") if m.strip()]
    if not names:
        raise ValueError("--method needs at least one name")
    return names


#: CLI conveniences that become per-name constructor kwargs, as ``(flag,
#: sweep keyword, names it lands on, constructor key)`` rows.  ``compound``
#: takes both fault knobs, so each lands on its own model *and* on the
#: compound cells of a ``--grid faults=...`` axis.
_KWARG_FLAGS = (
    ("num_classes", "method_kwargs", ("fedhisyn",), "num_classes"),
    ("topk_frac", "codec_kwargs", ("topk",), "fraction"),
    ("quant_bits", "codec_kwargs", ("qsgd",), "bits"),
    ("byzantine_frac", "fault_kwargs", ("byzantine", "compound"), "fraction"),
    ("crash_prob", "fault_kwargs", ("crash", "compound"), "crash_prob"),
    ("workers_live", "transport_kwargs", ("live",), "workers"),
)


def _axis_kwargs(args: argparse.Namespace) -> dict[str, dict[str, dict]]:
    """Per-name kwargs from the flag table, keyed as
    :func:`repro.campaign.sweep`'s keyword arguments."""
    out: dict[str, dict[str, dict]] = {}
    for flag, kwargs_field, names, key in _KWARG_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            for name in names:
                out.setdefault(kwargs_field, {}).setdefault(name, {})[key] = value
    return out


_NAME_ONLY_AXES = {name for name, _, default in AXES if default is not None}


def _parse_grid(pairs: list[str]) -> dict[str, list[Any]]:
    """``--grid field=v1,v2`` strings -> a :func:`repro.campaign.sweep` grid."""
    grid: dict[str, list[Any]] = {}
    for pair in pairs:
        field_name, eq, raw_values = pair.partition("=")
        field_name = field_name.strip().replace("-", "_")
        if not eq or not field_name:
            raise ValueError(f"--grid expects FIELD=V1,V2,..., got {pair!r}")
        # On an axis with a default name, "none" is a *name* (the identity
        # codec, the null fault model), not a null — skip the
        # null/bool/number coercion there.
        convert = str if field_name in _NAME_ONLY_AXES else _convert
        values = [convert(v.strip()) for v in raw_values.split(",") if v.strip()]
        if not values:
            raise ValueError(f"--grid axis {field_name!r} has no values")
        grid[field_name] = values
    return grid


def _convert(raw: str) -> Any:
    """Best-effort typed grid value: int, float, none, bool, else string."""
    lowered = raw.lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _default_target(args: argparse.Namespace) -> float:
    if args.target is not None:
        return args.target
    return DATASETS[args.dataset].paper_target_accuracy


# ------------------------------------------------------------- subcommands


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        methods = _parse_methods(args.method)
        if len(methods) != 1:
            raise ValueError("`run` takes exactly one --method; "
                             "use `compare` or `sweep` for several")
        method = methods[0]
        spec = spec_from_args(args, method=method)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    target = _default_target(args)

    logger = None
    if not args.quiet and not args.json:
        from repro.utils.logging import RunLogger

        logger = RunLogger(method, stream=sys.stdout, verbose=True)
    result = run_experiment(spec, logger=logger)
    cost = result.cost_to_target(target)
    ttt = result.time_to_target(target)

    if args.json:
        print(json.dumps({
            **result.summary(),
            "config": result.config,
            "target": target,
            "cost_to_target": cost,
            "time_to_target": ttt,
            "history": result.history.to_dict(),
        }, indent=2))
        return 0

    from repro.utils.sparkline import labelled_curve

    print("\n" + labelled_curve("test accuracy", result.history.accuracies))
    print(f"{method}: final accuracy {result.final_accuracy:.4f}, "
          f"best {result.best_accuracy:.4f}, "
          f"cost@{target:.0%} {'X' if cost is None else f'{cost:.1f}'}, "
          f"vtime@{target:.0%} {'X' if ttt is None else f'{ttt:.2f}'}")
    if spec.codec != "none":
        t = result.transport
        print(f"{spec.codec}: wire {t['wire_bytes'] / 1e6:.2f} MB "
              f"of {t['raw_bytes'] / 1e6:.2f} MB raw "
              f"({t['compression_ratio']:.1f}x compression)")
    if result.transport_backend != "sim":
        t = result.transport
        print(f"live: {t['live_datagrams_sent']:.0f} datagrams out / "
              f"{t['live_datagrams_received']:.0f} in, "
              f"{t['live_retransmits']:.0f} retransmits, "
              f"{t['live_workers_parked']:.0f} workers parked")
    return 0


def _campaign_specs(args: argparse.Namespace, seeds: list[int]) -> list[ExperimentSpec]:
    methods = _parse_methods(args.method)
    extra_axes = _parse_grid(getattr(args, "grid", []))
    clash = sorted(set(extra_axes) & {"method", "seed"})
    if clash:
        raise ValueError(
            f"--grid cannot override {clash}; use --method/--seeds instead"
        )
    grid: dict[str, list[Any]] = {"method": methods, "seed": seeds, **extra_axes}
    base = spec_from_args(args, method=methods[0])
    return sweep(base, grid, **_axis_kwargs(args))


def _run_campaign(args: argparse.Namespace, specs: list[ExperimentSpec],
                  quiet: bool) -> CampaignResult:
    campaign = Campaign(specs, cache_dir=args.cache_dir)
    progress = None if (quiet or args.json) else print
    return campaign.run(workers=args.workers, progress=progress)


def _check_workers(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        _check_workers(args)
        specs = _campaign_specs(args, seeds=[args.seed])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _run_campaign(args, specs, quiet=True)
    target = _default_target(args)
    if args.json:
        print(result.to_json(target=target))
        return 0
    title = (f"{args.dataset} / {args.partition}(beta={args.beta}) / "
             f"{args.participation:.0%} participation")
    print(result.to_table(target=target, title=title))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        _check_workers(args)
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not seeds:
            raise ValueError("--seeds needs at least one seed")
        specs = _campaign_specs(args, seeds=seeds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _run_campaign(args, specs, quiet=args.quiet)
    target = _default_target(args)
    if args.json:
        print(result.to_json(target=target))
        return 0
    title = (f"campaign: {len(specs)} runs "
             f"({result.cache_hits} cached), dataset {args.dataset}")
    print(result.to_table(target=target, title=title))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    sections = []

    def section(what: str, title: str, registry: Registry, width: int) -> None:
        if args.what in (what, "all"):
            lines = [f"{title}:"]
            for entry in registry.entries():
                lines.append(f"  {entry.name:<{width}} {entry.description}")
            sections.append("\n".join(lines))

    section("methods", "methods", METHODS, 10)
    if args.what in ("datasets", "all"):
        lines = ["datasets:"]
        for entry in DATASETS.entries():
            lines.append(
                f"  {entry.name:<14} family={entry.model_family} "
                f"paper-target={entry.paper_target_accuracy:.0%} "
                f"paper-rounds={entry.paper_rounds}"
            )
        sections.append("\n".join(lines))
    section("selections", "selection policies", SELECTION_POLICIES, 10)
    section("envs", "environments", ENVIRONMENTS, 13)
    section("codecs", "codecs", CODECS, 8)
    section("faults", "fault models", FAULT_MODELS, 10)
    section("transports", "transports", TRANSPORTS, 6)
    if args.what in ("fleets", "all"):
        lines = ["fleet profiles:"]
        for name, prof in sorted(FLEET_PROFILES.items(),
                                 key=lambda kv: kv[1]["num_devices"]):
            part = prof["participation"]
            pct = f"{part:.1%}" if part < 0.01 else f"{part:.0%}"
            lines.append(
                f"  {name:<8} devices={prof['num_devices']:<8} "
                f"samples={prof['num_samples']:<8} "
                f"participation={pct}"
            )
        sections.append("\n".join(lines))
    print("\n\n".join(sections))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run ``benchmarks/perf/suite.py`` through its own CLI front-end.

    The benchmarks package lives next to ``src/`` rather than inside it
    (it measures the library from the outside), so it is importable when
    running from the repo root — fail with a hint, not a traceback, when
    it is not on the path.
    """
    try:
        from benchmarks.perf.__main__ import main as bench_main
    except ImportError:
        print(
            "error: the benchmarks package is not importable; "
            "run from the repository root (or add it to PYTHONPATH)",
            file=sys.stderr,
        )
        return 2
    argv = ["--scale", args.scale, "--out", args.out]
    if args.repeats is not None:
        argv += ["--repeats", str(args.repeats)]
    return bench_main(argv)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "list": _cmd_list,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
