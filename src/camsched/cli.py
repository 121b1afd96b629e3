"""Command line front end.

Subcommands:
  simulate   run a trace end to end and write a metrics stream
  schedule   decide one slot with the chosen scheduler and print the result
  oracle     exhaustively solve one slot (small instances only)
  gen-trace  write a deterministic synthetic CAM trace directory
  assess     replay a trace through quality assessment and print Q matrices

Scheduler wall-times go to stdout, never into output files, so identical
seeds give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys

from . import fileio, sched, sim
from .config import RunConfig, build_model, build_quality_state, emit_config, parse_config_file
from .errors import CamSchedError
from .fileio import emit_metrics
from .keys import key_of
from .sim import generate_synthetic
from .sysmodel import check_dims


# the flags that several commands share, each declared once with its help
_SHARED_FLAGS = {
    "--trace": dict(required=True, help="trace manifest"),
    "--slot": dict(type=int, default=0, help="slot index (default 0)"),
    "--scheduler": dict(choices=sim.SCHEDULER_CHOICES,
                        help="override the configured scheduler"),
    "--oracle-limit": dict(type=int, help="override the configured oracle enumeration cap"),
    "--out": dict(help="write the JSON records here instead of stdout"),
}


def _add_command(sub, name: str, help: str, *shared: str) -> argparse.ArgumentParser:
    """Subcommand `name` with --config, --seed and the `shared` flags."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    for flag in shared:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camsched",
        description="CAM-quality-driven scheduling of low-light video enhancement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "simulate", "run a whole trace and emit metrics",
                     "--scheduler", "--oracle-limit")
    p.add_argument("--trace", help="trace manifest (defaults to config trace_path)")
    p.add_argument("--out", help="metrics file (defaults to config metrics_path)")
    _add_command(sub, "schedule", "schedule a single slot",
                 "--trace", "--slot", "--scheduler", "--oracle-limit", "--out")
    _add_command(sub, "oracle", "exhaustively solve a single slot",
                 "--trace", "--slot", "--oracle-limit", "--out")
    p = _add_command(sub, "gen-trace", "generate a synthetic CAM trace")
    p.add_argument("--out", required=True, help="output trace directory")
    _add_command(sub, "assess", "emit per-slot quality matrices for a trace",
                 "--trace", "--out")
    _add_command(sub, "show-config", "print the resolved configuration")
    return parser


def _load_config(args) -> RunConfig:
    config = parse_config_file(args.config)
    if getattr(args, "seed", None) is not None:
        # one seed override flows into both the GA and the generator
        config = dataclasses.replace(
            config,
            seed=args.seed,
            ga=dataclasses.replace(config.ga, rng_seed=args.seed),
            synth=dataclasses.replace(config.synth, seed=args.seed),
        )
    if getattr(args, "scheduler", None):
        config = dataclasses.replace(config, scheduler=args.scheduler)
    if getattr(args, "oracle_limit", None) is not None:
        limit = key_of(RunConfig, "oracle_limit").check(args.oracle_limit, "--oracle-limit")
        config = dataclasses.replace(config, oracle_limit=limit)
    return config


def _load_trace(path: str, config: RunConfig):
    """(trace, model): the trace at `path` and the model of `config`, checked
    to agree before any command replays the trace."""
    trace = fileio.load_trace(path)
    model = build_model(config)
    check_dims(trace, model)
    return trace, model


def _replay_to(trace: sim.Trace, config: RunConfig, index: int):
    """(state, rest of the replay) once the slots before `index` are replayed.

    Earlier slots are replayed so the quality windows are warm; the replay
    commits CAM windows only, since no algorithm actually ran.
    """
    if not 0 <= index < trace.horizon:
        raise CamSchedError(f"slot {index} outside trace horizon {trace.horizon}")
    state = build_quality_state(config)
    stream = sim.replay(trace, state, config.cam_threshold)
    for _ in itertools.islice(stream, index):
        pass
    return state, stream


def _write_records(records, out: str | None) -> None:
    """Compact JSON lines to `out`, or to stdout when no path is given."""
    text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    trace_path = args.trace or config.trace_path
    if trace_path is None:
        raise CamSchedError("simulate needs --trace or a config trace_path")
    out_path = args.out or config.metrics_path
    if out_path is None:
        raise CamSchedError("simulate needs --out or a config metrics_path")
    trace, model = _load_trace(trace_path, config)
    state = build_quality_state(config)
    metrics, summary = sim.run(
        trace,
        model,
        scheduler=config.scheduler,
        ga_config=config.ga,
        state=state,
        threshold=config.cam_threshold,
        oracle_limit=config.oracle_limit,
    )
    emit_metrics(metrics, out_path, summary)
    mean_ms = (summary.mean_scheduler_seconds or 0.0) * 1e3
    print(
        f"simulated {summary.slots} slots with scheduler={config.scheduler}: "
        f"mean total utility {summary.mean_total_utility}, "
        f"feasible rate {summary.feasible_rate}, "
        f"mean scheduler time {mean_ms:.2f} ms"
    )
    print(f"metrics written to {out_path}")
    return 0


def _cmd_schedule(args) -> int:
    config = _load_config(args)
    trace, model = _load_trace(args.trace, config)
    state, _ = _replay_to(trace, config, args.slot)
    metrics = sim.run_slot(
        args.slot, trace, state, model, config.scheduler, config.ga,
        config.cam_threshold, config.oracle_limit,
    )
    record = dict(fileio.metrics_record(metrics), scheduler=config.scheduler)
    _write_records([record], args.out)
    return 0


def _cmd_oracle(args) -> int:
    config = _load_config(args)
    trace, model = _load_trace(args.trace, config)
    _, stream = _replay_to(trace, config, args.slot)
    result = sched.brute_force(next(stream), model, config.oracle_limit)
    found = result.decision is not None
    record = {
        "slot": args.slot,
        "enumerated": result.enumerated,
        "feasible_count": result.feasible_count,
        "decisions": [list(g) for g in result.decision.genes()] if found else None,
        "total_utility": fileio.round9(result.objective) if found else None,
    }
    _write_records([record], args.out)
    return 0


def _cmd_gen_trace(args) -> int:
    config = _load_config(args)
    trace = generate_synthetic(config.synth)
    manifest = fileio.save_trace(trace, args.out)
    print(
        f"wrote {trace.horizon} slots for {trace.num_devices} devices to {manifest}"
    )
    return 0


def _cmd_assess(args) -> int:
    config = _load_config(args)
    trace, _ = _load_trace(args.trace, config)
    replay = sim.replay(trace, build_quality_state(config), config.cam_threshold)
    _write_records(
        (
            {"slot": t,
             "quality": [[fileio.round9(v) for v in row] for row in slot.quality.tolist()]}
            for t, slot in enumerate(replay)
        ),
        args.out,
    )
    return 0


def _cmd_show_config(args) -> int:
    config = _load_config(args)
    sys.stdout.write(emit_config(config))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "schedule": _cmd_schedule,
    "oracle": _cmd_oracle,
    "gen-trace": _cmd_gen_trace,
    "assess": _cmd_assess,
    "show-config": _cmd_show_config,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CamSchedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy refuses an array larger than the machine can map at once
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
