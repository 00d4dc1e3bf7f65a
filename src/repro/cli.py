"""Command-line interface for the ChatPattern reproduction.

Subcommands:

- ``chat``     — natural-language library building (the headline flow).
- ``serve``    — many requests at once through the micro-batching service.
- ``generate`` — sample fixed-size topologies of one style and legalize.
- ``extend``   — free-size synthesis via in/out-painting.
- ``evaluate`` — legality/diversity report for a saved library.
- ``export``   — convert a saved library to GDSII.
- ``stats``    — summarize a metrics snapshot written by ``serve
  --metrics-snapshot`` (JSON or Prometheus text exposition); with
  ``--watch SECS`` it re-renders as a live dashboard.
- ``tune``     — offline autotuner: score every serve-knob candidate on
  a seeded workload spec's full trace (the deterministic engine
  simulator) and emit a tuned pipeline config plus a trial report.

Every subcommand is a thin shell over the typed pipeline API
(:class:`repro.api.PipelineConfig` -> :class:`repro.api.PatternPipeline`):
``--config pipeline.json`` loads a full pipeline description, individual
flags override it, and ``--model-cache DIR`` persists the fitted back-end
on disk so repeated invocations skip training::

    python -m repro.cli chat "Generate 6 patterns ..." -o library.npz
    python -m repro.cli generate --count 4 --model-cache ~/.cache/repro
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.api.config import OBJECTIVES, SERVE_POLICIES, PipelineConfig
from repro.api.pipeline import PatternPipeline
from repro.data import STYLES
from repro.diffusion.schedule import validate_sampler_steps
from repro.io.render import ascii_art
from repro.io.store import load_library
from repro.metrics.stats import library_stats

def _sampler_steps_arg(value: str):
    """Parse ``--sampler-steps``: 'full' | 'bucketed' | a step count."""
    try:
        spec = int(value)
    except ValueError:
        spec = value
    try:
        return validate_sampler_steps(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_GLOBAL_OPTIONS = (
    (
        "--config",
        {"metavar": "PIPELINE_JSON",
         "help": "pipeline config file (see repro.api.PipelineConfig)"},
    ),
    (
        "--model-cache",
        {"metavar": "DIR",
         "help": "persistent fitted-model cache; a second run with the "
                 "same training recipe loads the model instead of "
                 "retraining"},
    ),
    (
        "--train-count",
        {"type": int,
         "help": "training tiles per style for the diffusion back-end "
                 "(default 48)"},
    ),
    ("--seed", {"type": int, "help": "training/sampling seed (default 2024)"}),
    (
        "--sampler-steps",
        {"type": _sampler_steps_arg, "metavar": "SPEC",
         "help": "reverse-step schedule: 'full' (every step below the "
                 "schedule's signal start), 'bucketed' (one step per "
                 "denoiser noise bucket, ~5x fewer denoiser evaluations), "
                 "or an integer step count"},
    ),
)


def _add_global_options(parser: argparse.ArgumentParser, root: bool) -> None:
    """Install the shared options on the root parser and every subparser.

    The subparser copies default to ``SUPPRESS`` so ``repro generate
    --model-cache DIR`` (flag after the subcommand) works without a
    subcommand's unset flag clobbering a value parsed before it.
    """
    for flag, kwargs in _GLOBAL_OPTIONS:
        parser.add_argument(
            flag,
            default=None if root else argparse.SUPPRESS,
            **kwargs,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ChatPattern: layout pattern customization via natural language",
    )
    _add_global_options(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    chat = sub.add_parser("chat", help="handle a natural-language request")
    chat.add_argument("request", help="the requirement, in English")
    chat.add_argument("-o", "--output", help="save the library (.npz)")
    chat.add_argument(
        "--objective", choices=OBJECTIVES, default=None
    )

    srv = sub.add_parser(
        "serve", help="serve many requests through the batched scheduler"
    )
    srv.add_argument(
        "requests", nargs="*", help="requirement texts, one per request"
    )
    srv.add_argument(
        "--requests-file",
        help="file with one request per line ('#' lines are comments)",
    )
    srv.add_argument(
        "--objective", choices=OBJECTIVES, default=None
    )
    srv.add_argument(
        "--gather-window", type=float, default=None,
        help="seconds the scheduler collects jobs per batch",
    )
    srv.add_argument(
        "--max-batch", type=int, default=None,
        help="max samples per batched trajectory",
    )
    srv.add_argument(
        "--workers", type=int, default=None,
        help="concurrent request workers",
    )
    srv.add_argument(
        "--policy", choices=SERVE_POLICIES, default=None,
        help="engine batching policy: fair_share (the default: FIFO "
             "within a request source, sources taking turns) or adaptive "
             "(fair-share selection plus an SLO-driven quality controller "
             "that degrades sampler steps under queue pressure; tuned by "
             "the config's [tune] section)",
    )
    srv.add_argument(
        "--queue-limit", type=int, default=None,
        help="bound on queued sampling jobs; beyond it submissions "
             "fast-fail with backpressure instead of queueing unboundedly",
    )
    srv.add_argument(
        "--deadline", type=float, default=None,
        help="seconds a sampling job may sit queued before failing with "
             "a deadline error",
    )
    srv.add_argument(
        "--store", help="directory of the indexed pattern store (dedup)"
    )
    srv.add_argument("-o", "--output", help="save the merged library (.npz)")
    srv.add_argument(
        "--metrics-snapshot", metavar="PATH", default=None,
        help="periodically write a JSON metrics snapshot to PATH (and the "
             "Prometheus text exposition to PATH + '.prom'), plus a final "
             "dump on shutdown; inspect with 'repro stats PATH'",
    )
    srv.add_argument(
        "--snapshot-interval", type=float, default=None,
        help="seconds between metrics snapshots (default 5)",
    )
    srv.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write per-request trace spans as JSON lines on shutdown",
    )
    srv.add_argument(
        "--no-obs", action="store_true",
        help="disable the observability layer (no metrics, no traces)",
    )
    srv.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durable job-state directory: terminal jobs are journaled "
             "and rehydrated across restarts, and jobs lost in flight "
             "resurface as FAILED with the 'server_restart' error code "
             "instead of vanishing",
    )
    srv.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="install a deterministic fault-injection plan (chaos "
             "testing): JSON, or compact clauses like "
             "'seed=7|engine.execute:error:nth=2|registry.disk_read:error:"
             "nth=1'; the REPRO_FAULTS environment variable is an "
             "equivalent escape hatch",
    )
    srv.add_argument(
        "--http", metavar="HOST:PORT", default=None,
        help="instead of serving the given requests and exiting, run the "
             "asyncio HTTP front-end (POST /v1/jobs, GET /v1/jobs/ID, "
             "DELETE cancel, GET /metrics) until SIGINT or SIGTERM, then "
             "drain gracefully; PORT 0 binds an ephemeral port",
    )

    gen = sub.add_parser("generate", help="sample fixed-size patterns")
    gen.add_argument("--style", choices=STYLES, default=None)
    gen.add_argument("--count", type=int, default=None)
    gen.add_argument("-o", "--output", help="save the library (.npz)")
    gen.add_argument("--show", action="store_true", help="print ASCII art")

    ext = sub.add_parser("extend", help="free-size synthesis")
    ext.add_argument("--style", choices=STYLES, default=None)
    ext.add_argument("--size", type=int, default=None)
    ext.add_argument("--method", choices=("out", "in"), default=None)
    ext.add_argument("--count", type=int, default=None)
    ext.add_argument("-o", "--output", help="save the library (.npz)")

    ev = sub.add_parser("evaluate", help="report stats for a saved library")
    ev.add_argument("library", help="path to a .npz library")

    ex = sub.add_parser("export", help="convert a saved library to GDSII")
    ex.add_argument("library", help="path to a .npz library")
    ex.add_argument("output", help="path of the .gds file to write")

    st = sub.add_parser(
        "stats", help="summarize a metrics snapshot (JSON or .prom)"
    )
    st.add_argument(
        "snapshot",
        help="snapshot file written by 'serve --metrics-snapshot' "
             "(JSON, or the '.prom' text-exposition sibling)",
    )
    st.add_argument(
        "--watch", type=float, metavar="SECS", default=None,
        help="re-read and re-render the snapshot every SECS seconds "
             "(a live dashboard over 'serve --metrics-snapshot'); "
             "Ctrl-C exits",
    )
    st.add_argument(
        "--iterations", type=int, metavar="N", default=None,
        help="with --watch, stop after N renders instead of running "
             "until Ctrl-C (useful in scripts and CI)",
    )

    tn = sub.add_parser(
        "tune",
        help="autotune serve knobs against a workload spec (offline)",
    )
    tn.add_argument(
        "workload",
        help="workload spec JSON (phases of request traffic; see "
             "repro.tune.WorkloadSpec)",
    )
    tn.add_argument(
        "--slo", type=float, default=None, metavar="SECS",
        help="p95 latency SLO the tuner optimizes for (overrides the "
             "config's tune.slo_p95)",
    )
    tn.add_argument(
        "-o", "--output", metavar="PIPELINE_JSON", default=None,
        help="write the tuned pipeline config here (loadable with "
             "--config and servable as-is)",
    )
    tn.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the human-readable trial report to PATH "
             "(always printed to stdout)",
    )

    for command_parser in (chat, srv, gen, ext, ev, ex, st, tn):
        _add_global_options(command_parser, root=False)
    return parser


def _pipeline_config(args) -> PipelineConfig:
    """``--config`` file (or defaults) with the global flag overrides."""
    cfg = (
        PipelineConfig.load(args.config)
        if args.config
        else PipelineConfig()
    )
    train = cfg.train
    if args.train_count is not None:
        train = train.replace(train_count=args.train_count)
    if args.seed is not None:
        train = train.replace(seed=args.seed)
    cfg = cfg.replace(train=train)
    if args.sampler_steps is not None:
        cfg = cfg.replace(
            sample=cfg.sample.replace(sampler_steps=args.sampler_steps)
        )
    if args.model_cache is not None:
        cfg = cfg.replace(model_cache=args.model_cache)
    return cfg


def _build_pipeline(args, cfg: PipelineConfig) -> PatternPipeline:
    """The one seam every subcommand builds its pipeline through."""
    return PatternPipeline(cfg, verbose=True)


def _cmd_chat(args) -> int:
    cfg = _pipeline_config(args)
    pipeline = _build_pipeline(args, cfg)
    result = pipeline.chat(args.request, objective=args.objective)
    print(result.summary())
    if args.output and len(result.library):
        saved = pipeline.with_library(result.library).persist(
            output=args.output
        )
        print(f"library saved to {saved.output_path}")
    return 0 if result.produced else 1


#: glibc's ``mallopt`` parameter number for the most malloc arenas.
_M_ARENA_MAX = -8


def _cap_malloc_arenas() -> bool:
    """Make every thread of this process allocate from glibc's one main heap.

    glibc gives threads that allocate at the same time arenas of their
    own, so a server's request-pool and engine threads grow private heaps
    while the main heap keeps the few MB that building the training set
    and fitting the model freed.  With one arena they reuse that memory:
    a 25 s served ``freesize`` stream of 256x256 chats peaked at 54.3 MB
    ``VmHWM`` instead of 57.4 MB (perfbench medians on a 2-core box),
    within 0.5 MB of the server's start-up peak.  ``mallopt`` acts on the
    whole process, so only ``repro serve`` calls this, before any thread
    starts; applications embedding the service keep their own settings.
    Returns whether the cap was applied: where ``mallopt`` is missing
    (not glibc) it does nothing and returns False.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt(_M_ARENA_MAX, 1) == 1


def _cmd_serve(args) -> int:
    if _cap_malloc_arenas():
        print("malloc: one arena for every serving thread", file=sys.stderr)

    from repro.squish.pattern import PatternLibrary

    texts = list(args.requests)
    if args.requests_file:
        with open(args.requests_file) as handle:
            texts.extend(
                line.strip()
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            )
    if not texts and not args.http:
        print("no requests given", file=sys.stderr)
        return 2

    cfg = _pipeline_config(args)
    serve_cfg = cfg.serve
    if args.objective is not None:
        serve_cfg = serve_cfg.replace(objective=args.objective)
    if args.seed is not None:
        serve_cfg = serve_cfg.replace(base_seed=args.seed)
    elif not args.config:
        # No config file: keep the old CLI behavior of seeding request
        # streams from the training seed.
        serve_cfg = serve_cfg.replace(base_seed=cfg.train.seed)
    if args.gather_window is not None:
        serve_cfg = serve_cfg.replace(gather_window=args.gather_window)
    if args.max_batch is not None:
        serve_cfg = serve_cfg.replace(max_batch=args.max_batch)
    if args.workers is not None:
        serve_cfg = serve_cfg.replace(max_workers=args.workers)
    if args.policy is not None:
        serve_cfg = serve_cfg.replace(policy=args.policy)
    if args.queue_limit is not None:
        serve_cfg = serve_cfg.replace(queue_limit=args.queue_limit)
    if args.deadline is not None:
        serve_cfg = serve_cfg.replace(deadline=args.deadline)
    if args.state_dir is not None:
        serve_cfg = serve_cfg.replace(state_dir=args.state_dir)
    cfg = cfg.replace(serve=serve_cfg)
    fault_spec = args.faults or os.environ.get("REPRO_FAULTS")
    if fault_spec:
        from repro.api.config import FaultConfig
        from repro.faults import parse_fault_spec

        try:
            parsed = parse_fault_spec(fault_spec)
        except ValueError as exc:
            print(f"bad fault spec: {exc}", file=sys.stderr)
            return 2
        cfg = cfg.replace(
            faults=FaultConfig.from_dict({**parsed, "enabled": True})
        )
    if args.store:
        cfg = cfg.replace(store=cfg.store.replace(store_dir=args.store))
    obs_cfg = cfg.obs
    if args.metrics_snapshot:
        obs_cfg = obs_cfg.replace(snapshot_path=args.metrics_snapshot)
    if args.snapshot_interval is not None:
        obs_cfg = obs_cfg.replace(snapshot_interval=args.snapshot_interval)
    if args.trace_out:
        obs_cfg = obs_cfg.replace(trace_path=args.trace_out)
    if args.no_obs:
        obs_cfg = obs_cfg.replace(enabled=False)
    cfg = cfg.replace(obs=obs_cfg)

    pipeline = _build_pipeline(args, cfg)
    pipeline.model  # resolve through the registry (and the disk cache) now
    service = pipeline.service()

    if args.http:
        return _serve_http(args.http, service)

    with service:
        responses = service.serve(texts)

    merged = PatternLibrary(name="serve-output")
    for response in responses:
        print(response.summary())
        if response.result is not None:
            merged.extend(list(response.result.library))
    # Graceful-shutdown summary: the engine's aggregate (span-union wall,
    # summed busy time, admission ledger) plus the metric-derived request
    # latency percentiles.
    stats = service.stats()
    print(f"service: {stats.as_dict()}")
    latency = service.metrics.get("repro_request_latency_seconds")
    if latency is not None and latency.count() > 0:
        pct = latency.percentiles()
        print(
            f"request latency: p50 {pct['p50'] * 1000:.0f} ms, "
            f"p95 {pct['p95'] * 1000:.0f} ms, "
            f"p99 {pct['p99'] * 1000:.0f} ms "
            f"over {latency.count()} request(s)"
        )
    if args.metrics_snapshot:
        print(
            f"metrics snapshot written to {args.metrics_snapshot} "
            f"(+ {args.metrics_snapshot}.prom)"
        )
    if args.trace_out:
        print(f"trace spans written to {args.trace_out}")
    if args.output and len(merged):
        saved = pipeline.with_library(merged).persist(output=args.output)
        print(f"library saved to {saved.output_path}")
    return 0 if all(r.produced for r in responses) else 1


def _serve_http(address: str, service) -> int:
    """Run the HTTP front-end until SIGINT/SIGTERM, then drain."""
    from repro.serve.http import PatternHttpServer

    host, _, port_text = address.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"cannot parse --http address {address!r} "
            "(expected HOST:PORT or PORT)",
            file=sys.stderr,
        )
        return 2
    server = PatternHttpServer(service, host=host, port=port)
    try:
        server.start()
    except RuntimeError as exc:
        print(f"HTTP server failed to start: {exc}", file=sys.stderr)
        return 1
    print(
        f"serving HTTP on {server.url} (Ctrl-C drains and exits)", flush=True
    )
    try:
        # start() already ran; serve_forever re-enters it as a no-op and
        # blocks until a signal arrives, then drains admitted jobs.
        server.serve_forever()
    finally:
        stats = service.stats()
        print(f"service: {stats.as_dict()}")
    print("drained; bye")
    return 0


def _cmd_generate(args) -> int:
    cfg = _pipeline_config(args)
    sample_cfg = cfg.sample
    if args.style:
        sample_cfg = sample_cfg.replace(style=args.style)
    if args.count is not None:
        sample_cfg = sample_cfg.replace(count=args.count)
    cfg = cfg.replace(sample=sample_cfg)
    pipeline = _build_pipeline(args, cfg)
    result = pipeline.sample().legalize().score()
    legality = result.legality
    print(
        f"generated {legality.total}, legal {len(legality.legal)} "
        f"({legality.legality:.0%}); diversity "
        f"{result.scores.get('diversity', 0.0):.3f}"
    )
    if args.show and len(result.library):
        print(ascii_art(result.library[0].topology, max_size=48))
    if args.output and len(result.library):
        result = pipeline.persist(result, output=args.output)
        print(f"library saved to {result.output_path}")
    return 0 if len(result.library) else 1


def _cmd_extend(args) -> int:
    cfg = _pipeline_config(args)
    sample_cfg = cfg.sample
    if args.style:
        sample_cfg = sample_cfg.replace(style=args.style)
    if args.count is not None:
        sample_cfg = sample_cfg.replace(count=args.count)
    elif not args.config:
        sample_cfg = sample_cfg.replace(count=1)  # old extend default
    if args.method:
        sample_cfg = sample_cfg.replace(extend_method=args.method)
    sample_cfg = sample_cfg.replace(
        extend_size=args.size or sample_cfg.extend_size or 256
    )
    cfg = cfg.replace(sample=sample_cfg)
    pipeline = _build_pipeline(args, cfg)
    result = pipeline.extend().legalize().score()
    legality = result.legality
    size = cfg.sample.extend_size
    print(
        f"extended {legality.total} pattern(s) to {size}x{size} via "
        f"{cfg.sample.extend_method}-painting; legal {len(legality.legal)} "
        f"({legality.legality:.0%})"
    )
    if args.output and len(result.library):
        result = pipeline.persist(result, output=args.output)
        print(f"library saved to {result.output_path}")
    return 0 if len(result.library) else 1


def _cmd_evaluate(args) -> int:
    cfg = _pipeline_config(args)
    pipeline = _build_pipeline(args, cfg)
    library = load_library(args.library)
    result = pipeline.with_library(library).score()
    print(f"library {library.name!r}: {result.scores['stats']}")
    for style in library.styles():
        sub = library.filter_style(style)
        print(f"  {style}: {library_stats(sub).as_dict()}")
    return 0


def _format_labels(labels) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels.items()) + "}"


def _render_stats(path) -> int:
    """Render one metrics snapshot file (JSON or Prometheus text)."""
    import json

    from repro.obs.export import ExpositionError, parse_exposition

    if not path.exists():
        print(f"no such snapshot: {path}", file=sys.stderr)
        return 2
    text = path.read_text()
    if path.suffix == ".prom" or text.lstrip().startswith("#"):
        try:
            families = parse_exposition(text)
        except ExpositionError as exc:
            print(f"malformed exposition: {exc}", file=sys.stderr)
            return 1
        print(f"{path}: {len(families)} metric(s) [prometheus text]")
        for name, family in families.items():
            kind = family["type"]
            if kind == "histogram":
                observed = sum(
                    int(value)
                    for sample, _, value in family["samples"]
                    if sample.endswith("_count")
                )
                print(f"  {name} ({kind}): {observed} observation(s)")
            else:
                for sample, labels, value in family["samples"]:
                    print(
                        f"  {sample}{_format_labels(labels)} = {value:g}"
                    )
        return 0
    try:
        snapshot = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"malformed snapshot JSON: {exc}", file=sys.stderr)
        return 1
    metrics = snapshot.get("metrics", [])
    print(f"{path}: {len(metrics)} metric(s) [json snapshot]")
    for metric in metrics:
        name, kind = metric["name"], metric["type"]
        for series in metric.get("series", []):
            tag = f"  {name}{_format_labels(series.get('labels'))}"
            if kind == "histogram":
                parts = [
                    f"count={series['count']}",
                    f"sum={series['sum']:.4g}",
                ]
                for p in ("p50", "p95", "p99"):
                    if p in series:
                        parts.append(f"{p}={series[p]:.4g}")
                print(f"{tag}: " + " ".join(parts))
            else:
                print(f"{tag} = {series['value']:g}")
    return 0


def _cmd_stats(args) -> int:
    """One-shot snapshot summary, or a --watch SECS live dashboard."""
    import time
    from pathlib import Path

    path = Path(args.snapshot)
    if args.watch is None:
        return _render_stats(path)
    if args.watch <= 0:
        print("--watch needs a positive number of seconds", file=sys.stderr)
        return 2
    rendered = 0
    status = 0
    try:
        while True:
            # Clear screen + home, like `watch(1)`, so the dashboard
            # repaints in place instead of scrolling.
            if sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(
                f"every {args.watch:g}s — "
                f"{time.strftime('%Y-%m-%d %H:%M:%S')}"
            )
            status = _render_stats(path)
            rendered += 1
            if args.iterations is not None and rendered >= args.iterations:
                break
            time.sleep(args.watch)
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:
        # Reader (e.g. `| head`) went away: that's a clean exit, but
        # Python would still flush stdout at shutdown and print a
        # spurious traceback — hand it a dead descriptor instead.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def _cmd_tune(args) -> int:
    """Offline autotune: workload spec in, tuned pipeline config out."""
    from pathlib import Path

    from repro.api.config import ConfigError
    from repro.tune import WorkloadSpec, grid_search, render_report

    try:
        spec = WorkloadSpec.load(args.workload)
    except FileNotFoundError:
        print(f"no such workload spec: {args.workload}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"bad workload spec: {exc}", file=sys.stderr)
        return 2
    cfg = _pipeline_config(args)
    tune_cfg = cfg.tune
    if args.slo is not None:
        try:
            tune_cfg = tune_cfg.replace(slo_p95=args.slo)
        except ConfigError as exc:
            print(f"bad --slo: {exc}", file=sys.stderr)
            return 2
        cfg = cfg.replace(tune=tune_cfg)
    try:
        outcome = grid_search(
            spec,
            tune=tune_cfg,
            seed=args.seed,
            gather_window=cfg.serve.gather_window,
            max_batch=cfg.serve.max_batch,
        )
    except (ConfigError, ValueError) as exc:
        print(f"tune failed: {exc}", file=sys.stderr)
        return 1
    report = render_report(outcome)
    print(report, end="")
    if args.report:
        Path(args.report).write_text(report)
        print(f"report written to {args.report}")
    if args.output:
        tuned = outcome.tuned_config(cfg)
        tuned.save(args.output)
        print(f"tuned config written to {args.output}")
        print(
            "serve it with: repro --config "
            f"{args.output} serve --requests-file ..."
        )
    return 0


def _cmd_export(args) -> int:
    cfg = _pipeline_config(args)
    pipeline = _build_pipeline(args, cfg)
    library = load_library(args.library)
    result = pipeline.with_library(library).export(args.output)
    print(f"wrote {len(library)} structure(s) to {result.gds_path}")
    return 0


_COMMANDS = {
    "chat": _cmd_chat,
    "serve": _cmd_serve,
    "generate": _cmd_generate,
    "extend": _cmd_extend,
    "evaluate": _cmd_evaluate,
    "export": _cmd_export,
    "stats": _cmd_stats,
    "tune": _cmd_tune,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
