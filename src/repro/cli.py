"""Command-line interface: ``python -m repro <command>``.

Commands:

``info``
    Version, system inventory, and the paper's key constants.
``tables``
    Print the analytic reproductions of Tables 1-3.
``demo``
    Run a short self-contained windtunnel session and write a stereo
    frame.
``serve``
    Start a windtunnel server on a synthetic dataset and block, so real
    clients (or another machine) can connect.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Distributed Virtual Windtunnel (SC 1992), reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and system inventory")
    sub.add_parser("tables", help="print the paper's Tables 1-3 (analytic)")

    demo = sub.add_parser("demo", help="run a short windtunnel session")
    demo.add_argument("--shape", type=int, nargs=3, default=(24, 24, 12),
                      metavar=("NI", "NJ", "NK"))
    demo.add_argument("--timesteps", type=int, default=12)
    demo.add_argument("--frames", type=int, default=8)
    demo.add_argument("--output", default="demo_frame.ppm")
    demo.add_argument("--mono", action="store_true", help="disable stereo")

    serve = sub.add_parser("serve", help="start a windtunnel server and block")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--shape", type=int, nargs=3, default=(32, 32, 16))
    serve.add_argument("--timesteps", type=int, default=16)
    serve.add_argument("--speed", type=float, default=4.0,
                       help="playback speed, timesteps/second")
    return parser


def _cmd_info(args, out) -> int:
    import repro

    print(f"repro {repro.__version__} — The Distributed Virtual Windtunnel "
          f"(Bryson & Gerald-Yamasaki, SC 1992)", file=out)
    print("subsystems: core tracers grid flow dlib netsim diskio vr render perf",
          file=out)
    print("paper constants: 1/8 s frame budget; 10 fps target; 12 bytes/point;",
          file=out)
    print("  tapered cylinder 64x64x32 = 131,072 points, 1,572,864 B/timestep",
          file=out)
    return 0


def _cmd_tables(args, out) -> int:
    from repro.diskio import table2_rows
    from repro.netsim import table1_rows
    from repro.perf import table3_rows

    print("Table 1 — network constraints (10 fps, 12 B/point):", file=out)
    for r in table1_rows():
        print(f"  {r['particles']:>9,} particles  {r['bytes_transferred']:>11,} B"
              f"  {r['required_mbps']:8.3f} MB/s", file=out)
    print("\nTable 2 — disk constraints (10 fps):", file=out)
    for r in table2_rows():
        print(f"  {r['points']:>12,} pts  {r['bytes_per_timestep']:>13,} B/step"
              f"  {r['timesteps_per_gb']:>5}/GB  {r['required_mbps']:9.2f} MB/s",
              file=out)
    print("\nTable 3 — compute extrapolation (20k-point benchmark):", file=out)
    for r in table3_rows():
        print(f"  {r['benchmark_seconds']:5.2f} s  ->  "
              f"{r['max_particles']:>7,} particles  "
              f"({r['streamlines_200pt']} x 200-pt streamlines)", file=out)
    return 0


def _cmd_demo(args, out) -> int:
    from repro import WindtunnelClient, WindtunnelServer, tapered_cylinder_dataset
    from repro.util import look_at

    print(f"synthesizing {tuple(args.shape)} x {args.timesteps} dataset...",
          file=out)
    dataset = tapered_cylinder_dataset(
        shape=tuple(args.shape), n_timesteps=args.timesteps, dt=0.25
    )
    head = look_at([2.0, -9.0, 2.0], [3.0, 0.0, 2.0], up=[0, 0, 1])
    with WindtunnelServer(dataset, time_speed=4.0) as server:
        with WindtunnelClient(
            *server.address, width=480, height=360, stereo=not args.mono
        ) as client:
            client.add_rake(
                [1.2, -1.5, 0.8], [1.2, 1.5, 2.8], n_seeds=10, kind="streakline"
            )
            client.time_control("pause")
            fb = None
            for i in range(args.frames):
                client.time_control("step", 1)
                fb = client.frame(head, hand_position=[1.2, 0.0, 1.8])
            fb.save_ppm(args.output)
            print(f"wrote {args.output}", file=out)
            print(client.timer.report(), file=out)
    return 0


def _cmd_serve(args, out) -> int:  # pragma: no cover - blocks forever
    from repro import WindtunnelServer, tapered_cylinder_dataset

    dataset = tapered_cylinder_dataset(
        shape=tuple(args.shape), n_timesteps=args.timesteps, dt=0.25
    )
    server = WindtunnelServer(
        dataset, host=args.host, port=args.port, time_speed=args.speed
    )
    server.start()
    host, port = server.address
    print(f"windtunnel server on {host}:{port} — Ctrl-C to stop", file=out)
    try:
        import time

        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("stopping", file=out)
    finally:
        server.stop()
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "tables": _cmd_tables,
    "demo": _cmd_demo,
    "serve": _cmd_serve,
}


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
