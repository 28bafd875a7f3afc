"""Command-line front end.

Three subcommands operate on a scenario file::

    jafs run CONFIG [--seed N] [--output-dir DIR]
    jafs certify CONFIG
    jafs sweep CONFIG --param {n_blocks,m_t} --values V1,V2,... \
        [--seeds S1,S2,...] [--output-dir DIR]

Exit codes: 0 success, 2 bad configuration, 3 failed hard design gate
(the same for all three subcommands), 4 numerical failure during
estimation or memory exhausted.  Only the seed and the output directory
can be overridden from the command line; everything else lives in the
scenario file so that runs stay reproducible from a single artifact.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .estimate import RankDeficiencyError
from .scenario import (
    SWEEP_PARAMS,
    ConfigError,
    DesignGateError,
    load_scenario,
    require_gates,
    run_certify,
    run_scenario,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DESIGN = 3
EXIT_NUMERICAL = 4


def _int_list(raw: str) -> list:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jafs",
        description="Joint angle-frequency power spectrum estimation "
        "from compressed array samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline on one scenario")
    p_run.add_argument("config", help="scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override master seed")
    p_run.add_argument("--output-dir", default=None, help="override output directory")

    p_cert = sub.add_parser("certify", help="design checks only, no simulation")
    p_cert.add_argument("config", help="scenario file")

    p_sweep = sub.add_parser("sweep", help="repeat runs over a parameter grid")
    p_sweep.add_argument("config", help="scenario file")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True, type=_int_list)
    p_sweep.add_argument("--seeds", type=_int_list, default=None,
                         help="comma-separated; defaults to the scenario seed")
    p_sweep.add_argument("--output-dir", default=None, help="override output directory")
    return parser


def _cmd_run(cfg, args) -> int:
    report = run_scenario(cfg, output_dir=args.output_dir, seed=args.seed)
    for gate in report["gates"]:
        if not gate["passed"]:
            print(f"[{gate['level']}] {gate['name']}: {gate['detail']}")
    sigma = report["sigma_n_hat"]
    if not np.isnan(sigma):
        print(f"noise power estimate: {sigma:.6g}")
    print(f"detections: {len(report['detections'])}")
    for det in report["detections"]:
        bands = ", ".join(
            f"[{lo / np.pi:+.4f}pi, {hi / np.pi:+.4f}pi]" for lo, hi in det["bands_rad"]
        )
        print(f"  {det['angle_deg']:+8.3f} deg  power {det['total_power']:.4g}  {bands}")
    total = sum(report["timings"].values())
    print(f"total time: {total:.2f} s")
    return EXIT_OK


def _cmd_certify(cfg, args) -> int:
    report = run_certify(cfg)
    for gate in report["gates"]:
        status = "pass" if gate["passed"] else "FAIL"
        print(f"gate {gate['name']} [{gate['level']}]: {status}  {gate['detail']}")
    certs = report["certificates"]
    if certs is not None:
        for key in ("virtual_ula", "sine_grid_residues"):
            c = certs[key]
            status = "pass" if c["passed"] else "fail"
            print(f"certificate {c['criterion']}: {status}  witness {c['witness']}")
    cost = report["cost"]
    print(
        f"cost: {cost['complex_normals']:.4g} complex normals drawn, "
        f"{cost['gram_flops']:.4g} Gram flops"
    )
    print(
        f"memory: {cost['block_buffer_bytes']:.4g} bytes of simulator buffers, "
        f"{report['draw_threads']} draw threads"
    )
    require_gates(report["gates"])
    return EXIT_OK


def _cmd_sweep(cfg, args) -> int:
    seeds = args.seeds if args.seeds is not None else [cfg.master_seed]
    path = run_sweep(
        cfg, args.param, args.values, seeds, output_dir=args.output_dir
    )
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "certify": _cmd_certify, "sweep": _cmd_sweep}[
        args.command
    ]
    try:
        return handler(load_scenario(args.config), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DesignGateError as exc:
        print(f"design gate failure: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    except (RankDeficiencyError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
