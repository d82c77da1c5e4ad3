"""Command-line entry point: `speclab <command> [--key=value ...] --out DIR`.

Every command writes <command>.csv (data; byte-identical across reruns of
the same configuration), <command>_verdicts.json (verdicts and metadata,
including wall time) and, where defined, <command>.svg.  The process exits
0 iff every verdict passed.  SPECLAB_THREADS limits worker threads for the
embarrassingly parallel rows.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import experiments


def _floats(text: str):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _ints(text: str):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _rect(text: str):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected AxB rectangle sides, got {text!r}")
    return (float(parts[0]), float(parts[1]))


# per-command option schema: name -> (type converter, help); the defaults
# are those of the experiments function
COMMANDS = {
    "constants": (
        experiments.cmd_constants,
        {
            "k_max": (int, "largest eigenvalue order in the grid"),
            "d_max": (int, "largest dimension in the grid"),
        },
    ),
    "table-mu1": (
        experiments.cmd_table_mu1,
        {"refinements": (int, "finest refinement level of the mesh ladder")},
    ),
    "rhombus-sweep": (
        experiments.cmd_rhombus_sweep,
        {
            "theta_deg_list": (_floats, "half-opening angles in degrees"),
            "refinements": (int, "finest refinement level"),
        },
    ),
    "ratio-scan": (
        experiments.cmd_ratio_scan,
        {
            "n_pairs": (int, "number of seeded random pairs"),
            "seed": (int, "base seed of the pair stream"),
            "refinements": (int, "finest refinement level"),
            "n_outer": (int, "points sampled for the outer hull"),
            "n_inner": (int, "points sampled for the inner hull"),
        },
    ),
    "weyl": (
        experiments.cmd_weyl,
        {
            "k_list": (_ints, "sampled eigenvalue indices"),
            "rect1": (_rect, "inner rectangle sides AxB"),
            "rect2": (_rect, "outer rectangle sides AxB"),
        },
    ),
    "dimension-demo": (
        experiments.cmd_dimension_demo,
        {
            "k": (int, "eigenvalue order"),
            "ell_list": (_floats, "cylinder lengths"),
        },
    ),
    "counterexamples": (experiments.cmd_counterexamples, {}),
}


@dataclass
class ExperimentConfig:
    """Validated invocation: command plus typed key=value parameters."""

    command: str
    params: dict = field(default_factory=dict)
    out: Path = Path("speclab_out")


def _defaults(runner) -> dict:
    return {
        key: param.default
        for key, param in inspect.signature(runner).parameters.items()
        if param.default is not inspect.Parameter.empty
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Neumann eigenvalue comparison experiments on convex domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, schema) in COMMANDS.items():
        defaults = _defaults(runner)
        cmd = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} experiment")
        cmd.add_argument("--out", type=Path, default=Path("speclab_out"), help="output directory")
        cmd.add_argument("--config", type=Path, default=None, help="key=value config file")
        for key, (conv, helptext) in schema.items():
            cmd.add_argument(
                f"--{key.replace('_', '-')}",
                dest=key,
                type=conv,
                default=None,
                help=f"{helptext} (default {defaults[key]})",
            )
    return parser


def _load_config_file(path: Path, schema: dict) -> dict:
    out = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in schema:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        conv = schema[key][0]
        out[key] = conv(value)
    return out


def parse_config(argv) -> ExperimentConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner, schema = COMMANDS[args.command]
    params = _defaults(runner)
    if args.config is not None:
        params.update(_load_config_file(args.config, schema))
    for key in schema:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    return ExperimentConfig(command=args.command, params=params, out=args.out)


def main(argv=None) -> int:
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
    except ValueError as exc:
        print(f"speclab: {exc}", file=sys.stderr)
        return 2
    runner, _ = COMMANDS[config.command]
    try:
        report = runner(**config.params)
    except (ValueError, OverflowError) as exc:
        print(f"speclab: {config.command}: {exc}", file=sys.stderr)
        return 2
    report.write(config.out)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {config.out}/{report.command}.csv")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
