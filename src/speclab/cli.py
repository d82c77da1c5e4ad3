"""Command-line entry point: `speclab <command> [--key=value ...] --out DIR`.

The commands are experiments.COMMANDS, and a command's flags are its
runner's parameters: `--k-list` sets `k_list`, parsed by the parser of the
parameter's annotation (PARSERS), with the parameter's default.  A `--config`
file of key=value lines sets the same parameters through the same parsers,
and a flag overrides a config line.

Every command writes <command>.csv (data; byte-identical across reruns of
the same configuration at the same BLAS thread count), <command>_verdicts.json
(verdicts and metadata, including wall time) and, where defined,
<command>.svg.  The process exits 0 if every verdict passed, 1 if a verdict
failed and 2 on a usage, config file or output error.  Every row runs on
the calling thread, and no environment variable sets a row thread count
any more.  The BLAS thread count is left to the environment and moves FEM
values in their last digits (pin it, e.g. OPENBLAS_NUM_THREADS=1, to
compare CSVs).
"""

from __future__ import annotations

import argparse
import inspect
import sys
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


# the parser of each parameter annotation, for flags and config lines alike
PARSERS = {
    int: int,
    tuple[int, ...]: _ints,
    tuple[float, ...]: _floats,
    tuple[float, float]: _rect,
}

# one description per parameter name, shared by every command that takes it
HELP = {
    "k_max": "largest eigenvalue order in the grid",
    "d_max": "largest dimension in the grid",
    "refinements": "finest refinement level of the mesh ladder",
    "theta_deg_list": "half-opening angles in degrees",
    "n_pairs": "number of seeded random pairs",
    "seed": "base seed of the pair stream",
    "n_outer": "points sampled for the outer hull",
    "n_inner": "points sampled for the inner hull",
    "k_list": "sampled eigenvalue indices",
    "rect1": "inner rectangle sides AxB",
    "rect2": "outer rectangle sides AxB",
    "k": "eigenvalue order",
    "ell_list": "cylinder lengths",
}


def _parameters(command: str) -> dict:
    """The command's parameters: name -> (parser, default)."""
    runner = experiments.COMMANDS[command.replace("-", "_")]
    return {
        key: (PARSERS[p.annotation], p.default)
        for key, p in inspect.signature(runner, eval_str=True).parameters.items()
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Neumann eigenvalue comparison experiments on convex domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in experiments.COMMANDS:
        name = command.replace("_", "-")
        cmd = sub.add_parser(name, help=f"run the {command.replace('_', ' ')} experiment")
        cmd.add_argument("--out", type=Path, default=Path("speclab_out"), help="output directory")
        cmd.add_argument("--config", type=Path, default=None, help="key=value config file")
        for key, (conv, default) in _parameters(name).items():
            cmd.add_argument(
                f"--{key.replace('_', '-')}",
                type=conv,
                default=None,
                help=f"{HELP.get(key, key.replace('_', ' '))} (default {default})",
            )
    return parser


def _load_config_file(path: Path, parameters: dict) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in parameters:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = parameters[key][0](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def parse_config(argv) -> tuple[str, dict, Path]:
    """(command, params, out) of a command line: each parameter from its
    flag, else its config line, else its default."""
    args = build_parser().parse_args(argv)
    parameters = _parameters(args.command)
    params = {key: default for key, (_, default) in parameters.items()}
    if args.config is not None:
        params.update(_load_config_file(args.config, parameters))
    for key in parameters:
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return args.command, params, args.out


def main(argv=None) -> int:
    try:
        command, params, out = parse_config(argv if argv is not None else sys.argv[1:])
    except ValueError as exc:
        print(f"speclab: {exc}", file=sys.stderr)
        return 2
    try:
        report = experiments.COMMANDS[command.replace("-", "_")](**params)
    except (ValueError, OverflowError) as exc:
        print(f"speclab: {command}: {exc}", file=sys.stderr)
        return 2
    try:
        report.write(out)
    except OSError as exc:
        print(f"speclab: {command}: cannot write {out}: {exc.strerror}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    print(f"wrote {out}/{report.command}.csv")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
