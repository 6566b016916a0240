"""Command-line entry point.

Exit codes: 0 when every claim verdict is confirmed, 1 when any check
contradicts (or cannot confirm) the expected outcome, 2 for usage or
configuration errors, 3 for output I/O failures.
"""

from __future__ import annotations

import argparse
import sys

from .audit import (MAX_GRID_POINTS, MAX_TRIALS, OUTPUT_FORMATS, AuditConfig, TOOL_VERSION,
                    emit, run_audit)
from .ga import Vector3

USAGE_ERROR = 2
IO_ERROR = 3

# CLI ingestion is forgiving: vectors within this of unit norm are
# normalized instead of rejected.
PAIR_NORM_SLACK = 1e-6


def _parse_vector(text: str) -> Vector3:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z, got {text!r}")
    try:
        v = Vector3(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector component in {text!r}: {exc}") from exc
    n = v.norm()
    if not (abs(n - 1.0) <= PAIR_NORM_SLACK):
        raise argparse.ArgumentTypeError(
            f"vector {text!r} has norm {n!r}; settings must be unit within {PAIR_NORM_SLACK:g}"
        )
    return v.normalized()


def pair_argument(text: str) -> tuple[Vector3, Vector3]:
    """Parse one --pair value of the form x1,y1,z1:x2,y2,z2."""
    halves = text.split(":")
    if len(halves) != 2:
        raise argparse.ArgumentTypeError(f"expected x1,y1,z1:x2,y2,z2, got {text!r}")
    return (_parse_vector(halves[0]), _parse_vector(halves[1]))


def angles_argument(text: str) -> tuple[float, float, float, float]:
    """Parse --angles as four comma- (or slash-) separated degrees."""
    parts = text.split(",") if "," in text else text.split("/")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected four angles A,A',B,B', got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle in {text!r}: {exc}") from exc


# The flags that take a value.  argparse reads a value that begins with "-"
# and is not a plain number, as in "--pair -1,0,0:0,1,0", for a flag of its
# own; main passes such a value to argparse in the "--flag=value" form.
_VALUE_FLAGS = ("--tol", "--p-step", "--angles", "--trials", "--seed", "--format", "--pair")


def _takes_value(arg: str) -> bool:
    """True for a value flag, or a prefix that argparse may expand to one."""
    return len(arg) > 2 and any(flag.startswith(arg) for flag in _VALUE_FLAGS)


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join each value flag to a following single-dash token with "="."""
    out: list[str] = []
    for arg in argv:
        if out and _takes_value(out[-1]) and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    d = AuditConfig()
    parser = argparse.ArgumentParser(
        prog="g3bell",
        description="Audit the trivector hidden-variable correlation model: "
                    "grade content of its expectation functionals, normalization "
                    "of the directed measure, and CHSH bounds of its scalarizations.",
    )
    parser.add_argument("--tol", type=float, default=d.tolerance, dest="tolerance", metavar="TOL",
                        help=f"audit tolerance (default {d.tolerance:g})")
    parser.add_argument("--p-step", type=float, default=d.p_step, dest="p_step",
                        help=f"p-grid step in (0, 1], at most {MAX_GRID_POINTS} points "
                             f"(default {d.p_step:g})")
    parser.add_argument("--angles", type=angles_argument, default=d.angles_deg,
                        dest="angles_deg", metavar="A,A',B,B'",
                        help="CHSH setting angles in degrees, e1-e2 plane "
                             f"(default {','.join(f'{x:g}' for x in d.angles_deg)})")
    parser.add_argument("--trials", type=int, default=d.trials,
                        help=f"random CHSH scenarios, at most {MAX_TRIALS} (default {d.trials})")
    parser.add_argument("--seed", type=int, default=d.seed,
                        help=f"seed for the scenario sampler (default {d.seed})")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default=d.output_format,
                        dest="output_format",
                        help=f"report format (default {d.output_format})")
    parser.add_argument("--pair", type=pair_argument, action="append", default=[],
                        dest="extra_pairs", metavar="x1,y1,z1:x2,y2,z2",
                        help="extra setting pair to audit; repeatable")
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        config = AuditConfig(**vars(args))
    except ValueError as exc:
        print(f"g3bell: error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    report = run_audit(config)
    document = emit(report)
    try:
        sys.stdout.write(document)
        sys.stdout.flush()
    except OSError as exc:
        print(f"g3bell: output failure: {exc}", file=sys.stderr)
        return IO_ERROR
    return 0 if report.all_confirmed() else 1


if __name__ == "__main__":
    sys.exit(main())
