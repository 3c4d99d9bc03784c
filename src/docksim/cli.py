"""Command-line front end.

    docksim <command> --scenario <path> --out <dir> [--seed <u64>] [--resolution <float>]

Commands: mechanism, envelope, calibrate, couple, loads, assembly.
Exit codes: 0 success, 2 scenario schema violation (error JSON carries the
dotted field path), 3 analysis error (error JSON carries the module error
payload). Bad flags are schema violations too: `$.seed`, `$.resolution`,
and `$.out` when the output directory cannot be created (for example, it
names an existing file) or an artifact cannot be written there; a failed
run leaves the output directory as it was.
Set DOCKSIM_LOG=debug|info|warning|error for stderr verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import DocksimError, ScenarioError
from .scenario import COMMANDS, load_scenario, run

log = logging.getLogger("docksim")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ANALYSIS = 3


def _configure_logging() -> None:
    level_name = os.environ.get("DOCKSIM_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _error_payload(err: DocksimError) -> dict:
    if isinstance(err, ScenarioError):
        return {
            "error": {
                "exit_code": EXIT_SCHEMA,
                "kind": "schema",
                "path": err.path,
                "message": err.reason,
            }
        }
    payload = {
        k: v for k, v in vars(err).items()
        if isinstance(v, (int, float, str, bool, type(None)))
    }
    return {
        "error": {
            "exit_code": EXIT_ANALYSIS,
            "kind": "analysis",
            "error_type": type(err).__name__,
            "message": str(err),
            "payload": payload,
        }
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docksim",
        description="Deterministic simulation and analysis for a genderless "
                    "three-fold symmetric docking interface.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=_flag_value, default=None,
                        help="optional seed recorded in report metadata")
    parser.add_argument("--resolution", type=_flag_value, default=None,
                        help="override envelope angular resolution (degrees)")
    return parser


def _flag_value(text: str):
    """The number a flag's text spells, else the text: run() reads it like
    the scenario field it stands for, so a bad one is a schema error."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


_VALUE_FLAGS = ("--seed", "--resolution")


def _joined(argv: list[str]) -> list[str]:
    """argv with each --seed and --resolution joined to its next token as
    `--flag=value`, so that a value starting with '-' (such as -inf) stays
    a value and is not read as an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    try:
        scenario = load_scenario(args.scenario)
        artifacts = run(args.command, scenario, args.out,
                        seed=args.seed, resolution=args.resolution)
    except ScenarioError as err:
        log.error("schema violation at %s: %s", err.path, err.reason)
        print(json.dumps(_error_payload(err), indent=2, sort_keys=True))
        return EXIT_SCHEMA
    except DocksimError as err:
        log.error("analysis error: %s", err)
        print(json.dumps(_error_payload(err), indent=2, sort_keys=True))
        return EXIT_ANALYSIS
    for name in artifacts:
        log.info("wrote %s", os.path.join(args.out, name))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
