"""Command line front end.

Subcommands: ``families`` prints amplitudes of the built-in state families,
``parse`` checks a script without running it, ``simulate`` and ``certify``
execute the matching statements of a script, and ``verify-paper`` runs the
full reproduction suite with one line per criterion.

Exit codes: 0 on success, 1 when execution or verification fails, 2 for
usage problems (including a tolerance or dimension guard out of range) and
script syntax errors, 3 when a resource guard trips or memory runs out. In
structured mode failures, unexpected ones included, are reported as an
error object on the output stream so callers never have to parse
diagnostics out of free text or a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import execute, format_float, render_structured, render_text
from .errors import ResourceLimitError, ScriptError, SettingError
from .families import bell_basis, ges_basis, ghz3_basis, ghz4_basis
from .script import parse as parse_script
from .statespace import ATOL
from .subsets import DEFAULT_MAX_DIM

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def format_amplitude(z: complex) -> str:
    """Render one amplitude, dropping parts below 1e-12: ``0.5``, ``-0.5i``,
    ``0.25-0.25i``."""
    z = complex(z)
    re = 0.0 if abs(z.real) < 1e-12 else z.real
    im = 0.0 if abs(z.imag) < 1e-12 else z.imag
    if im == 0.0:
        return format_float(re)
    if re == 0.0:
        return format_float(im) + "i"
    sign = "+" if im > 0 else "-"
    return f"{format_float(re)}{sign}{format_float(abs(im))}i"


def _add_run_flags(parser: argparse.ArgumentParser):
    parser.add_argument("script", help="script file, or - for standard input")
    parser.add_argument(
        "--tolerance", type=float, default=ATOL, metavar="REAL",
        help=f"numeric tolerance for predicates, finite and above 0 (default {ATOL:g})",
    )
    parser.add_argument(
        "--max-dim", type=int, default=DEFAULT_MAX_DIM, metavar="INT",
        help=f"largest allowed stacked dimension (default {DEFAULT_MAX_DIM})",
    )
    parser.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="report format (default text)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetid",
        description="exact simulation and certification of local subset identification tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("families", help="print amplitudes of a built-in family")
    fam.add_argument("family", choices=("bell", "ghz3", "ghz4", "ges"))
    fam.add_argument(
        "params", nargs="*", type=int,
        help="ges takes a dimension first; a final index selects one state",
    )

    par = sub.add_parser("parse", help="syntax-check a script")
    par.add_argument("script", help="script file, or - for standard input")

    for name, blurb in (
        ("simulate", "run the simulate statements of a script"),
        ("certify", "run the certify statements of a script"),
    ):
        _add_run_flags(sub.add_parser(name, help=blurb))

    sub.add_parser("verify-paper", help="run the full reproduction suite")
    return parser


def _read_script(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    return Path(arg).read_text(encoding="utf-8")


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _cmd_families(args) -> int:
    params = list(args.params)
    if args.family == "ges":
        if not params:
            print("error: ges needs a dimension", file=sys.stderr)
            return EXIT_USAGE
        d = params.pop(0)
        if d < 2:
            print("error: ges dimension must be at least 2", file=sys.stderr)
            return EXIT_USAGE
        if d * d > DEFAULT_MAX_DIM:
            print(f"error: ges_basis({d}) exceeds the dimension guard", file=sys.stderr)
            return EXIT_RESOURCE
        state_set = ges_basis(d)
    else:
        builder = {"bell": bell_basis, "ghz3": ghz3_basis, "ghz4": ghz4_basis}[args.family]
        state_set = builder()
    if len(params) > 1:
        print("error: too many arguments", file=sys.stderr)
        return EXIT_USAGE
    indices = range(len(state_set))
    if params:
        index = params[0]
        if not 1 <= index <= len(state_set):
            print(
                f"error: index {index} out of range 1..{len(state_set)}", file=sys.stderr
            )
            return EXIT_USAGE
        indices = range(index - 1, index)
    for i in indices:
        amps = " ".join(format_amplitude(z) for z in state_set.states[i].amplitudes)
        print(f"{state_set.labels[i]}: {amps}")
    return EXIT_OK


def _cmd_parse(args) -> int:
    try:
        script = parse_script(_read_script(args.script))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ScriptError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    n = len(script.statements)
    print(f"ok: {n} statement{'s' if n != 1 else ''}")
    return EXIT_OK


def _cmd_run(args, only: set[str]) -> int:
    structured = args.format == "structured"

    def fail(exc: Exception, code: int) -> int:
        message = str(exc) or type(exc).__name__
        if structured:
            error = {"error": {"type": type(exc).__name__, "message": message}}
            _emit(render_structured(error), args.output)
        print(f"error: {message}", file=sys.stderr)
        return code

    try:
        text = _read_script(args.script)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = execute(
            text, tolerance=args.tolerance, max_dim=args.max_dim, only=only
        )
        rendered = (render_structured if structured else render_text)(report)
    except (ScriptError, SettingError) as e:
        return fail(e, EXIT_USAGE)
    except (ResourceLimitError, MemoryError) as e:
        return fail(e, EXIT_RESOURCE)
    except Exception as e:  # noqa: BLE001 - every failure gets an exit code, never a traceback
        return fail(e, EXIT_FAILURE)
    _emit(rendered, args.output)
    return EXIT_OK


def _cmd_verify(_args) -> int:
    # imported here: the suite's module is large, and no other command needs it
    from .acceptance import run_all

    results = run_all()
    for cid, title, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {cid} {title}: {detail}")
    failed = [cid for cid, _, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_FAILURE if failed else EXIT_OK


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "families":
        return _cmd_families(args)
    if args.command == "parse":
        return _cmd_parse(args)
    if args.command == "simulate":
        return _cmd_run(args, {"simulate"})
    if args.command == "certify":
        return _cmd_run(args, {"certify"})
    return _cmd_verify(args)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
