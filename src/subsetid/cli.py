"""Command line front end.

Subcommands: ``families`` prints amplitudes of the built-in state families,
``parse`` checks a script without running it, ``simulate`` and ``certify``
execute the matching statements of a script, and ``verify-paper`` runs the
full reproduction suite with one line per criterion.

Exit codes: 0 on success and for ``-h``/``--help``, which prints every
command and option with its default; 1 when execution or verification
fails; 2 for usage problems (including an unreadable script, a tolerance
or dimension guard out of range and an ``--output`` that cannot be
written) and script syntax errors; 3 when a resource guard trips or memory
runs out. A command line that the table of commands and options refuses
prints a ``usage:`` line and then ``subsetid[ <command>]: error: ...`` on
stderr. In structured mode failures, unexpected ones included, are
reported as an error object on the output stream (when it can be written)
so callers never have to parse diagnostics out of free text or a traceback.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from .engine import execute, format_float, render_structured, render_text
from .errors import ResourceLimitError, ScriptError, SettingError
from .families import bell_basis, check_ges_size, ges_basis, ghz3_basis, ghz4_basis
from .script import parse as parse_script
from .statespace import ATOL
from .subsets import DEFAULT_MAX_DIM, TOLERANCE_FLOOR

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


def _read_script(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    return Path(arg).read_text(encoding="utf-8")


def _emit(text: str, output: str | None) -> int:
    """Write to stdout or to ``output``; an unwritable file gives EXIT_USAGE, said on stderr."""
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as e:
        print(f"error: cannot write output {output!r}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_families(args) -> int:
    params = list(args.params)
    if args.family == "ges":
        if not params:
            print("error: ges needs a dimension", file=sys.stderr)
            return EXIT_USAGE
        d = params.pop(0)
        try:
            check_ges_size(d, DEFAULT_MAX_DIM)
            state_set = ges_basis(d)
        except ResourceLimitError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_RESOURCE
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
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
    except (OSError, UnicodeDecodeError, ScriptError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    n = len(script.statements)
    print(f"ok: {n} statement{'s' if n != 1 else ''}")
    return EXIT_OK


def _cmd_run(args) -> int:
    structured = args.format == "structured"

    def fail(exc: Exception, code: int) -> int:
        message = str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        if structured:
            error = {"error": {"type": type(exc).__name__, "message": message}}
            if _emit(render_structured(error), args.output) != EXIT_OK:
                return EXIT_USAGE
        return code

    try:
        text = _read_script(args.script)
    except (OSError, UnicodeDecodeError) as e:
        return fail(e, EXIT_USAGE)
    try:
        # each of simulate and certify runs the statements named like it
        report = execute(text, tolerance=args.tolerance, max_dim=args.max_dim, only={args.command})
        rendered = (render_structured if structured else render_text)(report)
    except (ScriptError, SettingError) as e:
        return fail(e, EXIT_USAGE)
    except (ResourceLimitError, MemoryError) as e:
        return fail(e, EXIT_RESOURCE)
    except Exception as e:  # noqa: BLE001 - every failure gets an exit code, never a traceback
        return fail(e, EXIT_FAILURE)
    return _emit(rendered, args.output)


def _cmd_verify(_args) -> int:
    # imported here: the suite's module is large, and no other command needs it
    from .acceptance import run_all

    results = run_all()
    for cid, title, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {cid} {title}: {detail}")
    failed = [cid for cid, _, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_FAILURE if failed else EXIT_OK


# A converter is a callable, or a tuple of the admitted choices.
# flag: (converter, default, metavar, help)
_RUN_OPTIONS = {
    "--tolerance": (float, ATOL, "REAL", "numeric tolerance for predicates, finite and at least "
                    f"{TOLERANCE_FLOOR}, below which rounding decides the checks"),
    "--max-dim": (int, DEFAULT_MAX_DIM, "INT", "largest allowed stacked dimension, and largest "
                  "ges_basis(d) build as d**4 amplitudes"),
    "--output": (str, None, "PATH", "write the report here instead of stdout"),
    "--format": (("text", "structured"), "text", "", "report format"),
}
# command: (handler, help, positionals as (name, converter, takes every remaining
# word), options)
_SCRIPT = (("script", str, False),)
_COMMANDS = {
    "families": (_cmd_families, "print amplitudes of a built-in family; ges takes a "
                 "dimension first, and a final index selects one state",
                 (("family", ("bell", "ghz3", "ghz4", "ges"), False), ("params", int, True)), {}),
    "parse": (_cmd_parse, "syntax-check a script", _SCRIPT, {}),
    "simulate": (_cmd_run, "run the simulate statements of a script", _SCRIPT, _RUN_OPTIONS),
    "certify": (_cmd_run, "run the certify statements of a script", _SCRIPT, _RUN_OPTIONS),
    "verify-paper": (_cmd_verify, "run the full reproduction suite", (), {}),
}


class _Usage(Exception):
    """A command line the table refuses; the text is the usage line and the error."""


def _metavar(name: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name


def _usage(command: str | None = None) -> str:
    if command is None:
        return f"usage: subsetid [-h] {_metavar('', tuple(_COMMANDS))} ..."
    _, _, positionals, options = _COMMANDS[command]
    words = [f"[{_metavar(n, k)} ...]" if many else _metavar(n, k) for n, k, many in positionals]
    words += [f"[{flag} {_metavar(m, k)}]" for flag, (k, _, m, _) in options.items()]
    return " ".join(["usage: subsetid", command, "[-h]", *words])


def _help() -> str:
    lines = [_usage(), "", "exact simulation and certification of local subset identification"
             " tasks", "", "commands (script is a file, or - for standard input):"]
    for command, (_, blurb, _, _) in _COMMANDS.items():
        lines += ["  " + _usage(command).removeprefix("usage: "), "      " + blurb]
    lines += ["", "options of simulate and certify:", "  -h, --help: show this help and exit"]
    for flag, (_, default, _, blurb) in _RUN_OPTIONS.items():
        lines.append(f"  {flag}: {blurb}" + ("" if default is None else f" (default {default})"))
    return "\n".join(lines) + "\n"


def _convert(name: str, kind, value: str):
    if isinstance(kind, tuple):
        if value in kind:
            return value
        choices = ", ".join(map(repr, kind))
        raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Read ``argv`` against the command table, or return None for ``-h``.

    ``--opt value``, ``--opt=value`` and unique prefixes are accepted; the
    word after an option is its value even when it starts with ``-``; a
    word like ``-5`` is a positional; ``--`` ends the options.
    """
    command, words, given = None, [], {}
    args = iter(argv)
    try:
        for arg in args:
            if arg == "--":
                words += args
            elif arg == "-" or arg[:1] != "-" or arg[1:2].isdigit():
                words.append(arg)
            else:
                name, eq, value = arg.partition("=")
                options = _COMMANDS[command][3] if command else {}
                hits = [flag for flag in ("--help", *options) if flag.startswith(name)]
                if name == "-h" or hits == ["--help"]:
                    return None
                if len(hits) != 1:
                    raise ValueError(f"ambiguous option: {arg} could match {', '.join(hits)}"
                                     if hits else f"unrecognized arguments: {arg}")
                if not eq and (value := next(args, None)) is None:
                    raise ValueError(f"argument {hits[0]}: expected one argument")
                given[hits[0]] = _convert(hits[0], options[hits[0]][0], value)
            if command is None and words:
                command = _convert("command", tuple(_COMMANDS), words.pop(0))
        if command is None:
            raise ValueError("the following arguments are required: command")
        _, _, positionals, options = _COMMANDS[command]
        values = {f[2:].replace("-", "_"): given.get(f, spec[1]) for f, spec in options.items()}
        for name, kind, many in positionals:
            if not (words or many):
                raise ValueError(f"the following arguments are required: {name}")
            taken, words = (words, []) if many else (words[:1], words[1:])
            converted = [_convert(name, kind, w) for w in taken]
            values[name] = converted if many else converted[0]
        if words:
            raise ValueError(f"unrecognized arguments: {' '.join(words)}")
    except ValueError as e:
        prog = " ".join(filter(None, ("subsetid", command)))
        raise _Usage(f"{_usage(command)}\n{prog}: error: {e}") from None
    return SimpleNamespace(command=command, **values)


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        sys.stdout.write(_help())
        return EXIT_OK
    return _COMMANDS[args.command][0](args)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
