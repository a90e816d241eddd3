"""Command-line surface.

Commands: validate, fm, fm-profile, k0q, kstable, telescope, export-dot.
Each command returns a status, and the status alone sets the exit code:
ok -> 0, invalid -> 1 (a parse or validation failure, or input the command
refuses), inconclusive -> 2 (inconclusive at the level budget, so scripts
can branch on it).  A usage error (an unknown command, a missing or
malformed flag) also exits 1.  Exit 3 marks an internal invariant violation.
Every refusal of a flag's value names that flag as its locus, and only this
module names flags: the engine and `io` raise plain errors, which the
command that called them turns into the refusal at its flag.

Reports are deterministic: identical input and flags produce byte-identical
output, so the timing block counts levels instead of wall-clock time: the
levels the call builds one after another.  That is the prefix for
`validate`, `kstable` and `telescope`, whose searches jump through powers of
the tail; for `fm`, `fm-profile` and `k0q`, the levels their unroll held, to
the first repeat or the horizon when inconclusive (none for an even `fm`
degree); the horizon for `export-dot`; and 0 for a refused input.

`COMMANDS` is the one command table: each name maps to its run function, its
help text and its own flags, and the flag reader, the parser and the
dispatch all read it.  A well-formed call (exact `--flag value` pairs of the
named command's flags) is read from the table alone and never imports
argparse; help, version, a missing or unknown command, a usage error and
every other spelling build the `afk` parser with every command's subparser,
so their text is argparse's own.  A command imports its engine (`colimit`
for fm, fm-profile and k0q, `kstability` for kstable and telescope) when it
runs, so a cold call loads only the modules its command needs.

A JSON report is byte for byte `json.dumps(report, sort_keys=True, indent=2)`
and a newline, for the types a report holds: dicts with str keys, lists,
tuples, str, int, bool and None; any other type raises TypeError.  `json`
with an indent never uses its C encoder, so `_json_chunks` writes the text
itself: pieces appended to one list, joined once.  One value comes already
quoted: `export-dot`'s `dot` is an `io.JSONText`, the JSON string literal of
the DOT text, which the writer copies as it is, so a JSON report is
`json.dumps` of the report with that value read back by `json.loads`.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

from . import __version__
from .diagram import DEFAULT_BUDGET, InjectivityRequired
from .io import (
    JSONText,
    ParseError,
    export_dot,
    from_diagram,
    input_digest,
    parse,
    to_diagram,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_INTERNAL = 3

EXIT_BY_STATUS = {"ok": EXIT_OK, "invalid": EXIT_INVALID, "inconclusive": EXIT_INCONCLUSIVE}


_SHARED_FLAGS = (  # every command's flags before its own: (name, add_argument options)
    ("--input", {"required": True, "help": "path to a diagram JSON file, or - for stdin"}),
    ("--budget", {"type": int, "default": None, "help": f"max levels to materialize (default {DEFAULT_BUDGET}; AFK_BUDGET overrides)"}),
    ("--format", {"choices": ("json", "text"), "default": "json", "help": "report format"}),
)


def _read_flags(argv: list[str]) -> Optional[SimpleNamespace]:
    """The flags of a well-formed call, read from `COMMANDS` alone; None for any other argv.

    Well formed: `argv[0]` names a command and the rest is exact `--flag
    value` pairs of its flags, each flag once and every required one given,
    no value starting with `-` but a lone `-`, and each value accepted by its
    flag's type and choices.  The `afk` parser reads such a call to the same
    namespace (such a value is never an option to it, and each dest is
    derived as argparse derives it).  Abbreviations, `--flag=value`, repeated
    flags, negative numbers, help, version and usage errors go to that parser.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:  # a repeated flag
        return None
    args = {"command": argv[0]}
    for flag, options in _SHARED_FLAGS + command.flags:
        dest = options.get("dest", flag[2:].replace("-", "_"))
        value = given.pop(flag, None)
        if value is None:
            if options.get("required"):
                return None
            args[dest] = options.get("default")
            continue
        if value.startswith("-") and value != "-":
            return None
        try:
            value = options.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in options.get("choices", (value,)):
            return None
        args[dest] = value
    return None if given else SimpleNamespace(**args)  # a flag left over is not the command's


def _build_parser() -> argparse.ArgumentParser:
    """The `afk` parser, with one subparser for every command.

    `main` builds it only for an argv `_read_flags` does not read: help,
    version, a missing or unknown command, a usage error or an unusual
    spelling, so their text is argparse's own.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Exits 1 on a usage error: exit 2 means inconclusive at the budget."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="afk", description="Nonstable K-theory of AF-algebras from Bratteli diagrams, in exact arithmetic.")
    parser.add_argument("--version", action="version", version=f"afk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for flag, options in _SHARED_FLAGS + command.flags:
            subparser.add_argument(flag, **options)
    return parser


def _resolve_budget(args) -> int:
    """The flag, else AFK_BUDGET, else the default; a bad value names where it came from."""
    budget, locus = args.budget, "--budget"
    if budget is None:
        env = os.environ.get("AFK_BUDGET")
        if env is None:
            return DEFAULT_BUDGET
        locus = "AFK_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise ParseError(locus, f"not an integer: {env!r}") from None
    if budget < 1:
        raise ParseError(locus, f"must be at least 1, got {budget}")
    return budget


def _check_degree_flags(args) -> None:
    """Degrees and dimensions start at 1; reject the rest with the flag as locus."""
    for dest in ("m", "max_m", "min_dim", "degree"):
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise ParseError("--" + dest.replace("_", "-"), f"must be at least 1, got {value}")


def _witness_payload(w) -> dict:
    return {
        "k": w.k,
        "start_level": w.start_level,
        "node_path": list(w.node_path),
        "cycle": {"period": w.cycle_period, "summands": list(w.cycle_summands)},
        "kind": w.kind,
    }


def _colimit_payload(res) -> dict:
    out = {
        "dimension": res.dimension,
        "exact": res.exact,
        "stabilized_at": res.stabilized_at,
        "budget_exceeded": not res.exact,
    }
    if res.note:
        out["note"] = res.note
    return out


def _levels_used(system, diagram, budget: int) -> int:
    """Levels a truncated system holds; the horizon when its tail ran out of levels."""
    return diagram.horizon(budget) if system.budget_exceeded else system.levels


def _report(command: str, digest: str, flags: dict, status: str, result: dict, levels_used: int, budget: int) -> dict:
    return {
        "tool": {"name": "afk", "version": __version__},
        "command": command,
        "input_digest": digest,
        "flags": flags,
        "status": status,
        "result": result,
        "timing": {"budget_levels": budget, "levels_materialized": levels_used},
    }


_INT = frozenset((int,))


def _json_chunks(value, out: list, pad: str) -> None:
    """Append `json.dumps(value, sort_keys=True, indent=2)` to `out` in pieces; `pad` is "\n" plus the indent."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is dict:
        lead, inner = "{" + pad + "  ", pad + "  "
        for key, item in sorted(value.items()):
            out.append(lead + encode_basestring_ascii(key) + ": ")  # a key that is no str raises TypeError
            _json_chunks(item, out, inner)
            lead = "," + inner
        out.append(pad + "}" if value else "{}")
    elif kind is list or kind is tuple:
        lead, inner = "[" + pad + "  ", pad + "  "
        if value and _INT.issuperset(map(type, value)):  # an all-int list in one join
            out += lead, ("," + inner).join(map(int.__repr__, value)), pad + "]"
            return
        for item in value:
            out.append(lead)
            _json_chunks(item, out, inner)
            lead = "," + inner
        out.append(pad + "]" if value else "[]")
    elif kind is JSONText:  # checked last, so no other value pays for it
        out.append(value)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_json(report: dict) -> None:
    out: list = []
    _json_chunks(report, out, "\n")
    out.append("\n")
    sys.stdout.write("".join(out))  # one join: a large string is copied once, not once per level


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _write_json(report)
    else:
        sys.stdout.write(_render_text(report))


def _render_text(report: dict) -> str:
    lines = [
        f"afk {report['tool']['version']} — {report['command']}",
        f"input:  {report['input_digest']}",
        f"status: {report['status']}",
    ]
    result = report["result"]

    def fmt_dim(block: dict, label: str) -> list[str]:
        value = f"{block['dimension']} (exact)" if block["exact"] else "inconclusive (budget exceeded)"
        out = [f"{label}: {value}"]
        if block.get("stabilized_at") is not None:
            out.append(f"  stabilized at level {block['stabilized_at']}")
        if block.get("note"):
            out.append(f"  note: {block['note']}")
        return out

    cmd = report["command"]
    if cmd == "validate":
        lines.append(f"valid:     {result['valid']}")
        lines.append(f"injective: {result['injective']}")
        if result["edge_unital"]:
            lines.append("unital edges: " + " ".join(
                f"{i + 1}:{'yes' if u else 'no'}" for i, u in enumerate(result["edge_unital"])
            ))
        for p in result["problems"]:
            lines.append(f"problem: {p['message']}")
    elif "problems" in result:  # the command refused invalid or non-injective input
        lines += [f"problem: {p['message']}" for p in result["problems"]]
    elif cmd == "fm":
        lines += fmt_dim(result, f"F_{result['m']} dimension")
        for k, mat in enumerate(result.get("maps", []), start=1):
            lines.append(f"  map {k} -> {k + 1}: {mat}")
    elif cmd == "fm-profile":
        for row in result["profile"]:
            lines.append(f"m={row['m']}: {row['dimension'] if row['exact'] else 'inconclusive'}")
    elif cmd == "k0q":
        lines += fmt_dim(result, "K0 rational rank")
    elif cmd == "kstable":
        lines.append(f"verdict: {result['verdict']}")
        if result.get("witness"):
            w = result["witness"]
            lines.append(
                f"witness: K={w['k']} from level {w['start_level']} "
                f"(cycle period {w['cycle']['period']}, kind {w['kind']})"
            )
        if result.get("certificate"):
            for entry in result["certificate"]:
                lines.append(f"certified m={entry['m']} via cuts {entry['cuts']}")
    elif cmd == "telescope":
        lines.append(f"outcome: {result['outcome']}")
        if result.get("witness"):
            w = result["witness"]
            lines.append(f"witness: K={w['k']} from level {w['start_level']}")
        if result.get("diagram"):
            lines.append("diagram: " + json.dumps(result["diagram"], sort_keys=True))
    elif cmd == "export-dot":
        return result["dot"]
    return "\n".join(lines) + "\n"


def _read_input(path: str) -> str:
    if path == "-":
        try:  # strict UTF-8, as for a file: a lone surrogate does not encode back
            text = sys.stdin.read()
            text.encode("utf-8")
        except UnicodeError as exc:
            raise ParseError(path, str(exc)) from None
        return text
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, str(exc)) from None


# Each command maps (args, diagram, budget) to (status, result, levels materialized).


def _validate(args, diagram, budget):
    v = diagram.validation
    result = {
        "valid": v.ok,
        "injective": v.injective,
        "edge_unital": list(v.edge_unital),
        "problems": [p._asdict() for p in v.problems],
    }
    return ("ok" if v.ok else "invalid"), result, diagram.prefix_len


def _profile_systems(diagram, degrees, budget):
    """`colimit.profile_systems`, with an unroll past memory refused at `--budget`."""
    from .colimit import profile_systems

    try:
        return profile_systems(diagram, degrees, budget)
    except MemoryError:
        pass  # refused below, once the traceback that holds the levels unrolled is freed
    raise ParseError("--budget", "the levels up to the budget do not fit in memory; ask for a smaller --budget")


def _fm(args, diagram, budget):
    [(m, system, res)] = _profile_systems(diagram, (args.m,), budget)
    result = _colimit_payload(res)
    result["m"] = m
    levels_used = 0
    if system is not None:
        levels_used = _levels_used(system, diagram, budget)
        result["dims"] = list(system.dims)
        result["maps"] = [mat.to_rows() for mat in system.maps]
        if system.cycle_start is not None:
            result["cycle"] = {"start": system.cycle_start, "period": system.period}
    return ("ok" if res.exact else "inconclusive"), result, levels_used


def _fm_profile(args, diagram, budget):
    try:
        degrees = tuple(range(1, args.max_m + 1))
    except (OverflowError, MemoryError):  # past a tuple's length or past memory: the engine never runs
        raise ParseError("--max-m", "too many degrees to list; ask for a smaller --max-m") from None
    rows = _profile_systems(diagram, degrees, budget)
    profile = [
        {
            "m": m,
            "dimension": res.dimension,
            "exact": res.exact,
            "stabilized_at": res.stabilized_at,
            "budget_exceeded": not res.exact,
        }
        for m, _, res in rows
    ]
    levels_used = max((_levels_used(s, diagram, budget) for _, s, _ in rows if s is not None), default=0)
    status = "ok" if all(res.exact for _, _, res in rows) else "inconclusive"
    return status, {"profile": profile}, levels_used


def _k0q(args, diagram, budget):
    [(_, system, res)] = _profile_systems(diagram, (1,), budget)
    return ("ok" if res.exact else "inconclusive"), _colimit_payload(res), _levels_used(system, diagram, budget)


def _kstable(args, diagram, budget):
    from .kstability import classify

    verdict = classify(diagram)
    result: dict[str, Any] = {"verdict": verdict.status}
    if verdict.witness is not None:
        result["witness"] = _witness_payload(verdict.witness)
    if verdict.certificate is not None:
        result["certificate"] = [{"m": m, "cuts": list(cuts)} for m, cuts in verdict.certificate]
    return "ok", result, diagram.prefix_len


def _telescope(args, diagram, budget):
    from .kstability import KChainWitness, telescope

    try:
        out = telescope(diagram, args.min_dim)
    except InjectivityRequired:
        raise
    except ValueError:  # past the int-to-str digit limit, met before the first level kept is built
        raise ParseError("--min-dim", "the telescoped first level has a summand size too long to print; ask for a smaller --min-dim") from None
    if isinstance(out, KChainWitness):
        return "ok", {"outcome": "infinite-chain", "witness": _witness_payload(out)}, diagram.prefix_len
    return "ok", {"outcome": "telescoped", "min_dim": args.min_dim, "diagram": from_diagram(out)}, diagram.prefix_len


def _export_dot(args, diagram, budget):
    try:
        return "ok", {"dot": export_dot(diagram, degree=args.degree, budget=budget, quoted=args.format == "json")}, diagram.horizon(budget)
    except ValueError as exc:  # a size past the int-to-str digit limit, named by its level
        raise ParseError("--budget", f"{exc}; draw fewer levels") from None
    except MemoryError:
        pass  # refused below, once the traceback that holds the levels drawn is freed
    raise ParseError("--budget", "the levels up to the budget do not fit in memory; draw fewer levels")


class Command(NamedTuple):
    run: Callable  # (args, diagram, budget) -> (status, result, levels materialized)
    help: str
    flags: tuple = ()  # the command's own flags: (name, add_argument options)


COMMANDS = {
    "validate": Command(_validate, "check the diagram's structural constraints"),
    "fm": Command(_fm, "dimension of one homotopy degree", (
        ("--m", {"type": int, "required": True, "help": "degree (even degrees vanish)"}),
    )),
    "fm-profile": Command(_fm_profile, "dimensions for degrees 1..max-m", (
        ("--max-m", {"type": int, "required": True, "dest": "max_m"}),
    )),
    "k0q": Command(_k0q, "rank of rational K0 (untruncated colimit)"),
    "kstable": Command(_kstable, "decide K-stability"),
    "telescope": Command(_telescope, "re-present with min summand size >= min-dim", (
        ("--min-dim", {"type": int, "required": True, "dest": "min_dim"}),
    )),
    "export-dot": Command(_export_dot, "render the diagram as DOT", (
        ("--degree", {"type": int, "default": None, "help": "label nodes with degree-m survival instead of sizes"}),
    )),
}


def _dispatch(args) -> int:
    budget = _resolve_budget(args)
    _check_degree_flags(args)
    doc = parse(_read_input(args.input))
    diagram = to_diagram(doc)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "input", "format")}
    flags["budget"] = budget
    problems = None
    if args.command != "validate" and not diagram.validation.ok:
        problems = [p._asdict() for p in diagram.validation.problems]
    else:
        try:
            status, result, levels_used = COMMANDS[args.command].run(args, diagram, budget)
        except InjectivityRequired as exc:
            problems = [{"kind": "injectivity-required", "message": str(exc)}]
    if problems is not None:  # the command refused the input
        status, result, levels_used = "invalid", {"problems": problems}, 0
    _emit(_report(args.command, input_digest(doc), flags, status, result, levels_used, budget), args.format)
    return EXIT_BY_STATUS[status]


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_flags(argv) or _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        report = {
            "tool": {"name": "afk", "version": __version__},
            "command": args.command,
            "status": "invalid",
            "error": {"locus": exc.locus, "message": exc.reason},
        }
        if args.format == "json":
            _write_json(report)
        else:
            sys.stdout.write(f"afk {__version__} — {args.command}\nstatus: invalid\nerror at {exc.locus}: {exc.reason}\n")
        return EXIT_INVALID
    except BrokenPipeError:  # downstream closed the pipe; not our failure
        return EXIT_OK
    except Exception as exc:  # internal invariant violation
        report = {
            "tool": {"name": "afk", "version": __version__},
            "command": getattr(args, "command", None),
            "status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _write_json(report)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
