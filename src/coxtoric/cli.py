"""Command-line front end over the verification pipeline.

Each subcommand loads a degree matrix (a JSON file or a built-in dataset),
runs one pipeline stage, and prints either a human summary or the exact
JSON report (--json). This module only parses, dispatches and prints: the
paper's checks (reproduce-paper's run report, the claims verify-paper
shows) are decided in delpezzo, beside the data they compare against.
One table, _COMMANDS, declares each command's help, arguments and
handler, each argument as data: its name and its add_argument keywords.
A valid command line builds no parser at all: its argv is read off that
data (_declarations), and argparse, given the same data, is imported
only to render help and errors, whose bytes it keeps (one command's
parser for that command's help and errors, the whole tree for top-level
help, --version and leftover arguments). The objects made by the imports
(modules, classes, functions, constants, about 13,000) are frozen once
by gc.freeze() at import, so that no collection walks them again.

Exit codes: 0 all checks pass, 1 check failure, 2 usage or input error,
3 computational guard exceeded, 4 internal error (a witness or certificate
failed its own replay; an exhausted incidence search is a check failure).
Input is read strictly: an integer field given as a float or a boolean is
an input error, and the library constructors behind the stages
(`Fan.from_index_sets`, `CoxPresentationPair.make`,
`RestrictionTable.make`) raise ValueError on such entries too.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .chambers import chamber_of, same_chamber
from .delpezzo import (REFERENCE_RAY_ROWS, claimed_transversal,
                       embedding_report, incidence_checks, incidence_targets,
                       printed_points, reproduce_paper_report, solution_json,
                       solve_transversal)
from .exact import IntMat, hermite_normal_form
from .fans import class_fan_report
from .grading import DegreeMatrix, delpezzo4, gale_dual
from .incidence import general_position_on_plane
from .monomials import (GuardExceeded, fibre_vertices, irrelevant_radical,
                        monomials_of_degree)

if TYPE_CHECKING:
    # imported where a parser is built: a valid command line needs none
    import argparse

# what the imports made lives as long as the process: frozen, the
# collector's passes never walk it again
gc.freeze()


class UsageError(Exception):
    """Bad flags or malformed input; mapped to exit code 2."""


# built-in datasets: columns of the degree matrix, in the fixed basis
_DATASETS = {
    "p2": ((1,), (1,), (1,)),
    "p1xp1": ((1, 0), (1, 0), (0, 1), (0, 1)),
}

_REFERENCE_TOKENS = {"paper-AT": REFERENCE_RAY_ROWS}


def _dumps(payload: dict) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) + "\\n",
    from a direct recursive writer: with indent set, the standard library
    runs its pure-Python encoder. Reports hold only str, int, bool, None,
    lists, tuples and str-keyed dicts; anything else raises TypeError."""
    out: list[str] = []
    _write_json(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(value, out: list[str], newline: str) -> None:
    # newline is the line break and indent of the enclosing level
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for k, item in enumerate(value):
            out.append("," + inner if k else inner)
            _write_json(item, out, inner)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("report keys must be str")
        inner = newline + "  "
        out.append("{")
        for k, key in enumerate(sorted(value)):
            out.append("," + inner if k else inner)
            out.append(encode_basestring_ascii(key) + ": ")
            _write_json(value[key], out, inner)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def integer(text: str) -> int:
    """An optional sign followed by ASCII digits, as an int. Python's int()
    also accepts '1_0', surrounding spaces and non-ASCII digits such as
    '\u0661'; those raise ValueError here. As an argparse type its name
    appears in the message: "invalid integer value"."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _load_input(args) -> tuple[DegreeMatrix, str, tuple[int, ...] | None]:
    """Degree matrix, dataset id, and optional heft from the CLI source."""
    path = getattr(args, "input", None)
    dataset = getattr(args, "dataset", None)
    if path and dataset:
        raise UsageError("give either an input file or --dataset, not both")
    if dataset:
        if dataset == "delpezzo4":
            return delpezzo4().degrees, "delpezzo4", None
        return (DegreeMatrix.make(_DATASETS[dataset]), dataset, None)
    if not path:
        raise UsageError("an input file or --dataset is required")
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read input: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"input is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise UsageError("input JSON must be an object")
    for field in ("picRank", "numGens", "columns", "labels"):
        if field not in data:
            raise UsageError(f"input JSON missing field '{field}'")
    r, n = data["picRank"], data["numGens"]
    columns, labels = data["columns"], data["labels"]
    if not (_is_int(r) and r >= 1):
        raise UsageError("picRank must be a positive integer")
    if not (_is_int(n) and n >= 1):
        raise UsageError("numGens must be a positive integer")
    if not (isinstance(columns, list)
            and all(isinstance(c, list) for c in columns)):
        raise UsageError("columns must be a list of lists")
    if len(columns) != n:
        raise UsageError("numGens does not match the number of columns")
    if any(len(c) != r for c in columns):
        raise UsageError("every column must have picRank entries")
    if not all(_is_int(x) for c in columns for x in c):
        raise UsageError("column entries must be integers")
    if not isinstance(labels, list) or len(labels) != n:
        raise UsageError("one label per column is required")
    if not all(isinstance(label, str) for label in labels):
        raise UsageError("labels must be strings")
    heft = data.get("heft")
    if heft is not None:
        if not isinstance(heft, list) or len(heft) != r:
            raise UsageError("heft must have picRank entries")
        if not all(_is_int(x) for x in heft):
            raise UsageError("heft entries must be integers")
        heft = tuple(heft)
    try:
        q = DegreeMatrix.make(columns, labels=tuple(labels))
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from e
    return q, path, heft


def _parse_class(raw: str, q: DegreeMatrix, option: str,
                 what: str) -> tuple[int, ...]:
    try:
        d = tuple(integer(x) for x in raw.split(","))
    except ValueError as e:
        raise UsageError(f"{option} must be comma-separated integers") from e
    if len(d) != q.pic_rank:
        raise UsageError(f"{what} length does not match picRank")
    return d


def _parse_degree(args, q: DegreeMatrix) -> tuple[int, ...]:
    raw = getattr(args, "degree", None)
    if raw is None:
        raise UsageError("--degree is required for this command")
    return _parse_class(raw, q, "--degree", "degree")


def _load_reference(args, width: int):
    token = getattr(args, "reference", None)
    if token is None:
        return None, None
    if token in _REFERENCE_TOKENS:
        rows, provenance = _REFERENCE_TOKENS[token], "PAPER"
    else:
        try:
            with open(token) as fh:
                data = json.load(fh)
        except OSError as e:
            raise UsageError(
                f"reference is neither a known token nor a readable file: "
                f"{e}") from e
        except json.JSONDecodeError as e:
            raise UsageError(f"reference file is not valid JSON: {e}") from e
        if isinstance(data, dict):
            data = data.get("rows")
        if not isinstance(data, list) or not data \
                or not all(isinstance(r, list) for r in data):
            raise UsageError("reference must be a JSON array of rows")
        if not all(_is_int(x) for r in data for x in r):
            raise UsageError("reference entries must be integers")
        rows, provenance = [tuple(r) for r in data], None
    if any(len(r) != width for r in rows):
        raise UsageError("reference row length does not match the kernel")
    return IntMat.from_rows(rows, cols=width), provenance


def cmd_gale(args) -> tuple[int, list[str], dict]:
    q, dataset, _ = _load_input(args)
    gale = gale_dual(q)
    # the saturated kernel basis: its columns are the rays
    kernel = IntMat.from_rows(gale.rays).transpose()
    hermite = hermite_normal_form(kernel)[0]
    payload = {
        "dataset": dataset,
        "picRank": q.pic_rank,
        "numRays": gale.num_rays,
        "rays": [list(r) for r in gale.rays],
        "kernelBasis": [list(r) for r in kernel.to_rows()],
        "hermite": [list(r) for r in hermite.to_rows()],
        "reference": None,
    }
    lines = [f"dataset: {dataset}",
             f"rays: {gale.num_rays} in Z^{gale.ambient_dim}"]
    lines += [f"  {label}: {tuple(ray)}"
              for label, ray in zip(q.labels, gale.rays)]
    code = 0
    ref, provenance = _load_reference(args, gale.num_rays)
    if ref is not None:
        ref_hermite = hermite_normal_form(ref)[0]
        match = hermite.to_rows() == ref_hermite.to_rows()
        payload["reference"] = {
            "hermite": [list(r) for r in ref_hermite.to_rows()],
            "provenance": provenance,
            "match": match,
        }
        tag = f" [{provenance}]" if provenance else ""
        lines.append(f"reference{tag} hermite match: "
                     f"{'yes' if match else 'no'}")
        code = 0 if match else 1
    return code, lines, payload


def cmd_basis(args) -> tuple[int, list[str], dict]:
    q, dataset, heft = _load_input(args)
    degree = _parse_degree(args, q)
    monos = monomials_of_degree(q, degree, heft=heft)
    payload = {
        "dataset": dataset,
        "degree": list(degree),
        "count": len(monos),
        "monomials": [list(e) for e in monos],
    }
    lines = [f"dataset: {dataset}  degree: {degree}",
             f"monomials: {len(monos)}"]
    lines += [f"  {e}" for e in monos]
    return 0, lines, payload


def cmd_irrelevant(args) -> tuple[int, list[str], dict]:
    q, dataset, heft = _load_input(args)
    degree = _parse_degree(args, q)
    ideal, stable = irrelevant_radical(q, degree, depth=args.saturate,
                                       heft=heft, check_stable=True)
    payload = {
        "dataset": dataset,
        "degree": list(degree),
        "saturationDepth": args.saturate,
        "stable": stable,
        "count": len(ideal.generators),
        "supports": [list(s) for s in ideal.generators],
    }
    lines = [
        f"dataset: {dataset}  degree: {degree}  depth: {args.saturate}",
        f"minimal supports: {len(ideal.generators)} "
        f"(stable under deeper saturation: {'yes' if stable else 'no'})",
    ]
    lines += [f"  {s}" for s in ideal.generators]
    return 0, lines, payload


def cmd_fan(args) -> tuple[int, list[str], dict]:
    q, dataset, heft = _load_input(args)
    degree = _parse_degree(args, q)
    ideal = irrelevant_radical(q, degree, depth=args.saturate, heft=heft)
    report = class_fan_report(gale_dual(q), ideal, fibre_vertices(q, degree))
    payload = {"dataset": dataset, "degree": list(degree),
               "saturationDepth": args.saturate, **report}
    flags = "  ".join(
        f"{k}: {report[k]}"
        for k in ("valid", "simplicial", "complete", "projective"))
    lines = [
        f"dataset: {dataset}  degree: {degree}  depth: {args.saturate}",
        f"maximal cones: {report['numMaximalCones']}  "
        f"rays: {report['numRays']}",
        flags,
    ]
    return 0, lines, payload


def cmd_chamber(args) -> tuple[int, list[str], dict]:
    q, dataset, heft = _load_input(args)
    degree = _parse_degree(args, q)
    other = (None if args.compare is None else
             _parse_class(args.compare, q, "--compare", "compare class"))
    chamber = chamber_of(q, degree)
    payload = {
        "dataset": dataset,
        "representative": list(chamber.representative),
        "hRep": [list(row) for row in chamber.hrep],
        "fullDimensional": chamber.full_dimensional,
    }
    lines = [
        f"dataset: {dataset}  class: {degree}",
        f"chamber inequalities: {len(chamber.hrep)}  "
        f"full-dimensional: {'yes' if chamber.full_dimensional else 'no'}",
    ]
    lines += [f"  {row} . w >= 0" for row in chamber.hrep]
    if other is not None:
        result = same_chamber(q, degree, other, depth=args.saturate,
                              heft=heft, check_stable=True)
        payload["comparison"] = {
            "other": list(other),
            "same": result.same,
            "stable": result.stable,
        }
        lines.append(
            f"same chamber as {other}: {'yes' if result.same else 'no'} "
            f"(radicals stable: {'yes' if result.stable else 'no'})")
    return 0, lines, payload


def cmd_embed(args) -> tuple[int, list[str], dict]:
    if getattr(args, "input", None) or args.dataset != "delpezzo4":
        raise UsageError(
            "the embedding check runs on the bundled dataset; use "
            "--dataset delpezzo4")
    report = embedding_report()
    payload = {"dataset": "delpezzo4", **report}
    lines = [
        "dataset: delpezzo4",
        f"degree bijection: {'pass' if report['degreeBijection']['ok'] else 'fail'}",
        f"pic restriction: {'pass' if report['picRestriction']['ok'] else 'fail'}"
        f" (exact match: {'yes' if report['picRestriction']['exactMatch'] else 'no'})",
        f"restriction table: {'pass' if report['restrictionTable']['ok'] else 'fail'}",
        f"all columns extremal: "
        f"{'yes' if report['extremality']['allExtremal'] else 'no'}",
        f"overall: {'pass' if report['overall'] else 'fail'}",
    ]
    return (0 if report["overall"] else 1), lines, payload


def _verify_paper(solved, attempts: int) -> tuple[int, list[str], dict]:
    records = incidence_targets()
    position = general_position_on_plane(printed_points(),
                                         claimed_transversal())
    if solved is None:
        solver = {"found": False, "attempts": attempts}
        solver_line = f"solver: no plane found in {attempts} attempts"
    else:
        solver = {**solution_json(solved), "seed": solved.seed}
        solver_line = (f"solver: plane found on attempt "
                       f"{attempts} (seed {solved.seed})")
    payload = {
        "targets": records,
        "generalPosition": {"ok": position.ok, "reason": position.reason},
        "solver": solver,
        "notes": [
            "paper-data inconsistency: the printed point for target 3 "
            "is not on the printed plane and exact elimination gives "
            "an empty intersection there"
            + ("" if solved is None else
               "; the solver plane above meets all four targets"),
        ],
    }
    lines = []
    for i, rec in enumerate(records, start=1):
        computed = rec["computedIntersection"]
        shown = tuple(computed) if computed else "empty"
        verdict = "match" if rec["match"] else "MISMATCH"
        lines.append(f"target {i}: computed {shown}, printed "
                     f"{tuple(rec['printedPoint'])} -> {verdict}")
    lines.append(f"general position of printed points: "
                 f"inapplicable ({position.reason})"
                 if position.ok is None else
                 f"general position of printed points: {position.ok}")
    lines.append(solver_line)
    lines.append("note: " + payload["notes"][0])
    ok = solved is not None and all(
        check["verdict"] for check in incidence_checks(records))
    return (0 if ok else 1), lines, payload


def cmd_incidence(args) -> tuple[int, list[str], dict]:
    solved, attempts = solve_transversal(args.seed, args.max_tries)
    if args.mode == "verify-paper":
        return _verify_paper(solved, attempts)
    if solved is None:
        payload = {"found": False, "seed": args.seed, "attempts": attempts}
        return 1, [f"no plane found in {attempts} attempts"], payload
    position = general_position_on_plane(solved.points, solved.plane)
    payload = {
        "found": True,
        **solution_json(solved),
        "seed": solved.seed,
        "generalPosition": {"ok": position.ok, "reason": position.reason},
    }
    lines = [
        f"plane found on attempt {attempts} (seed {solved.seed})",
        "equations:",
    ]
    lines += [f"  {f} . x = 0" for f in solved.plane.equations()]
    lines += [f"meets target {i} in {tuple(p.coords)}"
              for i, p in enumerate(solved.points, start=1)]
    return 0, lines, payload


def cmd_reproduce(args) -> tuple[int, list[str], dict]:
    report = reproduce_paper_report(saturate=args.saturate)
    lines = [f"coxtoric {report['toolVersion']}  dataset: "
             f"{report['dataset']}  saturation depth: "
             f"{report['saturationDepth']}"]
    for check in report["checks"]:
        verdict = "PASS" if check["verdict"] else "FAIL"
        provenance = check["expected"]["provenance"]
        lines.append(f"{verdict} {check['name']} [{provenance}]")
    lines += [f"note: {n}" for n in report["notes"]]
    lines.append(f"overall: {'PASS' if report['overall'] else 'FAIL'} "
                 f"({len(report['checks'])} checks)")
    if report["firstFailed"]:
        lines.append(f"first failed check: {report['firstFailed']}")
    return (0 if report["overall"] else 1), lines, report


# arguments as (name, add_argument keywords), shared between commands
_INPUT = ("input", {"nargs": "?",
                    "help": "degree-matrix JSON file ('-' for stdin)"})
_DATASET = ("--dataset", {"choices": ("delpezzo4", "p2", "p1xp1"),
                          "help": "use a built-in dataset instead of a file"})
_DEGREE = ("--degree", {"help": "comma-separated multidegree"})
_SATURATE = ("--saturate", {"type": integer, "default": 1, "metavar": "K",
                            "help": "saturation depth (default 1)"})
_JSON = ("--json", {"action": "store_true", "dest": "as_json",
                    "help": "emit the JSON report instead of text"})

# command -> (help, its arguments before --json, handler)
_COMMANDS = {
    "gale": ("rays of the toric one-skeleton", (
        _INPUT, _DATASET,
        ("--reference",
         {"help": "'paper-AT' or a JSON file of kernel rows"}),
    ), cmd_gale),
    "basis": ("monomials of one multidegree",
              (_INPUT, _DATASET, _DEGREE), cmd_basis),
    "irrelevant": ("minimal supports of the irrelevant radical",
                   (_INPUT, _DATASET, _DEGREE, _SATURATE), cmd_irrelevant),
    "fan": ("build and certify the fan of a class",
            (_INPUT, _DATASET, _DEGREE, _SATURATE), cmd_fan),
    "chamber": ("GIT chamber of a class", (
        _INPUT, _DATASET, _DEGREE,
        ("--compare", {"metavar": "CLASS",
                       "help": "second class to test for chamber equality"}),
        ("--saturate", {**_SATURATE[1],
                        "help": "saturation depth for --compare (default 1)"}),
    ), cmd_chamber),
    "embed": ("Mori-embedding report", (
        _INPUT, ("--dataset", {**_DATASET[1], "choices": ("delpezzo4",)}),
    ), cmd_embed),
    "incidence": ("projective incidence checks", (
        ("mode", {"choices": ("verify-paper", "search")}),
        ("--seed", {"type": integer, "default": 1,
                    "help": "solver seed (default 1)"}),
        ("--max-tries", {"type": integer, "default": 100,
                         "help": "attempt budget (default 100)"}),
    ), cmd_incidence),
    "reproduce-paper": ("run every check over the bundled dataset",
                        (_SATURATE,), cmd_reproduce),
}

# the add_argument keywords the table parser accepts
_KEYWORDS = {"action", "nargs", "choices", "type", "default", "dest", "help",
             "metavar"}


def _argument_list(name: str) -> tuple:
    # every command takes --json last
    return (*_COMMANDS[name][1], _JSON)


def _declare(parser, name: str) -> None:
    for arg, keywords in _argument_list(name):
        parser.add_argument(arg, **keywords)


@cache
def _declarations(name: str) -> SimpleNamespace:
    """What _parse_command reads argv off: options (option -> (dest, type,
    choices, flag)), positionals ((dest, choices, required)) and defaults
    (dest -> value). An argument of a kind it cannot read raises
    TypeError, so that it is not misread."""
    options, positionals, defaults = {}, [], {}
    for arg, keywords in _argument_list(name):
        action, nargs = keywords.get("action"), keywords.get("nargs")
        if action not in (None, "store_true") or nargs not in (None, "?") \
                or not keywords.keys() <= _KEYWORDS:
            raise TypeError(f"{arg}: no table parsing for {keywords!r}")
        if not arg.startswith("-"):
            positionals.append((arg, keywords.get("choices"), nargs is None))
            defaults[arg] = keywords.get("default")
            continue
        dest = keywords.get("dest") or arg.lstrip("-").replace("-", "_")
        flag = action == "store_true"
        options[arg] = (dest, keywords.get("type"), keywords.get("choices"),
                        flag)
        defaults[dest] = False if flag else keywords.get("default")
    return SimpleNamespace(options=options, positionals=positionals,
                           defaults=defaults)


def _parse_command(name: str, argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a valid argv, read off the command's declarations,
    equal to what its argparse parser returns; None, printing nothing, where
    argparse must decide: help, '--', an abbreviated or unknown option, a
    separate value that starts with '-' or is missing, a flag given a
    value, too many or too few positionals, a failed type or choice check."""
    table = _declarations(name)
    values = dict(table.defaults)
    positionals = []
    tokens = iter(argv)
    for tok in tokens:
        if not tok.startswith("-"):
            positionals.append(tok)
            continue
        option, eq, value = tok.partition("=")
        if option not in table.options:
            return None
        dest, convert, choices, flag = table.options[option]
        if flag:
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        elif value == "--":
            # argparse drops a '--' even from "--opt=--"
            return None
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    declared = table.positionals
    if not sum(required for _, _, required in declared) <= len(positionals) \
            <= len(declared):
        return None
    for (dest, choices, _), value in zip(declared, positionals):
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


@cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, equal to its subparser in build_parser's tree,
    built once per process, for the argvs _parse_command leaves to it."""
    import argparse
    parser = argparse.ArgumentParser(prog=f"coxtoric {name}")
    _declare(parser, name)
    return parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process: main needs it only
    for top-level help, --version and usage errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="coxtoric",
        description="exact toric constructions from Cox-ring gradings")
    parser.add_argument("--version", action="version",
                        version=f"coxtoric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=help_text), name)
    return parser


# options whose value is a class, whose first field may carry a sign
_CLASS_OPTIONS = ("--degree", "--compare")


def _join_signed_classes(argv: list[str]) -> list[str]:
    """argv with "--degree -1,2" joined into "--degree=-1,2", and so for
    --compare and unambiguous abbreviations of either: argparse takes a
    separate value that starts with '-' and is not a plain negative number
    for an option, and exits 2 with "expected one argument". Nothing after
    "--" is joined."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if "--" not in out and len(prev) > 2 and tok[:1] == "-" \
                and "0" <= tok[1:2] <= "9" \
                and any(opt.startswith(prev) for opt in _CLASS_OPTIONS):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _join_signed_classes(sys.argv[1:] if argv is None else list(argv))
    if argv and argv[0] in _COMMANDS:
        command = argv[0]
        args = _parse_command(command, argv[1:])
        if args is None:
            args, extra = _command_parser(command).parse_known_args(argv[1:])
            if extra:
                # the tree reports leftovers under its own usage
                build_parser().error(
                    f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = build_parser().parse_args(argv)
        command = args.command
    try:
        code, lines, payload = _COMMANDS[command][2](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        # a witness or certificate failed its own replay: a fault in the
        # program, not a failed check
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    try:
        if args.as_json:
            sys.stdout.write(_dumps(payload))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; the checks' verdict stands, and
        # fd 1 goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
