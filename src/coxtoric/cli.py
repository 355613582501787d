"""Command-line front end over the verification pipeline.

Each subcommand loads a degree matrix (a JSON file or a built-in dataset),
runs one pipeline stage, and prints either a human summary or the exact
JSON report (--json). reproduce-paper chains every stage over the bundled
del Pezzo dataset and folds the per-check verdicts into a single run
report. One table, _COMMANDS, declares each command's help, arguments and
handler. A valid command line builds no parser at all: its argv is read
off the command's declarations in that table, and argparse is imported
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
from .delpezzo import (AMPLE_SUPPORTS, REFERENCE_RAY_ROWS, ample_ideal,
                       anticanonical_ideal, claimed_transversal,
                       presentation_pair, printed_points, restriction_table,
                       target_planes)
from .embedding import mori_embedding_report, verify_restriction_table
from .exact import IntMat, hermite_normal_form, kernel_lattice
from .fans import fan_from_irrelevant, fan_report, fibre_support
from .grading import DegreeMatrix, delpezzo4, gale_dual
from .incidence import (SearchExhausted, find_transversal_plane,
                        general_position_on_plane, intersect)
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

# the divisor-to-generator pairing read off the restriction table
_EXPECTED_PAIRING = (
    ("D0", "g3"), ("D1", "g1"), ("D2", "g2"), ("D3", "g5"),
    ("D4", "g4"), ("D5", "g6"), ("E1", "g7"), ("E2", "g8"),
    ("E3", "g9"), ("E4", "g10"),
)


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
    kernel = kernel_lattice(q.as_intmat())
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
    ref, provenance = _load_reference(args, kernel.cols)
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


def _fan_report(q: DegreeMatrix, gale, ideal, w) -> dict:
    """fan_report of the fan of ideal, with the support function read off
    the fibre vertices of w when every generator is one of their supports
    (is_projective finds it from an ample class otherwise)."""
    fan = fan_from_irrelevant(gale, ideal)
    return fan_report(fan, fibre_support(fan, ideal, fibre_vertices(q, w)))


def cmd_fan(args) -> tuple[int, list[str], dict]:
    q, dataset, heft = _load_input(args)
    degree = _parse_degree(args, q)
    ideal = irrelevant_radical(q, degree, depth=args.saturate, heft=heft)
    report = _fan_report(q, gale_dual(q), ideal, degree)
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
    report = mori_embedding_report(presentation_pair(), IntMat.identity(5),
                                   restriction_table())
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


def _plane_json(subspace) -> dict:
    return {"equations": [list(f) for f in subspace.equations()]}


def _incidence_targets() -> list[dict]:
    sigma = claimed_transversal()
    printed = printed_points()
    records = []
    for i, target in enumerate(target_planes()):
        meet = intersect(sigma, target)
        if meet is not None and meet.projective_dim == 0:
            computed = list(meet.as_point().coords)
        else:
            computed = None
        records.append({
            "computedIntersection": computed,
            "printedPoint": list(printed[i].coords),
            "match": computed == list(printed[i].coords),
        })
    return records


def cmd_incidence(args) -> tuple[int, list[str], dict]:
    targets = target_planes()
    if args.mode == "verify-paper":
        records = _incidence_targets()
        position = general_position_on_plane(printed_points(),
                                             claimed_transversal())
        try:
            solved = find_transversal_plane(targets, seed=args.seed,
                                            max_tries=args.max_tries)
        except SearchExhausted as e:
            solved = None
            solver = {"found": False, "attempts": e.attempts}
            solver_line = f"solver: no plane found in {e.attempts} attempts"
        else:
            solver = {
                "plane": _plane_json(solved.plane),
                "points": [list(p.coords) for p in solved.points],
                "seed": solved.seed,
                "attempts": solved.attempts,
            }
            solver_line = (f"solver: plane found on attempt "
                           f"{solved.attempts} (seed {solved.seed})")
        payload = {
            "targets": records,
            "generalPosition": {"ok": position.ok,
                                "reason": position.reason},
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
        hard_ok = (all(records[i]["match"] for i in (0, 1, 3))
                   and records[2]["computedIntersection"] is None
                   and solved is not None)
        return (0 if hard_ok else 1), lines, payload
    try:
        solved = find_transversal_plane(targets, seed=args.seed,
                                        max_tries=args.max_tries)
    except SearchExhausted as e:
        payload = {"found": False, "seed": args.seed,
                   "attempts": e.attempts}
        return 1, [f"no plane found in {e.attempts} attempts"], payload
    position = general_position_on_plane(solved.points, solved.plane)
    payload = {
        "found": True,
        "plane": _plane_json(solved.plane),
        "points": [list(p.coords) for p in solved.points],
        "seed": solved.seed,
        "attempts": solved.attempts,
        "generalPosition": {"ok": position.ok, "reason": position.reason},
    }
    lines = [
        f"plane found on attempt {solved.attempts} (seed {solved.seed})",
        "equations:",
    ]
    lines += [f"  {f} . x = 0" for f in solved.plane.equations()]
    lines += [f"meets target {i} in {tuple(p.coords)}"
              for i, p in enumerate(solved.points, start=1)]
    return 0, lines, payload


def _check(name: str, expected, provenance: str, computed, ok: bool) -> dict:
    return {
        "name": name,
        "expected": {"value": expected, "provenance": provenance},
        "computed": computed,
        "verdict": bool(ok),
    }


def reproduce_paper_report(saturate: int = 1) -> dict:
    """Every pipeline stage over the bundled dataset, as one run report."""
    dp = delpezzo4()
    q = dp.degrees
    checks: list[dict] = []
    notes: list[str] = []

    kernel = kernel_lattice(q.as_intmat())
    hermite = hermite_normal_form(kernel)[0].to_rows()
    reference = hermite_normal_form(
        IntMat.from_rows(REFERENCE_RAY_ROWS))[0].to_rows()
    checks.append(_check(
        "gale-hermite", [list(r) for r in reference], "PAPER",
        [list(r) for r in hermite], hermite == reference))

    ample_radical, ample_stable = irrelevant_radical(
        q, dp.ample, depth=saturate, check_stable=True)
    checks.append(_check(
        "ample-support-count", 42, "PAPER",
        len(ample_radical.generators), len(ample_radical.generators) == 42))
    checks.append(_check(
        "ample-supports", [list(s) for s in AMPLE_SUPPORTS], "DERIVED",
        [list(s) for s in ample_radical.generators],
        ample_radical == ample_ideal()))

    gale = gale_dual(q)
    ample_fan = _fan_report(q, gale, ample_radical, dp.ample)
    expected_ample = {"numMaximalCones": 42, "valid": True,
                      "simplicial": True, "complete": True,
                      "projective": True}
    computed_ample = {k: ample_fan[k] for k in expected_ample}
    checks.append(_check("ample-fan", expected_ample, "PAPER",
                         computed_ample, computed_ample == expected_ample))

    anti_radical, anti_stable = irrelevant_radical(
        q, dp.anti_canonical, depth=saturate, check_stable=True)
    anti = anticanonical_ideal()
    checks.append(_check(
        "anticanonical-supports", [list(s) for s in anti.generators],
        "PAPER", [list(s) for s in anti_radical.generators],
        anti_radical == anti))

    anti_fan = _fan_report(q, gale, anti_radical, dp.anti_canonical)
    expected_anti = {"numMaximalCones": 22, "valid": True,
                     "simplicial": False, "complete": True,
                     "projective": True}
    computed_anti = {k: anti_fan[k] for k in expected_anti}
    checks.append(_check("anticanonical-fan", expected_anti, "PAPER",
                         computed_anti, computed_anti == expected_anti))

    doubled = tuple(2 * x for x in dp.ample)
    vs_double = same_chamber(q, dp.ample, doubled, depth=saturate,
                             check_stable=True)
    checks.append(_check(
        "chamber-ample-vs-double", True, "DERIVED",
        {"same": vs_double.same, "stable": vs_double.stable},
        vs_double.same))
    vs_anti = same_chamber(q, dp.ample, dp.anti_canonical, depth=saturate,
                           check_stable=True)
    checks.append(_check(
        "chamber-ample-vs-anticanonical", False, "DERIVED",
        {"same": vs_anti.same, "stable": vs_anti.stable},
        not vs_anti.same))
    for label, stable in (("ample", ample_stable),
                          ("anticanonical", anti_stable),
                          ("chamber comparison", vs_double.stable
                           and vs_anti.stable)):
        if not stable:
            notes.append(f"{label} radical not stable at depth {saturate}; "
                         "rerun with --saturate "
                         f"{saturate + 1}")

    pair = presentation_pair()
    table = verify_restriction_table(restriction_table(), pair)
    expected_pairing = [list(p) for p in _EXPECTED_PAIRING]
    computed_pairing = [list(p) for p in table.matching]
    checks.append(_check(
        "restriction-table", expected_pairing, "PAPER", computed_pairing,
        table.ok and computed_pairing == expected_pairing))

    embed = mori_embedding_report(pair, IntMat.identity(5),
                                  restriction_table())
    computed_embed = {
        "degreeBijection": embed["degreeBijection"]["ok"],
        "picRestriction": embed["picRestriction"]["ok"],
        "restrictionTable": embed["restrictionTable"]["ok"],
        "allExtremal": embed["extremality"]["allExtremal"],
        "overall": embed["overall"],
    }
    checks.append(_check("embedding-report", {"overall": True}, "PAPER",
                         computed_embed, embed["overall"]))

    records = _incidence_targets()
    for i, name in ((0, "incidence-sigma1"), (1, "incidence-sigma2")):
        checks.append(_check(
            name, records[i]["printedPoint"], "PAPER",
            records[i]["computedIntersection"], records[i]["match"]))
    checks.append(_check(
        "incidence-sigma3-empty", None, "DERIVED",
        records[2]["computedIntersection"],
        records[2]["computedIntersection"] is None))
    checks.append(_check(
        "incidence-sigma4", records[3]["printedPoint"], "PAPER",
        records[3]["computedIntersection"], records[3]["match"]))
    notes.append(
        "paper-data inconsistency: the printed point for target 3 is not "
        "on the printed plane and the exact intersection there is empty; "
        "reported as informational, a corrected plane comes from the "
        "transversal solver")

    try:
        solved = find_transversal_plane(target_planes(), seed=1,
                                        max_tries=100)
        computed_solved = {
            "found": True,
            "attempts": solved.attempts,
            "plane": _plane_json(solved.plane),
            "points": [list(p.coords) for p in solved.points],
        }
        solved_ok = True
    except SearchExhausted as e:
        computed_solved = {"found": False, "attempts": e.attempts}
        solved_ok = False
    checks.append(_check(
        "transversal-plane", {"found": True, "maxAttempts": 100}, "PAPER",
        computed_solved, solved_ok))

    overall = all(c["verdict"] for c in checks)
    first_failed = next((c["name"] for c in checks if not c["verdict"]),
                        None)
    return {
        "toolVersion": __version__,
        "dataset": "delpezzo4",
        "saturationDepth": saturate,
        "checks": checks,
        "overall": overall,
        "firstFailed": first_failed,
        "notes": notes,
    }


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


def _add_io_arguments(sp, datasets=("delpezzo4", "p2", "p1xp1")) -> None:
    sp.add_argument("input", nargs="?",
                    help="degree-matrix JSON file ('-' for stdin)")
    sp.add_argument("--dataset", choices=datasets,
                    help="use a built-in dataset instead of a file")


def _add_saturate(sp, help="saturation depth (default 1)") -> None:
    sp.add_argument("--saturate", type=integer, default=1, metavar="K",
                    help=help)


def _gale_arguments(sp) -> None:
    _add_io_arguments(sp)
    sp.add_argument("--reference",
                    help="'paper-AT' or a JSON file of kernel rows")


def _degree_arguments(sp) -> None:
    _add_io_arguments(sp)
    sp.add_argument("--degree", help="comma-separated multidegree")


def _saturated_degree_arguments(sp) -> None:
    _degree_arguments(sp)
    _add_saturate(sp)


def _chamber_arguments(sp) -> None:
    _degree_arguments(sp)
    sp.add_argument("--compare", metavar="CLASS",
                    help="second class to test for chamber equality")
    _add_saturate(sp, help="saturation depth for --compare (default 1)")


def _embed_arguments(sp) -> None:
    _add_io_arguments(sp, datasets=("delpezzo4",))


def _incidence_arguments(sp) -> None:
    sp.add_argument("mode", choices=("verify-paper", "search"))
    sp.add_argument("--seed", type=integer, default=1,
                    help="solver seed (default 1)")
    sp.add_argument("--max-tries", type=integer, default=100,
                    help="attempt budget (default 100)")


# command -> (help, function that adds its arguments, handler)
_COMMANDS = {
    "gale": ("rays of the toric one-skeleton", _gale_arguments, cmd_gale),
    "basis": ("monomials of one multidegree", _degree_arguments, cmd_basis),
    "irrelevant": ("minimal supports of the irrelevant radical",
                   _saturated_degree_arguments, cmd_irrelevant),
    "fan": ("build and certify the fan of a class",
            _saturated_degree_arguments, cmd_fan),
    "chamber": ("GIT chamber of a class", _chamber_arguments, cmd_chamber),
    "embed": ("Mori-embedding report", _embed_arguments, cmd_embed),
    "incidence": ("projective incidence checks", _incidence_arguments,
                  cmd_incidence),
    "reproduce-paper": ("run every check over the bundled dataset",
                        _add_saturate, cmd_reproduce),
}


def _add_command_arguments(sp, name: str) -> None:
    _COMMANDS[name][1](sp)
    sp.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the JSON report instead of text")


class _Declarations:
    """Stands in for a parser while a command's argument functions run, and
    keeps what they declare: the table _parse_command reads argv off. Takes
    only the keywords those functions use, so a new kind of argument fails
    here instead of being misread."""

    def __init__(self) -> None:
        self.options: dict = {}    # option -> (dest, type, choices, flag)
        self.positionals: list = []   # (dest, choices, required)
        self.defaults: dict = {}

    def add_argument(self, name: str, *, action=None, nargs=None,
                     choices=None, type=None, default=None, dest=None,
                     help=None, metavar=None) -> None:
        if action not in (None, "store_true") or nargs not in (None, "?"):
            raise TypeError(f"{name}: no table parsing for "
                            f"action={action!r}, nargs={nargs!r}")
        if not name.startswith("-"):
            self.positionals.append((name, choices, nargs is None))
            self.defaults[name] = default
            return
        dest = dest or name.lstrip("-").replace("-", "_")
        flag = action == "store_true"
        self.options[name] = (dest, type, choices, flag)
        self.defaults[dest] = False if flag else default


@cache
def _declarations(name: str) -> _Declarations:
    table = _Declarations()
    _add_command_arguments(table, name)
    return table


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
    _add_command_arguments(parser, name)
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
        _add_command_arguments(sub.add_parser(name, help=help_text), name)
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
