import argparse
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from coxtoric import __version__, cli, delpezzo, fans, grading, monomials
from coxtoric.cli import main
from coxtoric.delpezzo import ANTICANONICAL_SUPPORTS, reproduce_paper_report
from coxtoric.exact import IntMat, dot, kernel_lattice
from coxtoric.grading import DegreeMatrix, DelPezzo4, delpezzo4
from coxtoric.monomials import fibre_vertices, irrelevant_radical
from test_chambers import same_cone

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


def test_gale_reference_match(capsys):
    code, payload, _ = run_json(
        capsys, ["gale", "--dataset", "delpezzo4", "--reference",
                 "paper-AT"])
    assert code == 0
    assert payload["numRays"] == 10
    assert payload["reference"]["match"] is True
    assert payload["reference"]["provenance"] == "PAPER"
    assert len(payload["hermite"]) == 5


@pytest.mark.parametrize("row", [[1.7] + [0] * 9, [True] + [0] * 9])
def test_gale_reference_rejects_non_integer_rows(tmp_path, capsys, row):
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps([row]))
    code, out, err = run(capsys, ["gale", "--dataset", "delpezzo4",
                                  "--reference", str(ref)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be integers" in err


def test_gale_rank_deficient_input(tmp_path, capsys):
    bad = tmp_path / "rankdef.json"
    bad.write_text(json.dumps({
        "picRank": 2, "numGens": 3,
        "columns": [[1, 1], [2, 2], [3, 3]],
        "labels": ["a", "b", "c"]}))
    code, _, err = run(capsys, ["gale", str(bad)])
    assert code == 2
    assert "grading not of full rank" in err


def test_gale_sample_file(tmp_path, capsys):
    sample = tmp_path / "p2.json"
    sample.write_text(json.dumps({
        "picRank": 1, "numGens": 3,
        "columns": [[1], [1], [1]],
        "labels": ["x", "y", "z"]}))
    code, payload, _ = run_json(capsys, ["gale", str(sample)])
    assert code == 0
    assert payload["numRays"] == 3


def test_fan_ample(capsys):
    code, payload, _ = run_json(
        capsys, ["fan", "--dataset", "delpezzo4", "--degree",
                 "11,-5,-3,-2,-1"])
    assert code == 0
    assert payload["numMaximalCones"] == 42
    assert payload["valid"] and payload["simplicial"]
    assert payload["complete"] and payload["projective"]


def test_fan_anticanonical(capsys):
    code, payload, _ = run_json(
        capsys, ["fan", "--dataset", "delpezzo4", "--degree",
                 "3,-1,-1,-1,-1"])
    assert code == 0
    assert payload["numMaximalCones"] == 22
    assert payload["valid"] and not payload["simplicial"]
    assert payload["complete"] and payload["projective"]


def test_fan_p1xp1(capsys):
    code, payload, _ = run_json(
        capsys, ["fan", "--dataset", "p1xp1", "--degree", "1,1"])
    assert code == 0
    assert payload["numMaximalCones"] == 4
    assert payload["valid"] and payload["simplicial"]
    assert payload["complete"] and payload["projective"]


def test_basis_p2(capsys):
    code, payload, _ = run_json(
        capsys, ["basis", "--dataset", "p2", "--degree", "2"])
    assert code == 0
    assert payload["count"] == 6
    assert payload["monomials"][0] == [0, 0, 2]


def test_irrelevant_anticanonical(capsys):
    code, payload, _ = run_json(
        capsys, ["irrelevant", "--dataset", "delpezzo4", "--degree",
                 "3,-1,-1,-1,-1"])
    assert code == 0
    assert payload["count"] == 22
    assert payload["stable"] is True
    expected = sorted(([*s] for s in ANTICANONICAL_SUPPORTS),
                      key=lambda s: (len(s), s))
    assert payload["supports"] == expected


def test_chamber_with_comparison(capsys):
    code, payload, _ = run_json(
        capsys, ["chamber", "--dataset", "delpezzo4", "--degree",
                 "11,-5,-3,-2,-1", "--compare", "3,-1,-1,-1,-1"])
    assert code == 0
    assert payload["fullDimensional"] is True
    assert len(payload["hRep"]) == 5
    assert payload["comparison"]["same"] is False
    assert payload["comparison"]["stable"] is True


def test_embed(capsys):
    code, payload, _ = run_json(
        capsys, ["embed", "--dataset", "delpezzo4"])
    assert code == 0
    assert payload["overall"] is True
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--dataset", "p2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_incidence_verify_paper(capsys):
    code, payload, _ = run_json(capsys, ["incidence", "verify-paper"])
    assert code == 0
    targets = payload["targets"]
    assert [t["match"] for t in targets] == [True, True, False, True]
    assert targets[2]["computedIntersection"] is None
    assert targets[2]["printedPoint"] == [1, 0, 0, 0, 0, -1]
    assert payload["generalPosition"]["ok"] is None
    assert payload["solver"]["attempts"] >= 1
    assert sorted(payload["solver"]) == ["attempts", "plane", "points",
                                         "seed"]
    assert payload["notes"] == [
        "paper-data inconsistency: the printed point for target 3 is not on "
        "the printed plane and exact elimination gives an empty intersection "
        "there; the solver plane above meets all four targets"]


def test_incidence_verify_paper_exhausted(capsys):
    code, payload, _ = run_json(
        capsys, ["incidence", "verify-paper", "--max-tries", "0"])
    assert code == 1
    assert payload["solver"] == {"found": False, "attempts": 0}
    assert payload["notes"] == [
        "paper-data inconsistency: the printed point for target 3 is not on "
        "the printed plane and exact elimination gives an empty intersection "
        "there"]
    code, out, _ = run(capsys, ["incidence", "verify-paper",
                                "--max-tries", "0"])
    assert code == 1
    assert "solver: no plane found in 0 attempts" in out
    assert "solver plane" not in out


def test_a_corrupted_target_claim_fails_both_reports(monkeypatch, capsys):
    # target 2's printed point moved off the claimed transversal: the one
    # verdict on the four target claims fails verify-paper and the run
    # report alike, and names target 2
    points = list(delpezzo.PRINTED_POINTS)
    points[1] = (0, 1, 0, -1, 0, 2)
    monkeypatch.setattr(delpezzo, "PRINTED_POINTS", tuple(points))
    code, out, err = run(capsys, ["incidence", "verify-paper"])
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[1] == ("target 2: computed (0, 1, 0, -1, 0, 1), printed "
                        "(0, 1, 0, -1, 0, 2) -> MISMATCH")
    assert lines[0].endswith("-> match") and lines[3].endswith("-> match")
    report = reproduce_paper_report()
    assert report["overall"] is False
    assert report["firstFailed"] == "incidence-sigma2"
    assert [c["name"] for c in report["checks"] if not c["verdict"]] == \
        ["incidence-sigma2"]


@pytest.mark.parametrize("mode", ["search", "verify-paper"])
def test_incidence_negative_budget(capsys, mode):
    code, out, err = run(capsys, ["incidence", mode, "--max-tries", "-5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "max_tries" in err


def test_incidence_search_deterministic(capsys):
    code1, out1, _ = run(capsys, ["incidence", "search", "--seed", "1",
                                  "--json"])
    code2, out2, _ = run(capsys, ["incidence", "search", "--seed", "1",
                                  "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["found"] is True
    assert 1 <= payload["attempts"] <= 100
    assert payload["generalPosition"]["ok"] is True


def test_incidence_search_exhausted(capsys):
    code, payload, _ = run_json(
        capsys, ["incidence", "search", "--max-tries", "0"])
    assert code == 1
    assert payload["found"] is False
    assert payload["attempts"] == 0


def test_reproduce_paper(capsys):
    code, payload, _ = run_json(capsys, ["reproduce-paper"])
    assert code == 0
    assert payload["overall"] is True
    assert payload["firstFailed"] is None
    assert payload["toolVersion"] == __version__
    assert payload["dataset"] == "delpezzo4"
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "gale-hermite", "ample-support-count", "ample-supports",
        "ample-fan", "anticanonical-supports", "anticanonical-fan",
        "chamber-ample-vs-double", "chamber-ample-vs-anticanonical",
        "restriction-table", "embedding-report", "incidence-sigma1",
        "incidence-sigma2", "incidence-sigma3-empty", "incidence-sigma4",
        "transversal-plane"]
    for check in payload["checks"]:
        assert check["verdict"] is True
        assert check["expected"]["provenance"] in ("PAPER", "TRIVIAL",
                                                   "DERIVED")
    inconsistency = [n for n in payload["notes"]
                     if "paper-data inconsistency" in n]
    assert len(inconsistency) == 1


def test_reproduce_paper_text_output(capsys):
    code, out, _ = run(capsys, ["reproduce-paper"])
    assert code == 0
    assert "overall: PASS (15 checks)" in out
    assert out.count("PASS") == 16
    assert "FAIL" not in out


def test_reproduce_paper_byte_stable(capsys):
    _, out1, _ = run(capsys, ["reproduce-paper", "--json"])
    _, out2, _ = run(capsys, ["reproduce-paper", "--json"])
    assert out1 == out2


# sha256 of the stdout of three reports; an elimination change that moves a
# fibre vertex or a support function changes these bytes
FROZEN_REPORTS = [
    (["reproduce-paper", "--json"],
     "88516bdc0ff180aec89ae73013a6d2980fa0fd3a8b1ac963d35d47889e22bbbc"),
    (["fan", "--dataset", "delpezzo4", "--degree", "11,-5,-3,-2,-1",
      "--json"],
     "aa96bf59a851b38b2c7c7e4cbd363c95a2e6a879983755c48a4207bf8c371824"),
    (["fan", "--dataset", "delpezzo4", "--degree", "3,-1,-1,-1,-1",
      "--json"],
     "81aee91913b7f77e0cefdc812c25151419130d8198fa61f3e5f5f7d9b196562f"),
    # a lower-dimensional chamber
    (["chamber", "--dataset", "delpezzo4", "--degree", "3,-1,-1,-1,-1",
      "--compare", "6,-2,-2,-2,-2", "--json"],
     "813077a6bf379ee4530861ced5d4dd747962c4836e6bfe0d7d3b7e09b4de77bb"),
    (["chamber", "--dataset", "delpezzo4", "--degree", "11,-5,-3,-2,-1",
      "--compare", "3,-1,-1,-1,-1", "--json"],
     "2ae90df96ecbc0c632839f7c099eb6ec3d1d905a73504d39855a8286464e5a9d"),
    (["chamber", "--dataset", "delpezzo4", "--degree", "0,0,0,0,0",
      "--json"],
     "5cfb1f9f0364035780152236e5d9507f1257f806b6f3d5838301748f3e2ce3cb"),
    (["incidence", "verify-paper", "--json"],
     "abc1d5d4af2ac386b99aded30db723fc44f0c06ff9769e65e3c5ef801d0ba833"),
    (["incidence", "search", "--seed", "1", "--json"],
     "1fe9ffc9fd98426975fb2556c546ab089845243256765cfbd1cf9b45eeea92f7"),
    # found on the second attempt
    (["incidence", "search", "--seed", "7", "--json"],
     "8741cf5dcb17995365891a9dc7496c78ccbe5e5eb7eed8107b8fe40a7454cf87"),
]


@pytest.mark.parametrize("argv,digest", FROZEN_REPORTS,
                         ids=[" ".join(a) for a, _ in FROZEN_REPORTS])
def test_report_bytes_are_frozen(capsys, argv, digest):
    _, out, _ = run(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the rows of the two lower-dimensional chamber reports above before the
# canonical form: the greedy pass kept rows that depended on their order
GREEDY_CHAMBER_ROWS = {
    "3,-1,-1,-1,-1": ((-1, 0, -1, -1, -1), (0, -1, 1, 0, 0),
                      (0, 0, -1, 1, 0), (0, 0, 0, -1, 1), (1, 1, 1, 0, 0),
                      (1, 1, 1, 1, 0)),
    "0,0,0,0,0": ((-1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0),
                  (0, 0, 0, -1, 0), (0, 0, 0, 0, -1), (1, 0, 0, 0, 1),
                  (1, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 1, 0, 0, 0)),
}


@pytest.mark.parametrize("degree", sorted(GREEDY_CHAMBER_ROWS))
def test_repinned_chamber_reports_keep_their_cones(capsys, degree):
    # the canonical rows (equalities with both signs, one row per facet)
    # cut out the cone of the former rows
    code, payload, _ = run_json(capsys, ["chamber", "--dataset",
                                         "delpezzo4", "--degree", degree])
    assert code == 0 and payload["fullDimensional"] is False
    new = [tuple(row) for row in payload["hRep"]]
    assert same_cone(new, GREEDY_CHAMBER_ROWS[degree], 5)


def test_ample_fan_reports_the_support_function_of_its_class(capsys):
    # the fan command reads the ample fan's support function off the fibre
    # vertices of w: its heights are those of a divisor of class w itself,
    # where is_projective's are of its ample class (10, -4, -3, -2, -1);
    # the rest of the report is that of is_projective's path
    dp = delpezzo4()
    q, w = dp.degrees, dp.ample
    code, payload, _ = run_json(capsys, ["fan", "--dataset", "delpezzo4",
                                         "--degree", "11,-5,-3,-2,-1"])
    assert code == 0
    ideal = irrelevant_radical(q, w)
    fan = fans.fan_from_irrelevant(grading.gale_dual(q), ideal)
    plain_report = fans.fan_report(fan)
    support = fans.fibre_support(fan, ideal, fibre_vertices(q, w))
    assert payload["supportFunction"] == [list(m) for m in support]
    assert plain_report["supportFunction"] != payload["supportFunction"]
    assert {k: v for k, v in payload.items() if k in plain_report
            and k != "supportFunction"} == \
        {k: v for k, v in plain_report.items() if k != "supportFunction"}
    for function in (support, plain_report["supportFunction"]):
        assert fans._vertex_replay(fan, function)
    # the heights h_i = <m_s, v_i> over the cones s on ray i are -a for a
    # divisor a of class w
    divisor = {i: -dot(m, fan.rays[i - 1])
               for cone, m in zip(fan.maximal_cones, support)
               for i in cone.ray_indices}
    assert sorted(divisor) == list(range(1, q.num_gens + 1))
    assert tuple(sum(divisor[j + 1] * col[k]
                     for j, col in enumerate(q.columns))
                 for k in range(q.pic_rank)) == w


# sha256 of `fan - --degree 3,-1,-1,-1,-1,-1 --saturate 2 --json` on the
# sixteen-line dP4 grading read from stdin: 56 maximal cones, with the
# support function read off the fibre vertices of -K
DP4_SATURATED_FAN_SHA = \
    "064b75587dc215a994f96f227c0390175cfca841e19e39846c322f261b7832f2"


def dp4_stdin(monkeypatch):
    """The sixteen-line dP4 grading as a JSON file on stdin."""
    from test_monomials import dp4_columns
    cols = dp4_columns()
    labels = ([f"E{i}" for i in range(1, 6)]
              + [f"L{i}{j}" for i in range(1, 6) for j in range(i + 1, 6)]
              + ["C"])
    grading = {"picRank": 6, "numGens": 16,
               "columns": [list(c) for c in cols], "labels": labels,
               "heft": [3, 1, 1, 1, 1, 1]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(grading)))


def test_dp4_saturated_fan_is_pinned(capsys, monkeypatch):
    dp4_stdin(monkeypatch)
    code, out, _ = run(capsys, ["fan", "-", "--degree", "3,-1,-1,-1,-1,-1",
                                "--saturate", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["numMaximalCones"] == 56
    assert report["complete"] is True and report["projective"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == DP4_SATURATED_FAN_SHA


def test_dp4_irrelevant_searches_one_layer(capsys, monkeypatch,
                                           class_cache):
    # the depth-1 radical at -K searches the layer -K, since 16 members of
    # S(-K) have period 2; its stability check reads depth 2 off the
    # periods as S(-K), with no layer 2(-K); each of the 56 members is
    # replayed once
    searched, replayed = [], []
    search, period = monomials._search_supports, monomials._period

    def counted_search(q, d, h, periods):
        searched.append(d)
        return search(q, d, h, periods)

    def counted_period(q, w0, subset, ray):
        replayed.append(subset)
        return period(q, w0, subset, ray)

    monkeypatch.setattr(monomials, "_search_supports", counted_search)
    monkeypatch.setattr(monomials, "_period", counted_period)
    dp4_stdin(monkeypatch)
    code, out, _ = run(capsys, ["irrelevant", "-", "--degree",
                                "3,-1,-1,-1,-1,-1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 40 and report["stable"] is False
    assert searched == [(3, -1, -1, -1, -1, -1)]
    assert len(replayed) == len(set(replayed)) == 56


def test_corrupted_fibre_ray_fails_the_period_replay(monkeypatch, capsys,
                                                      class_cache):
    # one ray of the fibre's double description gains 1 on a column of
    # its support: its point p lambda / t no longer lies over p w0, so
    # reading the periods raises, and irrelevant exits 4
    real = monomials._fibre_rays

    def corrupted(kernel, target):
        rays = real(kernel, target)
        first = next(i for i, r in enumerate(rays) if r[-1] and any(r[:-1]))
        j = next(j for j, x in enumerate(rays[first]) if x)
        ray = list(rays[first])
        ray[j] += 1
        return [*rays[:first], tuple(ray), *rays[first + 1:]]

    monkeypatch.setattr(monomials, "_fibre_rays", corrupted)
    with pytest.raises(RuntimeError, match="exponent vector failed replay"):
        irrelevant_radical(DegreeMatrix.make([(1,), (1,), (1,)]), (1,))
    code, out, err = run(capsys, ["irrelevant", "--dataset", "p2",
                                  "--degree", "1"])
    assert code == 4 and out == ""
    assert err == "internal error: exponent vector failed replay\n"


def test_reproduce_corrupted_dataset_names_first_failure(monkeypatch):
    # the bundled matrix with two columns swapped, the classes kept
    dp = delpezzo4()
    cols = list(dp.degrees.columns)
    cols[0], cols[1] = cols[1], cols[0]
    monkeypatch.setattr(delpezzo, "delpezzo4", lambda: DelPezzo4(
        DegreeMatrix.make(cols), dp.ample, dp.anti_canonical, dp.heft))
    report = reproduce_paper_report()
    assert report["overall"] is False
    assert report["firstFailed"] == "gale-hermite"
    failed = [c for c in report["checks"] if not c["verdict"]]
    assert failed and failed[0]["name"] == "gale-hermite"


def test_usage_errors(capsys):
    code, _, err = run(capsys, ["fan", "--degree", "1,1"])
    assert code == 2 and "required" in err
    code, _, err = run(capsys, ["fan", "--dataset", "p2", "--degree",
                                "1,x"])
    assert code == 2
    code, _, err = run(capsys, ["fan", "--dataset", "p2"])
    assert code == 2 and "--degree" in err
    code, _, err = run(capsys, ["irrelevant", "--dataset", "p2",
                                "--degree", "1,1"])
    assert code == 2 and "degree length" in err


# argparse's own output (help, --version and usage errors) for each argv,
# captured with COLUMNS=80 from the CLI that parsed every argv with the
# whole argparse tree
USAGE_CASES = json.loads((ROOT / "tests" / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE_CASES, ids=[
    " ".join(case["argv"]) or "no arguments" for case in USAGE_CASES])
def test_usage_bytes_are_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == \
        (case["code"], case["stdout"], case["stderr"])


def test_a_command_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    cli._command_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for _ in range(2):
        code, out, _ = run(capsys, ["basis", "--dataset", "p2", "--degree",
                                    "1"])
        assert code == 0 and "monomials: 3" in out
    # a valid command line is read off the command table
    assert built == []
    for _ in range(2):
        # an abbreviated option is left to the command's parser, built once
        code, out, _ = run(capsys, ["basis", "--dataset", "p2", "--deg",
                                    "1"])
        assert code == 0 and "monomials: 3" in out
    assert built == ["coxtoric basis"]


# the argv shapes of the benchmark's four workloads and of README's examples
TABLE_ARGVS = [
    ["reproduce-paper", "--json"],
    ["irrelevant", ".bench_work/dp4.json", "--degree", "3,-1,-1,-1,-1,-1",
     "--json"],
    ["chamber", "--dataset", "delpezzo4", "--degree", "1,0,0,-1,1",
     "--compare", "2,0,0,-2,2", "--json"],
    ["incidence", "search", "--seed", "856277114", "--json"],
    ["gale", "--dataset", "delpezzo4", "--reference", "paper-AT"],
    ["basis", "--dataset", "p2", "--degree", "2"],
    ["irrelevant", "--dataset", "delpezzo4", "--degree", "3,-1,-1,-1,-1"],
    ["fan", "--dataset", "delpezzo4", "--degree", "11,-5,-3,-2,-1"],
    ["chamber", "--dataset", "delpezzo4", "--degree", "11,-5,-3,-2,-1",
     "--compare", "3,-1,-1,-1,-1"],
    ["embed", "--dataset", "delpezzo4"],
    ["incidence", "verify-paper"],
    ["incidence", "search", "--seed", "1", "--max-tries", "100"],
    ["reproduce-paper"],
    ["chamber", "signed.json", "--degree", "-1,2", "--compare", "-1,3"],
    ["fan", "--dataset", "delpezzo4", "--degree", "3,-1,-1,-1,-1",
     "--saturate", "2", "--json"],
]


@pytest.mark.parametrize("argument", [
    ("--classes", {"nargs": "+"}),
    ("--extra", {"action": "append"}),
    ("--reference", {"required": True}),
], ids=["nargs", "action", "keyword"])
def test_table_refuses_an_argument_it_cannot_read(monkeypatch, argument):
    # a kind of argument the table parser does not read raises, naming
    # it, instead of being misread
    help_text, arguments, handler = cli._COMMANDS["basis"]
    monkeypatch.setitem(cli._COMMANDS, "basis",
                        (help_text, (*arguments, argument), handler))
    cli._declarations.cache_clear()
    try:
        with pytest.raises(TypeError, match=f"^{argument[0]}: "):
            cli._declarations("basis")
    finally:
        cli._declarations.cache_clear()


@pytest.mark.parametrize("argv", TABLE_ARGVS, ids=" ".join)
def test_table_parser_reads_workload_and_readme_argvs(argv):
    argv = cli._join_signed_classes(argv)
    parsed = cli._parse_command(argv[0], argv[1:])
    assert parsed is not None
    args, extra = cli._command_parser(argv[0]).parse_known_args(argv[1:])
    assert (vars(parsed), extra) == (vars(args), [])


@pytest.mark.parametrize("argv, by_table", [
    (["basis", "--dataset", "p2", "--deg", "1"], False),
    (["incidence", "search", "--seed", "-1", "--json"], False),
    (["irrelevant", "-", "--degree", "1"], False),
    (["irrelevant", "--degree", "1", "--json", "p2.json"], True),
])
def test_argvs_left_to_argparse_run_as_before(tmp_path, monkeypatch, capsys,
                                              argv, by_table):
    # the second run reads every argv with argparse, as the CLI did before
    # it had a table parser
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p2.json").write_text(json.dumps(P2_INPUT))
    assert (cli._parse_command(argv[0], argv[1:]) is not None) == by_table
    results = []
    for table in (cli._parse_command, lambda name, argv: None):
        monkeypatch.setattr(cli, "_parse_command", table)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(P2_INPUT)))
        results.append(run(capsys, argv))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][2] == ""


def test_cli_import_runs_no_generated_code_and_freezes_once():
    # a fresh interpreter, as a CLI run starts: no module generates code
    # at import (dataclasses and the modules it pulls in stay unloaded),
    # a valid command line loads no argparse (nor the gettext and locale
    # it pulls in), the import-time heap is frozen, and running commands
    # freezes no job garbage
    script = (
        "import gc, io, json, sys, contextlib\n"
        "import coxtoric.cli\n"
        "frozen = gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [coxtoric.cli.main(['basis', '--dataset', 'p2',\n"
        "                                '--degree', '1']) for _ in 'ab']\n"
        "print(json.dumps({'codes': codes, 'frozen': frozen,\n"
        "                  'after': gc.get_freeze_count(),\n"
        "                  'loaded': sorted(m for m in ('dataclasses',\n"
        "                      'inspect', 'ast', 'dis', 'tokenize',\n"
        "                      'linecache', 'copy', 'argparse', 'gettext',\n"
        "                      'locale')\n"
        "                      if m in sys.modules)}))\n")
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0] and report["loaded"] == []
    assert report["frozen"] > 0 and report["after"] == report["frozen"]


@pytest.mark.parametrize("degree", ["1_0", "\u0661", " 1", "1 "])
def test_degree_fields_read_strictly(capsys, degree):
    # int() accepts all of these
    code, out, err = run(capsys, ["irrelevant", "--dataset", "p2",
                                  "--degree", degree])
    assert code == 2 and out == ""
    assert err == "error: --degree must be comma-separated integers\n"
    code, out, err = run(capsys, ["chamber", "--dataset", "p2", "--degree",
                                  "1", "--compare", degree])
    assert code == 2
    assert err == "error: --compare must be comma-separated integers\n"


@pytest.mark.parametrize("argv", [
    ["irrelevant", "--dataset", "p2", "--degree", "1", "--saturate", "1_0"],
    ["fan", "--dataset", "p2", "--degree", "1", "--saturate", "\u0661"],
    ["incidence", "search", "--seed", "1_0"],
    ["incidence", "search", "--max-tries", "\u0661\u0660"],
    ["reproduce-paper", "--saturate", " 1"],
])
def test_integer_flags_read_strictly(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err


def test_integer_accepts_a_sign():
    assert cli.integer("+7") == 7 and cli.integer("-12") == -12


def test_input_and_reference_files_are_closed(tmp_path, capsys):
    sample = tmp_path / "p2.json"
    sample.write_text(json.dumps(P2_INPUT))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps([[1, -1, 0], [0, 1, -1]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, ["gale", str(sample), "--reference",
                                  str(ref)])
        gc.collect()
    assert code in (0, 1)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_both_sources_rejected(tmp_path, capsys):
    sample = tmp_path / "p2.json"
    sample.write_text(json.dumps({
        "picRank": 1, "numGens": 3,
        "columns": [[1], [1], [1]],
        "labels": ["x", "y", "z"]}))
    code, _, err = run(capsys, ["gale", str(sample), "--dataset", "p2"])
    assert code == 2 and "not both" in err


def test_guard_exceeded_exit_code(tmp_path, capsys):
    wide = tmp_path / "wide.json"
    n = 17
    wide.write_text(json.dumps({
        "picRank": 1, "numGens": n,
        "columns": [[1]] * n,
        "labels": [f"x{i}" for i in range(n)]}))
    for command in ("chamber", "irrelevant", "fan"):
        code, _, err = run(capsys, [command, str(wide), "--degree", "1"])
        assert code == 3, command
        assert "too large" in err
    # chamber finds the effective cone through the guarded subset search,
    # so a class outside it also exits 3, and so does the zero class,
    # whose minimal subsets are the single columns
    for degree in ("-1", "0"):
        code, _, err = run(capsys, ["chamber", str(wide), "--degree", degree])
        assert code == 3 and "too large" in err, degree


def test_closed_stdout_is_not_a_check_failure():
    # a reader that closes the pipe before the report is written (as
    # `| head -1` does) leaves the checks' exit code, with no traceback
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "coxtoric.cli", "reproduce-paper", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


@pytest.mark.parametrize("source, degree, compare, message", [
    (None, "1", "x", "--compare must be comma-separated integers"),
    (None, "1", "1,1", "compare class length does not match picRank"),
    ("p2", "-1", "x", "--compare must be comma-separated integers"),
    ("p2", "x", "x", "--degree must be comma-separated integers"),
])
def test_chamber_classes_parsed_before_any_computation(
        tmp_path, capsys, source, degree, compare, message):
    # None: a grading whose chamber search would exceed the guard
    if source is None:
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({
            "picRank": 1, "numGens": 17, "columns": [[1]] * 17,
            "labels": [f"x{i}" for i in range(17)]}))
        source_args = [str(wide)]
    else:
        source_args = ["--dataset", source]
    code, out, err = run(capsys, ["chamber", *source_args, "--degree",
                                  degree, "--compare", compare])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# a positive grading on which (-1, 2) = (-1, 1) + (0, 1) is effective
SIGNED_INPUT = {"picRank": 2, "numGens": 3,
                "columns": [[1, 0], [-1, 1], [0, 1]],
                "labels": ["x", "y", "z"]}


@pytest.mark.parametrize("degree, compare", [
    (["--degree", "-1,2"], ["--compare", "-1,3"]),
    (["--degree=-1,2"], ["--compare=-1,3"]),
    (["--deg", "-1,2"], ["--comp", "-1,3"]),
])
def test_classes_with_a_leading_minus_sign(tmp_path, capsys, degree,
                                           compare):
    # a separate value starting with '-' that is not a plain negative
    # number is no longer read as an option
    sample = tmp_path / "signed.json"
    sample.write_text(json.dumps(SIGNED_INPUT))
    code, out, err = run(capsys, ["chamber", str(sample), *degree,
                                  *compare])
    assert (code, err) == (0, "")
    assert "class: (-1, 2)" in out
    assert "same chamber as (-1, 3): yes" in out
    for command in ("basis", "irrelevant"):
        code, out, err = run(capsys, [command, str(sample), *degree])
        assert (code, err) == (0, ""), command
        assert "degree: (-1, 2)" in out


@pytest.mark.parametrize("flags", [
    ["--degree", "3,-1,-1,-1,-1", "--compare", "-1,0,0,0,0"],
    ["--degree", "-1,0,0,0,0", "--compare", "3,-1,-1,-1,-1"],
    ["--degree", "-1,0,0,0,0"],
])
def test_signed_class_outside_the_effective_cone(capsys, flags):
    code, out, err = run(capsys, ["chamber", "--dataset", "delpezzo4",
                                  *flags])
    assert (code, out) == (2, "")
    assert err == "error: class outside the effective cone\n"


@pytest.mark.parametrize("compare", [[], ["--compare", "3,-1,-1,-1,-1"]],
                         ids=["alone", "compare"])
@pytest.mark.parametrize("depth", [["--saturate", "0"], ["--saturate=-3"],
                                   ["--saturate", "-3"]])
def test_chamber_rejects_a_depth_below_one(capsys, compare, depth):
    # chamber checks --saturate whether or not --compare reads it, as
    # every other command that takes a depth does
    code, out, err = run(capsys, ["chamber", "--dataset", "delpezzo4",
                                  "--degree", "11,-5,-3,-2,-1", *compare,
                                  *depth])
    assert (code, out) == (2, "")
    assert err == "error: saturation depth must be at least 1\n"


def test_signed_values_are_joined_only_to_class_options():
    join = cli._join_signed_classes
    assert join(["chamber", "--degree", "-1,2", "--compare", "-3,4"]) == \
        ["chamber", "--degree=-1,2", "--compare=-3,4"]
    # other options, values that are no signed number, and anything after
    # "--" pass through unchanged
    for argv in (["incidence", "search", "--seed", "-1"],
                 ["chamber", "--degree", "-h"],
                 ["chamber", "--degree", "--json"],
                 ["chamber", "--", "--degree", "-1,2"]):
        assert join(argv) == argv


P2_INPUT = {"picRank": 1, "numGens": 3, "columns": [[1], [1], [1]],
            "labels": ["x", "y", "z"]}


@pytest.mark.parametrize("field, value, message", [
    ("columns", [[1.7], [1], [1]], "column entries must be integers"),
    ("columns", [[True], [1], [1]], "column entries must be integers"),
    ("columns", [1, 1, 1], "columns must be a list of lists"),
    ("labels", [1, 2, 3], "labels must be strings"),
    ("heft", [True], "heft entries must be integers"),
    ("heft", [1.5], "heft entries must be integers"),
    ("picRank", True, "picRank must be a positive integer"),
])
def test_malformed_input_rejected(tmp_path, capsys, field, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**P2_INPUT, field: value}))
    code, out, err = run(capsys, ["basis", str(bad), "--degree", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def _raise_replay_failure(message):
    def stage(*args, **kwargs):
        raise RuntimeError(message)
    return stage


def _negated_support(fan, ideal, vertices, real=fans.fibre_support):
    # real is the unpatched fibre_support, bound before the test patches it
    return tuple(tuple(-x for x in m) for m in real(fan, ideal, vertices))


@pytest.mark.parametrize("module, name, stage, argv, message", [
    (cli, "gale_dual", _raise_replay_failure("kernel verification failed"),
     ["gale", "--dataset", "p2"], "kernel verification failed"),
    # the fan command reads its support function off the fibre vertices;
    # a corrupted one fails fan_report's vertex replay
    (fans, "fibre_support", _negated_support,
     ["fan", "--dataset", "p2", "--degree", "1"],
     "support function fails vertex replay"),
], ids=["gale", "fan"])
def test_internal_error_exit_code(monkeypatch, capsys, module, name, stage,
                                  argv, message):
    monkeypatch.setattr(module, name, stage)
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_unsaturated_kernel_is_an_internal_error(monkeypatch, capsys):
    def doubled_first_row(m):
        rows = kernel_lattice(m).to_rows()
        return IntMat.from_rows([[2 * x for x in rows[0]]] + rows[1:])

    monkeypatch.setattr(grading, "kernel_lattice", doubled_first_row)
    with pytest.raises(RuntimeError, match="kernel basis not saturated"):
        grading.gale_dual(delpezzo4().degrees)
    code, out, err = run(capsys, ["gale", "--dataset", "p2"])
    assert code == 4 and out == ""
    assert err == "internal error: kernel basis not saturated\n"
