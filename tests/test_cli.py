"""Command-line pipeline: exit codes, JSON reports, determinism, goldens."""

import json
import pathlib
import time

import pytest

import ncgraded
from ncgraded import cli
from ncgraded.exactla import F32003, field_from_name, same_row_spans
from ncgraded.groebner import complete
from ncgraded.presentation import builtin, parse
from ncgraded.resolution import ResolutionError
from ncgraded.cli import (RunConfig, UsageError, main, normal_element_scan,
                          render_text, run)

from support import (REDUNDANT_GENERATORS, REDUNDANT_IDS,
                     normal_elements_one_by_one)

GOLDEN = pathlib.Path(ncgraded.__file__).parent / "golden"

LIGHT = ("hilbert", "betti", "koszul", "asregular")
FULL = LIGHT + ("hochschild", "rigidity")

GOLDEN_CONFIGS = {
    "free-2": (LIGHT, 8),
    "free-3": (("hilbert", "betti", "koszul"), 6),
    "polynomial-1": (FULL, 8),
    "polynomial-2": (FULL, 8),
    "polynomial-3": (LIGHT, 8),
    "quantum-plane-2": (FULL, 8),
    "smith-zhang": (LIGHT, 8),
    "weyl-filtered": (LIGHT, 8),
    "weyl-homogenized": (LIGHT, 8),
}


def run_builtin(name, **kw):
    checks, dbound = GOLDEN_CONFIGS[name]
    cfg = RunConfig(input=name, field=F32003, degree_bound=dbound,
                    homological_bound=5, checks=checks, seed=0, **kw)
    return run(cfg)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_reports_match_goldens(name):
    report, code = run_builtin(name)
    assert code == 0
    report.pop("generated_at")
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert payload == (GOLDEN / f"report_{name}.json").read_text()


@pytest.mark.parametrize("check", ["hochschild", "rigidity"])
def test_bimodule_checks_alone_match_the_full_golden(check):
    # the one-sided resolution still runs, to guide the bimodule one, but
    # its table is not reported
    golden = json.loads((GOLDEN / "report_quantum-plane-2.json").read_text())
    report, code = run(RunConfig(input="quantum-plane-2", degree_bound=8,
                                 homological_bound=5, checks=(check,)))
    assert code == 0
    assert "betti" not in report
    assert report[check] == golden[check]


@pytest.mark.parametrize("name,text", REDUNDANT_GENERATORS,
                         ids=REDUNDANT_IDS)
def test_redundant_generator_reports_as_the_algebra_without_it(
        tmp_path, name, text):
    # Koszul does not apply to a degree-2 generator, and rigidity may
    # differ, but the rest of a FULL report is the builtin's
    path = tmp_path / "redundant.alg"
    path.write_text(text)
    bounds = dict(degree_bound=6, homological_bound=4, checks=FULL)
    report, code = run(RunConfig(str(path), is_path=True, **bounds))
    assert code == 0
    ref, _ = run(RunConfig(name, **bounds))
    assert report["hilbert"]["dims"] == ref["hilbert"]["dims"]
    assert report["betti"]["entries"] == ref["betti"]["entries"]
    for key in ("ext_k_A", "hochschild", "invariants"):
        assert report[key] == ref[key], key


@pytest.mark.parametrize("rel", ["x*y - y*x", "x*y - 2*y*x", "y - x*x"])
def test_no_twist_is_extracted_with_a_generator_of_degree_2(tmp_path, rel):
    # the twist is solved for among the letters, in the blocks one degree
    # above the lowest class, so it needs every generator of degree 1
    path = tmp_path / "mixed.alg"
    path.write_text(f"algebra mixed over F32003\ndeg x = 1, y = 2\nrel {rel}\n")
    report, code = run(RunConfig(str(path), is_path=True, degree_bound=8,
                                 homological_bound=4, checks=FULL))
    assert code == 0
    rig = report["rigidity"]
    assert rig["graded_match"] is True
    assert rig["twist_on_generators"] is None
    assert rig["notes"] == ["a generator has degree above 1; "
                            "twist not extracted"]


def test_free_algebra_resolves_wide_windows_at_once():
    # free-3 has no rules, so no chain sits past stage 1 and the left
    # resolution builds no kernel.  The full sieve, whose stage-2 kernels
    # are 3^11 wide, took about 6 s and 390 MB on a 2-core Xeon VM
    t0 = time.monotonic()
    report, code = run(RunConfig(input="free-3", degree_bound=11,
                                 homological_bound=5,
                                 checks=("hilbert", "betti", "koszul")))
    elapsed = time.monotonic() - t0
    assert code == 0
    assert report["betti"]["entries"] == {"0,0": 1, "1,1": 3}
    assert report["betti"]["koszul"]["verdict"] is True
    assert elapsed <= 2.0


def test_runs_are_deterministic():
    a, _ = run_builtin("quantum-plane-2")
    b, _ = run_builtin("quantum-plane-2")
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_render_text_sections():
    report, _ = run_builtin("smith-zhang")
    text = render_text(report)
    assert "hilbert:" in text
    assert "gldim: 4 (certified)" in text
    assert "asregular: fails" in text
    assert "seed probe 0: agrees" in text


def test_text_summary_lists_entries_in_the_order_of_their_keys():
    # a table's keys are sorted as (level, degree), not as the strings
    # "i,j"; the twist keeps the generators in the order of the presentation
    report, _ = run(RunConfig(input="quantum-plane-2", degree_bound=12,
                              homological_bound=5, checks=FULL))
    text = render_text(report)
    assert text.index("H[2,9]=8") < text.index("H[2,10]=9")
    report, _ = run(RunConfig(input="weyl-homogenized", degree_bound=6,
                              homological_bound=4, checks=("rigidity",)))
    assert list(report["rigidity"]["twist_on_generators"]) == ["x", "y", "t"]


@pytest.mark.parametrize("name", ["polynomial-2", "quantum-plane-2",
                                  "smith-zhang"])
def test_reports_hold_only_json_values(name):
    # the goldens are compared with in-process reports, so a tuple or a
    # non-string key in a report would make equal reports compare unequal
    report, _ = run(RunConfig(input=name, field=field_from_name("Q"),
                              degree_bound=7, homological_bound=4,
                              checks=FULL))
    assert json.loads(json.dumps(report)) == report


def test_seed_probe_recorded():
    report, _ = run_builtin("polynomial-2")
    assert report["seed_probe"]["agrees"] is True
    assert report["seed_probe"]["seed"] == 0


def test_claim_pass_and_exit_codes(capsys):
    code = main(["--builtin", "smith-zhang", "--claim", "1/(1-t)^4",
                 "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hilbert"]["claim"]["ok"] is True
    assert report["as_verdict"]["status"] == "fails"


def test_claim_mismatch_exits_one(capsys):
    code = main(["--builtin", "smith-zhang", "--claim", "1/(1-t)^3"])
    assert code == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out


@pytest.mark.parametrize("argv", [
    ["--builtin", "no-such-algebra"],
    ["--builtin", "polynomial-2", "--field", "F4"],
    ["--builtin", "polynomial-2", "-d", "1"],
    ["--builtin", "polynomial-2", "--check", "hilbert,bogus"],
    ["--builtin", "polynomial-2", "--claim", "1/(1-t"],
    ["--builtin", "polynomial-2", "--claim", "t^1000000"],
    ["--input", "/no/such/file.alg"],
    ["--builtin", "polynomial-2", "--field", "F4294967311", "-d", "4", "-h", "3"],
    ["--builtin", "free-9"],
    ["--builtin", "free-x"],
    ["--builtin", "polynomial-2", "-d", "4", "-h", "2", "--check", "hilbert",
     "--json", "/no/such/dir/r.json"],
    pytest.param(["--builtin", "polynomial-2", "--claim", "9" * 5000],
                 id="claim-5000-digits"),
])
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("claim,message", [
    ("1/(1-x)", "col 6: unknown name 'x'; a claim is in t"),
    ("1/(1-t)^257", "col 9: exponent above 256"),
    ("1/(1-" + "9" * 601 + "*t)", "col 6: integer literal longer than 600 digits"),
    ("(1-t", "col 4: unexpected end of claim"),
], ids=["name", "exponent", "601-digits", "end"])
def test_claim_errors_name_their_column(claim, message, capsys):
    # claims are read by the relations' parser, under the same bounds
    assert main(["--builtin", "polynomial-2", "--claim", claim]) == 2
    assert capsys.readouterr().err == \
        f"ncgraded: error: series claim, {message}\n"


@pytest.mark.parametrize("body", [
    "deg x = 1, y = 1\nrel " + "9" * 5000 + "*x*y - y*x",
    "deg x = " + "9" * 5000 + ", y = 1\nrel x*y - y*x",
    "deg x = 1\nrel x^100000",
    "deg x = 1, y = 1\nrel (x+y)^40",
], ids=["coefficient", "degree", "exponent", "terms"])
def test_oversized_input_exits_two_at_once(body, tmp_path, capsys):
    path = tmp_path / "a.alg"
    path.write_text("algebra a over F32003\n" + body + "\n")
    start = time.perf_counter()
    assert main(["--input", str(path)]) == 2
    # unbounded, x^20000 took 4 s and the cost grew quadratically in the
    # exponent; refused, each case takes milliseconds
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err.startswith("ncgraded: error: line ")


def test_resolution_error_exits_three(monkeypatch, capsys):
    def fail(cfg):
        raise ResolutionError("unit coefficient in a syzygy")
    monkeypatch.setattr(cli, "run", fail)
    assert main(["--builtin", "polynomial-2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ncgraded: error: resolution failed: "
                            "unit coefficient in a syzygy\n")


@pytest.mark.parametrize("exc", [ValueError("attempt to get argmax of an\n"
                                            "empty sequence"),
                                 AssertionError("pivot row is zero")])
def test_internal_errors_exit_four(exc, monkeypatch, capsys):
    def fail(cfg):
        raise exc
    monkeypatch.setattr(cli, "run", fail)
    assert main(["--builtin", "polynomial-2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    msg = " ".join(str(exc).split())
    assert captured.err == ("ncgraded: internal error: "
                            f"{type(exc).__name__}: {msg}\n")


def test_degree_bound_below_relations_exits_two(tmp_path, capsys):
    src = tmp_path / "cubic.alg"
    src.write_text("""
algebra cubic over F32003
deg x = 1, y = 1
rel y*x*x - x*x*y
""")
    assert main(["--input", str(src), "-d", "2", "--check", "hilbert"]) == 2
    assert "relation degree" in capsys.readouterr().err


def test_homogenizing_generator_must_be_a_new_name(tmp_path, capsys):
    src = tmp_path / "filtered.alg"
    src.write_text("filtered algebra f over F32003\ndeg x = 1, t = 1\n"
                   "rel t*x - x*t - x\n")
    assert main(["--input", str(src), "-d", "4", "--check", "hilbert"]) == 2
    assert capsys.readouterr().err == (
        "ncgraded: error: name collision: 't' already a generator\n")


def test_text_summary_of_a_truncated_system(tmp_path, capsys):
    # no completion of the cyclic input is globally complete, so no stage
    # of its resolution is certified complete beyond the window
    src = tmp_path / "cyclic.alg"
    src.write_text("algebra cyclic over F32003\ndeg x = 1, y = 1, z = 1\n"
                   "rel x*y - y*x - z*z\nrel y*z - z*y - x*x\n"
                   "rel z*x - x*z - y*y\n")
    assert main(["--input", str(src), "-d", "6", "-h", "4",
                 "--check", "hilbert,betti"]) == 0
    out = capsys.readouterr().out
    assert "rewriting: 13 rules, complete below 6" in out
    assert ("gldim: 3 (stages [1, 2, 3, 4] not certified complete within "
            "degree 6)") in out


def test_argparse_conflicts_exit_two(capsys):
    assert main([]) == 2
    assert main(["--builtin", "a", "--input", "b"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--degree-bound" in out or "-d" in out


def test_json_file_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--builtin", "polynomial-2", "-d", "6", "-h", "3",
                 "--check", "hilbert", "--json", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["hilbert"]["dims"] == [1, 2, 3, 4, 5, 6, 7]
    # text summary still lands on stdout
    assert "hilbert:" in capsys.readouterr().out


def test_input_file_matches_builtin(tmp_path, capsys):
    src = tmp_path / "qplane.alg"
    src.write_text("""
algebra qplane over F32003
deg x = 1, y = 1
rel y*x - 2*x*y
""")
    code = main(["--input", str(src), "-d", "6", "-h", "3",
                 "--check", "hilbert", "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hilbert"]["dims"] == [1, 2, 3, 4, 5, 6, 7]
    assert report["algebra"] == "qplane"


def test_filtered_input_is_homogenized():
    report, code = run_builtin("weyl-filtered")
    assert code == 0
    assert any("homogenized" in n for n in report["notes"])
    assert report["hilbert"]["dims"][:4] == [1, 3, 6, 10]


def test_scan_finds_quantum_plane_scalars():
    rs = complete(builtin("quantum-plane-2", field=field_from_name("F3")), 8)
    findings = normal_element_scan(rs, 2)
    assert findings["heuristic"] is True
    assert findings["skipped"] == []
    assert findings["degrees"][1]["normal"] == ["(1)*x", "(1)*y"]
    assert findings["degrees"][1]["tested"] == 4
    assert findings["degrees"][2]["found"] == 5


def test_scan_guard_and_field_requirements():
    rs = complete(builtin("quantum-plane-2"), 8)  # F_32003: nothing fits
    with pytest.raises(UsageError):
        normal_element_scan(rs, 2)
    rsq = complete(builtin("quantum-plane-2", field=field_from_name("Q")), 8)
    with pytest.raises(UsageError):
        normal_element_scan(rsq, 2)


def test_scan_through_cli_small_field(capsys):
    code = main(["--builtin", "quantum-plane-2", "--field", "F3",
                 "-d", "4", "-h", "2", "--check", "normal-elements",
                 "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    degrees = report["normal_elements"]["degrees"]
    assert degrees["1"]["normal"] == ["(1)*x", "(1)*y"]


SCAN_INPUTS = {
    # every quadratic word is a relation: the degree-2 basis is empty
    "nil": "deg x = 1, y = 1\nrel x*x\nrel x*y\nrel y*x\nrel y*y\n",
    "weighted": "deg x = 2, y = 1\nrel x*y - y*x\n",
    # x*y = 0 makes the spans unequal in both directions: x*(x, y) has
    # y*x outside (x, y)*x, and (y, x)*y has y*x outside y*(y, x)
    "one_sided": "deg x = 1, y = 1\nrel x*y\n",
    # x alone spans degree 1, and y*x is outside span{x*y}
    "free_weighted": "deg x = 1, y = 2\n",
}


def _scan_system(name, field):
    if name in SCAN_INPUTS:
        text = f"algebra {name} over {field}\n" + SCAN_INPUTS[name]
        return complete(parse(text), 6)
    return complete(builtin(name, field=field_from_name(field)), 6)


# (system, field, top scan degree, cells per block or None for the default);
# polynomial-3 at 1000 cells runs its 1023 degree-3 candidates in 52 blocks
# of at most 22
@pytest.mark.parametrize("name,field,dmax,cells", [
    ("nil", "F3", 3, None),
    ("weighted", "F3", 4, None),
    ("one_sided", "F3", 2, None),
    ("quantum-plane-2", "F5", 3, None),
    # t^2 = x*y - y*x commutes with x, y and t, the other 80 candidates of
    # its block do not
    ("weyl-homogenized", "F3", 2, None),
    ("polynomial-3", "F2", 3, 1000),
    ("quantum-plane-2", "F13", 3, None),    # the spans in int16
    # p above 2**16 at n = 1: the products are reduced in int32, the spans
    # compared in int64
    ("free_weighted", "F65537", 1, None),
])
def test_scan_matches_one_by_one_reference(name, field, dmax, cells,
                                           monkeypatch):
    if cells is not None:
        monkeypatch.setattr(cli, "_SCAN_CELLS", cells)
    rs = _scan_system(name, field)
    findings = normal_element_scan(rs, dmax)
    assert findings["degrees"]
    for d, data in findings["degrees"].items():
        assert data["normal"] == normal_elements_one_by_one(rs, d)


def test_scan_finds_every_element_of_a_commutative_algebra_normal(
        monkeypatch):
    # every generator commutes with every element, so no candidate needs a
    # span test, and every candidate must pass
    def no_span_test(a, b, p):
        raise AssertionError("span test of a commuting candidate")

    monkeypatch.setattr(cli, "same_row_spans", no_span_test)
    findings = normal_element_scan(_scan_system("polynomial-2", "F7"), 4)
    assert list(findings["degrees"]) == [1, 2, 3, 4]
    for data in findings["degrees"].values():
        assert data["found"] == data["tested"] == len(data["normal"])


def test_scan_span_tests_only_the_candidates_that_do_not_commute(
        monkeypatch):
    # in weyl-homogenized over F3 t is central and x, y are not: the
    # degree-1 blocks by pivot x, y and t send 9 of 9, 3 of 3 and 0 of 1
    # candidates to the span test.  In degree 2 (basis x*x, x*y, x*t, y*x,
    # y*y, y*t) only t^2 = x*y - y*x commutes, and the block of pivot x*y
    # sends 80 of its 81
    rows = []

    def counted(a, b, p):
        rows.append(a.shape[0])
        return same_row_spans(a, b, p)

    monkeypatch.setattr(cli, "same_row_spans", counted)
    normal_element_scan(_scan_system("weyl-homogenized", "F3"), 2)
    assert rows == [9, 3, 0, 243, 80, 27, 9, 3, 1]


def test_scan_without_a_degree_to_scan_names_the_degree_bound(tmp_path,
                                                              capsys):
    src = tmp_path / "w.alg"
    src.write_text("algebra w over F3\ndeg x = 3, y = 1\nrel y*y\n")
    code = main(["--input", str(src), "-d", "3", "--check",
                 "normal-elements"])
    assert code == 2
    err = capsys.readouterr().err
    assert "top generator degree 3" in err and "-d 3" in err
    # one degree above the top generator degree scans degree 1
    assert main(["--input", str(src), "-d", "4", "--check",
                 "normal-elements"]) == 0
    capsys.readouterr()
    # a lone generator of degree 3 leaves degrees 1 and 2 zero at -d 5
    src.write_text("algebra w over F3\ndeg x = 3\n")
    assert main(["--input", str(src), "-d", "5", "--check",
                 "normal-elements"]) == 2
    assert "zero in degrees 1 to 2" in capsys.readouterr().err


def test_runconfig_validation():
    with pytest.raises(UsageError):
        RunConfig(input="polynomial-2", degree_bound=1)
    with pytest.raises(UsageError):
        RunConfig(input="polynomial-2", homological_bound=0)
    with pytest.raises(UsageError):
        RunConfig(input="polynomial-2", checks=("hilbert", "nope"))


def test_monomial_overlaps_above_the_bound_resolve(tmp_path, capsys):
    # x^3 overlaps itself in degree 5, above the bound; an overlap of two
    # zero-tail rules resolves in every degree, so the system is complete
    src = tmp_path / "cube.alg"
    src.write_text("algebra cube over F32003\ndeg x = 1\nrel x^3\n")
    assert main(["--input", str(src), "-d", "4", "-h", "3", "--check", "betti",
                 "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["groebner"]["globally_complete"]
    assert report["betti"]["entries"] == {"0,0": 1, "1,1": 1, "2,3": 1,
                                          "3,4": 1}
    stages = report["betti"]["stage_complete"]
    assert stages["1"] and stages["2"]
