import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import types

import pytest

from dicube import acceptance, cat, cli, cset, cube, spaces


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cube_enumerate(capsys):
    code, out, _ = run_cli(capsys, "cube", "enumerate", "--dom", "2", "--cod", "2")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["count"] == 14
    assert "2->2: [0, 0]" in report["result"]["morphisms"]


def test_cube_enumerate_class_filter(capsys):
    code, out, _ = run_cli(
        capsys, "cube", "enumerate", "--dom", "2", "--cod", "2", "--class", "iso"
    )
    assert json.loads(out)["result"]["count"] == 2


def test_cube_enumerate_lists_the_maps_that_are_neither_epi_nor_mono(capsys):
    code, out, _ = run_cli(
        capsys, "cube", "enumerate", "--dom", "2", "--cod", "2", "--class", "neither"
    )
    expected = [phi.text() for phi in cube.enumerate_maps(2, 2, "neither")]
    assert code == 0 and expected
    assert json.loads(out)["result"]["morphisms"] == expected


@pytest.mark.parametrize("dom, cod", [("1", "-2"), ("-1", "1")])
def test_cube_enumerate_negative_dimension_is_usage_error(capsys, dom, cod):
    code, out, err = run_cli(capsys, "cube", "enumerate", "--dom", dom, "--cod", cod)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        ("cat", "nerve", "--cat", "zmod2", "--trunc", "5"),
        ("cat", "nerve", "--cat", "s3", "--trunc", "5"),
        ("cset", "make", "--shape", "nerve:s3", "--trunc", "5"),
    ],
    ids=" ".join,
)
def test_nerve_beyond_the_enumeration_bound_is_refused_before_enumerating(capsys, command):
    started = time.monotonic()
    code, out, err = run_cli(capsys, *command)
    assert time.monotonic() - started < 0.5
    assert code == 2
    assert out == ""
    assert err == "error: nerve truncation 5 exceeds the enumeration bound 4\n"


def test_nerve_of_a_negative_truncation_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "cat", "nerve", "--cat", "zmod2", "--trunc", "-1")
    assert (code, out, err) == (2, "", "error: nerve truncation -1 is negative\n")


def test_cube_enumerate_charges_the_budget(capsys):
    code, out, err = run_cli(capsys, "--budget", "100", "cube", "enumerate", "--dom", "4", "--cod", "4")
    # the hom-set size stops growing once it passes the limit: the maps
    # with at most one projection number 2^4 + 4 * 4 * 2^3 = 144 > 100
    assert (code, out, err) == (3, "", "error: enumeration budget exceeded (144 > 100)\n")
    code, out, _ = run_cli(capsys, "--budget", "648", "cube", "enumerate", "--dom", "4", "--cod", "4")
    assert code == 0 and json.loads(out)["result"]["count"] == 648


def test_cube_enumerate_of_seven_cubes_is_charged_its_hom_set(capsys):
    # 671,568 fits the default budget of 10^6; listing them takes seconds,
    # so only the charge is checked here
    code, out, err = run_cli(capsys, "--budget", "671567", "cube", "enumerate", "--dom", "7", "--cod", "7")
    assert (code, out, err) == (3, "", "error: enumeration budget exceeded (671568 > 671567)\n")


def test_cube_enumerate_into_the_point_lists_one_map_of_a_huge_cube(capsys):
    code, out, _ = run_cli(capsys, "cube", "enumerate", "--dom", "100000000", "--cod", "0")
    assert code == 0 and json.loads(out)["result"]["morphisms"] == ["100000000->0: []"]


@pytest.mark.parametrize(
    "dom, cod, charge",
    [("100000000", "1", 100000002), ("1", "100000000", 2**20), ("1", "20000", 2**20)],
)
def test_cube_enumerate_of_huge_dimensions_fails_the_budget_at_once(capsys, dom, cod, charge):
    """Neither the specs nor the whole power 2^n are built before the
    budget refuses: one stderr line, exit 3, in well under a second."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "--budget", "1000000", "cube", "enumerate", "--dom", dom, "--cod", cod
    )
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (3, "", f"error: enumeration budget exceeded ({charge} > 1000000)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("cat", "nerve", "--cat", "idem2", "--trunc", "3"),
        ("inv", "h1", "--space", "klein", "--monoid", "zmod4"),
        ("inv", "h1", "--space", "torus", "--monoid", "zmod4"),
        ("inv", "h1", "--space", "torus", "--monoid", "s3"),
        ("inv", "homclasses", "--b", "circle", "--s", "s3"),
        ("inv", "homclasses", "--b", "torus", "--s", "capped"),
        ("inv", "h1", "--space", "torus", "--monoid", "idem2"),
        ("cset", "sd", "circle"),
    ],
    ids=" ".join,
)
def test_reports_do_not_depend_on_hash_seed(argv):
    outputs = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "dicube.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
            check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("k", ["3", "9"])
def test_saved_subdivision_does_not_depend_on_hash_seed(tmp_path, k):
    # the report only counts cells; the saved tables pin their order
    files = set()
    for seed in ("0", "1", "2"):
        path = tmp_path / f"sd{k}-{seed}.json"
        subprocess.run(
            [sys.executable, "-m", "dicube.cli", "cset", "sd", "klein", "--k", k, "--save", str(path)],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
            check=True,
        )
        files.add(path.read_text())
    assert len(files) == 1


def test_dot_of_a_point_at_truncation_zero(capsys):
    code, out, err = run_cli(capsys, "cset", "dot", "cube0", "--trunc", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["dot"] == ["digraph cset {", "  v0;", "}"]


def test_reports_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "inv", "h1", "--space", "torus", "--monoid", "zmod2")
    _, out2, _ = run_cli(capsys, "inv", "h1", "--space", "torus", "--monoid", "zmod2")
    assert out1 == out2


def test_h1_klein_report(capsys):
    code, out, _ = run_cli(capsys, "inv", "h1", "--space", "klein", "--monoid", "zmod4")
    assert code == 0
    assert json.loads(out)["result"]["class_count"] == 8


# sha256 of the reports as they were before h1 was gauge fixed and before
# the report named its unit class
GOLDEN_H1_REPORTS = {
    ("inv", "h1", "--space", "klein", "--monoid", "zmod4"):
        "e3d9603ac3191da8237d1f05f2155f5dc7c1e26de84f77550076ebbb82b5ca1e",
    ("inv", "h1", "--space", "torus", "--monoid", "s3"):
        "d91fb429eb5ccb88f7a7a05d51453445679ec086fb0f6fa6b45a4a2ac495bebf",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_H1_REPORTS), ids=" ".join)
def test_h1_report_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    result = json.loads(out)["result"]
    if "monoid_table" in result:
        # the one key added since, after the representatives; zmod4 has its
        # unit at label 0, so the all-zero weighting's class 0 is the unit
        assert result["unit_class"] == 0
        out = out.replace(',\n    "unit_class": 0\n', "\n")
    else:
        assert "unit_class" not in result
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_H1_REPORTS[argv]


def test_h1_report_names_the_unit_class(tmp_path, capsys):
    # Z/4 with its labels shuffled so that the unit is 3
    z4 = cat.FinMonoid(((2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3)), 3)
    path = tmp_path / "z4.json"
    path.write_text(cat.monoid_to_json(z4))
    code, out, _ = run_cli(capsys, "inv", "h1", "--space", "torus", "--monoid", str(path))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["class_count"] == 16
    assert result["representatives"][result["unit_class"]] == [3, 3]
    table = result["monoid_table"]
    u = result["unit_class"]
    assert all(table[u][x] == x == table[x][u] for x in range(16))


def test_pi0_report(capsys):
    code, out, _ = run_cli(capsys, "inv", "pi0", "edge_boundary")
    assert json.loads(out)["result"]["count"] == 2


def test_tau_report(capsys):
    code, out, _ = run_cli(capsys, "inv", "tau", "--space", "nerve:zmod2", "--n", "1")
    result = json.loads(out)["result"]
    assert result["class_count"] == 2
    assert result["monoid_table"] == [[0, 1], [1, 0]]


def test_tau_of_degree_zero_names_the_degree(capsys):
    code, out, err = run_cli(capsys, "inv", "tau", "--space", "torus", "--n", "0")
    assert (code, out) == (2, "")
    assert err == "error: loop degree must be >= 1, got 0\n"


def test_tau_reads_a_truncation_of_zero(capsys):
    # truncation 0 is a value, not an unset flag: it is too small for loops
    code, out, err = run_cli(capsys, "inv", "tau", "--space", "torus", "--n", "1", "--trunc", "0")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_homclasses_report(capsys):
    code, out, _ = run_cli(capsys, "inv", "homclasses", "--b", "circle", "--s", "s3")
    assert json.loads(out)["result"]["class_count"] == 3


def test_cset_roundtrip_through_files(tmp_path, capsys):
    path = tmp_path / "torus.json"
    code, out, _ = run_cli(
        capsys, "cset", "make", "--shape", "torus", "--trunc", "2", "--save", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "cset", "validate", str(path))
    assert code == 0
    assert json.loads(out)["result"]["valid"]
    code, out, _ = run_cli(capsys, "cset", "sd", str(path), "--k", "3")
    assert code == 0
    assert json.loads(out)["result"]["census"] == [9, 18, 9]


# sha256 of the stdout of `cset sd circle --k K`, recorded before the
# subdivision glued over nondegenerate cells only
CSET_SD_CIRCLE_DIGESTS = {
    "16": "e0533c5930bc6e7c8f7764d5ae8dab8f23358166403095a639aa5e0a52fd5a31",
    "24": "e6aaa2b8b85200d9ece30fdafbd0f89caba35ac90a1962d9efe199c5b2ea6f2f",
}


@pytest.mark.parametrize("k", sorted(CSET_SD_CIRCLE_DIGESTS))
def test_cset_sd_circle_large_k_is_pinned(capsys, k):
    code, out, _ = run_cli(capsys, "cset", "sd", "circle", "--k", k)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CSET_SD_CIRCLE_DIGESTS[k]


def test_cset_sd_usage_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    run_cli(capsys, "cset", "make", "--shape", "circle", "--trunc", "2", "--save", str(path))
    code, _, err = run_cli(capsys, "cset", "sd", str(path), "--k", "0")
    assert code == 2
    assert "subscript" in err


def test_t1_report(capsys):
    code, out, _ = run_cli(capsys, "t1", "klein", "--trunc", "2")
    result = json.loads(out)["result"]
    assert result["objects"] == 1
    assert len(result["generators"]) == 2


def test_cat_classes_report(capsys):
    code, out, _ = run_cli(capsys, "cat", "classes", "--monoid", "s3")
    result = json.loads(out)["result"]
    assert result["count"] == 3
    assert result["cancellative"]
    code, out, _ = run_cli(capsys, "cat", "classes", "--monoid", "idem2")
    result = json.loads(out)["result"]
    assert result["count"] == 1
    assert not result["cancellative"]


def test_cat_nerve_report(capsys):
    code, out, _ = run_cli(capsys, "cat", "nerve", "--cat", "zmod2", "--trunc", "2")
    assert json.loads(out)["result"]["cells"] == [1, 2, 8]


def test_lattice_check(tmp_path, capsys):
    from dicube import lattice as lat

    path = tmp_path / "m3.json"
    path.write_text(lat.to_json(lat.m_lattice(3)))
    code, out, _ = run_cli(capsys, "lattice", "check", str(path))
    result = json.loads(out)["result"]
    assert result["distributive"] is False
    assert result["modular"] is True


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "--budget", "5", "inv", "h1", "--space", "torus", "--monoid", "zmod4"
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "command",
    [
        ("inv", "pi0", "nerve:zmod2"),
        ("inv", "tau", "--space", "nerve:zmod2"),
        ("cset", "make", "--shape", "nerve:zmod2"),
        ("inv", "h1", "--space", "nerve:zmod2", "--monoid", "zmod2"),
    ],
    ids=" ".join,
)
def test_budget_governs_the_nerve_a_space_name_builds(capsys, command):
    code, out, err = run_cli(capsys, "--budget", "5", *command)
    assert code == 3
    assert out == ""
    assert err == "error: enumeration budget exceeded (6 > 5)\n"


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DICUBE_BUDGET", "5")
    code, _, err = run_cli(capsys, "inv", "h1", "--space", "torus", "--monoid", "zmod4")
    assert code == 3


def _edited_json(text, **changes):
    """JSON text with entries replaced (None deletes)."""
    data = json.loads(text)
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return json.dumps(data)


def test_cset_validate_at_truncation_4(capsys):
    code, out, _ = run_cli(capsys, "cset", "validate", "torus", "--trunc", "4")
    assert code == 0
    assert json.loads(out)["result"] == {"valid": True, "cells": [1, 3, 7, 13, 21]}


def _with_table(text, family, key):
    """Cubical-set JSON text with one more table, shaped like a real one."""
    data = json.loads(text)
    data[family][key] = [0] * data["cells"][int(key.split(",")[0])]
    return json.dumps(data)


TORUS = cset.to_json(spaces.torus())
ARROW = cat.cat_to_json(cat.arrow_cat())
CSET = ("cset", "validate")
MONOID = ("cat", "classes", "--monoid")
CAT = ("cat", "nerve", "--cat")
LATTICE = ("lattice", "check")
BAD_SUITES = ("0", "11", "-1", "x")
DECIDE = ("cube", "decide", "--table")


@pytest.mark.parametrize(
    "budget_env, command, text",
    [
        pytest.param("abc", (*CSET, "circle"), None, id="budget-not-a-number"),
        pytest.param("0", (*CSET, "circle"), None, id="budget-zero"),
        pytest.param("-1", (*CSET, "circle"), None, id="budget-negative"),
        pytest.param(None, ("--budget", "0", *CSET, "circle"), None, id="budget-flag-zero"),
        pytest.param(
            None, ("--budget", "-3", "inv", "pi0", "circle"), None, id="budget-flag-negative"
        ),
        pytest.param(None, CSET, "{", id="cset-not-json"),
        pytest.param(None, CSET, "[]", id="cset-not-an-object"),
        pytest.param(None, CSET, _edited_json(TORUS, degens=None), id="cset-no-degens"),
        pytest.param(None, CSET, _edited_json(TORUS, faces={"1,x,0": [0]}), id="cset-bad-face-key"),
        pytest.param(None, CSET, _edited_json(TORUS, faces={"1,1": [0]}), id="cset-short-face-key"),
        pytest.param(None, CSET, _edited_json(TORUS, cells=[1, "2", 1]), id="cset-string-size"),
        pytest.param(None, CSET, _edited_json(TORUS, transps=[]), id="cset-tables-not-an-object"),
        pytest.param(None, CSET, _with_table(TORUS, "faces", "1,3,0"), id="cset-extra-face"),
        pytest.param(None, CSET, _with_table(TORUS, "degens", "2,1"), id="cset-degen-at-trunc"),
        pytest.param(None, CSET, _with_table(TORUS, "transps", "1,1"), id="cset-extra-transp"),
        pytest.param(
            None,
            CSET,
            '{"trunc": 0, "cells": [-1], "faces": {}, "degens": {}, "transps": {}}',
            id="cset-negative-size",
        ),
        pytest.param(None, MONOID, '{"size": 1, "table": [[0]]}', id="monoid-no-unit"),
        pytest.param(None, MONOID, "[1, 2]", id="monoid-not-an-object"),
        pytest.param(
            None, MONOID, '{"size": 1, "table": [[0]], "unit": 1}', id="monoid-unit-out-of-range"
        ),
        pytest.param(
            None, MONOID, '{"size": 1, "table": [["0"]], "unit": 0}', id="monoid-string-entry"
        ),
        pytest.param(None, CAT, _edited_json(ARROW, src=None), id="cat-no-src"),
        pytest.param(None, CAT, "[1, 2]", id="cat-not-an-object"),
        pytest.param(
            None, CAT, _edited_json(ARROW, identities=[0, 3]), id="cat-identity-out-of-range"
        ),
        pytest.param(None, CAT, _edited_json(ARROW, compose=[[0, 1]]), id="cat-short-compose"),
        pytest.param(None, LATTICE, "[1, 2]", id="lattice-not-an-object"),
        pytest.param(None, LATTICE, '{"size": 1}', id="lattice-no-leq"),
        pytest.param(None, LATTICE, '{"size": 1, "leq": [["yes"]]}', id="lattice-string-entry"),
        *(
            pytest.param(None, command, "[" * 10_000, id=f"{what}-nested-too-deep")
            for what, command in
            (("cset", CSET), ("monoid", MONOID), ("cat", CAT), ("lattice", LATTICE), ("table", DECIDE))
        ),
        pytest.param(None, DECIDE, "{", id="table-not-json"),
        pytest.param(None, DECIDE, "[0, 1]", id="table-not-an-object"),
        pytest.param(None, DECIDE, '{"dom": 1, "cod": 1}', id="table-no-values"),
        pytest.param(None, DECIDE, '{"dom": 1, "cod": 1, "values": [[1], [0]]}', id="table-not-monotone"),
        pytest.param(None, DECIDE, '{"dom": 1, "cod": 1, "values": [[0], [2]]}', id="table-bit-2"),
        pytest.param(None, DECIDE, '{"dom": 1, "cod": 1, "values": [[0], ["1"]]}', id="table-string-bit"),
        pytest.param(None, DECIDE, '{"dom": 1, "cod": 1, "values": [[0], [true]]}', id="table-bool-bit"),
        pytest.param(None, DECIDE, '{"dom": 2, "cod": 1, "values": [[0], [1]]}', id="table-short"),
        pytest.param(None, DECIDE, '{"dom": 1, "cod": 2, "values": [[0], [1]]}', id="table-narrow"),
        pytest.param(None, DECIDE, '{"dom": 1, "cod": 1, "values": [0, 1]}', id="table-flat-values"),
        pytest.param(None, DECIDE, '{"dom": -1, "cod": 1, "values": [[0]]}', id="table-negative-dom"),
        pytest.param(None, ("inv", "tau", "--vertex", "5", "--space", "circle"), None, id="tau-vertex-5"),
        pytest.param(None, ("inv", "tau", "--vertex", "-1", "--space", "circle"), None, id="tau-vertex-neg"),
        pytest.param(None, ("inv", "h1", "--monoid", "zmod0", "--space", "circle"), None, id="h1-zmod0"),
        pytest.param(None, ("inv", "homclasses", "--s", "zmod-2", "--b", "circle"), None, id="homclasses-zmod-2"),
        *(
            pytest.param(None, ("cat", "nerve", "--cat", spec), None, id=f"nerve-{spec}")
            for spec in ("discrete", "discretex", "discrete-1")
        ),
        pytest.param(None, ("cset", "make", "--shape", "cube3", "--trunc", "2"), None, id="cube3-trunc-2"),
        *(
            pytest.param(None, ("verify", "--suite", suite), None, id=f"verify-suite-{suite}")
            for suite in BAD_SUITES
        ),
    ],
)
def test_bad_input_is_usage_error(tmp_path, capsys, monkeypatch, budget_env, command, text):
    """`command`, followed by a file holding `text` when there is one."""
    if budget_env is not None:
        monkeypatch.setenv("DICUBE_BUDGET", budget_env)
    if text is not None:
        (tmp_path / "bad.json").write_text(text)
        command = (*command, str(tmp_path / "bad.json"))
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _decide(tmp_path, capsys, dom, cod, values):
    (tmp_path / "table.json").write_text(json.dumps({"dom": dom, "cod": cod, "values": values}))
    code, out, err = run_cli(capsys, "cube", "decide", "--table", str(tmp_path / "table.json"))
    assert (code, err) == (0, "")
    return json.loads(out)["result"]


def test_cube_decide_names_the_map_of_every_cube_map_table(tmp_path, capsys):
    for phi in cube.enumerate_maps(2, 2):
        values = [list(phi(p)) for p in cube.points(2)]
        assert _decide(tmp_path, capsys, 2, 2, values) == {"map": phi.text(), "witness": None}


@pytest.mark.parametrize(
    "dom, cod, values, witness",
    [
        (1, 2, [[0, 0], [1, 1]], ["interval", [0], [1]]),
        (2, 1, [[0], [0], [0], [1]], ["join", [0, 1], [1, 0]]),
        (2, 1, [[0], [1], [1], [1]], ["meet", [0, 1], [1, 0]]),
    ],
)
def test_cube_decide_reports_the_witness_of_a_monotone_table_that_is_no_cube_map(
    tmp_path, capsys, dom, cod, values, witness
):
    assert _decide(tmp_path, capsys, dom, cod, values) == {"map": None, "witness": witness}


def test_cube_decide_charges_the_pairs_of_points(tmp_path, capsys):
    # the identity table of [1]^7 walks its 128 * 128 pairs of points
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"dom": 7, "cod": 7, "values": [list(p) for p in cube.points(7)]}))
    code, out, err = run_cli(capsys, "--budget", "1", *DECIDE, str(path))
    assert (code, out, err) == (3, "", "error: enumeration budget exceeded (16384 > 1)\n")
    code, out, err = run_cli(capsys, "--budget", "16384", *DECIDE, str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {"map": cube.identity(7).text(), "witness": None}


def test_discrete0_is_the_empty_category(capsys):
    code, out, _ = run_cli(capsys, "cat", "nerve", "--cat", "discrete0")
    assert code == 0
    assert json.loads(out)["result"]["cells"] == [0, 0, 0]


def test_out_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--out", str(target), "inv", "pi0", "circle")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["result"]["count"] == 1


def test_unknown_space_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "inv", "pi0", "dodecahedron")
    assert code == 2


def test_verify_single_criterion(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "6"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "criterion  6 [PASS]" in out


@pytest.mark.parametrize("suite", BAD_SUITES)
def test_verify_bad_suite_names_the_choices(capsys, suite):
    code, _, err = run_cli(capsys, "verify", "--suite", suite)
    assert code == 2
    assert err == f"error: --suite takes 'all' or a criterion number 1-10, got {suite!r}\n"


def test_oracle_check_lattice(capsys):
    code, out, _ = run_cli(capsys, "oracle", "check", "--suite", "lattice")
    assert code == 0
    assert json.loads(out)["result"]["ok"] is True


def _oracle_check_with_clock(capsys, monkeypatch, step, *flags):
    """`oracle check --suite lattice` with a clock that advances `step`
    seconds per reading."""
    ticks = itertools.count(0.0, step)
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    code, out, _ = run_cli(capsys, *flags, "oracle", "check", "--suite", "lattice")
    assert code == 0
    return out


def test_oracle_check_report_does_not_depend_on_the_clock(capsys, monkeypatch):
    fast = _oracle_check_with_clock(capsys, monkeypatch, 0.0)
    slow = _oracle_check_with_clock(capsys, monkeypatch, 7.0)
    assert fast == slow
    assert json.loads(fast)["result"]["log"] == [
        "criterion  9 [PASS] modular lattice property suite (51 checks)"
    ]
    timed = json.loads(_oracle_check_with_clock(capsys, monkeypatch, 7.0, "--timing"))
    assert timed["result"]["log"] == [
        "criterion  9 [PASS] modular lattice property suite (51 checks, 7.0s)"
    ]


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dicube.cli", "inv", "pi0", "circle"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["count"] == 1


def _transcript(capsys, argv):
    """Exit code, stdout, stderr and every file in the working directory
    after `dicube argv`; an exit by SystemExit counts by its code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    files = {name: open(name).read() for name in sorted(os.listdir("."))}
    return json.dumps([code, out, err, files], sort_keys=True)


# sha256 (first 16 hex digits) of `_transcript` per invocation, in order,
# recorded before the handlers returned their reports to `main` (the homotopy
# suite: before `homotopy_graph` searched the cylinder pair by pair)
CLI_DIGESTS = {
    "cube enumerate --dom 2 --cod 1 --class epi": "788037edf8b1fc06",
    "cset make --shape torus --trunc 2 --save torus.json": "8fd5c13dbf8fe218",
    "cset validate torus.json": "256ac7088fd665fb",
    "cset sd torus.json --k 3 --save sd3.json": "196e156535fd31af",
    "cset sd circle --k 0": "f18a861af2fde474",
    "cset dot circle --save circle.dot": "e15e230df5273be1",
    "cset dot torus.json": "98b644c0c304745b",
    "lattice check m3.json --dot m3.dot": "9545900042c8afce",
    "lattice check n5.json": "c6006bcc13484284",
    "cat classes --monoid s3": "f766d75363dd52d4",
    "cat classes --monoid z4.json": "086a5a15ced7d480",
    "cat nerve --cat arrow.json --trunc 2": "04dbbba6d9b9fa03",
    "cat nerve --cat discrete2 --trunc 1": "8f78afd54df1f4f4",
    "t1 klein --trunc 2 --dot klein.dot": "0842a1713bf41233",
    "inv pi0 edge_boundary": "032dfd113cf1590a",
    "--out pi0.json inv pi0 circle": "a6ac0572f5f615a1",
    "inv h1 --space torus --monoid zmod2": "e6bea374c3ed4bbb",
    "inv h1 --space circle --monoid idem2 --no-table": "79e0cef91766d07c",
    "inv tau --space nerve:zmod2 --n 1": "7f61015a55bc7d8a",
    "inv homclasses --b circle --s arrow": "32eab71f6e2fa6cc",
    "--budget 5 inv h1 --space torus --monoid zmod4": "ffd3d0a29bb3fe8d",
    "--budget 5 cat nerve --cat s3 --trunc 2": "ffd3d0a29bb3fe8d",
    "inv pi0 dodecahedron": "1bb6eefbe0c583f7",
    "oracle check --suite cube": "530a2f73db7e8cbe",
    "oracle check --suite lattice": "ff48b0b34cca795c",
    "oracle check --suite homotopy": "f0cc087c31e235bc",
    "verify --suite 6": "1fa8f9a02ad98cd4",
    "verify --suite 11": "482e74ac71fa8f1e",
    "oracle check failing": "f9e4dc8d27cb1721",
}

CLI_INVOCATIONS = (
    ("cube", "enumerate", "--dom", "2", "--cod", "1", "--class", "epi"),
    ("cset", "make", "--shape", "torus", "--trunc", "2", "--save", "torus.json"),
    ("cset", "validate", "torus.json"),
    ("cset", "sd", "torus.json", "--k", "3", "--save", "sd3.json"),
    ("cset", "sd", "circle", "--k", "0"),
    ("cset", "dot", "circle", "--save", "circle.dot"),
    ("cset", "dot", "torus.json"),
    ("lattice", "check", "m3.json", "--dot", "m3.dot"),
    ("lattice", "check", "n5.json"),
    ("cat", "classes", "--monoid", "s3"),
    ("cat", "classes", "--monoid", "z4.json"),
    ("cat", "nerve", "--cat", "arrow.json", "--trunc", "2"),
    ("cat", "nerve", "--cat", "discrete2", "--trunc", "1"),
    ("t1", "klein", "--trunc", "2", "--dot", "klein.dot"),
    ("inv", "pi0", "edge_boundary"),
    ("--out", "pi0.json", "inv", "pi0", "circle"),
    ("inv", "h1", "--space", "torus", "--monoid", "zmod2"),
    ("inv", "h1", "--space", "circle", "--monoid", "idem2", "--no-table"),
    ("inv", "tau", "--space", "nerve:zmod2", "--n", "1"),
    ("inv", "homclasses", "--b", "circle", "--s", "arrow"),
    ("--budget", "5", "inv", "h1", "--space", "torus", "--monoid", "zmod4"),
    ("--budget", "5", "cat", "nerve", "--cat", "s3", "--trunc", "2"),
    ("inv", "pi0", "dodecahedron"),
    ("oracle", "check", "--suite", "cube"),
    ("oracle", "check", "--suite", "lattice"),
    ("oracle", "check", "--suite", "homotopy"),
    ("verify", "--suite", "6"),
    ("verify", "--suite", "11"),
)


def test_cli_transcripts_are_pinned(tmp_path, capsys, monkeypatch):
    from dicube import lattice as lat

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DICUBE_BUDGET", raising=False)
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(monotonic=lambda: 0.0))
    (tmp_path / "m3.json").write_text(lat.to_json(lat.m_lattice(3)))
    (tmp_path / "n5.json").write_text(lat.to_json(lat.n5()))
    (tmp_path / "z4.json").write_text(cat.monoid_to_json(cat.zmod(4)))
    (tmp_path / "arrow.json").write_text(ARROW)
    digests = {}
    for argv in CLI_INVOCATIONS:
        transcript = _transcript(capsys, argv)
        digests[" ".join(argv)] = hashlib.sha256(transcript.encode()).hexdigest()[:16]
    # a failing criterion: the report says so and the exit code is 1
    monkeypatch.setitem(acceptance.CRITERIA, 9, ("always fails", lambda: [("x", False, "why")]))
    transcript = _transcript(capsys, ("oracle", "check", "--suite", "lattice"))
    assert json.loads(json.loads(transcript)[1])["result"]["ok"] is False
    assert json.loads(transcript)[0] == 1
    digests["oracle check failing"] = hashlib.sha256(transcript.encode()).hexdigest()[:16]
    assert digests == CLI_DIGESTS
