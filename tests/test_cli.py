"""End-to-end runs of the command-line interface via main(argv)."""

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

import rigidity3d
from rigidity3d import cauchy, fileio, frameworks, generators, hessian, shapes, suspensions
from rigidity3d.cli import main
from rigidity3d.geometry import (Convexity, classify_convexity, classify_convexity_from_hull,
                                 dihedral_angles, is_weakly_convex)
from rigidity3d.hessian import lambda_matrix

from oracles import cube, exact_rank, flexible_suspension_fixture, jessen_icosahedron, square_pyramid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def octa_path(tmp_path):
    path = tmp_path / "octa.json"
    fileio.save(path, shapes.octahedron())
    return str(path)


@pytest.fixture
def star_path(tmp_path):
    path = tmp_path / "star.json"
    fileio.save(path, generators.star_suspension(default_rng(4), 6))
    return str(path)


def square_bipyramid():
    return suspensions.build_suspension(
        (0, 0, 1.0),
        (0, 0, -1.0),
        [(np.cos(t), np.sin(t), 0.0) for t in np.linspace(0, 2 * np.pi, 5)[:-1]],
    )


# ---------------------------------------------------------------------------
# exit codes and usage
# ---------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_bad_edge_syntax_is_usage_error(capsys, octa_path):
    code, _, _ = run(capsys, "dent", octa_path, "--edge", "9", "--out", "x")
    assert code == 1


def test_parser_is_built_once_and_handlers_are_looked_up_per_call(capsys, monkeypatch,
                                                                   octa_path):
    from rigidity3d import cli

    assert run(capsys, "--help")[0] == 0
    misses = cli.build_parser.cache_info().misses
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: 7)
    assert run(capsys, "analyze", octa_path)[0] == 7
    assert run(capsys, "stress", octa_path, "--json")[0] == 0
    assert run(capsys, "stress", "--bogus")[0] == 1
    assert cli.build_parser.cache_info().misses == misses == 1


@pytest.mark.parametrize("command, flag", [
    (["analyze", "doc.json"], ["--seed", "1"]),
    (["stress", "doc.json"], ["--seed", "1"]),
    (["lambda", "doc.json"], ["--seed", "1"]),
    (["dent", "doc.json", "--edge", "0,1", "--out", "x.json"], ["--seed", "1"]),
    (["signs", "doc.json"], ["--seed", "1"]),
    (["dent", "doc.json", "--edge", "0,1", "--out", "x.json"], ["--json"]),
    (["suspend", "--n", "5", "--out", "x.json"], ["--json"]),
    (["probe-pd", "--out", "pd"], ["--json"]),
    (["analyze", "doc.json"], ["--csv"]),
    (["dent", "doc.json", "--edge", "0,1", "--out", "x.json"], ["--csv"]),
    (["suspend", "--n", "5", "--out", "x.json"], ["--csv"]),
    (["probe-pd", "--out", "pd"], ["--csv"]),
])
def test_a_subcommand_refuses_the_flags_it_does_not_read(capsys, command, flag):
    code, _, err = run(capsys, *command, *flag)
    assert code == 1 and f"unrecognized arguments: {' '.join(flag)}" in err


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 1 and "error" in err


def _duplicate_edge(doc):
    doc["edges"].append(dict(doc["edges"][0]))
    return "/edges: duplicate edge ({i}, {j})"


def _coincident_endpoints(doc):
    doc["vertices"][doc["edges"][0]["j"]] = list(doc["vertices"][doc["edges"][0]["i"]])
    return "/edges: edge ({i}, {j}) has (near-)zero length"


def _nan_coordinate(doc):
    doc["vertices"][2][0] = float("nan")
    return "/vertices/2: non-finite vertex coordinates"


@pytest.mark.parametrize("spoil", [_duplicate_edge, _coincident_endpoints, _nan_coordinate])
def test_framework_errors_in_a_document_carry_a_pointer(capsys, tmp_path, spoil):
    """A non-finite coordinate and the edge framework's refusals point into
    the document, as the schema, index, face, pole and tetrahedron errors do."""
    doc = fileio.to_document(shapes.octahedron())
    i, j = doc["edges"][0]["i"], doc["edges"][0]["j"]
    message = spoil(doc).format(i=i, j=j)
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(doc))  # NaN is written as the token NaN, which json.load reads
    for command in ("analyze", "stress", "signs"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_octahedron_text(capsys, octa_path):
    code, out, _ = run(capsys, "analyze", octa_path)
    assert code == 0
    assert "rigid" in out and "strongly_strictly_convex" in out


def test_analyze_json_deterministic(capsys, octa_path):
    code, out1, _ = run(capsys, "analyze", octa_path, "--json")
    code2, out2, _ = run(capsys, "analyze", octa_path, "--json")
    assert code == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timings"), b.pop("timings")
    assert a == b


def test_analyze_respects_rank_tol(capsys, octa_path):
    code, out, _ = run(capsys, "analyze", octa_path, "--json", "--rank-tol", "5e-4")
    assert code == 0
    assert json.loads(out)["tolerances"]["rank_tol"] == 5e-4


def test_analyze_large_hull_never_forms_the_dense_rigidity_matrix(capsys, tmp_path, monkeypatch):
    """An n = 200 random hull (the analyze_hull benchmark's seed-1 document
    in slot 2) gets the verdicts the dense SVD gave it, from the sparse rank
    certificate alone."""
    path = tmp_path / "hull200.json"
    fileio.save(path, generators.random_convex_hull_surface(default_rng((1, 2, 0)), 200))

    def dense(fw):
        raise AssertionError("analyze formed the dense rigidity matrix")

    monkeypatch.setattr(frameworks, "rigidity_matrix", dense)
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["verdicts"] == {
        "trivial_dimension": 6,
        "rigid": True,
        "flex_dimension": 6,
        "stress_space_dimension": 0,
        "convexity": "strongly_strictly_convex",
        "reflex_edges": [],
    }


def test_jessen_icosahedron_is_weakly_convex_and_flexible(capsys, tmp_path):
    """Jessen's orthogonal icosahedron has the vertices of a convex
    polyhedron, so every convexity reader calls it weakly strictly convex,
    yet it flexes: its rigidity matrix drops rank by one, over the floats
    and exactly over Q (its coordinates are integers), and no vertex star
    decomposes it, so the paper's theorem does not apply."""
    surface = jessen_icosahedron()
    reflex = ((0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11))
    assert is_weakly_convex(surface)
    for classify in (classify_convexity, classify_convexity_from_hull):
        report = classify(surface)
        assert report.classification is Convexity.WEAKLY_STRICTLY_CONVEX
        assert report.reflex_edges == reflex
    angles = dihedral_angles(surface)
    assert [surface.edges[k] for k in np.flatnonzero(angles > np.pi)] == list(reflex)
    assert angles[angles > np.pi] == pytest.approx([1.5 * np.pi] * 6, abs=1e-12)

    fw = frameworks.Framework.from_surface(surface)
    assert len(fw.edges) == 30
    assert frameworks.rigidity_rank(fw) == 29
    matrix = frameworks.rigidity_matrix(fw)
    assert np.array_equal(matrix, np.round(matrix))
    assert exact_rank(matrix) == 29
    for apex in range(surface.n_vertices):
        with pytest.raises(hessian.DecompositionError):
            hessian.decompose_star(surface, apex)

    path = tmp_path / "jessen.json"
    fileio.save(path, surface)
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert (verdicts["rigid"], verdicts["flex_dimension"], verdicts["stress_space_dimension"],
            verdicts["trivial_dimension"]) == (False, 7, 1, 6)
    assert verdicts["convexity"] == "weakly_strictly_convex"
    assert verdicts["reflex_edges"] == [list(e) for e in reflex]


def test_out_of_range_tolerance_exits_one(capsys, octa_path):
    code, _, err = run(capsys, "analyze", octa_path, "--rank-tol", "10.0")
    assert code == 1 and "rank_tol" in err


# ---------------------------------------------------------------------------
# suspend / lambda / stress
# ---------------------------------------------------------------------------


def test_suspend_deterministic_and_analyzable(capsys, tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(capsys, "suspend", "--n", "5", "--profile", "convex",
               "--seed", "7", "--out", p1)[0] == 0
    assert run(capsys, "suspend", "--n", "5", "--profile", "convex",
               "--seed", "7", "--out", p2)[0] == 0
    d1, d2 = fileio.load(p1).document, fileio.load(p2).document
    assert fileio.instance_hash(d1) == fileio.instance_hash(d2)
    assert d1["metadata"]["profile"] == "convex"

    code, out, _ = run(capsys, "analyze", p1, "--json")
    verdicts = json.loads(out)["verdicts"]
    assert code == 0
    assert verdicts["ns_decomposable"] is True
    assert verdicts["lambda"] > 0
    assert verdicts["rigid"] is True


@pytest.mark.parametrize("n", ["-1", "0", "2"])
def test_suspend_rejects_fewer_than_three_equator_vertices(capsys, tmp_path, n):
    out = tmp_path / "s.json"
    code, _, err = run(capsys, "suspend", "--n", n, "--out", str(out))
    assert code == 1
    assert err == f"error: a suspension needs at least 3 equator vertices, got n={n}\n"
    assert not out.exists()


@pytest.mark.parametrize("profile", generators.SUSPENSION_PROFILES)
def test_suspend_draws_sixty_equator_vertices(capsys, tmp_path, profile):
    """The azimuth gap floor is min(0.05, 0.61 / n), under the smallest
    drawn gap (about 0.6 / n), so n = 60 draws for every profile."""
    out = tmp_path / "s.json"
    code, _, err = run(capsys, "suspend", "--n", "60", "--profile", profile,
                       "--seed", "7", "--out", str(out))
    assert (code, err) == (0, "")
    assert fileio.load(out).suspension.n == 60


def test_azimuths_name_the_gap_bounds_when_they_run_out(monkeypatch):
    """Two gaps can never both lie under pi - 0.05; the message gives n and
    both bounds, the floor as scaled for n."""
    with pytest.raises(generators.GenerationError) as exc:
        generators._azimuths(default_rng(7), 2)
    assert str(exc.value) == "could not draw 2 azimuth gaps inside (0.05, pi - 0.05) in 100 tries"
    monkeypatch.setattr(generators, "AZIMUTH_TRIES", 0)
    with pytest.raises(generators.GenerationError) as exc:
        generators._azimuths(default_rng(7), 1000)
    assert str(exc.value) == (
        "could not draw 1000 azimuth gaps inside (0.00061, pi - 0.05) in 0 tries")


def test_lambda_scalar_csv_sums_to_total(capsys, tmp_path):
    path = tmp_path / "square.json"
    fileio.save(path, square_bipyramid())
    code, out, _ = run(capsys, "lambda", str(path), "--csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 4
    total = sum(float(r["simplex_term"]) for r in rows)
    assert total == pytest.approx(8.0, abs=1e-9)


def test_lambda_matrix_on_decomposition(capsys, tmp_path, star_path):
    s = fileio.load(star_path).suspension
    path = tmp_path / "axis.json"
    fileio.save(path, suspensions.axis_decomposition(s))
    code, out, _ = run(capsys, "lambda", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "lambda_matrix"
    assert len(payload["eigenvalues"]) == 1
    assert payload["rigid"] is True


def test_lambda_matrix_table_is_built_only_when_printed(capsys, monkeypatch, tmp_path,
                                                        star_path):
    """Text prints the matrix table above the summary and --json never builds
    it; a decomposition without interior edges prints no table at all."""
    axis = tmp_path / "axis.json"
    fileio.save(axis, suspensions.axis_decomposition(fileio.load(star_path).suspension))
    code, out, _ = run(capsys, "lambda", str(axis))
    assert code == 0
    assert out.splitlines()[0].split() == ["row", "col0"]
    assert out.splitlines()[2].startswith("interior edges      1")

    tet = tmp_path / "tet.json"
    fileio.save(tet, hessian.Decomposition(np.vstack([np.zeros(3), np.eye(3)]), [[0, 1, 2, 3]]))
    code, out, _ = run(capsys, "lambda", str(tet))
    assert code == 0 and out.splitlines()[0] == "interior edges      0"
    assert run(capsys, "lambda", str(tet), "--csv") == (0, "", "")

    def refuse(matrix):
        raise AssertionError("--json built the matrix table")

    monkeypatch.setattr(fileio, "matrix_table", refuse)
    code, out, _ = run(capsys, "lambda", str(axis), "--json")
    assert code == 0 and json.loads(out)["r"] == 1


def test_lambda_needs_structure(capsys, tmp_path):
    fw_doc = fileio.to_document(shapes.octahedron())
    del fw_doc["faces"]
    path = tmp_path / "bare.json"
    fileio.save(path, fw_doc)
    code, _, err = run(capsys, "lambda", str(path))
    assert code == 1 and "suspension" in err


def test_stress_inductive_is_proper_equilibrium(capsys, star_path):
    code, out, _ = run(capsys, "stress", star_path, "--inductive", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] < 1e-9
    for rec in payload["edges"]:
        if rec["kind"] == "cable":
            assert rec["omega"] >= -1e-12
        if rec["kind"] == "strut":
            assert rec["omega"] <= 1e-12


def test_stress_inductive_rows_read_integral_float_indices(capsys, tmp_path):
    """The schema's integers include integral floats.  A star suspension's
    document whose poles and equator are 0.0, 1.0, ... prints the integer
    document's rows in --json and --csv: the indices are converted once,
    when the document loads."""
    doc = fileio.to_document(generators.suspension_profile("star", default_rng(7), 5))
    floats = dict(doc, poles={"north": 0.0, "south": 1.0},
                  equator=[float(v) for v in doc["equator"]])
    fileio.save(tmp_path / "int.json", doc)
    fileio.save(tmp_path / "float.json", floats)
    for flag in ("--json", "--csv"):
        outputs = [run(capsys, "stress", str(tmp_path / name), "--inductive", flag)
                   for name in ("int.json", "float.json")]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]


def test_stress_inductive_rows_name_the_documents_vertices(capsys, tmp_path):
    """A star suspension's document with its vertices permuted, so that the
    poles sit at indices 5 and 6: the rows are that document's tensegrity
    edges, with the stresses and residual of the unpermuted document."""
    s = generators.star_suspension(default_rng(4), 5)
    doc = fileio.to_document(s)
    new = [5, 6, 3, 0, 4, 1, 2]  # new index of each vertex of the layout
    permuted = {
        "version": doc["version"],
        "vertices": [doc["vertices"][new.index(k)] for k in range(7)],
        "edges": [{**e, "i": new[e["i"]], "j": new[e["j"]]} for e in doc["edges"]],
        "faces": [[new[v] for v in f] for f in doc["faces"]],
        "poles": {"north": 5, "south": 6},
        "equator": new[2:],
    }
    fileio.save(tmp_path / "s.json", s)
    fileio.save(tmp_path / "p.json", permuted)
    code, out, _ = run(capsys, "stress", str(tmp_path / "s.json"), "--inductive", "--json")
    assert code == 0
    reference = json.loads(out)
    code, out, _ = run(capsys, "stress", str(tmp_path / "p.json"), "--inductive", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] == reference["residual"]

    fw = suspensions.tensegrity_labeling(s, include_ns=True)
    assert [(e["i"], e["j"], e["kind"]) for e in reference["edges"]] == [
        (i, j, kind.value) for i, j, kind in fw.edges]
    assert [(e["i"], e["j"], e["kind"], e["omega"]) for e in payload["edges"]] == [
        (*sorted((new[e["i"]], new[e["j"]])), e["kind"], e["omega"]) for e in reference["edges"]]
    rows = {(e["i"], e["j"]) for e in payload["edges"]}
    assert all(i < j for i, j in rows)
    assert rows == {tuple(sorted((e["i"], e["j"]))) for e in permuted["edges"]} | {(5, 6)}


def test_stress_space_trivial_on_octahedron(capsys, octa_path):
    code, out, _ = run(capsys, "stress", octa_path)
    assert code == 0 and "dimension 0" in out


# ---------------------------------------------------------------------------
# dent
# ---------------------------------------------------------------------------


def test_dent_pipeline(capsys, octa_path, tmp_path):
    out_path = str(tmp_path / "dented.json")
    code, out, _ = run(capsys, "dent", octa_path, "--edge", "2,3",
                       "--out", out_path)
    assert code == 0 and "(0, 1)" in out
    code, out, _ = run(capsys, "analyze", out_path, "--json")
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["convexity"] == "weakly_strictly_convex"
    assert verdicts["reflex_edges"] == [[0, 1]]
    assert fileio.load(out_path).document.get("metadata", {})["dented_edges"] == [[2, 3]]


def test_dent_rejects_non_edge(capsys, octa_path, tmp_path):
    code, _, err = run(capsys, "dent", octa_path, "--edge", "0,1",
                       "--out", str(tmp_path / "x.json"))
    assert code == 1 and "not an edge" in err


def test_dent_rejects_flat_edge(capsys, tmp_path):
    path = tmp_path / "pyramid.json"
    fileio.save(path, square_pyramid())
    code, _, err = run(capsys, "dent", str(path), "--edge", "0,2",
                       "--out", str(tmp_path / "x.json"))
    assert code == 1 and "coplanar" in err


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------


def test_signs_rigid_framework(capsys, octa_path):
    code, out, _ = run(capsys, "signs", octa_path)
    assert code == 0 and "no nontrivial flex" in out


def test_signs_trivial_flex_index(capsys, octa_path):
    code, out, _ = run(capsys, "signs", octa_path, "--flex-index", "0")
    assert code == 0 and "all dihedral rates vanish" in out


def test_signs_flex_index_out_of_range(capsys, octa_path):
    code, _, err = run(capsys, "signs", octa_path, "--flex-index", "99")
    assert code == 1 and "--flex-index" in err


def test_signs_reads_every_flex_of_a_surface_with_flat_edges(capsys, tmp_path):
    """The triangulated cube's face diagonals are flat (angle pi).  Its flex
    space is the six trivial motions, and each one gives all-zero signs."""
    surface = cube()
    assert "flat" in rigidity3d.edge_flags(surface).values()
    path = tmp_path / "cube.json"
    fileio.save(path, surface)
    for k in range(6):
        code, out, err = run(capsys, "signs", str(path), "--flex-index", str(k), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert set(payload["edge_signs"].values()) == {0}
        assert payload["note"] == "all dihedral rates vanish"
    code, _, err = run(capsys, "signs", str(path), "--flex-index", "6")
    assert code == 1 and "[0, 6)" in err


def test_signs_on_flexible_fixture(capsys, tmp_path):
    fixture = flexible_suspension_fixture()
    path = tmp_path / "flex.json"
    fileio.save(path, fixture.suspension)
    code, out, _ = run(capsys, "signs", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    totals = payload["totals"]
    assert totals["sign_changes"] == 16
    assert totals["bounds_contradict"] is True
    bad = [v for v in payload["vertices"] if not v["ok"]]
    assert bad and all(not v["convex"] for v in bad)


# ---------------------------------------------------------------------------
# probe-pd
# ---------------------------------------------------------------------------


def test_probe_pd_report_deterministic_and_replayable(capsys, tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    code, text, _ = run(capsys, "probe-pd", "--trials", "4", "--seed", "3",
                        "--out", str(out1))
    assert code == 0 and "trials 4" in text
    assert run(capsys, "probe-pd", "--trials", "4", "--seed", "3",
               "--out", str(out2))[0] == 0
    r1 = (out1 / "report.json").read_text()
    r2 = (out2 / "report.json").read_text()
    assert r1 == r2
    report = json.loads(r1)
    assert report["summary"]["non_pd_weakly_convex"] == 0
    with open(out1 / "trials.csv") as fh:
        assert len(list(csv.DictReader(fh))) == report["summary"]["trials"]

    # every recorded trial regenerates from its seed alone
    trial = report["trials"][0]
    rng = default_rng(tuple(trial["seed"]))
    d = generators.probe_decomposition(trial["kind"], rng)
    lam = lambda_matrix(d)
    assert lam.min_eigenvalue == pytest.approx(trial["min_eigenvalue"], abs=1e-9)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_probe_pd_rejects_fewer_than_one_trial(capsys, tmp_path, trials):
    code, _, err = run(capsys, "probe-pd", "--trials", trials, "--out", str(tmp_path / "pd"))
    assert code == 1 and f"--trials must be at least 1, got {trials}" in err
    assert not (tmp_path / "pd").exists()


def test_probe_pd_reads_the_tolerances_before_its_trial_count(capsys, tmp_path):
    """main builds the tolerances before any handler runs, so an invalid
    --rank-tol is reported ahead of probe-pd's own --trials check."""
    code, _, err = run(capsys, "probe-pd", "--trials", "0", "--rank-tol", "5",
                       "--out", str(tmp_path / "pd"))
    assert (code, err) == (1, "error: rank_tol must lie in (0, 1e-3), got 5.0\n")
    assert not (tmp_path / "pd").exists()


def test_probe_pd_trials_csv_matches_the_report_trial_by_trial(capsys, tmp_path):
    """trials.csv is report.json's trials in order under one header: the seed
    pair as seed0 and seed1, floats as repr (inf where a trial has no
    interior edge), booleans as True or False."""
    out = tmp_path / "pd"
    assert run(capsys, "probe-pd", "--trials", "60", "--seed", "0", "--out", str(out))[0] == 0
    trials = json.loads((out / "report.json").read_text())["trials"]
    assert any(t["r"] == 0 and t["min_eigenvalue"] == float("inf") for t in trials)
    with open(out / "trials.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["kind", "seed0", "seed1", "r", "min_eigenvalue",
                      "diagonal_positive", "weakly_convex", "rigid"]
    assert rows == [
        [t["kind"], str(t["seed"][0]), str(t["seed"][1]), str(t["r"]), repr(t["min_eigenvalue"]),
         str(t["diagonal_positive"]), str(t["weakly_convex"]), str(t["rigid"])]
        for t in trials
    ]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_probe_pd_report_is_json_when_no_trial_succeeds(capsys, monkeypatch, tmp_path):
    def degenerate(*args, **kwargs):
        raise generators.GenerationError("degenerate draw")

    monkeypatch.setattr(generators, "probe_decomposition", degenerate)
    code, text, _ = run(capsys, "probe-pd", "--trials", "2", "--out", str(tmp_path))
    assert code == 0 and "trials 0  generation failures 2" in text
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["summary"]["diagonal_positive_rate"] is None
    assert report["trials"] == []


def test_probe_pd_writes_each_counterexample_as_a_loadable_decomposition(
        capsys, monkeypatch, tmp_path):
    """A counterexample document lists the tetrahedra's non-interior edges
    as its edges, so it loads back as the same decomposition."""
    from rigidity3d import cli

    d = hessian.decompose_star(shapes.octahedron(), 0)
    real_probe = cli.pd_probe

    def probe(**kwargs):
        report = real_probe(**kwargs)
        ce = {"trial": report.trials[0].to_dict(), "vertices": d.vertices.tolist(),
              "tetrahedra": [list(t) for t in d.tetrahedra],
              "interior_edges": [list(e) for e in d.interior_edges]}
        return hessian.ProbeReport(report.trials, report.failures, (ce,))

    monkeypatch.setattr(cli, "pd_probe", probe)
    assert run(capsys, "probe-pd", "--trials", "1", "--out", str(tmp_path))[0] == 0
    loaded = fileio.load(tmp_path / "counterexample_0.json")
    edges = [(e["i"], e["j"]) for e in loaded.document["edges"]]
    assert edges == sorted(d.boundary_edges)
    assert loaded.decomposition.interior_edges == d.interior_edges
    assert loaded.decomposition.tetrahedra == d.tetrahedra


def _fresh_python(script, *args):
    """Run `script` in a new interpreter that imports this rigidity3d; its
    stdout, parsed as JSON."""
    src = str(Path(rigidity3d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_probe_pd_imports_neither_lp_solver_nor_schema_validator(capsys, tmp_path):
    """Documents are checked by walking the bundled schema, so a fresh
    process running probe-pd, saving a hull document and analyzing it never
    imports jsonschema.  probe-pd, save and analyze (which reads edge
    exposure from the hull) solve no LP and load no scipy.optimize, and
    analyze reaches the same verdicts as this process."""
    hull = tmp_path / "hull.json"
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from numpy.random import default_rng
        from rigidity3d import fileio, generators
        from rigidity3d.cli import main

        def loaded():
            return [m for m in ("scipy.optimize", "jsonschema") if m in sys.modules]

        seen = {}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["probe-pd", "--trials", "6", "--seed", "1", "--out", sys.argv[1]]) == 0
        seen["probe-pd"] = loaded()
        fileio.save(sys.argv[2], generators.random_convex_hull_surface(default_rng(11), 12))
        seen["save"] = loaded()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", sys.argv[2], "--json"]) == 0
        seen["analyze"] = loaded()
        print(json.dumps({"seen": seen, "verdicts": json.loads(out.getvalue())["verdicts"]}))
    """)
    fresh = _fresh_python(script, tmp_path / "pd", hull)
    assert fresh["seen"] == {"probe-pd": [], "save": [], "analyze": []}
    code, out, _ = run(capsys, "analyze", str(hull), "--json")
    verdicts = json.loads(out)["verdicts"]
    assert code == 0 and fresh["verdicts"] == verdicts
    assert verdicts["convexity"] == "strongly_strictly_convex" and verdicts["rigid"] is True


def test_verbose_logs_the_probe_skip_reasons(tmp_path):
    """--verbose sets the log level to DEBUG, the level at which probe-pd
    logs why each skipped trial was skipped; without it they stay silent."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from rigidity3d import cli, generators

        def degenerate(*args, **kwargs):
            raise generators.GenerationError("degenerate draw")

        generators.probe_decomposition = degenerate
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(sys.argv[1:])
        print(json.dumps({"code": code, "stderr": err.getvalue()}))
    """)
    argv = ["probe-pd", "--trials", "2", "--out", tmp_path]
    line = "DEBUG rigidity3d.hessian: probe trial 1 (suspension_axis) failed: degenerate draw"
    quiet = _fresh_python(script, *argv)
    verbose = _fresh_python(script, *argv, "--verbose")
    assert quiet == {"code": 0, "stderr": ""}
    assert verbose["code"] == 0 and line in verbose["stderr"].splitlines()


def test_cli_import_loads_no_scipy(capsys, tmp_path):
    """A fresh `import rigidity3d.cli` loads no scipy module, nor do
    `--help` and a usage error; analyze loads scipy.spatial with its first
    surface and reaches the verdicts of an in-process run."""
    hull = tmp_path / "hull.json"
    fileio.save(hull, generators.random_convex_hull_surface(default_rng(11), 12))
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from rigidity3d.cli import main

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        steps = {"import": scipy_modules()}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["--help"]) == 0 and main(["stress", "--bogus"]) == 1
        steps["usage"] = scipy_modules()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", sys.argv[1], "--json"]) == 0
        steps["analyze"] = "scipy.spatial" in sys.modules
        steps["verdicts"] = json.loads(out.getvalue())["verdicts"]
        print(json.dumps(steps))
    """)
    fresh = _fresh_python(script, hull)
    assert fresh["import"] == fresh["usage"] == []
    assert fresh["analyze"] is True
    code, out, _ = run(capsys, "analyze", str(hull), "--json")
    assert code == 0 and fresh["verdicts"] == json.loads(out)["verdicts"]


# ---------------------------------------------------------------------------
# one output contract: --json is one JSON document, --csv the tables alone
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def contract_docs(tmp_path_factory):
    star = generators.star_suspension(default_rng(4), 6, require_reflex=True)
    objects = {
        "octahedron": shapes.octahedron(),
        "star": star,
        "star_axis": suspensions.axis_decomposition(star),
        "flexible": flexible_suspension_fixture().suspension,
    }
    root = tmp_path_factory.mktemp("contract")
    for name, obj in objects.items():
        fileio.save(root / f"{name}.json", obj)
    return root


CONTRACT_COMMANDS = ["analyze", "stress", "stress --inductive", "lambda", "signs",
                     "signs --flex-index 0"]


@pytest.mark.parametrize("doc", ["octahedron", "star", "star_axis", "flexible"])
@pytest.mark.parametrize("command, fmt", [
    (command, fmt) for command in CONTRACT_COMMANDS for fmt in ("json", "csv")
    if (command, fmt) != ("analyze", "csv")
])
def test_json_is_one_document_and_csv_is_tables_alone(capsys, contract_docs, doc,
                                                      command, fmt):
    """The rigid documents take the paths that print no table (a trivial
    stress space, no nontrivial flex); the flexible fixture's signs fail
    a vertex check.  A command that does not apply exits 1 with nothing on
    stdout: lambda needs a suspension or a decomposition, and --inductive
    a weakly strictly convex suspension."""
    path = str(contract_docs / f"{doc}.json")
    subcommand, *flags = command.split()
    code, out, _ = run(capsys, subcommand, path, *flags, f"--{fmt}")
    applies = not ((command, doc) == ("lambda", "octahedron")
                   or ("--inductive" in flags and doc != "star"))
    if not applies:
        assert (code, out) == (1, "")
        return
    assert code == 0
    if fmt == "json":
        assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)
        return
    lines = out.splitlines()
    assert not any(line.startswith("#") for line in lines)
    tables = [[]]
    for row in csv.reader(lines):
        if row:
            tables[-1].append(row)
        else:
            tables.append([])
    assert all(tables) or out == ""
    for header, *rows in filter(None, tables):
        assert all(len(row) == len(header) for row in rows)
        assert not any(" " in cell for row in [header, *rows] for cell in row)


# ---------------------------------------------------------------------------
# a failed internal cross-check exits 2, whatever its message says
# ---------------------------------------------------------------------------


@pytest.fixture
def disagreeing_verdicts(monkeypatch):
    original = hessian.is_infinitesimally_rigid
    monkeypatch.setattr(hessian, "is_infinitesimally_rigid",
                        lambda fw, tol: not original(fw, tol))


def test_verdict_disagreement_exits_two_from_analyze(capsys, tmp_path, star_path,
                                                     disagreeing_verdicts):
    path = tmp_path / "axis.json"
    fileio.save(path, suspensions.axis_decomposition(fileio.load(star_path).suspension))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "invariant violation: rigidity verdicts disagree" in err


def test_verdict_disagreement_exits_two_from_probe_pd(capsys, tmp_path,
                                                      disagreeing_verdicts):
    code, out, err = run(capsys, "probe-pd", "--trials", "6", "--out", str(tmp_path))
    assert code == 2 and "rigidity verdicts disagree" in err
    assert "generation failures" not in out


def test_improper_inductive_stress_exits_two(capsys, monkeypatch, star_path):
    monkeypatch.setattr(suspensions, "is_proper", lambda *a, **k: False)
    code, _, err = run(capsys, "stress", star_path, "--inductive")
    assert code == 2 and "improper stress" in err


def test_sign_change_totals_disagreement_exits_two(capsys, monkeypatch, tmp_path):
    path = tmp_path / "flex.json"
    fileio.save(path, flexible_suspension_fixture().suspension)
    # the embedding's Euler check sees every face, the face-side count none
    traced = []
    original = cauchy._trace_faces
    monkeypatch.setattr(cauchy, "_trace_faces",
                        lambda rotation: [] if traced else traced.append(1) or original(rotation))
    code, out, err = run(capsys, "signs", str(path), "--json")
    assert code == 2 and "change totals disagree" in err
    assert out == ""
