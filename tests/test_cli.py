"""End-to-end command-line runs: every subcommand, exit codes, determinism."""

import csv
import json
import math
import re
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpmod import cli, experiments, solver
from dpmod.config import KINDS
from dpmod.errors import SolverError
from dpmod.families import make_flat
from dpmod.oracle import analytic_1d_dp
from dpmod.mesh import read_mesh
from dpmod.metric import read_metric
from dpmod.plot import render_line_chart


def cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


CONFORMAL_1D = """\
kind = compute
family = conformal-constant
conformal_c = 2
n = 1
resolution = 8
torus = true
pairs = 0-4
p = 2
"""


# -- gen ----------------------------------------------------------------------

def test_gen_flat_writes_readable_files(tmp_path, capsys):
    config = cfg_file(tmp_path, "kind = gen\nfamily = flat\nn = 2\nresolution = 2\n")
    out = tmp_path / "gen"
    assert cli.main(["gen", "--config", config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "2 field(s) generated" in stdout
    for name in ("mesh.txt", "metric0.txt", "metric.txt", "family.jsonl"):
        assert (out / name).exists()
        assert f"wrote {out / name}" in stdout
    mesh = read_mesh(out / "mesh.txt")
    assert mesh.num_nodes == 9 and mesh.num_cells == 8
    g = read_metric(out / "metric.txt", mesh)
    assert g.tensors.shape == (8, 2, 2)
    records = [json.loads(ln) for ln in (out / "family.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert all(r["config_hash"] == records[0]["config_hash"] for r in records)
    assert {r["file"] for r in records} == {"metric0.txt", "metric.txt"}


def test_gen_scaled_records(tmp_path):
    config = cfg_file(tmp_path, """\
kind = gen
family = scaled
n = 1
resolution = 4
scale = 2
conformal_c = 3
""")
    out = tmp_path / "gen"
    assert cli.main(["gen", "--config", config, "--out", str(out)]) == 0
    records = [json.loads(ln) for ln in (out / "family.jsonl").read_text().splitlines()]
    h = records[0]["config_hash"]
    assert records == [
        {"family": "scaled", "n": 1, "resolution": 4, "torus": False,
         "scale": 2.0, "file": "metric0.txt", "seed": 0, "config_hash": h},
        {"family": "scaled", "n": 1, "resolution": 4, "torus": False,
         "scale": 2.0, "conformal": 3.0, "file": "metric.txt", "seed": 0,
         "config_hash": h},
    ]
    mesh = read_mesh(out / "mesh.txt")
    assert read_metric(out / "metric.txt", mesh).tensors.max() == 36.0    # 2^2 3^2
    assert read_metric(out / "metric0.txt", mesh).tensors.max() == 4.0


def test_gen_spike_j_list(tmp_path):
    config = cfg_file(tmp_path, """\
kind = gen
family = spike
n = 1
resolution = 8
torus = true
j_list = 1, 2
""")
    out = tmp_path / "gen"
    assert cli.main(["gen", "--config", config, "--out", str(out)]) == 0
    names = {json.loads(ln)["file"]
             for ln in (out / "family.jsonl").read_text().splitlines()}
    assert names == {"metric0.txt", "metric_j1.txt", "metric_j2.txt"}
    mesh = read_mesh(out / "mesh.txt")
    g1 = read_metric(out / "metric_j1.txt", mesh)
    g2 = read_metric(out / "metric_j2.txt", mesh)
    assert g1.tensors.max() > 1.0 and g2.tensors.max() > g1.tensors.max()


# -- compute ------------------------------------------------------------------

def test_compute_from_generated_files(tmp_path, capsys):
    gen_cfg = cfg_file(tmp_path, """\
kind = gen
family = spike
n = 1
resolution = 8
torus = true
j = 1
""", name="gen.cfg")
    gen_out = tmp_path / "fields"
    assert cli.main(["gen", "--config", gen_cfg, "--out", str(gen_out)]) == 0
    compute_cfg = cfg_file(tmp_path, f"""\
kind = compute
mesh = {gen_out / 'mesh.txt'}
metric = {gen_out / 'metric.txt'}
metric0 = {gen_out / 'metric0.txt'}
pairs = 0-4
p = 2
""", name="compute.cfg")
    out = tmp_path / "run"
    assert cli.main(["compute", "--config", compute_cfg, "--out", str(out)]) == 0
    assert "1 pair(s) solved, 0 non-converged" in capsys.readouterr().out
    rows = read_rows(out / "compute.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["converged"] == "true"
    assert float(row["value"]) > 0
    assert row["active_constraint"] in ("energy-bound", "holder-bound", "both")
    assert list(row) == ["x", "y", "p", "D", "value", "active_constraint", "iters",
                         "energy_residual", "holder_residual", "converged",
                         "config_hash"]


def test_compute_empty_pairs_header_only(tmp_path, capsys):
    config = cfg_file(tmp_path, CONFORMAL_1D.replace("pairs = 0-4", "pairs ="))
    out = tmp_path / "run"
    assert cli.main(["compute", "--config", config, "--out", str(out)]) == 0
    assert "0 pair(s) solved" in capsys.readouterr().out
    content = (out / "compute.csv").read_text()
    assert content.splitlines() == [
        "x,y,p,D,value,active_constraint,iters,energy_residual,"
        "holder_residual,converged,config_hash"
    ]


def test_compute_nonconverged_exits_2(tmp_path, capsys, monkeypatch):
    # pair 0-36 of the 8x8 spike at p = 7, D = 1.35 ends with both terms
    # tied: neither screen settles it, so it runs the barrier with its
    # centering budget
    monkeypatch.setattr(solver, "_MAX_CENTERINGS", 1)
    config = cfg_file(tmp_path, "kind = compute\nfamily = spike\nn = 2\nresolution = 8\n"
                                "torus = true\nj = 1\np = 7\nD = 1.35\npairs = 0-36\n")
    out = tmp_path / "run"
    assert cli.main(["compute", "--config", config, "--out", str(out)]) == 2
    assert "1 non-converged" in capsys.readouterr().out
    rows = read_rows(out / "compute.csv")
    assert rows[0]["converged"] == "false"


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_compute_box_end_pair(tmp_path, p):
    # on the last cell of a box every free cell starts flat: the energy
    # Newton start has a zero gradient and a zero Hessian
    config = cfg_file(tmp_path, "kind = compute\nfamily = flat\nn = 1\nresolution = 4\n"
                                f"p = {p:g}\npairs = 3-4\n")
    out = tmp_path / "run"
    assert cli.main(["compute", "--config", config, "--out", str(out)]) == 0
    (row,) = read_rows(out / "compute.csv")
    truth, clean = analytic_1d_dp([1.0], [0.25], p, 1.0)
    assert clean and truth == pytest.approx(0.25 ** ((p - 1) / p), rel=1e-15)
    assert row["converged"] == "true"
    assert float(row["value"]) == pytest.approx(truth, rel=1e-12)


def test_compute_unmodified_distance(tmp_path):
    # D = inf runs the uncapped solve; on a conformal chain it meets the
    # closed form c^((p-1)/p) = 2^(2/3), in both orientations
    config = cfg_file(tmp_path, "kind = compute\nfamily = conformal-constant\n"
                                "conformal_c = 2\nn = 1\nresolution = 8\np = 3\nD = inf\n"
                                "pairs = 0-8, 8-0\n")
    out = tmp_path / "run"
    assert cli.main(["compute", "--config", config, "--out", str(out)]) == 0
    rows = read_rows(out / "compute.csv")
    truth, clean = analytic_1d_dp([2.0] * 8, [1 / 8] * 8, 3.0, math.inf)
    assert clean and truth == pytest.approx(2 ** (2 / 3), rel=1e-15)
    assert [(r["x"], r["y"], r["D"], r["value"], r["active_constraint"]) for r in rows] == [
        ("0", "8", "inf", "1.5874010519681994", "energy-bound"),
        ("8", "0", "inf", "1.5874010519681994", "energy-bound"),
    ]
    assert float(rows[0]["value"]) == pytest.approx(truth, rel=1e-12)


def test_compute_failed_pair_exits_1(tmp_path, capsys, monkeypatch):
    # a pair that fails outright (no partial result) aborts the run as an
    # input error naming the pair
    def fail(x, y, g, g0, params):
        raise SolverError("no start")

    monkeypatch.setattr(solver, "solve_dp", fail)
    config = cfg_file(tmp_path, CONFORMAL_1D)
    assert cli.main(["compute", "--config", config, "--out", str(tmp_path / "run")]) == 1
    assert "error: pair (0, 4) failed: SolverError: no start" in capsys.readouterr().err


def test_compute_random_pairs_are_seeded(tmp_path):
    base = CONFORMAL_1D.replace("pairs = 0-4", "pairs = random-3")
    config = cfg_file(tmp_path, base)
    out_a, out_b, out_c = (tmp_path / k for k in "abc")
    assert cli.main(["compute", "--config", config, "--out", str(out_a),
                     "--seed", "7"]) == 0
    assert cli.main(["compute", "--config", config, "--out", str(out_b),
                     "--seed", "7"]) == 0
    assert cli.main(["compute", "--config", config, "--out", str(out_c),
                     "--seed", "8"]) == 0
    a = (out_a / "compute.csv").read_bytes()
    assert a == (out_b / "compute.csv").read_bytes()
    assert a != (out_c / "compute.csv").read_bytes()


# -- sweep-p ------------------------------------------------------------------

def test_sweep_p_outputs(tmp_path, capsys):
    config = cfg_file(tmp_path, """\
kind = sweep-p
family = conformal-constant
conformal_c = 2
n = 1
resolution = 8
torus = true
pairs = 0-4
p_list = 2, 4
""")
    out = tmp_path / "run"
    assert cli.main(["sweep-p", "--config", config, "--out", str(out)]) == 0
    assert "2 p value(s), pair (0, 4)" in capsys.readouterr().out
    rows = read_rows(out / "sweep.csv")
    assert [float(r["p"]) for r in rows] == [2.0, 4.0]
    values = [float(r["value"]) for r in rows]
    d_graph = float(rows[0]["d_graph"])
    assert values[0] < values[1] <= d_graph + 1e-9     # climbing toward d_g
    for r in rows:
        assert float(r["gap"]) == pytest.approx(abs(float(r["value"]) - d_graph))
    # the chart is drawn from the rows in hand, and matches the CSV read back
    ps = [float(r["p"]) for r in rows]
    assert (out / "sweep.svg").read_text() == render_line_chart(
        [(col, ps, [float(r[col]) for r in rows]) for col in ("value", "d_graph")],
        title="distance vs p, pair (0, 4)", xlabel="p", ylabel="distance")


def test_sweep_p_requires_ascending_list(tmp_path, capsys):
    config = cfg_file(tmp_path, """\
kind = sweep-p
family = flat
n = 1
resolution = 4
pairs = 0-2
p_list = 4, 2
""")
    assert cli.main(["sweep-p", "--config", config, "--out", str(tmp_path / "x")]) == 1
    assert "strictly ascending" in capsys.readouterr().err


# -- sequence -----------------------------------------------------------------

def test_sequence_outputs(tmp_path, capsys):
    config = cfg_file(tmp_path, """\
kind = sequence
family = spike
n = 1
resolution = 8
torus = true
j_list = 1, 2
pairs = corner-pairs
""")
    out = tmp_path / "run"
    assert cli.main(["sequence", "--config", config, "--out", str(out)]) == 0
    assert "2 index(es) x 1 pair(s)" in capsys.readouterr().out
    rows = read_rows(out / "sequence.csv")
    assert [int(r["j"]) for r in rows] == [1, 2]
    assert float(rows[0]["I_inv"]) > float(rows[1]["I_inv"]) > 0
    for r in rows:
        assert float(r["sup_pair_discrepancy"]) >= 0
        assert float(r["I_g"]) > 0 and float(r["I_eta"]) > 0 and float(r["I_33"]) >= 0
    assert (out / "sequence.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("family,solves", [("flat", 1), ("conformal-constant", 2)],
                         ids=["flat", "conformal-constant"])
def test_sequence_on_a_family_that_ignores_j(tmp_path, capsys, monkeypatch, family, solves):
    # flat and conformal-constant read no index, so their specs carry none:
    # the rows are labelled by j_list and are otherwise equal, and the one
    # distinct member is solved once, after the background; flat's member is
    # the background itself and reuses its solve
    calls = []
    real = experiments.distance_matrix
    monkeypatch.setattr(experiments, "distance_matrix",
                        lambda *args: calls.append(args) or real(*args))
    extra = "conformal_c = 2\n" if family == "conformal-constant" else ""
    config = cfg_file(tmp_path, f"""\
kind = sequence
family = {family}
{extra}n = 2
resolution = 4
torus = true
j_list = 1..3
pairs = corner-pairs
""")
    out = tmp_path / "run"
    assert cli.main(["sequence", "--config", config, "--out", str(out)]) == 0
    assert "3 index(es) x 4 pair(s)" in capsys.readouterr().out
    rows = read_rows(out / "sequence.csv")
    assert [r.pop("j") for r in rows] == ["1", "2", "3"]
    assert rows[0] == rows[1] == rows[2]
    assert len(calls) == solves
    if family == "flat":
        assert rows[0]["sup_pair_discrepancy"] == "0.0"


def test_sequence_rejects_low_p_without_override(tmp_path, capsys):
    body = """\
kind = sequence
family = spike
n = 1
resolution = 8
torus = true
j_list = 1
pairs = corner-pairs
p = 2
"""
    config = cfg_file(tmp_path, body)
    assert cli.main(["sequence", "--config", config, "--out", str(tmp_path / "x")]) == 1
    assert "p > 3n" in capsys.readouterr().err
    config2 = cfg_file(tmp_path, body + "allow_low_p = true\n", name="low.cfg")
    assert cli.main(["sequence", "--config", config2, "--out", str(tmp_path / "y")]) == 0
    assert "convergence along the family is not guaranteed" in capsys.readouterr().err


@pytest.mark.parametrize("kind,body", [
    ("sequence", "family = spike\nn = 1\nresolution = 4\ntorus = true\nj_list = 1, 2\n"
                 "pairs = corner-pairs\n"),
    ("gen", "family = flat\nn = 1\nresolution = 4\n"),
], ids=["sequence", "gen"])
@pytest.mark.parametrize("key", ["mesh", "metric", "metric0"])
def test_family_subcommands_reject_file_keys(tmp_path, capsys, kind, body, key):
    # sequence and gen build their geometry from a family; a file key would
    # otherwise be ignored without a word
    config = cfg_file(tmp_path, body + f"{key} = {tmp_path / 'nonexistent.txt'}\n")
    assert cli.main([kind, "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config key {key!r}" in err
    assert not (tmp_path / "x").exists()


# -- scaling ------------------------------------------------------------------

def test_scaling_holds_on_flat_family(tmp_path, capsys):
    config = cfg_file(tmp_path, """\
kind = scaling
family = flat
n = 1
resolution = 4
pairs = 0-2
p = 2
lambda_list = 1, 2
""")
    out = tmp_path / "run"
    assert cli.main(["scaling", "--config", config, "--out", str(out)]) == 0
    assert "scaling law holds to 1e-4 for 2 factor(s)" in capsys.readouterr().out
    rows = read_rows(out / "scaling.csv")
    assert [float(r["lambda"]) for r in rows] == [1.0, 2.0]
    assert all(float(r["rel_err"]) <= 1e-4 for r in rows)
    assert float(rows[0]["lhs"]) == pytest.approx(float(rows[0]["rhs"]), rel=1e-9)


def test_scaling_violation_exits_2(tmp_path, capsys, monkeypatch):
    # scaling both metrics by (2 lambda)^2 where the check expects lambda^2
    # breaks the law at every factor
    real = experiments.scale_metric
    monkeypatch.setattr(experiments, "scale_metric", lambda m, lam: real(m, 2 * lam))
    config = cfg_file(tmp_path, """\
kind = scaling
family = flat
n = 1
resolution = 4
pairs = 0-2
p = 2
lambda_list = 1, 2
""")
    out = tmp_path / "run"
    assert cli.main(["scaling", "--config", config, "--out", str(out)]) == 2
    assert ("scaling law violated beyond 1e-4 at lambda = [1.0, 2.0]"
            in capsys.readouterr().out)
    rows = read_rows(out / "scaling.csv")
    assert all(float(r["rel_err"]) > 1e-4 for r in rows)


# -- class-check --------------------------------------------------------------

CLASS_BODY = """\
kind = class-check
family = conformal-constant
conformal_c = 2
n = 2
resolution = 2
q1 = 2
q2 = 2
V2 = 0.5
diam_bound = 4.5
"""


def test_class_check_member(tmp_path, capsys):
    config = cfg_file(tmp_path, CLASS_BODY + "V1 = 6\n")
    out = tmp_path / "run"
    assert cli.main(["class-check", "--config", config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "verdict: member" in stdout
    report = (out / "class_check.txt").read_text()
    assert report.count(" ok") == 3 and "VIOLATED" not in report
    # measured mass norm for g = 4 I over the unit square is sqrt(32)
    assert repr(32.0 ** 0.5) in report


def test_class_check_violation_still_exits_0(tmp_path, capsys):
    config = cfg_file(tmp_path, CLASS_BODY + "V1 = 5\n")
    out = tmp_path / "run"
    assert cli.main(["class-check", "--config", config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "NOT a member ((1) mass norm)" in stdout
    assert "VIOLATED" in (out / "class_check.txt").read_text()


# -- argument and config failures ---------------------------------------------

def test_negative_seed_rejected(tmp_path, capsys):
    config = cfg_file(tmp_path, CONFORMAL_1D)
    code = cli.main(["compute", "--config", config, "--seed", "-1"])
    assert code == 1
    assert "--seed must be a non-negative integer" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    config = cfg_file(tmp_path, CONFORMAL_1D + "sharpness = 9\n")
    assert cli.main(["compute", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sharpness" in err and ":9:" in err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert cli.main(["compute", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_kind_mismatch_exits_1(tmp_path, capsys):
    config = cfg_file(tmp_path, CONFORMAL_1D)   # says kind = compute
    assert cli.main(["sweep-p", "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config says 'compute'" in err and "'sweep-p' subcommand" in err


def test_bad_pair_spec_exits_1(tmp_path, capsys):
    config = cfg_file(tmp_path, CONFORMAL_1D.replace("pairs = 0-4", "pairs = 0-99"))
    assert cli.main(["compute", "--config", config, "--out", str(tmp_path / "x")]) == 1
    assert "outside 0..7" in capsys.readouterr().err


def test_malformed_mesh_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad_mesh.txt"
    bad.write_text("dpmesh v1 1\nv 0.0\nv 1.0\nc 0 zebra\n")
    config = cfg_file(tmp_path, f"kind = compute\nmesh = {bad}\npairs = 0-1\np = 2\n")
    assert cli.main(["compute", "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "bad_mesh.txt:4:" in err


def test_missing_data_file_exits_1(tmp_path, capsys):
    # file-system errors surface as clean input errors, not tracebacks
    mesh = tmp_path / "mesh.txt"
    mesh.write_text("dpmesh v1 1\nv 0.0\nv 1.0\nc 0 1\n")
    config = cfg_file(
        tmp_path,
        f"kind = compute\nmesh = {mesh}\nmetric = {tmp_path / 'nope.txt'}\n"
        "pairs = 0-1\np = 2\n",
    )
    assert cli.main(["compute", "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.txt" in err


SPIKE_1D = """\
family = spike
n = 1
resolution = 8
torus = true
j = 1
pairs = 0-4
p = 2
"""
SPIKE_2D = (SPIKE_1D.replace("n = 1", "n = 2").replace("resolution = 8", "resolution = 4")
            .replace("p = 2", "p = 4"))
GEN_SPIKE_1D = SPIKE_1D.replace("pairs = 0-4\np = 2\n", "")


@pytest.mark.parametrize("kind,body,key", [
    pytest.param("compute", SPIKE_1D + "amplitude = -1\n", "amplitude", id="amplitude"),
    pytest.param("compute", SPIKE_1D + "radius = 0.7\n", "radius", id="radius"),
    pytest.param("compute", CONFORMAL_1D.replace("conformal_c = 2", "conformal_c = -2"),
                 "conformal_c", id="conformal_c"),
    pytest.param("compute", CONFORMAL_1D.replace("conformal-constant", "scaled")
                 + "scale = -1\n", "scale", id="scale"),
    pytest.param("compute", SPIKE_1D + "profile = cone\n", "profile", id="profile-compute"),
    pytest.param("gen", GEN_SPIKE_1D + "profile = cone\n", "profile", id="profile-gen"),
    pytest.param("compute", SPIKE_2D + "profile = tube\n", "profile", id="tube-2d"),
    pytest.param("compute", SPIKE_2D + "center = 0.5, 0.5, 0.5\n", "center", id="center-long"),
    pytest.param("compute", SPIKE_2D + "center = 0.5\n", "center", id="center-short"),
    pytest.param("compute", SPIKE_1D.replace("j = 1", "j = 0"), "j", id="j"),
    pytest.param("gen", GEN_SPIKE_1D.replace("j = 1", "j_list = 0..2"), "j_list",
                 id="j_list-gen"),
    pytest.param("gen", GEN_SPIKE_1D.replace("spike", "bogus"), "family", id="family-gen"),
    pytest.param("class-check", CLASS_BODY.replace("q1 = 2", "q1 = 0.5") + "V1 = 6\n",
                 "q1", id="q1"),
    pytest.param("class-check", CLASS_BODY + "V1 = -1\n", "V1", id="V1"),
    pytest.param("compute", CONFORMAL_1D.replace("p = 2", "p = 0"), "p", id="p-zero"),
    pytest.param("sweep-p", CONFORMAL_1D.replace("p = 2", "p_list = ,"), "p_list",
                 id="p_list-empty"),
    pytest.param("scaling", CONFORMAL_1D + "lambda_list = ,\n", "lambda_list",
                 id="lambda_list-empty"),
    # non-finite values: each used to fail later without naming its key
    pytest.param("sweep-p", SPIKE_2D.replace("p = 4", "p_list = nan"), "p_list",
                 id="p_list-nan"),
    pytest.param("scaling", SPIKE_2D + "lambda_list = inf\n", "lambda_list",
                 id="lambda_list-inf"),
    pytest.param("compute", SPIKE_2D + "center = nan, 0.5\n", "center", id="center-nan"),
])
def test_bad_family_or_class_value_exits_1(tmp_path, capsys, kind, body, key):
    # out-of-range values fail at the config boundary, not as a traceback
    body = "\n".join(ln for ln in body.splitlines() if not ln.startswith("kind"))
    config = cfg_file(tmp_path, body + "\n")
    assert cli.main([kind, "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config key {key!r}" in err


SEQUENCE_1D = "family = spike\nn = 1\nresolution = 4\ntorus = true\npairs = corner-pairs\n"


@pytest.mark.parametrize("kind,body,key,message", [
    pytest.param("compute", CONFORMAL_1D.replace("p = 2\n", ""), "p",
                 "is required for this experiment kind", id="p-missing"),
    pytest.param("compute", "pairs = 0-1\np = 2\n", "kind",
                 "config needs either mesh = <file> or family = <name>", id="no-geometry"),
    pytest.param("compute", CONFORMAL_1D.replace("0-4", "random-abc"), "pairs",
                 "expected random-<count>, got 'random-abc'", id="random-abc"),
    pytest.param("compute", CONFORMAL_1D.replace("0-4", "3-x"), "pairs",
                 "expected <node>-<node> entries, got '3-x'", id="pairs-not-a-node"),
    pytest.param("sequence", SEQUENCE_1D.replace("corner-pairs", "") + "p = 4\n", "pairs",
                 "sequence studies need a non-empty pair set", id="pairs-empty-sequence"),
    pytest.param("compute", SPIKE_2D.replace("0-4", "random-1000"), "pairs",
                 "random pair count 1000 out of range for 16 nodes", id="random-1000"),
    pytest.param("compute", CONFORMAL_1D.replace("0-4", "3-3"), "pairs",
                 "pair '3-3' joins a node to itself", id="self-pair"),
    pytest.param("compute", CONFORMAL_1D + "D = 0\n", "D",
                 "must be positive (or auto/inf), got '0'", id="D-zero"),
    pytest.param("sweep-p", CONFORMAL_1D.replace("0-4", "").replace("p = 2", "p_list = 3"),
                 "pairs",
                 "sweep-p needs at least one pair (the first is used)", id="sweep-p-no-pairs"),
    pytest.param("scaling", CONFORMAL_1D.replace("0-4", ""), "pairs",
                 "scaling checks need at least one pair (the first is used)",
                 id="scaling-no-pairs"),
    pytest.param("sweep-p", SPIKE_2D.replace("p = 4", "p_list = 1.5, 4"), "p_list",
                 "entries must lie in (n, 128] with n = 2", id="p_list-below-n"),
    pytest.param("sequence", SEQUENCE_1D + "j_list = ,\n", "j_list",
                 "needs at least one index", id="j_list-empty"),
    # gen needs j on spike and oscillation, as the runners that read its files do
    pytest.param("gen", GEN_SPIKE_1D.replace("j = 1\n", ""), "j",
                 "is required for this experiment kind", id="j-missing-gen"),
    pytest.param("scaling", CONFORMAL_1D + "lambda_list = 0.5, -1\n", "lambda_list",
                 "scale factors must be positive", id="lambda_list-negative"),
    pytest.param("scaling", CONFORMAL_1D + "lambda_list = 0.5, inf\n", "lambda_list",
                 "scale factors must be finite", id="lambda_list-inf"),
    pytest.param("sweep-p", SPIKE_2D.replace("p = 4", "p_list = nan"), "p_list",
                 "entries must lie in (n, 128] with n = 2", id="p_list-nan"),
    pytest.param("compute", SPIKE_2D + "center = nan, 0.5\n", "center",
                 "coordinates must be finite, got [nan, 0.5]", id="center-nan"),
    pytest.param("compute", SPIKE_2D + "center = 1.45, 0.5\n", "center",
                 "coordinates must lie in the chart [0, 1], got [1.45, 0.5]",
                 id="center-outside-chart"),
    # the README's rule n < p <= 128, checked before any solve
    pytest.param("compute", CONFORMAL_1D.replace("p = 2", "p = 200"), "p",
                 "is capped at 128, got 200.0", id="p-above-cap-compute"),
    pytest.param("scaling", CONFORMAL_1D.replace("p = 2", "p = 130"), "p",
                 "is capped at 128, got 130.0", id="p-above-cap-scaling"),
    pytest.param("sequence", SEQUENCE_1D + "p = 200\n", "p",
                 "is capped at 128, got 200.0", id="p-above-cap-sequence"),
    pytest.param("sequence", SEQUENCE_1D + "p = 1\nallow_low_p = true\n", "p",
                 "must exceed the dimension n = 1, got 1.0", id="low-p-override-keeps-p-above-n"),
    pytest.param("compute", SPIKE_2D.replace("resolution = 4", "resolution = 5")
                 .replace("0-4", "corner-pairs"), "pairs",
                 "corner-pairs needs a vertex at (0.0, 0.5): no vertex at [0.0, 0.5] "
                 "(closest is 0.1 away)", id="corner-pairs-odd-resolution"),
    # the oscillation family is 2-D; its n used to fail without path or key
    pytest.param("gen", GEN_SPIKE_1D.replace("spike", "oscillation").replace("n = 1", "n = 3"),
                 "n", "must be 2 for the oscillation family, got 3", id="oscillation-3d-gen"),
    pytest.param("sequence", SEQUENCE_1D.replace("spike", "oscillation") + "p = 4\n", "n",
                 "must be 2 for the oscillation family, got 1", id="oscillation-1d-sequence"),
])
def test_runner_input_error_message(tmp_path, capsys, kind, body, key, message):
    # each runner's input errors name the config key and keep their text
    body = "\n".join(ln for ln in body.splitlines() if not ln.startswith("kind"))
    config = cfg_file(tmp_path, body + "\n")
    assert cli.main([kind, "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:") and err.count("\n") == 1
    assert err.endswith(f": config key {key!r}: {message}\n")


FOUND_BODY = CONFORMAL_1D + "amplitude = 3\nlambda_list = 1, 2\np_list = 3, 4\nj = 5\nq1 = 2\n"
FLAT_1D = CONFORMAL_1D.replace("conformal-constant", "flat").replace("conformal_c = 2\n", "")
BOTH = "give either mesh/metric files or a family, not both"


@pytest.mark.parametrize("kind,body,key,line,message", [
    pytest.param("compute", FOUND_BODY, "amplitude", 9, "is not read by this compute run",
                 id="found"),
    pytest.param("compute", CONFORMAL_1D + "lambda_list = 1, 2\n", "lambda_list", 9,
                 "is not read by this compute run", id="lambda_list-compute"),
    pytest.param("sweep-p", CONFORMAL_1D.replace("p = 2", "p_list = 2, 4") + "p = 3\n", "p", 9,
                 "is not read by this sweep-p run", id="p-sweep-p"),
    pytest.param("gen", GEN_SPIKE_1D + "pairs = 0-4\n", "pairs", 7, "is not read by this gen run",
                 id="pairs-gen"),
    pytest.param("sequence", SEQUENCE_1D + "j = 2\n", "j", 7, "is not read by this sequence run",
                 id="j-sequence"),
    pytest.param("sequence", SEQUENCE_1D.replace("spike", "conformal-constant")
                 + "conformal_c = 2\namplitude = 2\n", "amplitude", 8,
                 "is not read by this sequence run", id="amplitude-conformal-constant"),
    pytest.param("compute", FLAT_1D + "j = 2\n", "j", 8, "is not read by this compute run",
                 id="j-flat"),
    pytest.param("compute", "mesh = mesh.txt\nn = 2\npairs = 0-1\np = 2\n", "n", 3, BOTH,
                 id="n-beside-mesh"),
    pytest.param("compute", CONFORMAL_1D + "metric0 = metric0.txt\n", "metric0", 9, BOTH,
                 id="metric0-beside-family"),
    pytest.param("gen", GEN_SPIKE_1D + "j_list = 1, 2\n", "j", 6, "is not read by this gen run",
                 id="j-beside-j_list"),
])
def test_unread_key_exits_1(tmp_path, capsys, kind, body, key, line, message):
    # a key the run does not read fails at its line before anything is
    # written; the config names its kind on line 1
    body = f"kind = {kind}\n" + "".join(ln + "\n" for ln in body.splitlines()
                                        if not ln.startswith("kind"))
    config = cfg_file(tmp_path, body)
    assert cli.main([kind, "--config", config, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {config}:{line}: config key {key!r}: {message}\n"
    assert not (tmp_path / "x").exists()


def test_corner_pairs_on_the_3d_torus():
    # origin to each half-period point, in the order of compute_spike_t3's
    # reference rows
    mesh, _ = make_flat(3, 6, torus=True)
    assert experiments._corner_pairs(mesh) == [
        (0, 108), (0, 18), (0, 126), (0, 3), (0, 111), (0, 21), (0, 129)]


def test_subcommand_tables_agree():
    # the config's kind check, the CLI's subcommands and the runners name the
    # same experiments
    usage = cli._build_parser().format_usage()
    subcommands = re.search(r"\{(.*?)\}", usage).group(1).split(",")
    assert set(KINDS) == set(subcommands) == set(experiments.RUNNERS)
    assert len(KINDS) == len(subcommands) == len(experiments.RUNNERS) == 6


def test_argparse_usage_errors(tmp_path):
    with pytest.raises(SystemExit):
        cli.main([])                       # subcommand is required
    with pytest.raises(SystemExit):
        cli.main(["compute"])              # --config is required


# -- determinism smoke (full matrix lives in the acceptance suite) -------------

def test_gen_byte_identical_across_out_dirs(tmp_path):
    config = cfg_file(tmp_path, "kind = gen\nfamily = flat\nn = 1\nresolution = 4\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen", "--config", config, "--out", str(out_a)]) == 0
    assert cli.main(["gen", "--config", config, "--out", str(out_b)]) == 0
    for name in ("mesh.txt", "metric0.txt", "metric.txt", "family.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# -- fuzzed config boundary ------------------------------------------------------

TINY = {
    "gen": "family = spike\nn = 2\nresolution = 3\ntorus = true\nj = 2\n",
    "compute": CONFORMAL_1D.replace("resolution = 8", "resolution = 4").replace("0-4", "0-2"),
    "sweep-p": CONFORMAL_1D.replace("resolution = 8", "resolution = 4")
               .replace("0-4", "0-2").replace("p = 2", "p_list = 2, 4"),
    "sequence": "family = spike\nn = 1\nresolution = 4\ntorus = true\nj_list = 1, 2\n"
                "pairs = corner-pairs\n",
    "scaling": "family = flat\nn = 1\nresolution = 4\npairs = 0-2\np = 2\n"
               "lambda_list = 1, 2\n",
    "class-check": CLASS_BODY + "V1 = 6\n",
}
FUZZ_KEYS = ("family", "n", "resolution", "torus", "j", "j_list", "conformal_c", "center",
             "profile", "amplitude", "radius", "scale", "p", "p_list", "D", "pairs",
             "lambda_list", "allow_low_p", "q1", "V1", "diam_bound", "seed")
FUZZ_VALUES = ("", ",", "0", "-1", "1", "2", "0.5", "nan", "inf", "1e400", "x", "0..2",
               "2..1", "true", "corner-pairs", "random-2", "0-1", "1-1", "tube", "scaled",
               "oscillation", "auto")


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(TINY)), key=st.sampled_from(FUZZ_KEYS),
       value=st.sampled_from(FUZZ_VALUES))
@example(kind="sweep-p", key="p_list", value=",")
@example(kind="scaling", key="lambda_list", value="")
def test_fuzzed_config_value_never_raises(kind, key, value):
    # one malformed or edge value on one key of a valid tiny config: the CLI
    # answers with an exit code, never a traceback
    lines = [ln for ln in TINY[kind].splitlines()
             if ln.split("=")[0].strip() not in ("kind", key)]
    with tempfile.TemporaryDirectory() as tmp:
        config = f"{tmp}/run.cfg"
        with open(config, "w") as fh:
            fh.write("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert cli.main([kind, "--config", config, "--out", f"{tmp}/out"]) in (0, 1, 2)
