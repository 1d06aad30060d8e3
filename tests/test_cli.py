"""End-to-end command-line runs: every subcommand, exit codes, determinism."""

import csv
import json

import pytest

from dpmod import cli, solver
from dpmod.mesh import read_mesh
from dpmod.metric import read_metric


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
    # D = 0.5 makes the pair holder-bound, so it runs the barrier with its
    # centering budget (an energy-bound pair is settled by the Newton screen)
    monkeypatch.setattr(solver, "_MAX_CENTERINGS", 1)
    config = cfg_file(tmp_path, CONFORMAL_1D + "D = 0.5\n")
    out = tmp_path / "run"
    assert cli.main(["compute", "--config", config, "--out", str(out)]) == 2
    assert "1 non-converged" in capsys.readouterr().out
    rows = read_rows(out / "compute.csv")
    assert rows[0]["converged"] == "false"


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
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


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


@pytest.mark.parametrize("kind,body,key", [
    pytest.param("compute", SPIKE_1D + "amplitude = -1\n", "amplitude", id="amplitude"),
    pytest.param("compute", SPIKE_1D + "radius = 0.7\n", "radius", id="radius"),
    pytest.param("compute", CONFORMAL_1D.replace("conformal_c = 2", "conformal_c = -2"),
                 "conformal_c", id="conformal_c"),
    pytest.param("compute", CONFORMAL_1D.replace("conformal-constant", "scaled")
                 + "scale = -1\n", "scale", id="scale"),
    pytest.param("compute", SPIKE_1D + "profile = cone\n", "profile", id="profile-compute"),
    pytest.param("gen", SPIKE_1D + "profile = cone\n", "profile", id="profile-gen"),
    pytest.param("compute", SPIKE_2D + "profile = tube\n", "profile", id="tube-2d"),
    pytest.param("compute", SPIKE_2D + "center = 0.5, 0.5, 0.5\n", "center", id="center-long"),
    pytest.param("compute", SPIKE_2D + "center = 0.5\n", "center", id="center-short"),
    pytest.param("compute", SPIKE_1D.replace("j = 1", "j = 0"), "j", id="j"),
    pytest.param("gen", SPIKE_1D + "j_list = 0..2\n", "j_list", id="j_list-gen"),
    pytest.param("gen", SPIKE_1D.replace("spike", "bogus"), "family", id="family-gen"),
    pytest.param("class-check", CLASS_BODY.replace("q1 = 2", "q1 = 0.5") + "V1 = 6\n",
                 "q1", id="q1"),
    pytest.param("class-check", CLASS_BODY + "V1 = -1\n", "V1", id="V1"),
])
def test_bad_family_or_class_value_exits_1(tmp_path, capsys, kind, body, key):
    # out-of-range values fail at the config boundary, not as a traceback
    body = "\n".join(ln for ln in body.splitlines() if not ln.startswith("kind"))
    config = cfg_file(tmp_path, body + "\n")
    assert cli.main([kind, "--config", config, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config key {key!r}" in err


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
