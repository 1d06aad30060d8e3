"""Config parsing: grammar, typed getters, overrides, and hashing."""

import re
from pathlib import Path

import pytest

from dpmod import cli, config
from dpmod.config import KINDS, config_hash, parse_config
from dpmod.errors import ParseError
from dpmod.families import FAMILY_NAMES


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC = """\
# a comment line
kind = compute

pairs = 0-3, 1-2   # trailing comment
p = 4.5
seed = 11
out = results
torus = true
"""


def test_parse_basic(tmp_path):
    cfg = parse_config(write(tmp_path, BASIC))
    assert cfg.get_str("kind") == "compute"
    assert cfg.get_str("pairs") == "0-3, 1-2"
    assert cfg.get_float("p") == 4.5
    assert cfg.seed == 11 and cfg.out == "results"
    assert cfg.get_bool("torus") is True
    assert "p" in cfg and "D" not in cfg
    assert cfg.get_str("D", "auto") == "auto"     # defaults pass through


def test_cli_overrides_beat_file_values(tmp_path):
    path = write(tmp_path, BASIC)
    cfg = parse_config(path, seed=99, out="elsewhere")
    assert cfg.seed == 99 and cfg.out == "elsewhere"


def test_parse_error_reporting(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_config(write(tmp_path, "kind = compute\nwibble = 3\n"))
    assert err.value.line == 2 and "wibble" in str(err.value)
    assert str(err.value).startswith(err.value.path + ":2: ")

    with pytest.raises(ParseError) as err:
        parse_config(write(tmp_path, "p = 2\np = 3\n"))
    assert err.value.line == 2 and "duplicate" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_config(write(tmp_path, "kind compute\n"))
    assert err.value.line == 1 and "key = value" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_config(write(tmp_path, "kind = destroy\n"))
    assert "must be one of" in str(err.value)
    assert all(k in str(err.value) for k in KINDS)

    with pytest.raises(ParseError) as err:
        parse_config(tmp_path / "missing.cfg")
    assert "cannot read config" in str(err.value)

    with pytest.raises(ParseError):
        parse_config(write(tmp_path, "seed = -4\n"))


def test_typed_getters(tmp_path):
    cfg = parse_config(write(tmp_path, """\
n = 2
p = 7
amplitude = 1e-6
torus = no
lambda_list = 0.5, 1, 2
j_list = 1..4, 8
center = 0.5, 0.5
"""))
    assert cfg.get_int("n") == 2
    assert cfg.get_float("amplitude") == 1e-6
    assert cfg.get_bool("torus") is False
    assert cfg.get_bool("allow_low_p") is False        # absent -> default
    assert cfg.get_float_list("lambda_list") == [0.5, 1.0, 2.0]
    assert cfg.get_int_list("j_list") == [1, 2, 3, 4, 8]
    assert cfg.get_float_list("center") == [0.5, 0.5]
    assert cfg.get_int("resolution", 16) == 16


@pytest.mark.parametrize(
    "line,getter",
    [
        ("n = 2.5", "get_int"),
        ("p = tall", "get_float"),
        ("torus = sideways", "get_bool"),
        ("lambda_list = 1, two", "get_float_list"),
        ("j_list = 3..one", "get_int_list"),
        ("j_list = 5..2", "get_int_list"),
    ],
)
def test_typed_getter_errors_carry_line(tmp_path, line, getter):
    cfg = parse_config(write(tmp_path, f"# header\n{line}\n"))
    key = line.split("=")[0].strip()
    with pytest.raises(ParseError) as err:
        getattr(cfg, getter)(key)
    assert err.value.line == 2


def test_hash_semantics(tmp_path):
    a = parse_config(write(tmp_path, "kind = compute\np = 2\nout = x\n", "a.cfg"))
    b = parse_config(write(tmp_path, "kind = compute\np = 2\nout = y\n", "b.cfg"))
    assert a.hash() == b.hash()                    # out never affects the hash
    c = parse_config(write(tmp_path, "kind = compute\np = 2\n", "c.cfg"), seed=5)
    d = parse_config(write(tmp_path, "kind = compute\np = 2\nseed = 5\n", "d.cfg"))
    assert c.hash() == d.hash()                    # effective seed is what counts
    assert c.hash() != a.hash()
    e = parse_config(write(tmp_path, "kind = compute\np = 3\n", "e.cfg"))
    assert e.hash() != a.hash()
    assert len(a.hash()) == 12


def test_config_hash_canonicalization():
    a = config_hash("kind = gen\nn = 2\n")
    assert a == config_hash("  kind = gen\n\n# note\nn = 2")
    assert a != config_hash("kind = gen\nn = 3\n")
    assert len(a) == 12 and all(c in "0123456789abcdef" for c in a)


@pytest.mark.parametrize(
    "key", ["beta0", "beta_growth", "stage_rtol", "max_stages", "max_iters_per_stage",
            "pair_radius"])
def test_retired_continuation_keys_rejected(tmp_path, key, capsys):
    # the smoothed continuation's knobs are gone, the barrier's gap target
    # and budgets are fixed constants of the solver, and every solve caps
    # all node pairs
    path = write(tmp_path, f"kind = compute\n{key} = 4\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2 and key in str(err.value)
    assert cli.main(["compute", "--config", str(path)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def _key_rows():
    """(keys, used-by cell) per row of the README's config table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].strip().split("\n\n", 1)[0]
    rows = [row.split("|") for row in table.splitlines()[2:]]   # past the header and the rule
    return [(re.findall(r"`([^`]+)`", row[1]), row[2].strip()) for row in rows]


def test_readme_documents_every_key():
    # the first column of the README's config table names every known key
    documented = {key for keys, _ in _key_rows() for key in keys}
    assert documented == config._KNOWN_KEYS


def _reads(kind, key, family):
    """Whether a ``kind`` run reads ``key`` beside ``family`` (None: no geometry)."""
    values = {"family": (family, 1)} if family else {}
    cfg = config.ExperimentConfig(path="run.cfg", text="", values={key: ("1", 2)} | values)
    try:
        cfg.check_reads(kind)
    except ParseError:
        return False
    return True


def test_readme_used_by_matches_the_key_table():
    # the "used by" column names exactly the kinds that read each key, and
    # for a family value the families that read it: "k1, k2 on f1, f2",
    # parts joined by "; ", "all" for every kind
    for keys, used_by in _key_rows():
        documented = {}
        for part in used_by.split("; "):
            kinds, _, families = part.partition(" on ")
            for kind in KINDS if kinds == "all" else kinds.split(", "):
                documented[kind] = set(families.split(", ")) if families else None
        for key in keys:
            read = {}
            for kind in KINDS:
                families = {f for f in FAMILY_NAMES if _reads(kind, key, f)}
                if families == set(FAMILY_NAMES) or not families and _reads(kind, key, None):
                    read[kind] = None            # whatever the geometry
                elif families:
                    read[kind] = families
            assert documented == read, key
