import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import mediahom
from mediahom.cli import main
from mediahom.tolerances import BLOCK_SPLIT_RTOL


def write_config(tmp_path, name="scenario.json", **overrides):
    raw = {
        "model": "swap",
        "sites": 3,
        "couplings": {"chain": 1.0},
        "t": 0.5,
        "baths": [{"site": 2, "state": {"diag": 0.7}}],
        "initial_state": "ground",
        "analysis": "fixed_point",
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


SRC = os.path.dirname(os.path.dirname(mediahom.__file__))
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run_module(module, *args):
    """``python -m <module> <args>`` in a subprocess that imports src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def read_body(path):
    """CSV lines without the volatile comment header."""
    return [l for l in path.read_text().splitlines() if not l.startswith("# ")]


def test_check_prints_digest(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"ok: {cfg} (digest ")
    assert len(out.strip().rsplit("digest ", 1)[1].rstrip(")")) == 64


def test_run_writes_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "result.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    body = read_body(out)
    assert body[0].startswith("s_system,")
    assert body[0].endswith(",status")
    assert len(body) == 2
    assert body[1].endswith(",ok")


def test_run_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "s_system," in out
    assert ",ok" in out


def run_csv(tmp_path, name, **overrides):
    """``(digest line, body)`` of a ``run`` of the config ``overrides`` give."""
    cfg = write_config(tmp_path, name=f"{name}.json", **overrides)
    out = tmp_path / f"{name}.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    (digest,) = [l for l in lines if l.startswith("# config_digest: ")]
    return digest, read_body(out)


def test_run_seed_reproducible(tmp_path):
    seeded = {"initial_state": {"random_seed": 9}, "analysis": {"trajectory": 3}}
    assert run_csv(tmp_path, "a", **seeded) == run_csv(tmp_path, "b", **seeded)


@pytest.mark.parametrize("first,second", [
    ({"initial_state": {"random_seed": 1}, "analysis": {"trajectory": 3}},
     {"initial_state": {"random_seed": 2}, "analysis": {"trajectory": 3}}),
    ({"tolerances": {"max_iter": 3}}, {"tolerances": {"max_iter": 4}}),
    ({"analysis": "fixed_point"}, {"analysis": "spectrum"}),
], ids=["random_seed", "max_iter", "analysis"])
def test_each_run_setting_reaches_the_digest(tmp_path, first, second):
    # the config is the one source of a run's settings, so two configs
    # that differ in one of them differ in body and in provenance
    digest_a, body_a = run_csv(tmp_path, "a", **first)
    digest_b, body_b = run_csv(tmp_path, "b", **second)
    assert body_a != body_b
    assert digest_a != digest_b


def test_run_tolerances_surface_no_convergence(tmp_path):
    # an unreachable tolerance under a tiny iteration cap, both from the
    # config's tolerances section, surfaces in the status column, not as a
    # crash
    cfg = write_config(tmp_path,
                       tolerances={"iterate_tol": 1e-14, "max_iter": 3})
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "no convergence" in read_body(out)[1]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag", ["--seed", "--tol", "--max-iter"])
def test_run_setting_flags_are_usage_errors(tmp_path, command, flag):
    # the seed and the tolerances are set in the config alone
    cfg = write_config(tmp_path, sweep={"param": "t", "values": [0.5]})
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(cfg), flag, "1"])
    assert info.value.code == 2


def test_sweep_subcommand(tmp_path):
    cfg = write_config(
        tmp_path, sweep={"param": "baths.0.state.diag", "values": [0.6, 0.9]}
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--jobs", "2",
                 "--out", str(out)]) == 0
    body = read_body(out)
    assert body[0].startswith("baths.0.state.diag,")
    assert len(body) == 3
    assert body[1].split(",")[0] == "0.6"
    assert body[2].split(",")[0] == "0.9"


def test_sweep_over_network_size(tmp_path):
    # an integer field swept point by point: with the bath at the end site
    # of a swap chain every site relaxes to the bath state, so the system
    # entropy is `sites` times the bath's
    raw = json.loads((CONFIGS / "swap_chain_homogenization.json").read_text())
    raw["baths"][0]["site"] = 0
    raw["sweep"] = {"param": "sites", "values": [2, 3]}
    cfg = tmp_path / "sites.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(read_body(out)))
    assert [r["sites"] for r in rows] == ["2", "3"]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    for row, sites in zip(rows, (2, 3)):
        assert abs(float(row["entropy_ratio"]) - sites) < 1e-6


def test_sweep_without_section_fails(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_seed_exits_2_naming_the_field(tmp_path, capsys):
    # numpy's generator refuses a negative seed only once a run draws the
    # start, so both are checked before that
    cfg = write_config(tmp_path, initial_state={"random_seed": -1})
    for command in ("check", "run"):
        assert main([command, "--config", str(cfg)]) == 2
        assert ("config error: initial_state.random_seed: "
                in capsys.readouterr().err)


def test_random_initial_state_exits_2_naming_the_field(tmp_path, capsys):
    # a random start is {"random_seed": n}; the bare "random" had no seed
    cfg = write_config(tmp_path, initial_state="random")
    for command in ("check", "run"):
        assert main([command, "--config", str(cfg)]) == 2
        assert "config error: initial_state: " in capsys.readouterr().err


def test_sweep_jobs_below_one_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"param": "t", "values": [0.2, 0.4]})
    assert main(["sweep", "--config", str(cfg), "--jobs", "0"]) == 2
    assert "config error: jobs: " in capsys.readouterr().err


def test_spectrum_overrides_analysis(tmp_path):
    # a spectrum is the configured analysis; no subcommand overrides it
    cfg = write_config(tmp_path, analysis="spectrum")
    out = tmp_path / "spec.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    body = read_body(out)
    assert body[0] == "index,eig_real,eig_imag,modulus,status"
    assert len(body) == 1 + 64


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": "swap"}))
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("overrides,field", [
    ({"t": math.nan}, "config.t"),
    ({"model": "xxz", "delta": math.inf}, "config.delta"),
    ({"tolerances": {"iterate_tol": math.inf}}, "tolerances.iterate_tol"),
], ids=["t", "delta", "iterate_tol"])
def test_non_finite_number_exits_2(tmp_path, overrides, field):
    # json writes and reads NaN / Infinity; they must be refused as config
    # errors, not fail later inside an eigensolver
    cfg = write_config(tmp_path, **overrides)
    proc = run_module("mediahom.cli", "run", "--config", str(cfg))
    assert proc.returncode == 2
    assert f"config error: {field}: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("overrides,field", [
    ({"t": 10**400}, "config.t"),
    ({"baths": [{"site": 2, "state": {"matrix": [[10**400, 0], [0, 0]]}}]},
     "baths[0].state.matrix[0][0]"),
], ids=["t", "bath_matrix"])
def test_huge_integer_exits_2(tmp_path, overrides, field):
    # json reads an integer of any size; float() of one past the float
    # range overflows, so it must be refused before any conversion
    cfg = write_config(tmp_path, **overrides)
    proc = run_module("mediahom.cli", "check", "--config", str(cfg))
    assert proc.returncode == 2
    assert f"config error: {field}: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,overrides,field", [
    ("run", {"couplings": {"edges": [[0, 1, 1.0], [0.9, 1.7, 1.0]]}},
     "couplings.edges[1]"),
    ("run", {"baths": [{"site": 2, "state": {"diag": True}}]},
     "baths[0].state.diag"),
    ("sweep", {"sweep": {"param": "baths.-1.site", "values": [0]}},
     "sweep.param"),
], ids=["float_edge_site", "bool_diag", "negative_path_index"])
def test_bad_index_exits_2(tmp_path, capsys, command, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [
    0.5,
    [[1.0, 0.0], [0.0, 0.0]],
    [[1.0 if i == j else 0.0 for j in range(8)] for i in range(8)],
], ids=["not_a_list", "wrong_dimension", "not_a_state"])
def test_check_refuses_bad_initial_matrix(tmp_path, capsys, matrix):
    # the bundled 3-site chain: its states are 8 x 8 of trace 1
    raw = json.loads((CONFIGS / "swap_chain_homogenization.json").read_text())
    raw["initial_state"] = {"matrix": matrix}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(raw))
    assert main(["check", "--config", str(cfg)]) == 2
    assert "config error: initial_state.matrix" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    b"[" * 100_000,
    b'{"model": "sw\xffp"}',
    json.dumps({"t": 0}).replace("0", "1" * 5000).encode(),
], ids=["deep_nesting", "not_utf8", "long_integer"])
def test_undecodable_config_exits_2(tmp_path, text):
    # the decoder overflows the stack, meets a byte that is not UTF-8, or
    # passes Python's limit on the digits of an integer literal
    cfg = tmp_path / "scenario.json"
    cfg.write_bytes(text)
    proc = run_module("mediahom", "check", "--config", str(cfg))
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("config error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("tol", [1e-15, 2.0])
def test_unresolvable_peripheral_tol_exits_2(tmp_path, capsys, tol):
    cfg = write_config(tmp_path, tolerances={"peripheral_tol": tol})
    for command in ("check", "run"):
        assert main([command, "--config", str(cfg)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: tolerances.peripheral_tol: ")


@pytest.mark.parametrize("analysis", ["fixed_point", "site_populations"])
def test_peripheral_tol_at_the_split_tolerance_runs(tmp_path, analysis):
    # the smallest peripheral_tol a config may give still decides the
    # two-bath chain's trace-preserving channel
    raw = json.loads((CONFIGS / "two_bath_equilibrium.json").read_text())
    raw.update(analysis=analysis,
               tolerances={"peripheral_tol": BLOCK_SPLIT_RTOL})
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "result.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(read_body(out)))
    assert rows and all(row["status"] == "ok" for row in rows)


def test_huge_trajectory_exits_2(tmp_path):
    # refused at parse time, before the states are allocated
    cfg = write_config(tmp_path, analysis={"trajectory": 10**12})
    proc = run_module("mediahom", "run", "--config", str(cfg))
    assert proc.returncode == 2
    assert "config error: analysis.trajectory: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_import_does_not_load_scipy():
    # scipy is only a test dependency; importing scipy.sparse alone would
    # add about half a second to every start.  The process pool of a
    # parallel sweep loads concurrent.futures and, through it,
    # multiprocessing, logging and socket; it is imported only when used.
    unwanted = ["scipy", "concurrent", "multiprocessing", "logging", "socket"]
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, mediahom; "
         f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(unwanted)!r}))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_non_finite_channel_exits_1(tmp_path):
    # a finite but huge t overflows the unitary's phases to NaN; the
    # channel refuses it and the CLI reports a computation failure on one
    # line, with no numpy warning before it
    cfg = write_config(tmp_path, t=1e308)
    proc = run_module("mediahom.cli", "run", "--config", str(cfg))
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: joint matrix is not unitary: defect nan")
    # in a sweep the point becomes an error row, and stderr stays empty
    cfg = write_config(tmp_path, sweep={"param": "t", "values": [0.5, 1e308]})
    out = tmp_path / "sweep.csv"
    proc = run_module("mediahom.cli", "sweep", "--config", str(cfg),
                      "--out", str(out))
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = list(csv.DictReader(read_body(out)))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith(
        "ValueError: joint matrix is not unitary: defect nan")


def test_python_m_mediahom(tmp_path):
    cfg = write_config(tmp_path)
    proc = run_module("mediahom", "check", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"ok: {cfg} (digest ")


SEVEN_SITES = {"sites": 7, "baths": [{"site": 6, "state": {"diag": 0.7}}]}


@pytest.mark.parametrize("analysis",
                         ["fixed_point", "spectrum", "site_populations"])
def test_config_beyond_superoperator_limit_exits_2(tmp_path, capsys, analysis):
    # check refuses what run cannot start: these analyses split the
    # superoperator, which is refused beyond system dim 64
    cfg = write_config(tmp_path, analysis=analysis, **SEVEN_SITES)
    for command in ("check", "run"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sites: 7 sites of local_dim 2")


def test_trajectory_beyond_superoperator_limit_runs(tmp_path):
    # a trajectory collides the Kraus stack and needs no superoperator
    cfg = write_config(tmp_path, analysis={"trajectory": 2}, **SEVEN_SITES)
    out = tmp_path / "trajectory.csv"
    assert main(["check", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(read_body(out)))
    assert [r["status"] for r in rows] == ["ok"] * 3


def test_sweep_beyond_superoperator_limit_gives_a_status_row(tmp_path):
    # a point beyond the limit is reported in its row, first or not
    cfg = write_config(tmp_path, baths=[{"site": 2, "state": {"diag": 0.7}}],
                       sweep={"param": "sites", "values": [7, 3, 7]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(read_body(out)))
    assert [r["sites"] for r in rows] == ["7", "3", "7"]
    assert rows[1]["status"] == "ok"
    for row in (rows[0], rows[2]):
        assert row["status"].startswith(
            "ConfigCapacityError: sites: 7 sites of local_dim 2")


def test_unwritable_output_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["run", "--config", str(cfg), "--out", str(missing_dir)]) == 1
    assert "cannot write CSV" in capsys.readouterr().err


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit):
        main([])  # a subcommand is required
    with pytest.raises(SystemExit):
        main(["run"])  # --config is required
    # the config alone says what a run computes, so no subcommand
    # replaces its analysis
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--config", str(cfg)])
    assert info.value.code == 2
