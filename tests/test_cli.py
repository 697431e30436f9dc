import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hexident
from hexident import lemma_lab, optimize
from hexident.cli import main
from hexident.hexgrid import PeriodLattice
from hexident.lemma_lab import TEMPLATES, UNIVERSE_CAP, save_template, template_text
from hexident.optimize import SearchSpec, minimum_code, plant_isolated_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def witness(tmp_path):
    # optimal period-(7,1,1) code, density 3/7
    result = minimum_code(SearchSpec(PeriodLattice(7, 1, 1)))
    path = tmp_path / "w37.txt"
    result.witness.save(path)
    return str(path)


@pytest.fixture
def broken(tmp_path):
    code, _, _ = plant_isolated_pair(PeriodLattice(4, 4, 0), seed=0)
    path = tmp_path / "broken.txt"
    code.save(path)
    return str(path)


# ---------------------------------------------------------------------------
# verify and density


def test_verify_ok(capsys, witness):
    code, out, _ = run(capsys, "verify", "--code", witness)
    assert code == 0
    assert out.strip() == "OK density=3/7"


def test_verify_reports_violations(capsys, broken):
    code, out, _ = run(capsys, "verify", "--code", broken)
    assert code == 1
    assert "IndistinguishablePair" in out
    assert "FAIL" in out


def test_verify_json(capsys, witness):
    code, out, _ = run(capsys, "verify", "--code", witness, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["density"] == "3/7"
    assert payload["violations"] == []


def test_density_exact_and_approx(capsys, witness):
    code, out, _ = run(capsys, "density", "--code", witness)
    assert (code, out.strip()) == (0, "3/7")
    code, out, _ = run(capsys, "density", "--code", witness, "--approx")
    assert code == 0
    assert out.strip() == str(float(3 / 7))


def test_approx_only_where_a_fraction_prints(capsys, witness):
    code, _, err = run(capsys, "check-lemma", "--id", "L1", "--approx")
    assert code == 2
    assert "--approx" in err
    for argv in (["classify", "--code", witness], ["shell", "--code", witness, "--at", "0,0,0"],
                 ["scan", "--max-domain", "4"]):
        assert run(capsys, *argv, "--approx")[0] == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--code", "/no/such/code.txt")
    assert code == 2
    assert err


# ---------------------------------------------------------------------------
# classify, discharge, outflow, shell


def test_classify_json(capsys, witness):
    code, out, _ = run(capsys, "classify", "--code", witness)
    assert code == 0
    payload = json.loads(out)
    assert payload["density"] == "3/7"
    assert all("size" in c for c in payload["clusters"])


def test_discharge_main_passes(capsys, witness):
    code, out, _ = run(capsys, "discharge", "--engine", "main", "--code", witness,
                       "--bound", "12/29")
    assert code == 0
    payload = json.loads(out)
    assert payload["audit"]["failures"] == []
    assert payload["ledger"]["conserved"] is True
    assert payload["claims"]["ok"] is True


def test_discharge_prop1_passes(capsys, witness):
    code, out, _ = run(capsys, "discharge", "--engine", "prop1", "--code", witness,
                       "--format", "text")
    assert code == 0
    assert out.startswith("PASS engine=prop1 bound=2/5")


def test_discharge_fails_above_reachable_bound(capsys, witness):
    code, out, _ = run(capsys, "discharge", "--engine", "main", "--code", witness,
                       "--bound", "1/2", "--format", "text")
    assert code == 1
    assert out.startswith("FAIL")


def test_discharge_rejects_broken_code(capsys, broken):
    code, _, err = run(capsys, "discharge", "--code", broken)
    assert code == 1
    assert "invalid code" in err


def test_bad_bound_is_usage_error(capsys, witness):
    code, _, _ = run(capsys, "discharge", "--code", witness, "--bound", "twelve")
    assert code == 2


def test_outflow_value(capsys, witness):
    code, out, _ = run(capsys, "outflow", "--code", witness, "--at", "0,0,0")
    assert code == 0
    assert out.strip() == "48/29"


def test_outflow_requires_code_vertex(capsys, witness):
    code, _, err = run(capsys, "outflow", "--code", witness, "--at", "0,0,1")
    assert code == 2
    assert "not a code vertex" in err


def test_shell_requires_code_vertex(capsys, witness):
    code, _, err = run(capsys, "shell", "--code", witness, "--at", "0,0,1")
    assert code == 2
    assert "not a code vertex" in err


def test_shell_bound_line(capsys, witness):
    code, out, _ = run(capsys, "shell", "--code", witness, "--at", "0,0,0")
    assert code == 0
    assert out.strip() == "shell=20 minParts=11"


def test_bad_vertex_is_usage_error(capsys, witness):
    code, _, _ = run(capsys, "outflow", "--code", witness, "--at", "zero")
    assert code == 2


# ---------------------------------------------------------------------------
# check-lemma


def test_check_lemma_verified(capsys):
    code, out, _ = run(capsys, "check-lemma", "--id", "L1", "--template", "fig3a")
    assert code == 0
    assert out.strip() == "VERIFIED"


def test_check_lemma_node_cap_inconclusive(capsys):
    code, out, _ = run(capsys, "check-lemma", "--id", "L2", "--node-cap", "40")
    assert code == 1
    assert out.splitlines()[0] == "INCONCLUSIVE"
    assert "node cap" in out


def test_check_lemma_json(capsys):
    code, out, _ = run(capsys, "check-lemma", "--id", "L1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemmaId"] == "L1"
    assert payload["result"] == "VERIFIED"


def test_check_lemma_template_file(capsys, tmp_path):
    path = tmp_path / "window.txt"
    save_template(TEMPLATES["fig3a"], path)
    code, out, _ = run(capsys, "check-lemma", "--id", "L1", "--template", str(path))
    assert code == 0
    assert out.strip() == "VERIFIED"


def test_check_lemma_radius_and_template_conflict(capsys):
    code, _, err = run(capsys, "check-lemma", "--id", "L1", "--template", "fig3a",
                       "--radius", "3")
    assert code == 2
    assert err


def test_check_lemma_bad_sublattice_is_usage_error(capsys, tmp_path):
    path = tmp_path / "window.txt"
    path.write_text("0 0 1 IN\n0 0 0 OUT\n1 0 0 OUT\n0 1 0 OUT\n5 5 2 UNKNOWN\n")
    code, out, err = run(capsys, "check-lemma", "--id", "L1", "--template", str(path))
    assert (code, out) == (2, "")
    assert "sublattice must be 0 or 1" in err


def _unsealed_windows():
    # a 3-path whose leaf (0,2,1) keeps its neighbor (0,3,0) undecided
    yield "L3", "0 2 1 IN\n1 2 0 IN\n1 2 1 IN\n0 3 0 UNKNOWN\n"
    # the built-in windows with one cluster neighbor turned UNKNOWN
    for lemma_id, name, row in (("L2", "fig3b", "0 2 0 OUT"), ("L3", "fig4", "1 3 0 OUT"),
                                ("L4", "fig5", "3 1 0 OUT")):
        lines = template_text(TEMPLATES[name]).splitlines()
        lines[lines.index(row)] = row.replace("OUT", "UNKNOWN")
        yield lemma_id, "\n".join(lines) + "\n"


@pytest.mark.parametrize("lemma_id,text", list(_unsealed_windows()))
def test_check_lemma_unsealed_cluster_is_usage_error(capsys, tmp_path, lemma_id, text):
    path = tmp_path / "window.txt"
    path.write_text(text)
    code, out, err = run(capsys, "check-lemma", "--id", lemma_id, "--template", str(path))
    assert (code, out) == (2, "")
    assert "pinned OUT" in err


def test_check_lemma_partition_size_cap_fails_before_any_shape(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("cluster shapes were built before checking the size")

    monkeypatch.setattr(lemma_lab, "_connected_shapes", never)
    for radius in ("20", "0", "-1", str(lemma_lab.SHAPE_CAP + 1)):
        code, out, err = run(capsys, "check-lemma", "--id", "L5partition", "--radius", radius)
        assert (code, out) == (2, "")
        assert "shape sizes 1 to %d" % lemma_lab.SHAPE_CAP in err


def test_check_lemma_universe_cap_fails_before_enumeration_cap(capsys, tmp_path):
    # both windows also exceed the enumeration cap; the message shows which
    # check ran first
    rows = ["0 0 1 IN", "0 0 0 OUT", "1 0 0 OUT", "0 1 0 OUT"]
    rows += ["%d 40 0 OUT" % a for a in range(12000)]
    path = tmp_path / "huge.txt"
    path.write_text("\n".join(rows) + "\n")
    for window in (("--template", str(path)), ("--radius", "200")):
        code, out, err = run(capsys, "check-lemma", "--id", "L1", *window)
        assert (code, out) == (2, "")
        assert "universe cap of %d" % UNIVERSE_CAP in err


def test_oversized_window_file_fails_while_parsing(capsys, monkeypatch, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("a window past the universe cap reached the lemma check")

    monkeypatch.setattr(hexident.cli, "check_lemma", never)
    # every row seeds the universe, so one row past the cap is refused
    path = tmp_path / "huge.txt"
    path.write_text("".join("%d 40 0 UNKNOWN\n" % a for a in range(UNIVERSE_CAP + 1)))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "check-lemma", "--id", "L2", "--template", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "universe cap of %d" % UNIVERSE_CAP in err
    assert peak < 4 << 20


# ---------------------------------------------------------------------------
# hostile arguments


_HOSTILE = [
    ("search-budget", ["search", "--p", "2", "--q", "2", "--budget", "-1"],
     "--budget: must be at least 0, got -1"),
    ("search-node-cap", ["search", "--p", "2", "--q", "2", "--node-cap", "-5"],
     "--node-cap: must be at least 0, got -5"),
    ("search-node-cap-word", ["search", "--p", "2", "--q", "2", "--node-cap", "many"],
     "--node-cap: expected an integer"),
    ("scan-max-domain", ["scan", "--max-domain", "-3"], "--max-domain: must be at least 2, got -3"),
    ("scan-max-domain-1", ["scan", "--max-domain", "1"], "--max-domain: must be at least 2, got 1"),
    ("scan-node-cap", ["scan", "--max-domain", "8", "--node-cap", "-1"],
     "--node-cap: must be at least 0, got -1"),
    ("scan-p-max", ["scan", "--max-domain", "8", "--p-max", "0"], "--p-max: must be at least 1, got 0"),
    ("scan-sizes-odd", ["scan", "--max-domain", "8", "--sizes", "3,5"],
     "--sizes: a domain size 2pq is even and at least 2, got 3"),
    ("scan-sizes-not-positive", ["scan", "--max-domain", "8", "--sizes=-4,0"],
     "--sizes: a domain size 2pq is even and at least 2, got -4"),
    ("scan-sizes-word", ["scan", "--max-domain", "8", "--sizes", "2,x"],
     "--sizes: expected a comma list of integers, got '2,x'"),
    ("scan-sizes-over-max-domain", ["scan", "--max-domain", "8", "--sizes", "10"],
     "--sizes 10 exceeds --max-domain 8"),
    ("check-lemma-node-cap", ["check-lemma", "--id", "L1", "--node-cap", "-1"],
     "--node-cap: must be at least 0, got -1"),
    ("L5partition-template", ["check-lemma", "--id", "L5partition", "--template", "fig5"],
     "L5partition sweeps cluster shapes"),
    ("L5partition-node-cap", ["check-lemma", "--id", "L5partition", "--node-cap", "3"],
     "L5partition sweeps cluster shapes"),
]


@pytest.mark.parametrize("argv,needle", [row[1:] for row in _HOSTILE], ids=[row[0] for row in _HOSTILE])
def test_hostile_arguments_are_usage_errors(capsys, monkeypatch, argv, needle):
    def never(*args, **kwargs):
        raise AssertionError("a hostile argument reached the search")

    for name in ("minimum_code", "density_scan"):
        monkeypatch.setattr(hexident.cli, name, never)
    for name in ("_check_partition", "_Engine"):
        monkeypatch.setattr(lemma_lab, name, never)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert needle in err


def test_least_accepted_arguments_still_run(capsys):
    code, out, _ = run(capsys, "search", "--p", "1", "--q", "1", "--budget", "0")
    assert (code, out.split()[0]) == (1, "INFEASIBLE")
    code, out, _ = run(capsys, "search", "--p", "2", "--q", "2", "--node-cap", "0")
    assert code == 0 and "optimal=False" in out
    code, out, _ = run(capsys, "scan", "--max-domain", "2", "--p-max", "1", "--node-cap", "0")
    assert code == 0 and out.splitlines()[1] == "1,1,0,1,1/2,1,False"


# ---------------------------------------------------------------------------
# search and scan


def test_search_finds_optimum(capsys):
    code, out, _ = run(capsys, "search", "--p", "7", "--q", "1", "--shear", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("minSize=6 density=3/7 optimal=True")
    assert "period 7 1 1" in out


def test_search_witness_roundtrip_through_verify(capsys, tmp_path):
    out_path = tmp_path / "witness.txt"
    code, _, _ = run(capsys, "search", "--p", "2", "--q", "3", "--shear", "1",
                     "--witness-out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--code", str(out_path))
    assert code == 0
    assert out.startswith("OK")


def test_search_infeasible_budget(capsys):
    code, out, _ = run(capsys, "search", "--p", "2", "--q", "2", "--budget", "2")
    assert code == 1
    assert "INFEASIBLE" in out


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--p", "1", "--q", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minSize"] == 1
    assert payload["density"] == "1/2"
    assert payload["optimal"] is True


def test_search_rejects_bad_shear(capsys):
    code, _, err = run(capsys, "search", "--p", "2", "--q", "2", "--shear", "5")
    assert code == 2
    assert err


def test_scan_csv_and_filter(capsys):
    code, out, _ = run(capsys, "scan", "--max-domain", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,shear,minSize,density,nodesExplored,optimal"
    assert len(lines) > 1
    code, out, _ = run(capsys, "scan", "--max-domain", "8", "--sizes", "2")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1,1,0,1,1/2,2,True"]


def test_scan_over_cap_fails_before_any_search(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("scan searched a lattice before checking the cap")

    monkeypatch.setattr(optimize, "minimum_code", never)
    code, out, err = run(capsys, "scan", "--max-domain", "34")
    assert code == 2
    assert out == ""
    assert "domain size 34 exceeds cap 32" in err
    # huge domains fail as fast: lattices are enumerated lazily by size
    for args, size in ((["--max-domain", "40000"], 34), (["--max-domain", "40000", "--sizes", "40000,12"], 40000)):
        code, out, err = run(capsys, "scan", *args)
        assert (code, out) == (2, "")
        assert f"domain size {size} exceeds cap 32" in err


def test_oversized_code_file_fails_before_any_work(capsys, monkeypatch, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("a command compiled clauses before checking the cap")

    monkeypatch.setattr(hexident.code, "identifying_constraints", never)
    path = tmp_path / "huge.txt"
    path.write_text("period 300 300 0\n0 0 0\n")
    for cmd in ("verify", "classify", "discharge"):
        code, out, err = run(capsys, cmd, "--code", str(path))
        assert (code, out) == (2, "")
        assert "domain size 180000 exceeds cap 20000" in err
    # a member at a huge orbit index would need a 100 MB bitmask
    path.write_text("period 20000 20000 0\n19999 19999 1\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--code", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "domain size 800000000 exceeds cap 20000" in err
    assert peak < 4 << 20


_HOSTILE_CODE_FILES = [
    ("over-cap", "period 20000 20000 0\n19999 19999 1\n", "domain size 800000000 exceeds cap 20000"),
    ("malformed-row", "period 7 1 1\n0 0 0\n0 0\n", "bad vertex row: '0 0'"),
    ("sublattice-2", "period 7 1 1\n0 0 2\n", "vertex sublattice must be 0 or 1: '0 0 2'"),
    ("missing", None, "No such file or directory"),
    ("empty", "", "empty code file"),
]
_CODE_COMMANDS = [["verify"], ["density"], ["classify"], ["discharge"], ["outflow", "--at", "0,0,0"],
                  ["shell", "--at", "0,0,0"]]


@pytest.mark.parametrize("text,needle", [row[1:] for row in _HOSTILE_CODE_FILES],
                         ids=[row[0] for row in _HOSTILE_CODE_FILES])
@pytest.mark.parametrize("command", _CODE_COMMANDS, ids=[argv[0] for argv in _CODE_COMMANDS])
def test_hostile_code_files_are_usage_errors(capsys, monkeypatch, tmp_path, command, text, needle):
    def never(*args, **kwargs):
        raise AssertionError("a hostile code file reached the clause compile")

    monkeypatch.setattr(hexident.code, "identifying_constraints", never)
    path = tmp_path / "code.txt"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, command[0], "--code", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert needle in err and err.endswith("\n") and err.count("\n") == 1


def test_code_file_refused_at_its_period_line(capsys, tmp_path):
    # a million distinct rows after the period line: none of them is read
    path = tmp_path / "huge.txt"
    with open(path, "w") as fh:
        fh.write("period 20000 20000 0\n")
        for k in range(0, 1_000_000, 1000):
            fh.write("".join("%d %d 0\n" % (j % 20000, j // 20000) for j in range(k, k + 1000)))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--code", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "domain size 800000000 exceeds cap 20000\n"
    assert peak < 2 << 20


def test_output_flag_writes_file(capsys, tmp_path, witness):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "density", "--code", witness, "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "3/7\n"


def test_reports_are_deterministic(capsys, witness):
    first = run(capsys, "discharge", "--code", witness)
    second = run(capsys, "discharge", "--code", witness)
    assert first == second


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_console_entry_point(witness):
    exe = shutil.which("hexident")
    cmd = [exe] if exe else [sys.executable, "-m", "hexident.cli"]
    # the child imports hexident from where this process found it, which
    # under pytest's pythonpath setting is not on the inherited path
    src = str(Path(hexident.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(cmd + ["verify", "--code", witness],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "OK density=3/7"
