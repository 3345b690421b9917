import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilbott.catalogue import catalogue_pc
from nilbott.cli import main, tables_data
from nilbott.polycyclic import nf_multiply
from nilbott.towers import TowerSpec, classify_tower

GOLDEN = Path(__file__).parent / "golden"

TOWER_TEXT = (
    "nilbott-tower v1\n"
    "stage 1: S1\n"
    "stage 2: base=S1 phi={g:-1}\n"
    "stage 3: base=K phi={g:-1,h:+1} k=5\n"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_command(capsys):
    code, out, _ = run(capsys, ["cohomology", "--base", "klein", "--phi", "g=-1,h=+1"])
    assert code == 0
    assert "H^2_phi(klein; Z) = Z" in out
    code, out, _ = run(capsys, ["cohomology", "--base", "torus", "--phi", "a=+1,b=+1"])
    assert code == 0 and "= Z\n" in out
    code, out, _ = run(capsys, ["cohomology", "--base", "klein", "--phi", "g=-1,h=-1"])
    assert code == 0 and "Z_2" in out


def test_cohomology_input_errors(capsys):
    code, _, err = run(capsys, ["cohomology", "--base", "sphere", "--phi", "g=1,h=1"])
    assert code == 2 and "unknown base" in err
    # --phi shares the tower spec's sign parser: nothing is read last-wins
    for phi, message in [
        ("x=1", "unknown generator 'x' in phi (expected g, h)"),
        ("g=1,h=1,g=-1", "generator 'g' appears twice in phi"),
        ("g=-1", "phi has no sign for h"),
        ("g=2,h=1", "sign of 'g' must be +1 or -1, got '2'"),
        ("g=abc,h=1", "sign of 'g' must be +1 or -1, got 'abc'"),
        ("g,h=1", "sign of 'g' must be +1 or -1, got ''"),
    ]:
        result = run(capsys, ["cohomology", "--base", "klein", "--phi", phi])
        assert result == (2, "", f"error: {message}\n"), phi


def test_classify_command(tmp_path, capsys):
    spec = tmp_path / "tower.txt"
    spec.write_text(TOWER_TEXT)
    code, out, _ = run(capsys, ["classify", str(spec)])
    assert code == 0
    assert "label: Gamma(5)" in out
    assert "type: infinite" in out
    code, _, err = run(capsys, ["classify", str(tmp_path / "missing.txt")])
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a tower\n")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 2 and "bad tower spec" in err


def _fresh_modules(code: str) -> set:
    """The modules loaded after running code in a new interpreter that
    finds the package by PYTHONPATH, as a command start does."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


def test_command_start_imports_no_dataclasses():
    # a command start, as perfbench/setup_probe.py times it, loads neither
    # dataclasses nor inspect (with ast, dis and tokenize they cost more
    # than the engine); measured against a bare start, since site may
    # preload modules
    added = _fresh_modules(
        "import nilbott.cli\n"
        "from nilbott.geometry import catalogue_representation\n"
        "catalogue_representation('B1')"
    ) - _fresh_modules("pass")
    assert {"nilbott.cli", "nilbott.geometry", "argparse", "json"} <= added
    assert not {"dataclasses", "inspect"} & added


SPEC_HEAD = "nilbott-tower v1\nstage 1: S1\nstage 2: base=S1 phi={g:-1}\n"
GAMMA_1 = SPEC_HEAD + "stage 3: base=K phi={g:-1,h:+1} k=1\n"

MALFORMED_SPECS = [
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={x:+1,h:+1} k=3\n",
        "stage 3: unknown generator 'x' in phi (expected g, h)",
        id="unknown-name",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1,g:+1,h:+1} k=3\n",
        "stage 3: generator 'g' appears twice in phi",
        id="duplicate-name",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1} k=3\n",
        "stage 3: phi has no sign for h",
        id="missing-name",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1,h:+3} k=3\n",
        "stage 3: sign of 'h' must be +1 or -1, got '+3'",
        id="sign-not-unit",
    ),
    pytest.param(
        "nilbott-tower v1\nstage 1: S1\nstage 2: base=S1 phi={g:-1} k=2\n",
        "stage 2: takes no k=",
        id="k-at-stage-2",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1,h:+1} k=1,2\n",
        "stage 3: k= must list 1 lift integers, got 2",
        id="lift-count",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: phi={g:-1,h:+1} k=3 k=0\n",
        "error: bad tower spec: stage 3: field 'k' given twice",
        id="repeated-k",
    ),
    pytest.param(
        "nilbott-tower v1\nstage 1: S1\nstage 2: phi={g:-1} phi={g:1}\n",
        "error: bad tower spec: stage 2: field 'phi' given twice",
        id="repeated-phi",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1,h:+1} base=T2 k=3\n",
        "error: bad tower spec: stage 3: field 'base' given twice",
        id="repeated-base",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi=g:-1,h:+1 k=3\n",
        "error: bad tower spec: stage 3: bad phi value 'g:-1,h:+1'",
        id="phi-without-braces",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1,h:+1} k=3 lift=3\n",
        "error: bad tower spec: stage 3: unknown field 'lift'",
        id="unknown-field",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1,h:+1} k=abc\n",
        "error: bad tower spec: stage 3: k= must be integers, got 'abc'",
        id="k-not-integer",
    ),
    pytest.param(
        "nilbott-tower v1\nstage x: S1\n",
        "error: bad tower spec: stage number must be an integer, got 'x'",
        id="stage-not-integer",
    ),
    pytest.param(
        "nilbott-tower v1\nstage 1: S1\nstage 2: base=K phi={g:-1}\n"
        "stage 3: base=T2 phi={g:-1,h:+1} k=3\n",
        "error: bad tower spec: stage 2: base= must be S1, got 'K'",
        id="base-at-stage-2",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=T2 phi={g:-1,h:+1} k=3\n",
        "error: bad tower spec: stage 3: base= must be K, got 'T2'",
        id="base-torus-over-klein",
    ),
    pytest.param(
        "nilbott-tower v1\nstage 1: S1\nstage 2: base=S1 phi={g:+1}\n"
        "stage 3: base=K phi={g:+1,h:+1} k=0\n",
        "error: bad tower spec: stage 3: base= must be T2, got 'K'",
        id="base-klein-over-torus",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base= phi={g:-1,h:+1} k=3\n",
        "error: bad tower spec: stage 3: base= must be K, got ''",
        id="base-empty",
    ),
    pytest.param(
        GAMMA_1 + "stage 4: base=G phi={g:+1,h:+1,n:+1} k=0,0,0\n",
        "error: bad tower spec: stage 4: takes no base= (only stages 2 and 3 do)",
        id="base-at-stage-4",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1,h:+1} k=1_000\n",
        "error: bad tower spec: stage 3: k= must be integers, got '1_000'",
        id="k-underscore",
    ),
    pytest.param(
        SPEC_HEAD + "stage 3: base=K phi={g:-1,h:+1} k=\u0661\n",
        "error: bad tower spec: stage 3: k= must be integers, got '\u0661'",
        id="k-non-ascii-digit",
    ),
    pytest.param(
        "nilbott-tower v1\nstage \u0661: S1\n",
        "error: bad tower spec: stage number must be an integer, got '\u0661'",
        id="stage-non-ascii-digit",
    ),
    pytest.param(
        "nilbott-tower v1\nstage 0_1: S1\n",
        "error: bad tower spec: stage number must be an integer, got '0_1'",
        id="stage-underscore",
    ),
    pytest.param(
        GAMMA_1 + "stage 4: phi={g:+1,h:+1,n:-1} k=0,0,0\n",
        "error: stage 4: phi is not a homomorphism on the base",
        id="phi-not-homomorphism",
    ),
    pytest.param(
        GAMMA_1 + "stage 4: phi={g:+1,h:-1,n:+1} k=0,0,1\n",
        "error: lift data is not a cocycle",
        id="lifts-not-cocycle",
    ),
    pytest.param(
        SPEC_HEAD + f"stage 3: base=K phi={{g:-1,h:+1}} k={10**1000}\n"
        "stage 4: phi={g:+1,h:+1,n:+1} k=0,0,0\n",
        "error: stage 3: a twisting integer of 3322 bits is above the bound of "
        "128 bits for towers of depth 4 or more",
        id="deep-k-over-bound",
    ),
    pytest.param(
        SPEC_HEAD + f"stage 3: base=K phi={{g:-1,h:+1}} k=-{'9' * 4001}\n",
        "error: bad tower spec: stage 3: a twisting integer has more than 4000 "
        "decimal digits",
        id="k-over-digit-bound",
    ),
]


@pytest.mark.parametrize("text, message", MALFORMED_SPECS)
def test_classify_malformed_specs(tmp_path, capsys, text, message):
    spec = tmp_path / "tower.txt"
    spec.write_text(text)
    code, out, err = run(capsys, ["classify", str(spec)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_classify_non_cocycle_names_the_rule(tmp_path, capsys):
    spec = tmp_path / "tower.txt"
    spec.write_text(GAMMA_1 + "stage 4: phi={g:+1,h:-1,n:+1} k=0,0,1\n")
    code, out, err = run(capsys, ["classify", str(spec)])
    assert code == 2 and out == ""
    assert err == (
        "error: lift data is not a cocycle: conjugation by g does not respect "
        "h n h^-1 = n m: n^-1 m^-1 vs n^-1 m\n"
    )


def test_classify_reads_phi_by_name(tmp_path, capsys):
    spec = tmp_path / "tower.txt"
    spec.write_text(SPEC_HEAD + "stage 3: base=K phi={h:+1,g:-1} k=3\n")
    code, out, _ = run(capsys, ["classify", str(spec)])
    assert code == 0
    assert "label: Gamma(3)" in out


def test_classify_failed_witness_exits_1(tmp_path, capsys, monkeypatch, fresh_families):
    # the failing check is the one on the Gamma family, made in this test
    monkeypatch.setattr("nilbott.towers.verify_isomorphism", lambda *args: False)
    spec = tmp_path / "tower.txt"
    spec.write_text(TOWER_TEXT)
    code, out, err = run(capsys, ["classify", str(spec)])
    assert code == 1
    assert out == ""
    assert err == "error: witness maps for Gamma(5) failed verification\n"


def test_tables_json_markdown_agree(capsys):
    code, out, _ = run(capsys, ["tables", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    klein = data["tables"][0]
    assert klein["base"] == "K"
    zero_row = [c["class_zero"] for c in klein["columns"]]
    assert zero_row == ["B1", "B3", "G2", "B3"]
    torus = data["tables"][1]
    assert [c["torsionfree"] for c in torus["columns"]] == ["Delta(k)", None, None]
    code, md, _ = run(capsys, ["tables", "--format", "markdown"])
    assert code == 0
    # markdown mirrors the same cells
    for col in klein["columns"]:
        for key in ("h2", "class_zero"):
            assert col[key] in md
    assert "Gamma(k)" in md


def test_verify_freeness(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "freeness", "--maxlen", "2"])
    assert code == 0
    assert "PASS freeness/B1" in out
    assert out.strip().endswith("certificates passed")


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2 and "empty suite" in err
    code, _, err = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "freeness", "--maxlen", "0"], "error: --maxlen must be at least 1, got 0\n"),
        (["--suite", "all", "--maxlen", "-3"], "error: --maxlen must be at least 1, got -3\n"),
        (["--suite", "paper", "--kmax", "-1"], "error: --kmax must be at least 0, got -1\n"),
        # 2^i C(3, i) C(N, i) summed over i: about 1.3e36 forms for N = 10^12
        (["--suite", "freeness", "--maxlen", str(10**12)],
         f"error: --maxlen {10**12} gives up to 1333333333335333333333336000000000000 "
         "normal forms per entry, above the limit of 1000000\n"),
        (["--suite", "all", "--maxlen", "91"],
         "error: --maxlen 91 gives up to 1021566 normal forms per entry, "
         "above the limit of 1000000\n"),
        # the paper suite is linear in kmax; 100 is the largest accepted
        (["--suite", "paper", "--kmax", "101"],
         "error: --kmax 101 is above the limit of 100\n"),
        (["--suite", "all", "--kmax", str(10**12)],
         f"error: --kmax {10**12} is above the limit of 100\n"),
    ],
)
def test_verify_rejects_out_of_range_bounds(capsys, argv, message):
    # rejected before any suite runs: no traceback, no vacuous pass line
    code, out, err = run(capsys, ["verify"] + argv)
    assert (code, out, err) == (2, "", message)


def test_verify_paper_at_kmax_limit(tmp_path, capsys, monkeypatch):
    # the only command that checks the relations in the exact models
    # (verify_relations_in_rep): stdout byte for byte, and the written
    # verify_paper.json, 477 KB, by its sha256
    monkeypatch.setenv("NILBOTT_OUTPUT_DIR", str(tmp_path))
    code, out, err = run(capsys, ["verify", "--suite", "paper", "--kmax", "100"])
    assert (code, err) == (0, "")
    assert "FAIL" not in out
    assert out.endswith("1633/1633 certificates passed\n")
    assert out == (GOLDEN / "verify_paper_kmax100.stdout").read_text()
    assert [p.name for p in tmp_path.iterdir()] == ["verify_paper.json"]
    digest = hashlib.sha256((tmp_path / "verify_paper.json").read_bytes()).hexdigest()
    assert digest == json.loads((GOLDEN / "verify_paper_kmax100_sha256.json").read_text())["sha256"]


def test_verify_paper_small(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "paper", "--kmax", "1"])
    assert code == 0
    assert "FAIL" not in out


def test_deterministic_output(capsys):
    argv = ["verify", "--suite", "freeness", "--maxlen", "2"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    _, t1, _ = run(capsys, ["tables", "--format", "both"])
    _, t2, _ = run(capsys, ["tables", "--format", "both"])
    assert t1 == t2


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NILBOTT_OUTPUT_DIR", str(tmp_path / "out"))
    run(capsys, ["tables", "--format", "json"])
    assert (tmp_path / "out" / "tables.json").exists()
    assert (tmp_path / "out" / "tables.md").exists()
    run(capsys, ["verify", "--suite", "freeness", "--maxlen", "2"])
    payload = json.loads((tmp_path / "out" / "verify_freeness.json").read_text())
    assert all(cert["schema_version"] == 1 for cert in payload)
    assert all(cert["verdict"] == "pass" for cert in payload)
    spec = tmp_path / "tower.txt"
    spec.write_text(TOWER_TEXT)
    run(capsys, ["classify", str(spec)])
    cert = json.loads((tmp_path / "out" / "classification.json").read_text())
    assert cert["witness"]["label"] == "Gamma(5)"


@pytest.mark.parametrize("command", ["cohomology", "classify", "tables", "verify"])
@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
def test_unwritable_output_dir(tmp_path, capsys, monkeypatch, command, under_file):
    # an output directory that is a file, or lies under one, is an input
    # error (exit 2, one stderr line) before the command runs; for verify,
    # exit 1 would read as a verification failure
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("NILBOTT_OUTPUT_DIR", str(blocker / "out" if under_file else blocker))
    spec = tmp_path / "tower.txt"
    spec.write_text(TOWER_TEXT)
    argv = {
        "cohomology": ["cohomology", "--base", "klein", "--phi", "g=-1,h=+1"],
        "classify": ["classify", str(spec)],
        "tables": ["tables"],
        "verify": ["verify", "--suite", "all", "--kmax", "1", "--maxlen", "2"],
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot make NILBOTT_OUTPUT_DIR: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command,blocked", [
    ("cohomology", "cohomology_klein.json"),
    ("classify", "classification.json"),
    ("tables", "tables.md"),
    ("verify", "verify_all.json"),
])
def test_unwritable_output_file(tmp_path, capsys, monkeypatch, command, blocked):
    # NILBOTT_OUTPUT_DIR exists, but the command's output file in it is a
    # directory: an input error (exit 2, one stderr line, no traceback),
    # not a verification failure (exit 1); tables.md is written second
    outdir = tmp_path / "out"
    (outdir / blocked).mkdir(parents=True)
    monkeypatch.setenv("NILBOTT_OUTPUT_DIR", str(outdir))
    spec = tmp_path / "tower.txt"
    spec.write_text(TOWER_TEXT)
    argv = {
        "cohomology": ["cohomology", "--base", "klein", "--phi", "g=-1,h=+1"],
        "classify": ["classify", str(spec)],
        "tables": ["tables"],
        "verify": ["verify", "--suite", "all", "--kmax", "1", "--maxlen", "2"],
    }[command]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error: cannot write to NILBOTT_OUTPUT_DIR: ")
    assert str(outdir / blocked) in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert (outdir / blocked).is_dir() and not any((outdir / blocked).iterdir())


def test_tables_data_structure():
    data = tables_data()
    assert [t["base"] for t in data["tables"]] == ["K", "T2"]
    for table in data["tables"]:
        for col in table["columns"]:
            assert set(col) == {
                "phi", "case", "h2", "class_zero", "nonzero_torsion", "torsionfree"
            }


GOLDEN_RUNS = [
    (["tables", "--format", "both"], "tables_both.stdout",
     {"tables.json": "tables.json", "tables.md": "tables.md"}),
    (["verify", "--suite", "all", "--kmax", "1", "--maxlen", "2"],
     "verify_all_kmax1_maxlen2.stdout",
     {"verify_all.json": "verify_all_kmax1_maxlen2.json"}),
    (["verify", "--suite", "freeness", "--maxlen", "12"],
     "verify_freeness_maxlen12.stdout",
     {"verify_freeness.json": "verify_freeness_maxlen12.json"}),
    # the largest ball the limit accepts, 988440 forms per 3-generator
    # entry: almost every form is counted in a ruled-out subtree, so a
    # miscounted words_checked shows here
    (["verify", "--suite", "freeness", "--maxlen", "90"],
     "verify_freeness_maxlen90.stdout",
     {"verify_freeness.json": "verify_freeness_maxlen90.json"}),
]

#: `cohomology --json` on all eight sign forms: stdout and the written JSON
#: of each, in files named by the signs (p for +1, m for -1)
_COHOMOLOGY_FORMS = [
    (base, names, f"{'p' if s > 0 else 'm'}{'p' if t > 0 else 'm'}", s, t)
    for base, names in (("klein", "gh"), ("torus", "ab"))
    for s in (1, -1)
    for t in (1, -1)
]
GOLDEN_RUNS += [
    (["cohomology", "--base", base, "--phi", f"{x}={s:+d},{y}={t:+d}", "--json"],
     f"cohomology_{base}_{tag}.stdout",
     {f"cohomology_{base}.json": f"cohomology_{base}_{tag}.json"})
    for base, (x, y), tag, s, t in _COHOMOLOGY_FORMS
]
GOLDEN_IDS = ["tables", "verify-all", "verify-freeness", "verify-freeness-maxlen90"] + [
    f"cohomology-{base}-{tag}" for base, _, tag, _, _ in _COHOMOLOGY_FORMS
]


def _assert_golden(outdir, capsys, monkeypatch, argv, stdout_file, written):
    monkeypatch.setenv("NILBOTT_OUTPUT_DIR", str(outdir))
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / stdout_file).read_text()
    assert sorted(p.name for p in outdir.iterdir()) == sorted(written)
    for name, golden in written.items():
        assert (outdir / name).read_bytes() == (GOLDEN / golden).read_bytes(), name


@pytest.mark.parametrize(
    "argv, stdout_file, written", GOLDEN_RUNS, ids=GOLDEN_IDS
)
def test_output_matches_golden_bytes(tmp_path, capsys, monkeypatch, argv,
                                     stdout_file, written):
    # the tables are computed by the engine; these bytes were typed in by
    # hand before, so any drift in a label, an H^2 value or a claim shows
    _assert_golden(tmp_path, capsys, monkeypatch, argv, stdout_file, written)


def test_shared_groups_carry_no_state(tmp_path, capsys, monkeypatch):
    # the k-free catalogue groups are built once and shared, and Delta(k)
    # and Gamma(k) once per k; work at huge exponents fills their caches of
    # squared conjugation actions, which must not change any later answer
    assert catalogue_pc("B1") is catalogue_pc("B1")
    assert catalogue_pc("Delta", 5) is catalogue_pc("Delta", 5)
    assert catalogue_pc("Gamma", -5) is catalogue_pc("Gamma", -5)
    for base in ("K", "T2"):
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for k in (10**30, -(10**30)):
                classify_tower(TowerSpec.depth3(base, signs, k))
    huge = 10**30
    for label in ("K", "G2", "B1", "B2", "B3", "B4"):
        p = catalogue_pc(label)
        for sign in (1, -1):
            nf_multiply(p, (huge,) * p.ngens, (sign * huge,) * p.ngens)
        assert len(p._squares[(0, 1)]) > 90 and len(p._squares[(0, -1)]) > 90
    # the nil groups of the golden runs: verify --suite all at k = -1..1
    # and the freeness suite's Delta(2) and Gamma(2)
    for label in ("Delta", "Gamma"):
        for k in (1, -1, 2):
            p = catalogue_pc(label, k)
            for sign in (1, -1):
                nf_multiply(p, (huge,) * p.ngens, (sign * huge,) * p.ngens)
            assert len(p._squares[(0, 1)]) > 90 and len(p._squares[(0, -1)]) > 90
            assert p is catalogue_pc(label, k)
    for n, (argv, stdout_file, written) in enumerate(GOLDEN_RUNS):
        outdir = tmp_path / str(n)
        outdir.mkdir()
        _assert_golden(outdir, capsys, monkeypatch, argv, stdout_file, written)
