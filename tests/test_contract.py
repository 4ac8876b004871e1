"""Output contract of the README commands and three refusals, checked through cli.run.

contract.json holds, per argv, the exit code, stdout and stderr the command
gave when the file was recorded: at the commit named there, or at the one a
case names as its own `recorded_at`. Exit code, stdout and stderr must match
exactly. A `rates` case also holds the CSV lines it wrote to `--out`: the last
CSV field, the measured value, must agree to `rtol` relative, every other
field and the header exactly. An `ensemble` case holds, per file it wrote, the
header and the row count (exact), the `math.fsum` of each column (to `rtol`
of the column's absolute sum) and a fixed sample of rows (each value to `rtol`
relative); bytes are not compared, since another numpy may round a last ulp
differently. Every case runs in a fresh directory holding the README's 4-atom
`line.txt`, after the argv of its `before` list. The file is edited by hand
only, with each moved value named in CHANGES.md: there is no re-record switch.
"""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from harmlab import NeuronEnsemble, cli, save_ensemble

CONTRACT = json.loads(Path(__file__).with_name("contract.json").read_text(encoding="utf-8"))
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# the README's `harmlab <argv>  # -> <value>` lines: argv and the value it documents
DOC_VALUES = re.findall(r"^harmlab (.+?)\s+# -> (\S+)$", README, re.M)
RTOL = CONTRACT["rtol"]
CSV_CASES = sorted(name for name, case in CONTRACT["cases"].items() if "csv" in case)
COMMAND_CASES = sorted(name for name, case in CONTRACT["cases"].items() if "csv" not in case)


def csv_mismatches(got: list[str], want: list[str], rtol: float) -> list[str]:
    """The lines of `got` that break the contract of `want`, as messages."""
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"{len(got)} lines with header {got[:1]}, expected {len(want)} with {want[:1]}"]
    bad = []
    for g, w in zip(got[1:], want[1:]):
        (g_head, g_value), (w_head, w_value) = g.rsplit(",", 1), w.rsplit(",", 1)
        if g_head != w_head or not abs(float(g_value) - float(w_value)) <= rtol * abs(float(w_value)):
            bad.append(f"{g!r}, expected {w!r}")
    return bad


def ensemble_file_mismatches(got: list[str], want: dict, rtol: float) -> list[str]:
    """How the lines of an ensemble file break the summary `want` of the contract, as messages."""
    rows = [[float(t) for t in line.split()] for line in got[1:] if line.strip()]
    if got[:1] != [want["header"]] or len(rows) != want["rows"] or {len(r) for r in rows} != {len(want["fsum"])}:
        return [f"{len(rows)} rows with header {got[:1]}, expected {want['rows']} with {want['header']!r}"]
    bad = []
    for j, (col, w) in enumerate(zip(zip(*rows), want["fsum"])):
        if not abs(math.fsum(col) - w) <= rtol * math.fsum(map(abs, col)):
            bad.append(f"column {j} sums to {math.fsum(col)!r}, expected {w!r}")
    for i, w_row in want["sample"].items():
        row = rows[int(i)]
        if len(row) != len(w_row) or not all(abs(g - w) <= rtol * abs(w) for g, w in zip(row, w_row)):
            bad.append(f"row {i} is {row}, expected {w_row}")
    return bad


def output_mismatches(case: dict, code: int, out: str, err: str) -> list[str]:
    """How an exit code, stdout and stderr break a case's contract, as messages."""
    want = (case.get("exit", 0), case["stdout"], case.get("stderr", ""))
    return [] if (code, out, err) == want else [f"got {(code, out, err)!r}, expected {want!r}"]


def run_case(case: dict, tmp_path, monkeypatch, capsys, extra=()):
    """Run a case's argv in a fresh directory with the README's line.txt: (exit code, stdout, stderr)."""
    monkeypatch.chdir(tmp_path)
    save_ensemble(NeuronEnsemble([0.25] * 4, [1.0, -0.5, 2.0, 0.75], [[1.0], [-2.0], [0.5], [1.5]],
                                 [0.0, 0.3, -0.2, 1.0], 0.5), "line.txt")
    for argv in case.get("before", []):
        assert cli.run(argv) == 0, argv
    capsys.readouterr()
    code = cli.run([*case["argv"], *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_documents_six_values():
    assert len(DOC_VALUES) == 6, DOC_VALUES


@pytest.mark.parametrize("argv,value", DOC_VALUES, ids=[argv for argv, _ in DOC_VALUES])
def test_readme_documented_value_is_printed(capsys, argv, value):
    assert cli.run(shlex.split(argv)) == 0
    assert capsys.readouterr() == (value + "\n", "")


@pytest.mark.parametrize("name", CSV_CASES)
def test_rates_output_matches_recorded_values(tmp_path, monkeypatch, capsys, name):
    case = CONTRACT["cases"][name]
    assert output_mismatches(case, *run_case(case, tmp_path, monkeypatch, capsys, ["--out", "x.csv"])) == []
    got = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()
    assert csv_mismatches(got, case["csv"], RTOL) == []


@pytest.mark.parametrize("name", COMMAND_CASES)
def test_command_output_matches_recorded_values(tmp_path, monkeypatch, capsys, name):
    case = CONTRACT["cases"][name]
    assert output_mismatches(case, *run_case(case, tmp_path, monkeypatch, capsys)) == []
    for path, want in case.get("files", {}).items():
        got = (tmp_path / path).read_text(encoding="utf-8").splitlines()
        assert ensemble_file_mismatches(got, want, RTOL) == [], path


def test_contract_check_catches_a_moved_value():
    want = CONTRACT["cases"]["readme sobolev k=2 order=3"]["csv"]
    head, value = want[3].rsplit(",", 1)
    for factor in (1.0 + 1e-11, 1.0 - 1e-11):
        moved = [*want[:3], f"{head},{float(value) * factor!r}", *want[4:]]
        assert len(csv_mismatches(moved, want, RTOL)) == 1
    assert csv_mismatches(want[:-1], want, RTOL)  # a missing row
    assert csv_mismatches([want[0].upper(), *want[1:]], want, RTOL)  # another header
    assert csv_mismatches([want[0], want[1].replace(",2,", ",3,", 1), *want[2:]], want, RTOL)  # another k
    assert csv_mismatches(list(want), want, RTOL) == []


def test_ensemble_file_check_catches_a_moved_value(tmp_path, monkeypatch, capsys):
    case = CONTRACT["cases"]["readme ensemble sample --in plane.txt --out sub.txt --n 256 --seed 3"]
    want = case["files"]["sub.txt"]
    assert run_case(case, tmp_path, monkeypatch, capsys)[0] == 0
    lines = (tmp_path / "sub.txt").read_text(encoding="utf-8").splitlines()
    assert ensemble_file_mismatches(lines, want, RTOL) == []
    first = [float(t) for t in lines[1].split()]
    for j in range(len(first)):
        for factor in (1.0 + 1e-11, 1.0 - 1e-11):
            moved = [*first[:j], first[j] * factor, *first[j + 1:]]
            bad = ensemble_file_mismatches([lines[0], " ".join(map(repr, moved)), *lines[2:]], want, RTOL)
            assert any(m.startswith("row 0 ") for m in bad), (j, factor)
    assert ensemble_file_mismatches(lines[:-1], want, RTOL)  # a missing row
    assert ensemble_file_mismatches([lines[0].replace("dim=2", "dim=1"), *lines[1:]], want, RTOL)  # another header
    assert "2" not in want["sample"]
    shifted = lines[3].split()
    shifted[3] = repr(float(shifted[3]) + 1.0)  # a row outside the sample: only the column sum sees it
    bad = ensemble_file_mismatches([*lines[:3], " ".join(shifted), *lines[4:]], want, RTOL)
    assert len(bad) == 1 and bad[0].startswith("column 3 sums to "), bad


def test_command_check_catches_a_swapped_exit_code_and_a_dropped_stderr_line():
    refused = CONTRACT["cases"]["exit 2 eval --kind int --k 0 --x 1 --y 1"]
    failed = CONTRACT["cases"]["exit 3 solve --boundary relu:0.995 --x 0.3 --y 0.5"]
    assert refused["stderr"] == "harmlab: invalid input: k must be a positive integer, got 0\n"
    assert failed["stderr"] == ("harmlab: numerical failure: kernel quadrature failed at (0.3, 0.5):"
                                " integrand non-finite inside (0.0, 1.0)\n")
    for case, other in ((refused, 3), (failed, 2)):
        assert output_mismatches(case, case["exit"], case["stdout"], case["stderr"]) == []
        assert output_mismatches(case, other, case["stdout"], case["stderr"])  # a swapped exit code
        assert output_mismatches(case, case["exit"], case["stdout"], "")  # the stderr line dropped
    heaviside = CONTRACT["cases"]["readme eval --kind heaviside --x 1 --y 1"]
    assert output_mismatches(heaviside, 0, f"{0.75 * (1.0 + 1e-11)!r}\n", "")  # a moved value
    assert output_mismatches(heaviside, 0, heaviside["stdout"], "harmlab: warning: an extra line\n")
