"""Output contract of the `rates` commands, checked through cli.run.

contract.json holds, per argv, the stdout line the command printed and the CSV
lines it wrote when the file was recorded: at the commit named there, or at
the one a case names as its own `recorded_at`. The last CSV field, the
measured value, must agree to `rtol` relative; every other field, the header
and stdout must match exactly. The file is edited by hand only, with each
moved value named in CHANGES.md: there is no re-record switch.
"""

import json
from pathlib import Path

import pytest

from harmlab import cli

CONTRACT = json.loads(Path(__file__).with_name("contract.json").read_text(encoding="utf-8"))


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


@pytest.mark.parametrize("name", sorted(CONTRACT["cases"]))
def test_rates_output_matches_recorded_values(tmp_path, capsys, name):
    case = CONTRACT["cases"][name]
    out = tmp_path / "x.csv"
    code = cli.run([*case["argv"], "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, case["stdout"], "")
    got = out.read_text(encoding="utf-8").splitlines()
    assert csv_mismatches(got, case["csv"], CONTRACT["rtol"]) == []


def test_contract_check_catches_a_moved_value():
    want = CONTRACT["cases"]["readme sobolev k=2 order=3"]["csv"]
    head, value = want[3].rsplit(",", 1)
    for factor in (1.0 + 1e-11, 1.0 - 1e-11):
        moved = [*want[:3], f"{head},{float(value) * factor!r}", *want[4:]]
        assert len(csv_mismatches(moved, want, CONTRACT["rtol"])) == 1
    assert csv_mismatches(want[:-1], want, CONTRACT["rtol"])  # a missing row
    assert csv_mismatches([want[0].upper(), *want[1:]], want, CONTRACT["rtol"])  # another header
    assert csv_mismatches([want[0], want[1].replace(",2,", ",3,", 1), *want[2:]], want, CONTRACT["rtol"])  # another k
    assert csv_mismatches(list(want), want, CONTRACT["rtol"]) == []
