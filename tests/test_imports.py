"""A process loads only the harmlab modules it uses.

`import harmlab` loads no submodule; each public name is imported from its
module on first use. The CLI loads experiments, line_barron and diagnostics
only in the commands that run them. The import checks run in a fresh
interpreter, since this test process has loaded every module long before.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmlab
from harmlab import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _fresh(code: str) -> list[str]:
    """The last stdout line of `code` run in a fresh interpreter, split on spaces."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


_LOADED = "import sys; print(' '.join(sorted(m for m in sys.modules if m.startswith('harmlab'))))"


def test_import_harmlab_loads_no_submodule():
    assert _fresh("import harmlab\n" + _LOADED) == ["harmlab"]


def test_cli_eval_loads_no_experiment_or_diagnostic_module():
    loaded = _fresh(
        "import harmlab.cli\n"
        "assert harmlab.cli.run(['eval', '--kind', 'half', '--x', '0.3', '--y', '0.5']) == 0\n" + _LOADED
    )
    assert "harmlab.cli" in loaded
    assert [m for m in loaded if m in ("harmlab.experiments", "harmlab.diagnostics", "harmlab.line_barron")] == []


def test_every_exported_name_is_its_modules_object():
    # each in a fresh interpreter, so the first name of each module loads it:
    # the names in table order, then each module of the table as an attribute
    wrong = _fresh(
        "import importlib, harmlab\n"
        "print(' '.join(n for n in harmlab.__all__ if n not in dir(harmlab) or getattr(harmlab, n)"
        " is not getattr(importlib.import_module('harmlab.' + harmlab._HOME[n]), n)) or '-')"
    )
    assert wrong == ["-"]
    wrong = _fresh(
        "import sys, harmlab\n"
        "print(' '.join(m for m in harmlab._EXPORTS if m not in dir(harmlab)"
        " or getattr(harmlab, m) is not sys.modules['harmlab.' + m]) or '-')"
    )
    assert wrong == ["-"]
    assert len(harmlab.__all__) > 45


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        harmlab.no_such_name


def test_a_traced_rates_reg_counts_the_experiment(tmp_path, capsys):
    # the handler imports reg_error_experiment when it runs, so it calls the tracer's binding
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.run(["rates", "reg", "--k", "2", "--eps-min", "1e-3", "--steps", "3",
                        "--nr", "64", "--nphi", "64", "--out", str(tmp_path / "x.csv")])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert tracer.counts["experiments.reg_error_experiment.calls"] == 1
    assert tracer.counts["cli.run.calls"] == 1
