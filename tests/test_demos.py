"""Every demo script and the README's Python quick start run to
completion, with warnings as errors, from an empty working directory;
every benchmark file the sources or the README name exists."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # warnings are errors, as they are inside pytest
    proc = subprocess.run([sys.executable, "-W", "error", *args],
                          cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = _run_python(["-c", blocks[0]], tmp_path).split()
    # the block prints a density and its derivative at x = 1
    assert len(out) == 2
    assert float(out[0]) > 0.0


def test_named_benchmark_files_exist():
    sources = [README, *sorted((ROOT / "src").rglob("*.py"))]
    named = {name for path in sources
             for name in re.findall(r"BENCH_[\w.-]+?\.json",
                                    path.read_text())}
    assert named
    missing = sorted(name for name in named if not (ROOT / name).is_file())
    assert not missing
