"""Every demo script runs to completion without writing to stderr, and prints
exactly the stdout checked in under tests/golden/; the README's library examples
run as written."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def test_demos_found():
    assert len(DEMOS) == 4
    names = {os.path.splitext(os.path.basename(p))[0] for p in DEMOS}
    # readme.out holds the README examples' stdout (tests/test_cli.py), corpus.json the
    # benchmark jobs' digests (tests/test_corpus.py) and refusals.txt the CLI's refusals
    # (tests/test_refusals.py)
    assert {os.path.splitext(f)[0] for f in os.listdir(GOLDEN)} - {"readme", "corpus", "refusals"} == names


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, path], cwd=ROOT, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    name = os.path.splitext(os.path.basename(path))[0]
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as f:
        assert proc.stdout == f.read()


def test_readme_python_examples_run():
    # the blocks run in order in one namespace: the second reads the first's phi and image
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```$", f.read(), flags=re.S | re.M)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["total"] == namespace["phi"] + namespace["image"]
