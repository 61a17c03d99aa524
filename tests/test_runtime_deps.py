"""eerk needs numpy alone at run time.

Each check runs in a fresh interpreter, so that modules the test suite
imports (scipy, mpmath and sympy, as oracles) do not hide what eerk imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# blocks the test oracles and records every attempt to import one, also one
# that a try/except would swallow; then runs the CLI through main()
NO_ORACLES = """
import json, sys
ORACLES = {"scipy", "mpmath", "sympy"}
attempts = []
sys.addaudithook(lambda event, args: event == "import"
                 and args[0].split(".")[0] in ORACLES and attempts.append(args[0]))
sys.modules.update(dict.fromkeys(ORACLES))
import eerk, eerk.cli
out = sys.argv[1]
codes = [eerk.cli.main(argv + ["--out", out]) for argv in [
    ["energy", "--method", "etd1", "--m", "31", "--tau", "0.1", "--T", "0.5", "--monitor"],
    ["energy", "--method", "eerk31:c2=4/9", "--m", "31", "--tau", "0.1", "--T", "0.5", "--monitor"],
    ["converge", "--method", "eerk2w:c2=1/2", "--m", "31", "--tau", "0.05,0.025", "--T", "0.1",
     "--ref-method", "eerk2w:c2=3/11", "--ref-tau", "0.0125"],
]]
loaded = [k for k, v in sys.modules.items() if k.split(".")[0] in ORACLES and v is not None]
print(json.dumps({"codes": codes, "attempts": attempts, "loaded": loaded}))
"""

# the standard-library modules that eerk.bench and the eerk modules it imports
# import today; a change that needs another one adds to the set-up time that
# perfbench's worker measures around "import eerk.bench"
STDLIB = ["__future__", "dataclasses", "fractions", "functools", "inspect", "math", "pathlib",
          "typing"]

# the top-level modules that importing eerk.bench after numpy loads, less
# those its standard-library imports load on their own
ADDED = """
import json, sys
import numpy
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
stdlib = set(sys.modules) - before
import eerk.bench
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"added": sorted(added),
                  "extra": sorted(added - {name.split(".")[0] for name in stdlib})}))
"""


def _run(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_runs_without_scipy(tmp_path):
    result = json.loads(_run(NO_ORACLES, str(tmp_path)))
    assert result == {"codes": [0, 0, 0], "attempts": [], "loaded": []}
    assert (tmp_path / "eerk31-c2-4-9_margins.csv").is_file()
    assert (tmp_path / "eerk2w-c2-1-2_convergence.csv").is_file()


def test_importing_the_bench_adds_no_module():
    # with numpy 2.4 on Python 3.11.7, "added" is __future__, _decimal, copy,
    # dataclasses, decimal, eerk, fractions and numpy (numpy.fft, which
    # "import numpy" leaves out); another numpy may load more of STDLIB itself
    result = json.loads(_run(ADDED, *STDLIB))
    assert set(result["extra"]) <= {"eerk", "numpy"}, result
