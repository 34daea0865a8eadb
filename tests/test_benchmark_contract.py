"""What the benchmark uses of the library keeps working.

``perfbench/run.py`` writes its inputs with ``perfbench/families.py``, runs
each item through ``orcbind.cli.main`` and checks the output there; with
``--trace 1`` it wraps library functions and methods by name through
``perfbench/tracing.py``.  A rename in ``src/`` that either of them misses
breaks the benchmark, so these tests build every workload and run a traced
item of each family.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("arn-holds", "arn-fails", "resolve")

TRACED_RUN = """
import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import orcbind.cli
import families
import tracing
from orcbind import muller

tracer = tracing.install(tracing.orcbind_modules(), muller.guard_mask)
for workload in sys.argv[3:]:
    root = Path(sys.argv[2]) / workload
    root.mkdir()
    smallest = {}
    for item in families.build(workload, root, 1):
        key = (item.kind, item.family)
        if key not in smallest or (item.size, item.name) < (smallest[key].size, smallest[key].name):
            smallest[key] = item
    for key, item in sorted(smallest.items()):
        trace = tracer.begin()
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = orcbind.cli.main(item.argv)
        tracer.end(time.perf_counter() - start)
        wrong = families.check_output(item, code, out.getvalue())
        if wrong is not None:
            sys.exit(f"{workload} {item.name}: {wrong}")
        tracing.layer_metrics([(dict(trace.self_s), tracing.item_counts(trace))])
        print(workload, item.name)
"""


def load_families(monkeypatch):
    spec = importlib.util.spec_from_file_location("families", PERFBENCH / "families.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "families", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_workload_builds(tmp_path, monkeypatch):
    families = load_families(monkeypatch)
    parser = families.cli.build_parser()
    for workload in WORKLOADS:
        root = tmp_path / workload
        root.mkdir()
        items = families.build(workload, root, 1)
        assert items
        for item in items:
            parser.parse_args(item.argv)


def test_traced_items_of_every_family_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(PERFBENCH), str(tmp_path), *WORKLOADS],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    ran = {line.split()[0] for line in result.stdout.splitlines()}
    assert ran == set(WORKLOADS)
