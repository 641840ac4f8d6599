"""tools/bench.py: a light runner, and BENCH records that keep every run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "tools" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_importing_bench_loads_neither_numpy_nor_selfmaps():
    # a child's peak RSS starts from the runner's own, so the runner holds
    # neither until the CLI children of its suite have run
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench', {str(BENCH)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(sorted(name for name in ('numpy', 'selfmaps') if name in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_suite_headers_match_the_committed_bench_files():
    # new labels sit beside the recorded runs under the same header
    for out, header, _ in _load_bench().SUITES.values():
        committed = json.loads((REPO / out).read_text())
        assert set(committed) == set(header) | {"runs"}
        assert {key: committed[key] for key in header} == header


def test_write_record_keeps_every_label(tmp_path):
    bench = _load_bench()
    out = tmp_path / "BENCH_x.json"
    header = {"command": "python -m selfmaps.cli scan DESC --json", "descriptors": {"k7": "k=7\n"}}
    bench.write_record(out, "before: abc", header, {"runs": 5, "cases": {"z": 1.5, "a": 2}})
    bench.write_record(out, "after: def", header, {"runs": 5, "cases": {"z": 1.25}})
    text = out.read_text()
    data = json.loads(text)
    assert data["runs"] == {
        "before: abc": {"runs": 5, "cases": {"z": 1.5, "a": 2}},
        "after: def": {"runs": 5, "cases": {"z": 1.25}},
    }
    assert {key: data[key] for key in header} == header
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
