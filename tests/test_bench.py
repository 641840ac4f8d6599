"""tools/bench.py: a light runner, and BENCH records that keep every run; perfbench's traced names."""

import hashlib
import importlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# what the runner hashed before it streamed: the whole stdout minus its first timing_ms line
_TIMING_LINE = re.compile(r'^  "timing_ms": [^\n]*\n', re.MULTILINE)
_HEAD = '{\n  "command": "scan",\n  "details": {\n    "bound": 30\n  },\n'


@pytest.mark.parametrize(
    "text",
    [
        _HEAD + '  "timing_ms": 12.5,\n  "verdict": null\n}\n',
        _HEAD + '  "timing_ms": 3.25\n}\n',
        # only the first timing line goes, as with count=1
        _HEAD + '  "timing_ms": 1,\n  "timing_ms": 2,\n  "z": 0\n}\n',
        # a nested key is not the report's timing line
        _HEAD.replace('"bound"', '"timing_ms"') + '  "timing_ms": 7.0\n}\n',
        _HEAD + "}\n",
        # a last line without its newline is kept, as the pattern needs the newline
        _HEAD + '  "timing_ms": 4',
    ],
    ids=["middle", "last", "twice", "nested", "absent", "unterminated"],
)
def test_streamed_digest_matches_the_whole_text_digest(text):
    expected = hashlib.sha256(_TIMING_LINE.sub("", text, count=1).encode()).hexdigest()
    assert _load_bench().payload_sha256(io.BytesIO(text.encode())) == expected


def test_every_traced_name_exists_in_its_module():
    # perfbench/run.py --trace 1 wraps these names; a deleted one would break it
    spec = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.LAYERS.items():
        home = importlib.import_module(f"selfmaps.{module}")
        assert [name for name in names if not callable(getattr(home, name, None))] == [], module
