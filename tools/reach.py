"""List the functions of src/selfmaps that the CLI corpus never enters.

Usage:
    PYTHONPATH=src python3 tools/reach.py                       # print them
    PYTHONPATH=src python3 tools/reach.py --check tools/reach_allowlist.txt

Runs every invocation of tools/cli_corpus.py in this process under
sys.setprofile and threading.setprofile, so calls on the helper threads
of group_condition count too, and prints, one per line and sorted, each
function defined with `def` in the selfmaps package that no call
entered, as module.qualname.  Only the code a CLI path runs is entered:
a function that only tests or tools call shows up here.

With --check FILE, it prints nothing when the unreached functions are
exactly those FILE names (one per line; `#` starts a comment) and exits
0.  Otherwise it prints each function that goes unreached but is not
listed, and each listed one that the corpus now reaches or that no
longer exists, and exits 1: an entry leaves the list as soon as the CLI
reaches its function, so the list never hides one.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import sys
import threading
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """Every `def` in the package's modules, keyed as its code object is: (file, first line).

    The first line of a decorated function's code object is that of its
    first decorator.  Names are module.qualname, with <locals> for
    functions defined inside functions, as __qualname__ writes them.
    """
    found = {}
    for path in sorted(package.glob("*.py")):
        module = f"{package.name}.{path.stem}"

        def walk(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{module}.{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def entered(run) -> set[tuple[str, int]]:
    """(file, first line) of every Python function entered while run() runs, on any thread it starts."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen


def _corpus() -> None:
    """tools/cli_corpus.py's main, its digests discarded; importing it imports selfmaps.cli."""
    spec = importlib.util.spec_from_file_location("cli_corpus", TOOLS / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    with contextlib.redirect_stdout(io.StringIO()):
        corpus.main()


def unreached() -> list[str]:
    """The module.qualname of each selfmaps function the corpus never enters, sorted."""
    seen = entered(_corpus)
    import selfmaps

    package = Path(selfmaps.__file__).resolve().parent
    seen = {(str(Path(file).resolve()), line) for file, line in seen}
    return sorted(name for key, name in defined_functions(package).items() if key not in seen)


def read_allowlist(path: Path) -> set[str]:
    """The names of an allowlist file: one per line, `#` to the end of a line is a comment."""
    return {name for line in path.read_text().splitlines() if (name := line.split("#", 1)[0].strip())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, metavar="FILE", help="compare with the names in FILE")
    args = parser.parse_args(argv)
    names = unreached()
    if args.check is None:
        print("\n".join(names))
        return 0
    allowed = read_allowlist(args.check)
    fresh = [name for name in names if name not in allowed]
    stale = sorted(allowed.difference(names))
    for name in fresh:
        print(f"unreached and not in {args.check}: {name}")
    for name in stale:
        print(f"in {args.check} but reached or gone: {name}")
    return 1 if fresh or stale else 0


if __name__ == "__main__":
    sys.exit(main())
