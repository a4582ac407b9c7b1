"""List the lines of a package that a pytest run never executes.

    PYTHONPATH=src python3 tools/untraced_lines.py --package src/hjsim -- -q -x tests

``coverage`` is not needed.  The script runs pytest in its own process,
with the arguments after ``--``, under ``sys.settrace`` and
``threading.settrace``, and traces only frames whose code lies in the
package directory.  It then prints every executable line of the package's
modules (the lines of their code objects' ``co_lines``) that the run never
executed, as ``file:line: source``, in file and line order, and exits with
pytest's exit code.  Code that runs only in worker processes counts as never
executed.  Tracing makes the run about 2.5 times slower: the tier-1 suite
took 235 s traced against 78-98 s untraced on a 2-core Xeon (Python 3.11).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from types import CodeType

import pytest


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--package", default="src/hjsim", help="the package directory to trace")
    p.add_argument("pytest_args", nargs=argparse.REMAINDER,
                   help="pytest's arguments, after --")
    return p.parse_args(argv)


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines that hold code in a module: those of its code objects, nested ones too."""
    stack = [compile(source, filename, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def traced_run(package: str, pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs it executed in ``package``."""
    root = os.path.realpath(package) + os.sep
    inside: dict[str, bool] = {}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = os.path.realpath(filename).startswith(root)
        if not inside[filename]:
            return None
        hits.add((filename, frame.f_lineno))
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(os.path.realpath(f), line) for f, line in hits}


def untraced(package: str, hits: set[tuple[str, int]]) -> list[str]:
    """``file:line: source`` for each executable line of ``package`` not in ``hits``."""
    out = []
    for folder, _, names in sorted(os.walk(package)):
        for name in sorted(n for n in names if n.endswith(".py")):
            filename = os.path.join(folder, name)
            real = os.path.realpath(filename)
            with open(filename, encoding="utf-8") as fh:
                source = fh.read()
            text = source.splitlines()
            out += [f"{filename}:{line}: {text[line - 1].strip()}"
                    for line in sorted(executable_lines(source, filename))
                    if (real, line) not in hits]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    pytest_args = args.pytest_args[1:] if args.pytest_args[:1] == ["--"] else args.pytest_args
    code, hits = traced_run(args.package, pytest_args)
    lines = untraced(args.package, hits)
    print(f"{len(lines)} executable lines of {args.package} never ran:")
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
