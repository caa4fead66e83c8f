"""Line coverage of ``src/gkpfrac`` by the test suite, standard library only.

    python tools/linecov.py [pytest arguments]

runs pytest in this process (by default the whole suite under ``tests/``)
with ``LineCov`` passed to ``pytest.main`` as a plugin, and writes
``tools/linecov.json``: for each module, its number of executable lines and
the executable lines the run did not reach.  It takes a few minutes, as every
line of the package is traced, so it is not part of the test suite.

The executable lines of a module are the line numbers of the instructions of
its compiled code and of every code object nested in it (``co_lines()``).
A line counts as reached when ``sys.settrace`` reports it; the package starts
no thread, so tracing the main thread is enough.  Two kinds of line cannot be reported to this
process, and are listed apart from ``unreached``:

* ``forked_child``: lines reached only in a child made by ``os.fork``.  A
  child leaves through ``os._exit``, which runs no exit handler, so after a
  fork the child appends each line it reaches for the first time to a spool
  file that this process reads at the end.
* ``subprocess``: lines that run only when the package is run as a program,
  in a new interpreter (``python -m``): the whole of a ``__main__.py`` and
  the body of an ``if __name__ == "__main__":`` block.

A run writes the report even when tests fail, and exits with pytest's code.
"""
from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gkpfrac"
REPORT = ROOT / "tools" / "linecov.json"


def executable_lines(source, filename):
    """Line numbers of the instructions of ``source`` compiled as a module,
    nested code objects included."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def program_lines(source, name):
    """Lines that run only when the module is run as a program."""
    if name == "__main__.py":
        return set(range(1, len(source.splitlines()) + 1))
    lines = set()
    for node in ast.parse(source).body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and ast.unparse(node.test) == "__name__ == '__main__'"):
            lines.update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


class LineCov:
    """A pytest plugin recording the lines reached in the ``.py`` files
    under ``package``, in this process and in its forked children."""

    def __init__(self, package):
        self.package = Path(package).resolve()
        self.reached = {}  # co_filename -> set of lines, None outside package
        self.spool = None
        self._child_fd = None
        self._saved = None
        os.register_at_fork(after_in_child=self._after_fork)

    # the plugin hooks
    def pytest_sessionstart(self, session):
        self.start()

    def pytest_sessionfinish(self, session, exitstatus):
        self.stop()

    def start(self):
        self.spool = tempfile.mkdtemp(prefix="linecov-")
        self._saved = sys.gettrace()
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(self._saved)

    def _after_fork(self):
        if self.spool is not None and sys.gettrace() == self._call:
            self._child_fd = os.open(os.path.join(self.spool, str(os.getpid())),
                                     os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def _lines_of(self, filename):
        lines = self.reached.get(filename, False)
        if lines is False:
            path = Path(filename).resolve()
            inside = path.suffix == ".py" and self.package in path.parents
            lines = self.reached[filename] = set() if inside else None
        return lines

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        lines = self._lines_of(filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            lineno = frame.f_lineno
            if lineno not in lines:
                lines.add(lineno)
                if self._child_fd is not None:
                    os.write(self._child_fd, b"%d %s\n" % (lineno, filename.encode()))
            return line

        return line(frame, event, arg)

    def _child_lines(self):
        found = {}
        for spooled in Path(self.spool).iterdir():
            for entry in spooled.read_text().splitlines():
                lineno, filename = entry.split(" ", 1)
                found.setdefault(str(Path(filename).resolve()), set()).add(int(lineno))
            spooled.unlink()
        os.rmdir(self.spool)
        return found

    def report(self):
        """{"executable", "reached", "modules": {relative path: {"executable",
        "unreached", "forked_child", "subprocess"}}}; lines are sorted."""
        here = {}
        for filename, lines in self.reached.items():
            if lines is not None:
                here.setdefault(str(Path(filename).resolve()), set()).update(lines)
        child = self._child_lines()
        modules, total, reached = {}, 0, 0
        for path in sorted(self.package.rglob("*.py")):
            source = path.read_text()
            lines = executable_lines(source, str(path))
            missed = lines - here.get(str(path), set())
            forked = missed & child.get(str(path), set())
            program = (missed - forked) & program_lines(source, path.name)
            modules[path.relative_to(self.package).as_posix()] = {
                "executable": len(lines),
                "unreached": sorted(missed - forked - program),
                "forked_child": sorted(forked),
                "subprocess": sorted(program),
            }
            total += len(lines)
            reached += len(lines) - len(missed)
        return {"executable": total, "reached": reached, "modules": modules}


def main(argv):
    import pytest
    os.chdir(ROOT)
    plugin = LineCov(PACKAGE)
    code = pytest.main(argv or ["-q", "--continue-on-collection-errors"],
                       plugins=[plugin])
    report = plugin.report()
    REPORT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    listed = {kind: sum(len(m[kind]) for m in report["modules"].values())
              for kind in ("unreached", "forked_child", "subprocess")}
    print("linecov: %d of %d executable lines reached; not reached: %s -> %s"
          % (report["reached"], report["executable"],
             ", ".join("%s %d" % kv for kv in listed.items()),
             REPORT.relative_to(ROOT)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
