"""List the package code that none of the snapshot's reports runs.

    python tools/traffic_lines.py OUTFILE [CHECKOUT]

Runs every job of ``tools/report_snapshot.py`` (914 reports: the shipped
scenarios, both benchmark workloads at seeds 1 and 3 and the fixed
manifests in ``tools/snapshot_manifests/``) into a
temporary directory under ``sys.settrace``, with line tracing limited to
``CHECKOUT/src/kahlercheck``.  CHECKOUT defaults to the checkout holding
this script.  OUTFILE must not exist yet; it then gets, per module of the
package,

- ``never entered``: each function, method, lambda or comprehension the
  reports never call, by qualified name and first line;
- ``never run``: the statement lines never run inside code that was
  entered (module bodies and the functions above them), as line ranges.

Code that only tests reach shows up here, so a change that deletes code
on the ground that the program does not use it can point at this list.
It uses the standard library only; tracing makes the run about twice as
slow as the snapshot alone.
"""

import sys
import tempfile
from pathlib import Path

from report_snapshot import command_line, snapshot


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _ranges(lines) -> str:
    spans, start, prev = [], None, None
    for line in sorted(lines):
        if start is None:
            start = prev = line
        elif line == prev + 1:
            prev = line
        else:
            spans.append((start, prev))
            start = prev = line
    if start is not None:
        spans.append((start, prev))
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def trace_snapshot(checkout: Path):
    """(entered, run): the code objects entered, as (file, first line, name), and the
    lines run per file, while the snapshot's jobs run from ``checkout``."""
    prefix = str(checkout / "src" / "kahlercheck")
    entered: set[tuple[str, int, str]] = set()
    run: dict[str, set[int]] = {}
    local_tracers = {}

    def local_for(filename):
        seen = run.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        if not filename.startswith(prefix):
            return None
        entered.add((filename, code.co_firstlineno, code.co_name))
        local = local_tracers.get(filename)
        if local is None:
            local = local_tracers[filename] = local_for(filename)
        return local

    with tempfile.TemporaryDirectory() as outdir:
        sys.settrace(on_call)
        try:
            jobs = snapshot(Path(outdir), checkout)
        finally:
            sys.settrace(None)
    return jobs, entered, run


def report(checkout: Path, entered, run) -> str:
    out = []
    for path in sorted((checkout / "src" / "kahlercheck").glob("*.py")):
        filename = str(path)
        module = compile(path.read_text(encoding="utf-8"), filename, "exec")
        seen = run.get(filename, set())
        missed_functions, missed_lines = [], set()
        for code in _code_objects(module):
            if code is not module and (filename, code.co_firstlineno, code.co_name) not in entered:
                missed_functions.append(f"{code.co_qualname} ({code.co_firstlineno})")
                continue
            lines = {line for _, _, line in code.co_lines() if line}
            # a function's first line is its def (or first decorator), run at import
            missed_lines |= lines - seen - {code.co_firstlineno}
        out.append(str(path.relative_to(checkout)))
        if missed_functions:
            out.append("  never entered: " + ", ".join(missed_functions))
        if missed_lines:
            out.append("  never run: " + _ranges(missed_lines))
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    outfile, root = command_line(__doc__, empty_dir_ok=False)
    jobs, entered, run = trace_snapshot(root)
    outfile.write_text(report(root, entered, run), encoding="utf-8")
    print(f"{jobs} reports traced; code they never run written to {outfile}")
