"""Compare two report snapshots and class every number that moved.

    python tools/report_diff.py OLD NEW

OLD and NEW are trees written by ``tools/report_snapshot.py``.  These must
match exactly: the file sets, each file's exit-code line, and in each
report the keys, strings, booleans, integers and nulls (verdicts,
statuses, counts, notes) and the text after the JSON (stderr).  A float
that differs is classed

- **rounding-level** when it moved by at most ``ROUNDING_ULPS`` ulps of
  its own scale: 1 for the residuals of the ∂∂̄ identities boch1, boch2
  and log_w (``max_abs_residual`` and ``residuals``, already divided by
  1 + |LHS| + |RHS|), the largest of |observed| and |bound| of its own
  check on both sides for a bound check's ``slack`` (bound − observed,
  which near an equality case is rounding noise around 0), and the larger
  magnitude of the two values for any other number.  Such a check's
  ``worst_point`` is the argmax of noise, and counts as rounding-level,
  only when the check's ``max_abs_residual`` is itself within
  ``ROUNDING_ULPS`` ulps of zero on both sides;
- **moved** otherwise.

The tool prints every exact-field change and every moved number, one a
line, then the rounding-level moves grouped by check kind and field.  It
exits 1 when anything is an exact-field change or moved, and 0 when the
trees match or differ only at rounding level.  ``diff -r OLD NEW`` stays
the byte check; this tool only names what moved.  ``Diff().compare_reports``
applies the same rule to two parsed reports, and ``tests/test_golden.py``
holds the golden reports to it.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

ROUNDING_ULPS = 8
EPS = sys.float_info.epsilon
# these checks' residuals are scaled by 1/(1 + |LHS| + |RHS|), so their scale is 1
SCALED_IDENTITIES = ("boch1", "boch2", "log_w")
UNIT_SCALE_FIELDS = ("max_abs_residual", "residuals")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_float_pair(a, b) -> bool:
    return _is_number(a) and _is_number(b) and (isinstance(a, float) or isinstance(b, float))


def _scaled_identity(check) -> bool:
    return check is not None and check.get("kind") in SCALED_IDENTITIES


def _scale(field: str, a, b, check) -> float:
    """The scale a float's ulps are counted in; ``check`` is the (old, new) pair of the
    check holding it, or None."""
    if field in UNIT_SCALE_FIELDS and check is not None and _scaled_identity(check[0]):
        return 1.0
    if field == "slack" and check is not None:
        sides = [side.get(key) for side in check for key in ("observed", "bound")]
        if all(_is_number(x) for x in sides):
            return max(abs(x) for x in sides)
    return max(abs(a), abs(b))


def _noise(value) -> bool:
    """A scaled residual within rounding of zero."""
    return _is_number(value) and abs(value) <= ROUNDING_ULPS * EPS


class Diff:
    """The changes found between two trees: ``exact`` and ``moved`` lines, and the
    rounding-level moves as (kind, field) -> [(report, |change|, ulps)]."""

    def __init__(self):
        self.exact: list[str] = []
        self.moved: list[str] = []
        self.rounding: dict[tuple[str, str], list[tuple[str, float, float]]] = defaultdict(list)

    @property
    def failed(self) -> bool:
        return bool(self.exact or self.moved)

    def compare_trees(self, old: Path, new: Path) -> "Diff":
        old_files = {p.relative_to(old).as_posix() for p in old.rglob("*") if p.is_file()}
        new_files = {p.relative_to(new).as_posix() for p in new.rglob("*") if p.is_file()}
        for rel in sorted(old_files - new_files):
            self.exact.append(f"{rel}: only in OLD")
        for rel in sorted(new_files - old_files):
            self.exact.append(f"{rel}: only in NEW")
        for rel in sorted(old_files & new_files):
            self.compare_files(rel, (old / rel).read_text(encoding="utf-8"),
                               (new / rel).read_text(encoding="utf-8"))
        return self

    def compare_files(self, rel: str, old: str, new: str) -> None:
        if old == new:
            return
        (old_exit, _, old_body), (new_exit, _, new_body) = old.partition("\n"), new.partition("\n")
        if old_exit != new_exit:
            self.exact.append(f"{rel}: {old_exit!r} -> {new_exit!r}")
        old_doc, old_rest = _split_json(old_body)
        new_doc, new_rest = _split_json(new_body)
        if old_doc is None or new_doc is None:
            if old_body != new_body:
                self.exact.append(f"{rel}: output is not a JSON report on both sides and differs")
            return
        if old_rest != new_rest:
            self.exact.append(f"{rel}: text after the report differs")
        self.compare_reports(rel, old_doc, new_doc)

    def compare_reports(self, rel: str, old: dict, new: dict) -> "Diff":
        """Class every change between two parsed reports, named ``rel`` in the lines.  This is
        the one rule for "the same report": ``tests/test_golden.py`` calls it too."""
        self._walk(rel, "", old, new, None)
        return self

    def _walk(self, rel, path, a, b, check) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                self.exact.append(f"{rel}:{path or '/'}: keys {list(a)} -> {list(b)}")
                return
            check = (a, b) if "kind" in a else check
            for key in a:
                if key == "worst_point" and a[key] != b[key] and _scaled_identity(a):
                    self._worst_point(rel, f"{path}/{key}", a, b)
                else:
                    self._walk(rel, f"{path}/{key}", a[key], b[key], check)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.exact.append(f"{rel}:{path}: length {len(a)} -> {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self._walk(rel, f"{path}[{i}]", x, y, check)
        elif _is_float_pair(a, b):
            if a != b:
                self._number(rel, path, a, b, check)
        elif type(a) is not type(b) or a != b:
            self.exact.append(f"{rel}:{path}: {a!r} -> {b!r}")

    def _number(self, rel, path, a, b, check) -> None:
        field = path.rsplit("/", 1)[-1].split("[", 1)[0]
        scale = _scale(field, a, b, check)
        change = abs(b - a)
        ulps = change / (EPS * scale) if scale else float("inf")
        if ulps <= ROUNDING_ULPS:
            kind = check[0].get("kind", "?") if check is not None else "-"
            self.rounding[(str(kind), field)].append((rel, change, ulps))
        else:
            self.moved.append(f"{rel}:{path}: {a!r} -> {b!r} ({ulps:.3g} ulps of {scale:.3g})")

    def _worst_point(self, rel, path, a, b) -> None:
        old_max, new_max = a["max_abs_residual"], b["max_abs_residual"]
        if _noise(old_max) and _noise(new_max):
            self.rounding[(str(a.get("kind", "?")), "worst_point")].append((rel, 0.0, 0.0))
        else:
            self.moved.append(f"{rel}:{path}: {a['worst_point']!r} -> {b['worst_point']!r} "
                              f"(max_abs_residual {old_max!r} -> {new_max!r})")

    def summary(self) -> str:
        lines = [f"exact-field change: {line}" for line in self.exact]
        lines += [f"moved: {line}" for line in self.moved]
        if self.rounding:
            reports = {rel for moves in self.rounding.values() for rel, _, _ in moves}
            lines.append(f"rounding-level moves in {len(reports)} reports "
                         f"(at most {ROUNDING_ULPS} ulps of each number's scale):")
            for (kind, field), moves in sorted(self.rounding.items()):
                files = {rel for rel, _, _ in moves}
                by_dir = defaultdict(int)
                for rel in files:
                    by_dir[rel.split("/", 1)[0]] += 1
                where = ", ".join(f"{d} {n}" for d, n in sorted(by_dir.items()))
                largest = max(change for _, change, _ in moves)
                ulps = max(u for _, _, u in moves)
                lines.append(f"  {kind} {field}: {len(moves)} values in {len(files)} reports, "
                             f"largest {largest:.3g} ({ulps:.2g} ulps) [{where}]")
        return "\n".join(lines) + ("\n" if lines else "")


def _split_json(text: str):
    """(report, the text after it) for a body that starts with a JSON object, else (None, text)."""
    try:
        doc, end = json.JSONDecoder().raw_decode(text)
    except json.JSONDecodeError:
        return None, text
    return (doc, text[end:]) if isinstance(doc, dict) else (None, text)


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (Path(arg) for arg in argv)
    for root in (old, new):
        if not root.is_dir():
            sys.exit(f"not a snapshot directory: {root}")
    diff = Diff().compare_trees(old, new)
    sys.stdout.write(diff.summary())
    return 1 if diff.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
