"""Compare two outputs of ``tests/snapshot_artifacts.py``.

Run from the repository root with ``python tests/compare_snapshots.py A B
[--rtol 1e-12]``.  Every file must be byte-identical except ``bounds.csv``,
whose rows must have the same ``name``, ``k`` and ``holds`` and whose
numbers must agree within ``--rtol`` relative.  It prints the worst relative
difference of each ``bounds.csv``, then that of each check family in it (the
row name up to ``(``) whose numbers differ at all, and every file that
differs or exists on one side only.  For a differing ``eigenvalues.csv`` it
adds whether the ``resolution,k,lambda`` columns are identical and the
largest ``residual`` on each side.  It exits 1 on any mismatch (any byte
difference outside ``bounds.csv``), 0 otherwise.
"""

import argparse
import math
import sys
from pathlib import Path

EXACT_COLUMNS = ("name", "k", "holds")
SPECTRUM_COLUMNS = ("resolution", "k", "lambda")


def _relative(a, b):
    """Relative difference of two numeric fields; inf when only one is finite
    or two non-finite fields differ."""
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return 0.0 if a == b else math.inf
    scale = max(abs(x), abs(y))
    return 0.0 if scale == 0.0 else abs(x - y) / scale


def compare_bounds(text_a, text_b):
    """(worst relative difference, the worst per check family, list of
    mismatch descriptions)."""
    rows_a, rows_b = text_a.splitlines(), text_b.splitlines()
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return math.inf, {}, ["header differs"]
    if len(rows_a) != len(rows_b):
        return math.inf, {}, [f"{len(rows_a) - 1} rows against {len(rows_b) - 1}"]
    header = rows_a[0].split(",")
    worst, families, problems = 0.0, {}, []
    for line, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        if len(fields_a) != len(header) or len(fields_b) != len(header):
            problems.append(f"line {line}: wrong field count")
            continue
        for column, a, b in zip(header, fields_a, fields_b):
            if column in EXACT_COLUMNS:
                if a != b:
                    problems.append(f"line {line}: {column} {a} != {b}")
                continue
            try:
                diff = _relative(a, b)
            except ValueError:
                diff = 0.0 if a == b else math.inf
            worst = max(worst, diff)
            family = fields_a[0].split("(")[0]
            families[family] = max(families.get(family, 0.0), diff)
    return worst, families, problems


def explain_eigenvalues(text_a, text_b):
    """Why two ``eigenvalues.csv`` texts differ: whether their spectrum
    columns are identical, and the largest residual of each side."""
    tables = []
    for text in (text_a, text_b):
        rows = [line.split(",") for line in text.splitlines()]
        if not rows or not set(SPECTRUM_COLUMNS + ("residual",)) <= set(rows[0]):
            return "no resolution,k,lambda,residual header"
        header = rows[0]
        try:
            spectrum = [[row[header.index(c)] for c in SPECTRUM_COLUMNS] for row in rows[1:]]
            residuals = [float(row[header.index("residual")]) for row in rows[1:]]
        except (IndexError, ValueError):
            return "a row does not parse"
        tables.append((spectrum, max(residuals, default=math.nan)))
    (spectrum_a, worst_a), (spectrum_b, worst_b) = tables
    same = "identical" if spectrum_a == spectrum_b else "differ"
    return (f"{','.join(SPECTRUM_COLUMNS)} {same}; "
            f"largest residual {worst_a:.3g} against {worst_b:.3g}")


def compare(dir_a, dir_b, rtol):
    """Print the comparison of two snapshot directories; return the exit code."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    mismatches = 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {dir_a if rel in files_a else dir_b}")
        mismatches += 1
    identical = 0
    for rel in sorted(files_a & files_b):
        bytes_a, bytes_b = (dir_a / rel).read_bytes(), (dir_b / rel).read_bytes()
        if rel.name == "bounds.csv":
            worst, families, problems = compare_bounds(bytes_a.decode(), bytes_b.decode())
            if worst > rtol:
                problems.append(f"numbers differ by {worst:.3g} relative > {rtol:g}")
            print(f"{rel}: worst relative difference {worst:.3g}"
                  + "".join(f"\n  {name}: {diff:.3g}"
                            for name, diff in sorted(families.items()) if diff)
                  + "".join(f"\n  {p}" for p in problems))
            mismatches += bool(problems)
        elif bytes_a == bytes_b:
            identical += 1
        else:
            why = (f": {explain_eigenvalues(bytes_a.decode(), bytes_b.decode())}"
                   if rel.name == "eigenvalues.csv" else "")
            print(f"{rel}: bytes differ{why}")
            mismatches += 1
    print(f"{len(files_a | files_b)} files: {identical} other files byte-identical, "
          f"{mismatches} mismatched")
    return 1 if mismatches else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--rtol", type=float, default=1e-12)
    args = parser.parse_args(argv)
    return compare(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
