"""Output checks: stored reference files, the paper's invariants, determinism.

Reference files are the ``results.csv`` and ``.dat`` outputs of each
``fairrec run`` call of a workload at its default seed. Integer and text
fields must match exactly; fractional fields may differ by one unit in the
printed sixth decimal.
"""

from __future__ import annotations

from pathlib import Path

TOLERANCE = 1e-6 * (1 + 1e-9)  # one printed unit, plus float parsing slack


def _fields(line: str) -> list[str]:
    return line.split(",") if "," in line else line.split()


def _same_field(got: str, want: str) -> bool:
    if "." not in want:
        return got == want
    try:
        return abs(float(got) - float(want)) <= TOLERANCE
    except ValueError:
        return False


def compare_to_reference(texts: dict[str, str], ref_dir: Path) -> list[str]:
    """Problems found comparing output texts with every file in ref_dir."""
    problems = []
    for ref in sorted(ref_dir.iterdir()):
        got = texts.get(ref.name)
        if got is None:
            problems.append(f"{ref.name}: missing from the outputs")
            continue
        want_lines = ref.read_text(encoding="ascii").splitlines()
        got_lines = got.splitlines()
        if len(got_lines) != len(want_lines):
            problems.append(f"{ref.name}: {len(got_lines)} lines, reference has {len(want_lines)}")
            continue
        for no, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
            if w.startswith("#"):
                ok = g == w
            else:
                gf, wf = _fields(g), _fields(w)
                ok = len(gf) == len(wf) and all(map(_same_field, gf, wf))
            if not ok:
                problems.append(f"{ref.name}:{no}: got {g!r}, reference {w!r}")
                break
    return problems


def check_invariants(results_csv: str, n_items: int) -> list[str]:
    """The paper's invariants on one results.csv.

    The baseline row has zero disparities; greedy aggregate diversity does
    not fall as theta grows; each greedy row adds a whole number of items,
    at most theta, to the baseline's recommended pool.
    """
    lines = results_csv.splitlines()
    if not lines or lines[0] != "predictor,post,param,k,agg_div,d_s,d_r":
        return ["results.csv: missing or unexpected header"]
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 7:
            return [f"results.csv: malformed row {line!r}"]
        try:
            rows.append((f[1], int(f[2]), float(f[4]), float(f[5]), float(f[6])))
        except ValueError:
            return [f"results.csv: malformed row {line!r}"]
    baselines = [r for r in rows if r[0] == "none"]
    if len(baselines) != 1:
        return [f"results.csv: {len(baselines)} baseline rows, expected 1"]
    _, _, base_div, base_ds, base_dr = baselines[0]
    problems = []
    if base_ds != 0.0 or base_dr != 0.0:
        problems.append(f"baseline disparities are {base_ds}, {base_dr}, not 0")
    greedy = sorted((r for r in rows if r[0] == "greedy"), key=lambda r: r[1])
    slack = n_items * TOLERANCE
    previous = base_div
    for _, theta, div, _, _ in greedy:
        if div < previous:
            problems.append(f"greedy theta={theta}: agg_div {div} fell below {previous}")
        previous = div
        added = (div - base_div) * n_items
        if abs(added - round(added)) > slack or round(added) > theta:
            problems.append(f"greedy theta={theta}: pool grew by {added:.4f} items")
    return problems


def compare_hashes(got: list[dict[str, str]], want: list[dict[str, str]]) -> list[str]:
    """Problems where a repeat's per-call file hashes differ from the first job's."""
    problems = []
    for call, (g, w) in enumerate(zip(got, want), start=1):
        for name in sorted(set(g) | set(w)):
            if g.get(name) != w.get(name):
                problems.append(f"call {call}: {name} differs from the first job's")
    if len(got) != len(want):
        problems.append(f"{len(got)} calls, the first job made {len(want)}")
    return problems
