"""Golden runs: every CLI command at small grids against stored outputs.

Each case runs `cli.main` and compares the command's CSV and summary JSON
with the files under tests/golden/<case>/. Outputs must be byte-identical,
except in the cases listed in PARSEVAL: there the p = 2 block norms are
closed-form Parseval sums, while the stored files come from Gauss-Jacobi
quadrature. In witness-p2 the square-function and Rademacher columns are
closed-form too (quadrature.family_norms at p = 2), while the stored ones
come from the theta-mesh. In those cases floats agree to 1e-12 relative
(fitted quantities to 1e-12 absolute) and every string matches exactly.

The library's greedy functionals have no CLI caller; API_CASE holds them
(quasi_greedy_ratio on a seeded mixed-parity Legendre expansion, and the
democracy_scan norms) in tests/golden/api-greedy/greedy.json, compared to
1e-12 relative.

Regenerate the stored files, only for an intended change of numbers, with

    PYTHONPATH=src python tests/test_golden.py

which leaves the PARSEVAL cases' reference files as they are, and every
file that still passes its case's comparison. It prints each file it
rewrites with the largest change of a number against the stored copy:
relative, or absolute for fitted quantities ("inf" if anything but a
number changed).
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from jacobigreedy import Expansion, JacobiParams, NormalizationMode, democracy_scan, quasi_greedy_ratio
from jacobigreedy.cli import main

GOLDEN = Path(__file__).parent / "golden"

NORMS = ["norms", "--n-min", "16", "--n-max", "64"]
WITNESS = ["witness", "--seed", "1", "--N-min", "8", "--N-max", "32", "--samples", "8",
           "--tol", "1e-5"]
CASES = {
    "norms-p3": [*NORMS, "--p", "3"],
    "norms-p6": [*NORMS, "--p", "6"],
    "norms-alpha1-beta0.5": [*NORMS, "--alpha", "1", "--beta", "0.5", "--p", "3"],
    "block-sum-p3": ["block-sum", "--p", "3", "--N-min", "8", "--N-max", "32", "--tol", "1e-5"],
    "block-sum-p2-alpha0.5": ["block-sum", "--p", "2", "--alpha", "0.5", "--N-min", "8",
                              "--N-max", "64"],
    "average-block": ["average-block", "--p", "3", "--N-min", "4", "--N-max", "16",
                      "--samples", "16", "--seed", "2", "--tol", "1e-5"],
    "near-one": ["near-one", "--n-min", "10", "--n-max", "80"],
    "near-one-alpha1.5-beta0.5": ["near-one", "--alpha", "1.5", "--beta", "0.5", "--n-min", "10",
                                  "--n-max", "160"],
    "darboux-check": ["darboux-check", "--n-min", "16", "--n-max", "64"],
    "darboux-check-alpha1-beta0.5": ["darboux-check", "--alpha", "1", "--beta", "0.5", "--n-min",
                                     "16", "--n-max", "256"],
    "identity-check": ["identity-check", "--trials", "200", "--N-max", "16", "--seed", "3"],
    "witness-p2": [*WITNESS, "--p", "2"],
    "witness-p3": [*WITNESS, "--p", "3"],
}
PARSEVAL = {"block-sum-p2-alpha0.5", "witness-p2"}
ABSOLUTE_KEYS = {"slope", "intercept", "max_residual", "gap", "residual"}
TOL = 1e-12


def _files(case: str) -> tuple[str, str]:
    command = CASES[case][0]
    return f"{command}.csv", f"{command}.json"


def _close(got, want, absolute: bool) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        scale = 1.0 if absolute else abs(want)
        return math.isfinite(got) and abs(got - want) <= TOL * scale
    return type(got) is type(want) and got == want


def _json_mismatches(got, want, key: str = "") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{key}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _json_mismatches(got[k], want[k], k)]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for g, w in zip(got, want) for m in _json_mismatches(g, w, key)]
    return [] if _close(got, want, key in ABSOLUTE_KEYS) else [f"{key}: {got!r} != {want!r}"]


def _csv_mismatches(got: str, want: str) -> list[str]:
    got_rows = list(csv.reader(got.splitlines()))
    want_rows = list(csv.reader(want.splitlines()))
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        return ["CSV shape or header differs"]
    out = []
    for g_row, w_row in zip(got_rows[1:], want_rows[1:]):
        if len(g_row) != len(w_row):
            out.append(f"row {g_row} != {w_row}")
            continue
        for g, w in zip(g_row, w_row):
            if g != w and not _close(float(g), float(w), False):
                out.append(f"cell {g} != {w}")
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    assert main([*CASES[case], "--out", str(tmp_path)]) == 0
    csv_name, json_name = _files(case)
    got_csv, want_csv = (tmp_path / csv_name).read_text(), (GOLDEN / case / csv_name).read_text()
    got_json = (tmp_path / json_name).read_text()
    want_json = (GOLDEN / case / json_name).read_text()
    if case in PARSEVAL:
        assert _csv_mismatches(got_csv, want_csv) == []
        assert _json_mismatches(json.loads(got_json), json.loads(want_json)) == []
    else:
        assert got_csv == want_csv
        assert got_json == want_json


API_CASE = GOLDEN / "api-greedy" / "greedy.json"


def api_case() -> dict:
    """quasi_greedy_ratio at p = 1.5 and 3 on 60 seeded sqrt-scaled Legendre terms of mixed parity
    (degree < 400), and the democracy_scan norms at p = 3, N = 64; all at tol 1e-6."""
    leg, sqrt_scaled = JacobiParams(0.0, 0.0), NormalizationMode.sqrt_scaled()
    rng = np.random.default_rng(11)
    support, coeffs = rng.choice(400, size=60, replace=False), rng.standard_normal(60)
    e = Expansion(leg, sqrt_scaled, {int(j): float(c) for j, c in zip(support, coeffs)})
    return {
        "quasi_greedy_ratio": {f"{p:g}": quasi_greedy_ratio(e, p, tol=1e-6) for p in (1.5, 3.0)},
        "democracy_norms": democracy_scan(leg, sqrt_scaled, 64, 3.0, tol=1e-6).witness_sets["norms"],
    }


def test_api_golden():
    assert _json_mismatches(api_case(), json.loads(API_CASE.read_text())) == []


def _leaves(text: str, name: str) -> list:
    """(key, value) for each cell of a CSV file (key None), or each key list and value of a JSON file."""
    if name.endswith(".csv"):
        return [(None, cell) for row in csv.reader(text.splitlines()) for cell in row]

    def walk(v, key=None):
        if isinstance(v, dict):
            yield None, sorted(v)
            for k in sorted(v):
                yield from walk(v[k], k)
        elif isinstance(v, list):
            for item in v:
                yield from walk(item, key)
        else:
            yield key, v

    return list(walk(json.loads(text)))


def largest_change(got: str, want: str, name: str) -> float:
    """Largest change of a number from the stored file `want` to `got`, relative, or absolute for
    fitted quantities, as the comparison of test_golden's PARSEVAL cases takes it; inf if anything
    but a number differs."""
    got_leaves, want_leaves = _leaves(got, name), _leaves(want, name)
    if len(got_leaves) != len(want_leaves):
        return math.inf
    worst = 0.0
    for (key, g), (want_key, w) in zip(got_leaves, want_leaves):
        if key != want_key:
            return math.inf
        if g == w:
            continue
        try:
            g, w = float(g), float(w)
        except (TypeError, ValueError):
            return math.inf
        scale = 1.0 if key in ABSOLUTE_KEYS else abs(w)
        worst = max(worst, abs(g - w) / scale if scale else math.inf)
    return worst


def _rewrite(path: Path, data: bytes) -> None:
    """Write a stored file, printing its largest change against the stored copy."""
    if path.exists():
        change = f"{largest_change(data.decode(), path.read_text(), path.name):.1e}"
    else:
        change = "new file"
    print(f"{path.relative_to(GOLDEN)}: largest change {change}")
    path.write_bytes(data)


def regenerate() -> None:
    """Rewrite the stored files that fail their test's comparison, of every case but the PARSEVAL ones.

    Those hold Gauss-Jacobi quadrature results that the closed-form path
    is checked against; the command can no longer produce them. A file that
    passes is kept as it is, so rounding within the tolerance moves none.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in CASES.items():
            if case in PARSEVAL:
                continue
            out, stored = Path(tmp) / case, GOLDEN / case
            if main([*argv, "--out", str(out)]) != 0:
                raise SystemExit(f"{case}: non-zero exit")
            stored.mkdir(exist_ok=True)
            keep = set(_files(case))
            for path in stored.iterdir():
                if path.name not in keep:
                    path.unlink()
            for name in keep:
                got = (out / name).read_bytes()
                if not (stored / name).exists() or (stored / name).read_bytes() != got:
                    _rewrite(stored / name, got)
    got = api_case()
    if not API_CASE.exists() or _json_mismatches(got, json.loads(API_CASE.read_text())):
        API_CASE.parent.mkdir(exist_ok=True)
        _rewrite(API_CASE, (json.dumps(got, indent=2, sort_keys=True) + "\n").encode())


if __name__ == "__main__":
    regenerate()
