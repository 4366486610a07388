"""Pinned bytes of `solve --quiet` output for small versions of the reference problems.

The north star fixes the bytes `solve` writes for the benchmark's reference
configs.  Comparing two runs of one version cannot see a change between
versions, so these hashes are pinned: a change to any of them is a change
of output, to be stated as such.
"""

import hashlib
import json

import pytest

from clifract.cli import main

# perfbench's scalar_fine (gen seed 7): knots, ordinates and multipliers; aligned, n = 0.
SCALAR_FINE = {
    "schema_version": 1,
    "n": 0,
    "grid_M": 4096,
    "fif": {
        "x": [0.0, 0.25, 0.5, 0.75, 1.0],
        "y": [0.0012301533574825742, 0.2987455375084699, -0.2741378553622176,
              -0.8905918387572742, -0.45467078517172255],
    },
    "s": [0.5, -0.4, 0.3, 0.5],
    "space": {"tag": "Lp", "p": 2},
}

# perfbench's interp_n4 knots, which miss the grid, with ordinates on all 16 blades of Cl(0,4).
_KEYS_N4 = ["", "1", "2", "12", "3", "13", "23", "123",
            "4", "14", "24", "124", "34", "134", "234", "1234"]
INTERP_N4 = {
    "schema_version": 1,
    "n": 4,
    "grid_M": 1024,
    "fif": {
        "x": [0.0, 0.3, 0.7, 1.0],
        "y": {key: [((7 * k + 3 * j) % 11 - 5) / 4 for j in range(4)] for k, key in enumerate(_KEYS_N4)},
    },
    "s": [0.5, -0.4, 0.3],
    "space": {"tag": "Lp", "p": 2},
}

# An aligned n = 2 problem with a sampled s and a constant, a poly and a sampled q.
ALIGNED_N2 = {
    "schema_version": 1,
    "n": 2,
    "grid_M": 64,
    "partition": {"interval": [0.0, 1.0], "N": 2},
    "q": [
        {"": 1.0, "1": {"poly": [0.5, -1.0, 0.25]}},
        {"2": {"samples": [(j % 5 - 2) / 4 for j in range(65)]}, "12": {"const": -0.75}},
    ],
    "s": [{"samples": [(j % 7 - 3) / 8 for j in range(65)]}, -0.3],
}

CASES = {
    "scalar_fine_csv": (SCALAR_FINE, "csv", "0a8352da956eba1a52529a2a19d76d2e8bdc27cc2d9f199df3374bdb8bcad78c"),
    "interp_n4_csv": (INTERP_N4, "csv", "19ce0dcafb38c2dc0259a4de007c7813c6f4a1277cec32c56308b30d7362091b"),
    "aligned_n2_csv": (ALIGNED_N2, "csv", "492f3ebc18b137b3ff2778451b7804f3433408eeb1227b736b09263a03eca24f"),
    "aligned_n2_json": (ALIGNED_N2, "json", "2f2e3f0896d51a42103c1759dece781cfe6d8d3dfb006b4cf44016ab8f8eb501"),
}


@pytest.mark.parametrize("payload, fmt, digest", CASES.values(), ids=CASES.keys())
def test_solve_output_bytes_are_pinned(tmp_path, capsys, payload, fmt, digest):
    cfg = tmp_path / "problem.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / f"out.{fmt}"
    assert main(["solve", str(cfg), "--output", str(out), "--format", fmt, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
