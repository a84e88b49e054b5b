"""The benchmark's workloads: seeded CLI command lists and exact-solve problem files.

Every input derives from the benchmark's ``--seed``: the ``--seed`` handed to
each CLI command, the sweep seeds and the problem files.  The program sees
only the generated arguments and files.

Workload sizes are the constants below; a later change that resizes a
workload is a change to the benchmark and re-measures its baseline.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

PRIME = 31991
MAX_DRAWS = 50

# combos sampled per Prop. 4.8 triple (nine triples)
CUBIC_48_SAMPLE = 10
# small-cases: one 200-case random sweep, fixed-shape affine cases and the
# quadric brute force at several seeds each.  The sweep draws its shapes from
# its seed, so its work varies by about 18% between seeds; the fixed shapes
# cover the same (n, d) range with work that does not depend on the seed.
AFFINE_GRID = tuple((n, d) for n in (1, 2, 3, 4) for d in (3, 4, 5))
AFFINE_SEEDS = 24
QUADRIC_SEEDS = 3
# (n, d, entry kind) of the square affine problems; order = C(n+d, d).  A
# rational solve's cost depends on the drawn entries by 5-10%, so the rational
# workload solves several problems of each kind rather than one large one.
Q_PROBLEMS = (
    (2, 8, "int"), (2, 8, "int"), (2, 8, "frac"), (2, 8, "frac"),
    (3, 5, "int"), (3, 5, "int"), (3, 5, "frac"), (2, 10, "int"),
)
GF_PROBLEMS = tuple(
    (n, d, kind)
    for n, d in ((2, 8), (3, 5), (2, 10), (2, 11), (3, 6), (3, 7), (4, 5))
    for kind in ("int", "frac")
)

WORKLOADS = ("cubic-sweeps", "small-cases", "exact-solve-q", "exact-solve-gf")


def derive(seed: int, label: str) -> int:
    """A 32-bit seed for one input, from the benchmark seed and the input's label."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _report(label, argv, seed):
    return {"label": label, "kind": "report",
            "argv": argv + ["--seed", str(derive(seed, label))]}


def plan(workload: str, seed: int, workdir: Path) -> list:
    """The workload's commands, in run order; writes any problem files to workdir."""
    if workload == "cubic-sweeps":
        return [
            _report("props --prop 4.5", ["props", "--prop", "4.5"], seed),
            _report("props --prop 4.6", ["props", "--prop", "4.6"], seed),
            _report(f"props --prop 4.8 --sample {CUBIC_48_SAMPLE}",
                    ["props", "--prop", "4.8", "--sample", str(CUBIC_48_SAMPLE)], seed),
            _report("props --prop base -n 5", ["props", "--prop", "base", "-n", "5"], seed),
        ]
    if workload == "small-cases":
        cmds = [_report("verify --suite sweep", ["verify", "--suite", "sweep"], seed)]
        for n, d in AFFINE_GRID:
            argv = ["verify", "-n", str(n), "-d", str(d), "-a", affine_profile(n, d)]
            cmds += [_report(f"{' '.join(argv)} #{i}", argv, seed) for i in range(AFFINE_SEEDS)]
        return cmds + [
            *(_report(f"verify --suite quadrics #{i}", ["verify", "--suite", "quadrics"], seed)
              for i in range(QUADRIC_SEEDS)),
            _report("tables -n 3", ["tables", "-n", "3"], seed),
            _report("tables -n 4", ["tables", "-n", "4"], seed),
            _report("verify --suite ah", ["verify", "--suite", "ah"], seed),
        ]
    if workload in ("exact-solve-q", "exact-solve-gf"):
        field = "rational" if workload == "exact-solve-q" else "gf"
        problems = Q_PROBLEMS if field == "rational" else GF_PROBLEMS
        workdir.mkdir(parents=True, exist_ok=True)
        cmds = []
        for i, (n, d, kind) in enumerate(problems):
            name = f"{i:02d}-o{comb(n + d, d)}-{kind}"
            label = f"solve {name}"
            rng = random.Random(derive(seed, label))
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(make_problem(rng, n, d, kind)))
            cmds.append({"label": label, "kind": "solve", "field": field,
                         "problem": str(path),
                         "argv": ["solve", str(path), "--field", field]})
        return cmds
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def affine_profile(n: int, d: int) -> str:
    """Derivative counts cycling n, n-1, ..., 0 while the conditions fit C(n+d, d)."""
    a, k = [], n
    while sum(x + 1 for x in a) + k + 1 <= comb(n + d, d):
        a.append(k)
        k = k - 1 if k > 0 else n
    return ",".join(map(str, sorted(a, reverse=True)))


def _scalar(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    return f"{rng.choice((-1, 1)) * rng.randint(10, 99)}/{rng.randint(10, 99)}"


def _residue(value) -> int:
    f = Fraction(value)
    return f.numerator * pow(f.denominator, -1, PRIME) % PRIME


def make_problem(rng, n: int, d: int, kind: str) -> dict:
    """A square affine problem whose system is nonsingular over GF(p), hence over Q.

    Double points (n directions) fill the order, plus one point with fewer
    directions for the remainder.  Entries are integers in [-9, 9]
    (``int``) or fractions with two-digit parts (``frac``).  Points are
    distinct, every direction set is independent mod p (so no direction is
    zero), and draws whose condition matrix is singular mod p are redrawn, so
    the rational and GF(p) solutions both exist and agree mod p.
    """
    from ppinterp.linalg import rank
    from ppinterp.schemes import InterpolationProblem, condition_matrix_affine

    order = comb(n + d, d)
    full, rest = divmod(order, n + 1)
    profile = [n] * full + ([rest - 1] if rest else [])
    for _ in range(MAX_DRAWS):
        points, seen = [], set()
        while len(points) < len(profile):
            pt = [_scalar(rng, kind) for _ in range(n)]
            key = tuple(_residue(x) for x in pt)
            if key not in seen:
                seen.add(key)
                points.append(pt)
        directions = []
        for a in profile:
            while True:
                ds = [[_scalar(rng, kind) for _ in range(n)] for _ in range(a)]
                if rank([[_residue(x) for x in v] for v in ds], PRIME) == a:
                    break
            directions.append(ds)
        reduced = InterpolationProblem(
            n, d, [[_residue(x) for x in p] for p in points],
            [[[_residue(x) for x in v] for v in ds] for ds in directions], prime=PRIME,
        )
        if rank(condition_matrix_affine(reduced), PRIME) == order:
            break
    else:
        raise ValueError(f"no nonsingular draw for n={n}, d={d}: a deficient pattern?")
    values = [[_scalar(rng, kind) for _ in range(a + 1)] for a in profile]
    return {"n": n, "d": d, "mode": "affine", "points": points,
            "directions": directions, "values": values}
