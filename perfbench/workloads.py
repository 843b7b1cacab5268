"""Seeded corpora for the depthtwo benchmark, with their expected results.

A workload is a list of members.  A member is one extension given as the
JSON document the library parses, the stage path to run on it ("full" or
"d2") and the expected verdicts and realized dimensions.  Everything here
is plain Python on integers and fractions: the library sees only the
generated documents.

The expectations do not come from the program:

- the depth-two verdict of a group pair kH <= kG is normality of H, read
  off the Cayley table (Kadison-Kuelshammer in characteristic 0,
  Boltje-Kuelshammer, J. Algebra 2010, over any field); catalog entries
  carry their documented verdict;
- A is free as a right B-module in every member, so A_B is a generator and
  balanced, and Galois holds exactly when depth two holds;
- the B-central part of the k-fold tensor power of kG over kH has as basis
  the orbit sums of H acting by conjugation on (G/H)^(k-1) x G, which gives
  ts, R, T, q3, q4 and, on the positive branch, tt = dim q3^B,
  ttt = dim q4^B and at = ts in every characteristic.

The only dimensions without such a count are tt and at of the negative
(non-normal) members; NEGATIVE_DIMS records them as the natural-basis
member realized them at the commit that introduced this benchmark.
"""

from __future__ import annotations

import random
from fractions import Fraction

DIM_KEYS = ("ts", "T", "R", "tt", "q3", "q4", "ttt", "at")
D2_PATH_DIMS = ("ts", "T", "R", "tt", "at")

# -- groups -------------------------------------------------------------


def _compose(p: tuple, q: tuple) -> tuple:
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _closure(gens: list[tuple], degree: int) -> list[tuple]:
    elems = [tuple(range(degree))]
    frontier = list(elems)
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                p = _compose(g, h)
                if p not in elems:
                    elems.append(p)
                    fresh.append(p)
        frontier = fresh
    return sorted(elems)


# permutation generators; elements are listed in sorted order, identity first
GROUPS = {
    "S3": [(1, 2, 0), (1, 0, 2)],
    "C4": [(1, 2, 3, 0)],
    "V4": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "D4": [(1, 2, 3, 0), (0, 3, 2, 1)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
}

# subgroup name -> (group, generators of the subgroup)
SUBGROUPS = {
    "S3>C2": ("S3", [(1, 0, 2)]),
    "S3>A3": ("S3", [(1, 2, 0)]),
    "C4>C2": ("C4", [(2, 3, 0, 1)]),
    "V4>C2": ("V4", [(1, 0, 3, 2)]),
    "D4>C4": ("D4", [(1, 2, 3, 0)]),
    "D4>refl": ("D4", [(0, 3, 2, 1)]),
    "A4>V4": ("A4", [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "A4>C3": ("A4", [(1, 2, 0, 3)]),
}


def group_pair(name: str) -> tuple[list[list[int]], list[int]]:
    """Cayley table of the group (identity at index 0) and subgroup indices."""
    gname, sub_gens = SUBGROUPS[name]
    degree = len(GROUPS[gname][0])
    elems = _closure(GROUPS[gname], degree)
    index = {g: i for i, g in enumerate(elems)}
    table = [[index[_compose(g, h)] for h in elems] for g in elems]
    sub = sorted(index[g] for g in _closure(sub_gens, degree))
    return table, sub


def inverses(table: list[list[int]]) -> list[int]:
    identity = next(e for e in range(len(table)) if table[e] == list(range(len(table))))
    return [row.index(identity) for row in table]


def is_normal(table: list[list[int]], sub: list[int]) -> bool:
    inv = inverses(table)
    members = set(sub)
    return all(table[table[g][h]][inv[g]] in members
               for g in range(len(table)) for h in sub)


def invariant_dim(table: list[list[int]], sub: list[int], k: int) -> int:
    """dim of the B-central part of the k-fold tensor power of kG over kH:
    the number of H-orbits on (G/H)^(k-1) x G, H acting by x.(C, p) = (xC, xpx^-1)."""
    inv = inverses(table)
    cosets = sorted({tuple(sorted(table[g][h] for h in sub)) for g in range(len(table))})
    coset_of = {g: i for i, c in enumerate(cosets) for g in c}
    left = [[coset_of[table[x][c[0]]] for c in cosets] for x in sub]
    conj = [[table[table[x][p]][inv[x]] for p in range(len(table))] for x in sub]
    seen = set()
    orbits = 0
    points = [(p,) for p in range(len(table))]
    for _ in range(k - 1):
        points = [(c,) + pt for c in range(len(cosets)) for pt in points]
    for pt in points:
        if pt in seen:
            continue
        orbits += 1
        for xi in range(len(sub)):
            seen.add(tuple(left[xi][c] for c in pt[:-1]) + (conj[xi][pt[-1]],))
    return orbits


def group_expectation(table: list[list[int]], sub: list[int], negative_dims=None) -> dict:
    n, h = len(table), len(sub)
    d2 = is_normal(table, sub)
    dims = {"ts": n * n // h, "R": invariant_dim(table, sub, 1),
            "T": invariant_dim(table, sub, 2),
            "q3": n ** 3 // h ** 2, "q4": n ** 4 // h ** 3}
    if d2:
        dims.update(tt=invariant_dim(table, sub, 3), ttt=invariant_dim(table, sub, 4),
                    at=dims["ts"])
    else:
        dims.update(negative_dims)
        del dims["q3"], dims["q4"]
    return {"d2": d2, "balanced": True, "dims": dims}


def over_ground_field(n: int) -> dict:
    """A|k with dim A = n: T = A (x) A, R = A, and T (x)_R T = A (x) A (x) A."""
    return {"d2": True, "balanced": True,
            "dims": {"ts": n * n, "T": n * n, "R": n, "tt": n ** 3, "q3": n ** 3,
                     "q4": n ** 4, "ttt": n ** 4, "at": n * n}}


# tt and at of the non-normal members; equal over Q, F_2, F_3 and F_5
NEGATIVE_DIMS = {
    "S3>C2": {"tt": 26, "at": 16},
    "D4>refl": {"tt": 68, "at": 28},
    "A4>C3": {"tt": 60, "at": 42},
}

# M_2(k) over itself: A (x)_A A = A, R = T = Z(A) = k
TRIVIAL_M2 = {"d2": True, "balanced": True,
              "dims": {"ts": 4, "T": 1, "R": 1, "tt": 1, "q3": 4, "q4": 4, "ttt": 1,
                       "at": 4}}

# -- documents ----------------------------------------------------------

FIELDS = {"Q": "Q", "F2": {"Fp": 2}, "F3": {"Fp": 3}, "F5": {"Fp": 5}, "F7": {"Fp": 7}}


def group_algebra_cube(table) -> tuple[list, list]:
    n = len(table)
    cube = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            cube[a][b][table[a][b]] = 1
    unit = [0] * n
    unit[next(e for e in range(n) if table[e] == list(range(n)))] = 1
    return cube, unit


def group_extension_doc(field: str, table, sub) -> dict:
    """The group pair as an explicit extension document (natural bases)."""
    cube_a, unit_a = group_algebra_cube(table)
    pos = {g: i for i, g in enumerate(sub)}
    subtable = [[pos[table[a][b]] for b in sub] for a in sub]
    cube_b, unit_b = group_algebra_cube(subtable)
    iota = [[1 if g == sub[j] else 0 for j in range(len(sub))] for g in range(len(table))]
    return {"field": FIELDS[field], "kind": "extension",
            "A": {"dim": len(table), "structure": cube_a, "unit": unit_a},
            "B": {"dim": len(sub), "structure": cube_b, "unit": unit_b},
            "iota": iota}


def _parse(x):
    return x if isinstance(x, int) else Fraction(x)


def _render(x):
    if isinstance(x, int) or x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]] | None:
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pr = next((r for r in range(c, n) if aug[r][c]), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def unimodular(n: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """A random n x n matrix with entries in {-1, 0, 1} and determinant +-1,
    with its (integral) inverse."""
    while True:
        p = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        inv = _inverse([[Fraction(x) for x in row] for row in p])
        if inv is not None and all(x.denominator == 1 for row in inv for x in row):
            return p, [[int(x) for x in row] for row in inv]


def signed(mat: list[list[int]], mat_inv: list[list[int]], rng: random.Random):
    """mat @ D and D @ mat_inv for a random diagonal sign matrix D."""
    d = [rng.choice((-1, 1)) for _ in mat]
    return ([[x * d[j] for j, x in enumerate(row)] for row in mat],
            [[x * d[i] for x in row] for i, row in enumerate(mat_inv)])


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def change_basis(doc: dict, p, p_inv, q, q_inv) -> dict:
    """The extension in the new bases f_a = sum_i P[i][a] e_i of A and
    g_b = sum_j Q[j][b] e'_j of B, for integer P, Q with integer inverses."""
    A, B = doc["A"], doc["B"]
    n, m = A["dim"], B["dim"]
    cube = [[[_parse(x) for x in row] for row in plane] for plane in A["structure"]]
    cube_b = [[[_parse(x) for x in row] for row in plane] for plane in B["structure"]]

    def transform(cube, mat, mat_inv):
        d = len(mat)
        out = []
        for a in range(d):
            plane = []
            for b in range(d):
                prod = [0] * d
                for i in range(d):
                    if not mat[i][a]:
                        continue
                    for j in range(d):
                        c = mat[i][a] * mat[j][b]
                        if c:
                            for k, x in enumerate(cube[i][j]):
                                if x:
                                    prod[k] += c * x
                hot = [(k, x) for k, x in enumerate(prod) if x]
                plane.append([_render(sum(mat_inv[l][k] * x for k, x in hot))
                              for l in range(d)])
            out.append(plane)
        return out

    def coords(mat_inv, vec):
        return [_render(sum(mat_inv[l][k] * _parse(vec[k]) for k in range(len(vec))))
                for l in range(len(vec))]

    iota = [[_parse(x) for x in row] for row in doc["iota"]]
    iota_q = [[sum(iota[i][j] * q[j][b] for j in range(m)) for b in range(m)]
              for i in range(n)]
    new_iota = [[_render(sum(p_inv[a][i] * iota_q[i][b] for i in range(n)))
                 for b in range(m)] for a in range(n)]
    return {"field": doc["field"], "kind": "extension",
            "A": {"dim": n, "structure": transform(cube, p, p_inv),
                  "unit": coords(p_inv, A["unit"])},
            "B": {"dim": m, "structure": transform(cube_b, q, q_inv),
                  "unit": coords(q_inv, B["unit"])},
            "iota": new_iota}


# -- corpora ------------------------------------------------------------
#
# The seed negates a random set of basis vectors of A and of B.  That leaves
# every zero pattern and coefficient size as it was, so one member costs the
# same under every seed.  Renumbering the group elements instead moved the
# cost of single members by up to 1.5x and the median operation time by 30%
# from seed to seed; a fresh dense basis per seed moved single members by up
# to 4x.

CATALOG = ("trivial-M2", "field-sqrt2", "field-sqrt2-f5", "s3-a3", "s3-a3-f5",
           "s3-transposition", "c2-over-k", "c2-over-k-f3")
CATALOG_GROUPS = {"s3-a3": ("S3>A3", "Q"), "s3-a3-f5": ("S3>A3", "F5"),
                  "s3-transposition": ("S3>C2", "Q")}
SMALL_PAIRS = ("S3>C2", "S3>A3", "C4>C2", "V4>C2")
NATURAL_FIELDS = ("Q", "F2", "F3", "F5")
DENSE_CATALOG = ("trivial-M2", "field-sqrt2", "c2-over-k", "field-sqrt2-f5",
                 "c2-over-k-f3")
DENSE_PAIRS = (("C4>C2", "Q"), ("V4>C2", "Q"), ("S3>A3", "F5"), ("S3>C2", "F3"),
               ("C4>C2", "F2"), ("C4>C2", "F3"), ("C4>C2", "F5"), ("V4>C2", "F2"),
               ("V4>C2", "F3"), ("V4>C2", "F5"))


def catalog_entry(name: str) -> tuple[dict, dict]:
    """Natural-basis document of a catalog entry and its expected results."""
    if name in CATALOG_GROUPS:
        pair, field = CATALOG_GROUPS[name]
        return pair_entry(pair, field)
    from depthtwo.jsonio import example_to_json
    doc = example_to_json(name)
    expect = TRIVIAL_M2 if name == "trivial-M2" else over_ground_field(doc["A"]["dim"])
    return doc, expect


def pair_entry(pair: str, field: str) -> tuple[dict, dict]:
    table, sub = group_pair(pair)
    return (group_extension_doc(field, table, sub),
            group_expectation(table, sub, NEGATIVE_DIMS.get(pair)))


def member(name: str, entry: tuple[dict, dict], rng: random.Random, path: str = "full",
           dense_draw: int | None = None) -> dict:
    """The entry with seeded signs on its basis vectors; with ``dense_draw``,
    first moved to a fixed dense basis that depends on the name and the draw."""
    doc, expect = entry
    n, m = doc["A"]["dim"], doc["B"]["dim"]
    if dense_draw is None:
        bases = (identity(n), identity(n)), (identity(m), identity(m))
    else:
        name = f"{name}#{dense_draw}"
        basis_rng = random.Random(f"dense-basis/{name}")
        bases = unimodular(n, basis_rng), unimodular(m, basis_rng)
    (p, p_inv), (q, q_inv) = (signed(*basis, rng) for basis in bases)
    return {"name": name, "doc": change_basis(doc, p, p_inv, q, q_inv), "path": path,
            "expect": expect}


def sweep(rng: random.Random) -> list[dict]:
    """Natural-basis members, then small members in a fixed dense basis."""
    members = [member(name, catalog_entry(name), rng) for name in CATALOG]
    members += [member(f"{pair}@{field}", pair_entry(pair, field), rng)
                for pair in SMALL_PAIRS for field in NATURAL_FIELDS]
    members += [member(f"D4>C4@{field}", pair_entry("D4>C4", field), rng)
                for field in ("Q", "F7")]
    members.append(member("D4>refl@F2", pair_entry("D4>refl", "F2"), rng))
    members += [member(name, catalog_entry(name), rng, dense_draw=0)
                for name in DENSE_CATALOG]
    members += [member(f"{pair}@{field}", pair_entry(pair, field), rng, dense_draw=0)
                for pair, field in DENSE_PAIRS]
    return members


def d2_large(rng: random.Random) -> list[dict]:
    return [member(f"{pair}@{field}", pair_entry(pair, field), rng, path="d2")
            for pair in ("A4>V4", "A4>C3") for field in NATURAL_FIELDS]


WORKLOADS = {"sweep": sweep, "d2-large": d2_large}


def generate(workload: str, seed: int) -> list[dict]:
    """The members of a workload for a seed; the same seed gives the same documents."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
