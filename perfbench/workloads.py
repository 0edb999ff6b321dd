"""Seeded, known-answer input documents for the benchmark.

Every workload turns (seed, call number) into one JSON document for the
`mbhomology` command line and the table that command must print.  The
answer always follows from how the document was built, never from the
program.  This module uses the standard library only and does not import
`mbhomology`, so the program receives nothing but the generated documents.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "mbhomology" / "data"

SPHERE = ((1, ()), (0, ()), (1, ()))
TORUS = ((1, ()), (2, ()), (1, ()))
# Mapping torus of the coordinate swap on T^2 (a non-orientable 3-manifold).
BOTT_TWIST = ((1, ()), (2, ()), (1, (2,)), (0, ()))

PADDED_NAMES = ("s2-constant", "s2-minus-z2", "s2-round", "s2-z2",
                "t2-deformed", "t2-height")
MANIFOLD_TABLES = {"s2": SPHERE, "t2": TORUS}


def canonical(doc):
    """Byte-stable serialization used for the input files and digests."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def call_rng(workload, seed, call):
    return random.Random(f"{workload}:{seed}:{call}")


def expected_entries(table):
    return [{"degree": k, "betti": b, "torsion": list(t)}
            for k, (b, t) in enumerate(table)]


def _padded(table, top):
    return tuple(table) + ((0, ()),) * (top + 1 - len(table))


# ---------------------------------------------------------------------------
# triangulated n x n torus


def torus_triangles(n):
    """Triangles of the n x n grid torus on vertices i*n + j.

    Each square is cut along its (i, j)-(i+1, j+1) diagonal, so the
    coordinate swap (i, j) -> (j, i) is a simplicial automorphism.
    """
    def v(i, j):
        return (i % n) * n + (j % n)

    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris.append((a, b, d))
            tris.append((a, c, d))
    return tris


def closure(tops, relabel):
    """All faces of the relabeled top simplices, as sorted vertex lists."""
    faces = set()
    for top in tops:
        image = sorted(relabel[x] for x in top)
        for mask in range(1, 1 << len(image)):
            faces.add(tuple(x for t, x in enumerate(image) if mask >> t & 1))
    return [list(s) for s in sorted(faces, key=lambda s: (len(s), s))]


def complex_doc(n, tops, relabel):
    return {"vertices": n * n, "simplices": closure(tops, relabel)}


def swap(n, x):
    i, j = divmod(x, n)
    return j * n + i


# ---------------------------------------------------------------------------
# the four workloads


def torus_grid(rng, n):
    """Constant function on the n x n torus under a fresh vertex
    permutation: one simplicial row, H = Z, Z^2, Z."""
    perm = list(range(n * n))
    rng.shuffle(perm)
    doc = {
        "schema": 1,
        "kind": "flow",
        "dim": 2,
        "critical": [{"index": 0, "kind": "simplicial",
                      "complex": complex_doc(n, torus_triangles(n), perm)}],
        "moduli": [],
        "expected": expected_entries(TORUS),
    }
    return doc, ["homology"], TORUS


def bott_twist(rng, n):
    """Height on the mapping torus of the swap of T^2.

    Critical tori A (index 0) and B (index 1); two one-sheet components
    from B to A along the two arcs of the base circle: the identity with
    sign +1 and the swap with sign -1.  Both tori are relabeled at random;
    the domains share B's labels, so ev_minus is the identity.
    """
    tris = torus_triangles(n)
    va = list(range(n * n))
    vb = list(range(n * n))
    rng.shuffle(va)
    rng.shuffle(vb)
    b_of = {vb[x]: x for x in range(n * n)}
    b_doc = complex_doc(n, tris, vb)
    ident = [va[b_of[y]] for y in range(n * n)]
    swapped = [va[swap(n, b_of[y])] for y in range(n * n)]
    moduli = [
        {"from": 1, "to": 0, "domain": b_doc, "ev_minus": list(range(n * n)),
         "ev_plus": ident, "sign": 1},
        {"from": 1, "to": 0, "domain": b_doc, "ev_minus": list(range(n * n)),
         "ev_plus": swapped, "sign": -1},
    ]
    rng.shuffle(moduli)
    doc = {
        "schema": 1,
        "kind": "flow",
        "dim": 3,
        "critical": [
            {"index": 0, "kind": "simplicial",
             "complex": complex_doc(n, tris, va)},
            {"index": 1, "kind": "simplicial", "complex": b_doc},
        ],
        "moduli": moduli,
        "expected": expected_entries(BOTT_TWIST),
    }
    return doc, ["homology"], BOTT_TWIST


def load_shipped(name):
    return json.loads((DATA / f"{name}.json").read_text("utf-8"))


def dim_padded(rng, dim, name):
    """A shipped flow presentation with only `dim` raised.

    The simplex lists and the moduli list are shuffled, which gives every
    call its own document bytes without changing the presentation.
    """
    doc = load_shipped(name)
    doc["dim"] = dim
    complexes = [c["complex"] for c in doc["critical"] if "complex" in c]
    complexes += [m["domain"] for m in doc.get("moduli", [])]
    for cx in complexes:
        rng.shuffle(cx["simplices"])
    rng.shuffle(doc.get("moduli", []))
    table = _padded(MANIFOLD_TABLES[doc["manifold"]], dim)
    return doc, ["homology"], table


def morse_random(rng, per_index, top=3, bound=2):
    """Morse-Smale data with a known answer.

    Start from an elementary split model: disjoint pairs (q, p) with
    index(q) = index(p) + 1 and count +-1 or +-2.  Scramble it by
    unimodular basis changes (add +-1 times one basis point to another in
    the same index, keeping every count within `bound`), which leaves the
    homology unchanged.  The answer is read off the elementary model: an
    unpaired point is free, a pair with count +-2 leaves Z/2 at its lower
    index.
    """
    n = per_index
    # d[k] is the boundary C_k -> C_{k-1}: rows index k-1, columns index k.
    d = {k: [[0] * n for _ in range(n)] for k in range(1, top + 1)}
    free = {k: list(range(n)) for k in range(top + 1)}
    for pts in free.values():
        rng.shuffle(pts)
    betti = [n] * (top + 1)
    torsion = [0] * (top + 1)
    for k in range(1, top + 1):
        for _ in range(rng.randint(n // 4, n // 3)):
            q, p = free[k].pop(), free[k - 1].pop()
            c = rng.choice((1, -1, 1, -1, 2, -2))
            d[k][p][q] = c
            betti[k] -= 1
            betti[k - 1] -= 1
            if abs(c) == 2:
                torsion[k - 1] += 1

    for _ in range(3 * n * (top + 1)):
        k = rng.randint(0, top)
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        lower, upper = d.get(k), d.get(k + 1)
        new_col = [row[j] + c * row[i] for row in lower] if lower else []
        new_row = [a - c * b for a, b in zip(upper[i], upper[j])] \
            if upper else []
        if any(abs(x) > bound for x in new_col + new_row):
            continue
        if lower:
            for row, x in zip(lower, new_col):
                row[j] = x
        if upper:
            upper[i] = new_row

    names = {k: [f"x{k}.{t}" for t in range(n)] for k in range(top + 1)}
    for k in names:
        rng.shuffle(names[k])
    counts = [[names[k][q], names[k - 1][p], d[k][p][q]]
              for k in range(1, top + 1)
              for p in range(n) for q in range(n) if d[k][p][q]]
    rng.shuffle(counts)
    table = tuple((betti[k], (2,) * torsion[k]) for k in range(top + 1))
    doc = {
        "schema": 1,
        "kind": "morse",
        "critical": {str(k): names[k] for k in range(top + 1)},
        "counts": counts,
    }
    return doc, ["morse"], table


WORKLOADS = {
    "torus-grid": torus_grid,
    "bott-twist": bott_twist,
    "dim-padded": dim_padded,
    "morse-random": morse_random,
}
# Sizes keep one call between about 20 and 60 reference-kernel times (see
# run.py), so that a 25-second run has at least 50 untraced calls even when
# the shared host runs at half speed.
SIZES = {
    "torus-grid": 5,
    "bott-twist": 3,
    "dim-padded": 55,
    "morse-random": 8,
}


def padded_order(seed):
    order = list(PADDED_NAMES)
    random.Random(f"dim-padded:{seed}:order").shuffle(order)
    return order


def make(workload, seed, call, size=None):
    """(document, command, expected table) of one call of a workload.

    `call` numbers the documents of a run; the warm-up call uses -1.
    """
    size = SIZES[workload] if size is None else size
    rng = call_rng(workload, seed, call)
    if workload == "dim-padded":
        order = padded_order(seed)
        return dim_padded(rng, size, order[call % len(order)])
    return WORKLOADS[workload](rng, size)


def input_cells(doc):
    """Simplices of critical models and moduli domains, critical points and
    flow-line components of one document."""
    if doc["kind"] == "morse":
        points = sum(len(v) for v in doc["critical"].values())
        return points + sum(abs(n) for _, _, n in doc["counts"])
    cells = 0
    for crit in doc["critical"]:
        if crit["kind"] == "points":
            cells += len(crit["names"])
        else:
            cells += len(crit["complex"]["simplices"])
    for comp in doc.get("moduli", []):
        cells += len(comp["domain"]["simplices"]) + 1
    return cells


def flow_components(doc):
    if doc["kind"] == "morse":
        return sum(abs(n) for _, _, n in doc["counts"])
    return len(doc.get("moduli", []))
