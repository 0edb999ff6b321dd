"""SHA-256 digests over what the CLI prints for fixed sets of calls.

Five call sets, one digest line each:

- documents: `validate`, `homology`, `morse` and `homology --degrees 0..5`,
  each as text and with `--json`, on the shipped corpus and on 20 seeded
  documents (seed 1, calls 0..19) of every benchmark workload;
- compare: `compare` of each corpus file against the next one (the last
  against the first), as text and with `--json`;
- failures: each corpus flow file with the sign of one moduli component
  flipped, one component at a time, under `validate`, `homology` and
  `compare` against the original file, as text and with `--json`;
- malformed: three seeded documents for each refusal of a malformed
  simplicial model or moduli component (see MALFORMED), under `validate`
  and `homology`, as text and with `--json`;
- refusals: the argument parser's refusals of no command, an unknown
  command and a command without its path.

A digest covers the file names, command, flags, exit code, stdout and
stderr of each call, with input paths replaced by fixed tokens.  Run it in
two checkouts: equal digests mean their CLI output is byte-identical on
that call set.

    python3 scripts/output_digest.py
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mbhomology import cli  # noqa: E402
from mbhomology.corpus import data_dir, entry_names  # noqa: E402
import workloads  # noqa: E402

COMMANDS = (["validate"], ["homology"], ["morse"],
            ["homology", "--degrees", "0..5"])
REFUSALS = ([], ["nosuch"], ["homology"])
SEEDED = 20
TOKEN = "<input>"


def documents(scratch):
    """(name, path) of every input: corpus files first, then the seeded
    workload documents written under `scratch`."""
    for name in entry_names():
        yield f"{name}.json", str(data_dir() / f"{name}.json")
    for workload in sorted(workloads.WORKLOADS):
        for call in range(SEEDED):
            doc, _, _ = workloads.make(workload, 1, call)
            path = Path(scratch) / f"{workload}-{call}.json"
            path.write_text(json.dumps(doc), "utf-8")
            yield path.name, str(path)


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(digest, argv, names, paths):
    """Add one call to `digest`, with `names` standing for `paths`."""
    code, out, err = run(argv)
    for n, path in enumerate(paths):
        token = TOKEN if len(paths) == 1 else f"<input{n}>"
        out, err = out.replace(path, token), err.replace(path, token)
    shown = [*names, *(a for a in argv if a not in paths)]
    digest.update(json.dumps([*shown, str(code), out, err]).encode("utf-8"))


def document_calls(scratch):
    """(argv, names, paths) of the documents call set."""
    for name, path in documents(scratch):
        for command in COMMANDS:
            for flags in ([], ["--json"]):
                yield ([command[0], path, *command[1:], *flags], [name],
                       [path])


def flipped(scratch):
    """(name, path) of each corpus flow file and (name, path) of a copy
    under `scratch` with one moduli component's sign flipped, for every
    component in turn."""
    for name in entry_names():
        original = data_dir() / f"{name}.json"
        doc = json.loads(original.read_text("utf-8"))
        if doc.get("kind") != "flow":
            continue
        for t, component in enumerate(doc["moduli"]):
            component["sign"] = -component["sign"]
            path = Path(scratch) / f"{name}-flip{t}.json"
            path.write_text(json.dumps(doc), "utf-8")
            component["sign"] = -component["sign"]
            yield (original.name, str(original)), (path.name, str(path))


def failure_calls(scratch):
    """(argv, names, paths) of the failures call set."""
    for (name, original), (flip, path) in flipped(scratch):
        for flags in ([], ["--json"]):
            for command in ("validate", "homology"):
                yield [command, path, *flags], [flip], [path]
            yield (["compare", original, path, *flags], [name, flip],
                   [original, path])


def compare_calls():
    """(argv, names, paths) of the compare call set."""
    corpus = [(f"{name}.json", str(data_dir() / f"{name}.json"))
              for name in entry_names()]
    for (name_a, a), (name_b, b) in zip(corpus, corpus[1:] + corpus[:1]):
        for flags in ([], ["--json"]):
            yield ["compare", a, b, *flags], [name_a, name_b], [a, b]


def _flow(critical, moduli=()):
    return {"schema": 1, "kind": "flow", "dim": 2, "critical": critical,
            "moduli": list(moduli)}


def _relabeled_torus(rng, n=4):
    """(document, relabeled triangles) of the n x n torus under a random
    vertex permutation."""
    perm = list(range(n * n))
    rng.shuffle(perm)
    tris = workloads.torus_triangles(n)
    return (workloads.complex_doc(n, tris, perm),
            [sorted(perm[x] for x in t) for t in tris])


def _closed(tops):
    """The simplices `tops` with all their faces, as sorted vertex lists:
    the reader takes a complex as it is listed."""
    return workloads.closure(tops, range(1 + max(map(max, tops))))


def _torus_model(cx):
    return _flow([{"index": 0, "kind": "simplicial", "complex": cx}])


def _edges(tris):
    return {(t[a], t[b]) for t in tris for a, b in ((0, 1), (0, 2), (1, 2))}


def out_of_range(rng):
    cx, _ = _relabeled_torus(rng)
    cx["simplices"].append([rng.randrange(16), 16 + rng.randrange(3),
                            19 + rng.randrange(3)])
    return _torus_model(cx)


def maximal_below_top(rng):
    cx, tris = _relabeled_torus(rng)
    edges = _edges(tris)
    extra = min(edges)
    while extra in edges:
        extra = tuple(sorted(rng.sample(range(16), 2)))
    cx["simplices"].append(list(extra))
    return _torus_model(cx)


def ridge_in_three(rng):
    cx, tris = _relabeled_torus(rng)
    cx["vertices"] += 1
    cx["simplices"] += _closed([[*rng.choice(sorted(_edges(tris))), 16]])
    return _torus_model(cx)


def non_orientable(rng):
    # the six-vertex projective plane
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    perm = list(range(6))
    rng.shuffle(perm)
    return _torus_model({"vertices": 6,
                         "simplices": workloads.closure(tris, perm)})


def with_boundary(rng):
    cx, tris = _relabeled_torus(rng)
    cx["simplices"].remove(rng.choice(tris))
    return _torus_model(cx)


def _circle(rng):
    """(document, cyclic vertex order) of a hexagon relabeled at random."""
    order = list(range(6))
    rng.shuffle(order)
    edges = [(order[t], order[(t + 1) % 6]) for t in range(6)]
    return {"vertices": 6, "simplices": _closed(edges)}, order


def _same(place):
    return place


def _over_circles(rng, domain=None, minus=_same, plus=_same):
    """Hexagons A (index 0) and B (index 1) with one component from B to
    A.  `domain(b, order)` gives the domain and the place on the cycle that
    each of its vertices lies over; by default the domain is B.  ev_minus
    sends a vertex over place t to B's vertex at place minus(t), ev_plus to
    A's vertex at place plus(t)."""
    a, a_order = _circle(rng)
    b, b_order = _circle(rng)
    if domain is None:
        cx, places = b, [b_order.index(v) for v in range(6)]
    else:
        cx, places = domain(b, b_order)
    return _flow(
        [{"index": 0, "kind": "simplicial", "complex": a},
         {"index": 1, "kind": "simplicial", "complex": b}],
        [{"from": 1, "to": 0, "domain": cx,
          "ev_minus": [b_order[minus(t)] for t in places],
          "ev_plus": [a_order[plus(t)] for t in places], "sign": 1}])


def ev_plus_not_simplex(rng):
    step = rng.choice((2, 3))  # neighbours land step places apart
    return _over_circles(rng, plus=lambda t: t * step % 6)


def covering_collapse(rng):
    c = rng.randrange(6)
    return _over_circles(rng, minus=lambda t: c)


def unequal_lifts(rng):
    t = rng.randrange(6)

    def domain(b, order):
        # B and one more copy of its edge at place t, on vertices 6 and 7
        places = [order.index(v) for v in range(6)] + [t, (t + 1) % 6]
        return ({"vertices": 8,
                 "simplices": b["simplices"] + _closed([[6, 7]])}, places)
    return _over_circles(rng, domain)


def non_unique_lift(rng):
    t = rng.randrange(6)

    def domain(b, order):
        # two sheets, vertex u + 6s over place u on sheet s, except that
        # both lifts of the edge at place t start on sheet 0
        edges = []
        for u in range(6):
            x, y = u, (u + 1) % 6
            edges += [(x, y), (x if u == t else x + 6, y + 6)]
        return ({"vertices": 12, "simplices": _closed(edges)},
                list(range(6)) * 2)
    return _over_circles(rng, domain)


# each malformed document's builder and a phrase of the refusal it meets
MALFORMED = {
    "out-of-range": (out_of_range, "uses vertices outside range"),
    "maximal-below-top": (maximal_below_top, "is maximal below dimension"),
    "ridge-in-three": (ridge_in_three, "lies in 3 top simplices"),
    "non-orientable": (non_orientable, "not orientable"),
    "with-boundary": (with_boundary, "model has boundary"),
    "ev-plus-not-simplex": (ev_plus_not_simplex,
                            "is not a simplex of the target"),
    "covering-collapse": (covering_collapse, "collapses under the map"),
    "unequal-lifts": (unequal_lifts, "lifts while others have"),
    "non-unique-lift": (non_unique_lift, "extends to 2 lifts"),
}
MALFORMED_SEEDS = 3


def malformed(scratch):
    """(name, path, phrase) of every malformed document, written under
    `scratch`."""
    for kind, (build, phrase) in MALFORMED.items():
        for seed in range(MALFORMED_SEEDS):
            doc = build(random.Random(f"malformed:{kind}:{seed}"))
            path = Path(scratch) / f"{kind}-{seed}.json"
            path.write_text(json.dumps(doc), "utf-8")
            yield path.name, str(path), phrase


def malformed_calls(scratch):
    """(argv, names, paths) of the malformed call set."""
    for name, path, _ in malformed(scratch):
        for command in ("validate", "homology"):
            for flags in ([], ["--json"]):
                yield [command, path, *flags], [name], [path]


def main():
    with tempfile.TemporaryDirectory() as scratch:
        for label, calls in (
                ("documents", document_calls(scratch)),
                ("compare", compare_calls()),
                ("failures", failure_calls(scratch)),
                ("malformed", malformed_calls(scratch)),
                ("refusals", ((argv, [], []) for argv in REFUSALS))):
            digest = hashlib.sha256()
            count = 0
            for argv, names, paths in calls:
                record(digest, argv, names, paths)
                count += 1
            print(f"{digest.hexdigest()}  {count} calls  {label}")


if __name__ == "__main__":
    main()
