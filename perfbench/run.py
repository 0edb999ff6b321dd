"""Benchmark of the `mbhomology` command line on seeded known-answer inputs.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload torus-grid --seed 1 --seconds 25 --trace 0

Each call runs `mbhomology.cli.main([command, FILE, "--json"])` in this one
process and thread, on a document no other call of the run gets, and checks
the printed table against the answer known from how the document was
built.  With `--trace 0` every call is timed untraced and the last line of
standard output is the end-to-end metrics; with `--trace 1` traced and
untraced calls alternate and the last line is the per-layer metrics.  The
lines before it list every metric with its unit.  The input digests and,
with tracing, every span are written to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = wl.ROOT / "src"
OUT = HERE / "out"

# Set-up runs once before the measured window and SETUP_REPEATS - 1 more
# times spread evenly through it, each re-importing the program; setup_s is
# their median.  Set-ups made back to back share the host's speed of the
# moment and spread as widely as a single one (see README.md).
SETUP_REPEATS = 5
CHUNK = 8           # documents generated and written per batch
COUNT_CALLS = 6     # count metrics come from the first traced calls
TAIL_ABOVE = 10     # a tail has this many samples above it
# Traced and untraced calls alternate, and the alternation changes phase
# every PHASE calls, so each of the six dim-padded presentations is met in
# both modes and among the first COUNT_CALLS traced calls.
PHASE = 6
# The longest window accepted, so that a run with its set-ups ends within
# three minutes.
MAX_SECONDS = 120.0

# Gated end-to-end metrics.  Call and set-up times are divided by the time
# of the fixed reference kernel, the median of two runs just before and two
# just after each, so that a change in the speed of a shared host cancels
# out.  The median, not the fastest run, follows the speed the call ran at.  setup_s is that
# ratio times REF_SECONDS, the kernel's time on an idle 2.0 GHz Xeon VM:
# set-up seconds at that machine's speed.
REF_SECONDS = 0.0035
END_TO_END = {
    "call_ref.p50": "ref",
    "call_ref.tail": "ref",
    "cells_per_ref": "1/ref",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# The same calls in wall-clock seconds, printed and recorded, not gated.
WALL = {
    "call_s.p50": "s",
    "call_s.tail": "s",
    "cells_per_s": "1/s",
    "ref_s.p50": "s",
    "setup_wall_s": "s",
}
PER_LAYER = {
    **{f"{stage}_s": "s" for stage in tracing.STAGES},
    "exactalg.snf_s": "s",
    "cli.overhead_s": "s",
    "trace.gap_s": "s",
    "input.cells": "count",
    "morse.flow_components": "count",
    "multicomplex.bidegrees": "count",
    "multicomplex.grid_yield": "ratio",
    "multicomplex.maps_nnz": "count",
    "total.rank": "count",
    "total.nnz": "count",
    "chain.degree_yield": "ratio",
    "exactalg.max_coeff_bits": "bits",
    "fail_ratio": "ratio",
}


class Inputs:
    """The run's documents, generated from the seed and written in batches."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.calls = []
        self.hash = hashlib.sha256()

    def write(self, call):
        doc, command, table = wl.make(self.workload, self.seed, call)
        text = wl.canonical(doc)
        path = self.workdir / f"{call}.json"
        path.write_text(text, encoding="utf-8")
        return {"path": str(path), "command": command, "table": table,
                "cells": wl.input_cells(doc),
                "components": wl.flow_components(doc), "text": text}

    def extend(self):
        for _ in range(CHUNK):
            item = self.write(len(self.calls))
            self.hash.update(item.pop("text").encode("utf-8") + b"\n")
            self.calls.append(item)

    def get(self, call):
        while call >= len(self.calls):
            self.extend()
        return self.calls[call]


def rows(entries):
    return [(e["degree"], e["betti"], tuple(e["torsion"])) for e in entries]


def correct(item, code, text):
    """Exit code 0 and the known table; for morse, every verdict true."""
    if code != 0:
        return False
    want = [(k, b, t) for k, (b, t) in enumerate(item["table"])]
    try:
        data = json.loads(text)
        if item["command"] == ["homology"]:
            return (data["valid"] is True
                    and data.get("expected_match", True) is True
                    and rows(data["homology"]) == want)
        return (data["ok"] is True and data["quasi_isomorphism"] is True
                and data["chain_map_exact"] is True
                and rows(data["morse_homology"]) == want
                and rows(data["mb_homology"]) == want)
    except (KeyError, TypeError, ValueError):
        return False


def invoke(main, item):
    """(seconds, exit code or exception, standard output) of one call."""
    argv = item["command"] + [item["path"], "--json"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a crash here
            code = repr(exc)
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


def _reference_matrix(n=24):
    rng = random.Random("reference")
    return tuple(tuple(rng.choice((-1, 0, 0, 1)) for _ in range(n))
                 for _ in range(n))


REFERENCE = _reference_matrix()


def reference():
    """Seconds for a fixed exact-integer kernel in the style of the program:
    a product of immutable tuple matrices, an integer elimination, and the
    building and block copying of a 90 x 90 tuple matrix.  It is timed next
    to every call to follow the speed of a shared host; never change it."""
    start = perf_counter()
    a = REFERENCE
    cols = list(zip(*a))
    prod = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)
    m = [list(row) for row in prod]
    n = len(m)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        for r in range(c + 1, n):
            f = m[r][c]
            if f:
                m[r] = [(p * x - f * y) % 65521 for x, y in zip(m[r], m[c])]
    big = tuple(tuple(int(x) for x in row) for row in [[0] * 90] * 90)
    grid = [[0] * 90 for _ in range(90)]
    for r in range(0, 90, 3):
        dst, src = grid[r], big[r]
        for c in range(90):
            dst[c] = src[c] + 1
    copied = tuple(tuple(int(x) for x in row) for row in grid)
    sum(x for row in copied for x in row)
    return perf_counter() - start


def purge():
    """Remove the program's modules from sys.modules and return them."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "mbhomology" or name.startswith("mbhomology.")}


def setup(args, workdir):
    """Import, generate the first batch of inputs, one warm-up call.

    A set-up after the first puts the modules of the first import back when
    it is done, so that every measured call runs on the first import, whose
    code the interpreter has already specialized, and no call after a
    set-up pays for a fresh import."""
    workdir.mkdir()
    refs = [reference(), reference()]
    start = perf_counter()
    loaded = purge()
    cli = importlib.import_module("mbhomology.cli")
    imported = perf_counter()
    inputs = Inputs(args.workload, args.seed, workdir)
    inputs.extend()
    generated = perf_counter()
    warm = inputs.write(-1)
    _, code, text = invoke(cli.main, warm)
    ok = correct(warm, code, text)
    done = perf_counter()
    refs += [reference(), reference()]
    if loaded:
        purge()
        sys.modules.update(loaded)
        cli = loaded["mbhomology.cli"]
    return cli, inputs, ok, {"import_s": imported - start,
                             "inputs_s": generated - imported,
                             "warmup_s": done - generated,
                             "total_s": done - start,
                             "ref": statistics.median(refs),
                             "digest": inputs.hash.hexdigest()}


def probe(view, dim, snf):
    """Sizes of the total complex and one SNF of each boundary the table
    needs (degrees 0..dim use d_0 .. d_{dim+1})."""
    cx = view.complex
    bounds = {k: cx.boundary(k) for k in range(0, dim + 2)}
    nonzero = {k: not b.is_zero() for k, b in bounds.items()}
    snf_s = 0.0
    bits = 0
    for b in bounds.values():
        if b.rows and b.cols:
            start = perf_counter()
            dec = snf(b)
            snf_s += perf_counter() - start
            for mat in (dec.u, dec.s, dec.v):
                bits = max(bits, max(abs(x).bit_length()
                                     for row in mat.data for x in row))
    return {
        "exactalg.snf_s": snf_s,
        "exactalg.max_coeff_bits": bits,
        "total.rank": sum(cx.rank(k) for k in range(0, dim + 1)),
        "total.nnz": sum(1 for b in bounds.values()
                         for row in b.data for x in row if x),
        "chain.degree_yield": sum(1 for k in range(0, dim + 1)
                                  if nonzero[k] or nonzero[k + 1])
        / (dim + 1),
    }


def layer_counts(mc):
    stored = sum(1 for r in mc.row_ranks.values() if r > 0)
    return {
        "multicomplex.bidegrees": stored,
        "multicomplex.grid_yield":
            stored / ((mc.column_cap + 1) * (mc.ambient_dim + 1)),
        "multicomplex.maps_nnz": sum(1 for mat in mc.maps.values()
                                     for row in mat.data for x in row if x),
    }


def tail(times):
    """(value, percentile): the sample with TAIL_ABOVE samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def measure(set_up, seconds, traced):
    """Calls until `seconds` have passed; with `traced`, every other call
    is traced.  `set_up()` imports the program and returns its cli module
    and the run's inputs; it runs first and again at even intervals.
    Returns the inputs, the per-call records, the tracer and the missing
    span targets."""
    tracer = tracing.Tracer()
    cli, inputs = set_up()
    start = perf_counter()
    again = [start + seconds * k / SETUP_REPEATS
             for k in range(1, SETUP_REPEATS)]
    plain, spanned = [], []
    call = 0
    while not (plain and (spanned or not traced)
               and perf_counter() >= start + seconds):
        if again and perf_counter() >= again[0]:
            again.pop(0)
            set_up()
            continue
        item = inputs.get(call)
        gc.collect()
        if traced and call % 2 == call // PHASE % 2:
            sites, missing = tracer.sites()
            with tracer.active(call, sites):
                elapsed, code, text = invoke(
                    tracer.span("cli.main", cli.main), item)
            record = {"call": call, "s": elapsed,
                      "ok": correct(item, code, text)}
            mc = tracer.last.get("build_multicomplex")
            view = tracer.last.get("totalize")
            if mc is not None and view is not None:
                snf = sys.modules["mbhomology.exactalg"].snf
                record.update(probe(view, mc.ambient_dim, snf))
                record.update(layer_counts(mc))
            record["input.cells"] = item["cells"]
            record["morse.flow_components"] = item["components"]
            spanned.append(record)
        else:
            refs = [reference(), reference()]
            elapsed, code, text = invoke(cli.main, item)
            refs += [reference(), reference()]
            plain.append({"call": call, "s": elapsed, "cells": item["cells"],
                          "ref": statistics.median(refs),
                          "ok": correct(item, code, text)})
        os.remove(item["path"])
        call += 1
    return inputs, plain, spanned, tracer, missing if traced else []


def end_to_end(plain, setups):
    """(gated metrics, wall-clock metrics, percentile of the tails)."""
    times = [r["s"] for r in plain]
    rel = [r["s"] / r["ref"] for r in plain]
    wall_tail, pct = tail(times)
    rel_tail, _ = tail(rel)
    gated = {
        "call_ref.p50": statistics.median(rel),
        "call_ref.tail": rel_tail,
        "cells_per_ref": sum(r["cells"] for r in plain) / sum(rel),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": REF_SECONDS * statistics.median(
            s["total_s"] / s["ref"] for s in setups),
    }
    wall = {
        "call_s.p50": statistics.median(times),
        "call_s.tail": wall_tail,
        "cells_per_s": sum(r["cells"] for r in plain) / sum(times),
        "ref_s.p50": statistics.median(r["ref"] for r in plain),
        "setup_wall_s": statistics.median(s["total_s"] for s in setups),
    }
    return gated, wall, pct


def per_layer(plain, spanned, tracer, failed, attempted):
    own = tracing.self_times(tracer.spans)
    stages = tracing.stage_times(tracer.spans, own)
    calls = [r["call"] for r in spanned]
    out = {}
    for stage in tracing.STAGES:
        out[f"{stage}_s"] = statistics.median(
            stages.get(c, {}).get(stage, 0.0) for c in calls)
    out["exactalg.snf_s"] = statistics.median(
        r.get("exactalg.snf_s", 0.0) for r in spanned)
    out["cli.overhead_s"] = statistics.median(
        stages.get(c, {}).get("cli.main", 0.0) for c in calls)
    out["trace.gap_s"] = statistics.median(r["s"] for r in spanned) \
        - statistics.median(r["s"] for r in plain)
    first = spanned[:COUNT_CALLS]
    for name in ("input.cells", "morse.flow_components",
                 "multicomplex.bidegrees", "multicomplex.grid_yield",
                 "multicomplex.maps_nnz", "total.rank", "total.nnz",
                 "chain.degree_yield", "exactalg.max_coeff_bits"):
        out[name] = statistics.median(r.get(name, 0) for r in first)
    out["fail_ratio"] = failed / attempted
    shares = {}
    total = sum(sum(t for name, t in per.items() if name != "cli.main")
                for per in stages.values())
    for stage in tracing.STAGES:
        shares[stage] = sum(per.get(stage, 0.0)
                            for per in stages.values()) / total
    return {k: out[k] for k in PER_LAYER}, shares


def report(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:28s} {value!r:>24} {units[name]}")


def run(args, workdir):
    setups = []

    def set_up():
        cli, inputs, ok, info = setup(args, workdir / f"setup{len(setups)}")
        info["ok"] = ok
        setups.append(info)
        return cli, inputs

    inputs, plain, spanned, tracer, missing = measure(
        set_up, args.seconds, args.trace == 1)
    digests = {s["digest"] for s in setups}
    attempted = len(setups)
    failed = sum(1 for s in setups if not s["ok"])
    records = plain + spanned
    attempted += len(records)
    failed += sum(1 for r in records if not r["ok"])
    e2e, wall, pct = end_to_end(plain, setups)
    print(f"workload {args.workload} seed {args.seed} size "
          f"{wl.SIZES[args.workload]} trace {args.trace}")
    print(f"inputs: first {CHUNK} documents sha256 {setups[-1]['digest']}; "
          f"all {len(inputs.calls)} generated sha256 "
          f"{inputs.hash.hexdigest()}")
    print(f"samples: {len(plain)} untraced calls, the tails are "
          f"p{pct:.1f}; {len(spanned)} traced calls; "
          f"failed {failed} of {attempted}")
    report("end-to-end (untraced calls)", e2e, END_TO_END)
    report("wall clock (untraced calls, not gated)", wall, WALL)
    result = {"correct": failed == 0 and len(digests) == 1,
              "attempted": attempted, "failed": failed}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": wl.SIZES[args.workload], "setups": setups,
              "inputs_sha256": inputs.hash.hexdigest(),
              "documents": len(records), "tail_percentile": pct,
              "end_to_end": e2e, "wall": wall, "calls": records}
    if args.trace:
        layers, shares = per_layer(plain, spanned, tracer, failed, attempted)
        report("per-layer (traced calls, median per call)", layers,
               PER_LAYER)
        print("stage shares of traced stage time: " + ", ".join(
            f"{k} {v:.3f}" for k, v in shares.items() if v))
        if missing:
            print("not traced (missing): " + ", ".join(missing))
        result["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]}
                             for k, v in layers.items()}
        record.update(per_layer=layers, shares=shares, missing=missing,
                      spans=tracer.spans)
    else:
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                             for k, v in e2e.items()}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record), encoding="utf-8")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")
    if not (SRC / "mbhomology" / "cli.py").is_file():
        print(f"no mbhomology sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
