"""Command-line interface.

Every command reads and builds its documents through one loader, `_load`;
`homology`, `morse` and `compare` validate each multicomplex once through
`pipeline` before its homology is computed.  Exit codes are a
stable contract: 0 for success/match, 1 for a semantic failure (invalid
multicomplex, inconsistent flow data, mismatch, non-isomorphic
comparison, a Morse build that is not its critical-point complex), 2 for
unreadable or malformed input, which the reader refuses by its JSON path.
"""

import argparse
import functools
import re
import sys

from .chain import homology_at
from .flowdata import build_multicomplex
from .multicomplex import InvalidMulticomplex, validate_multicomplex
from .pipeline import homology_table
# load_document, morse_from_doc and presentation_from_doc run only inside
# presentation_from_file; they stay importable from here, where the
# benchmark's tracer finds them
from .schema import (
    SchemaError,
    canonical_json,
    expected_from_doc,
    load_document,
    morse_from_doc,
    presentation_from_doc,
    presentation_from_file,
)
from .simplicial import CoveringError

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# reports


def group_to_data(degree, group, ambient_dim):
    data = {
        "degree": degree,
        "betti": group.betti,
        "torsion": list(group.torsion),
    }
    if degree > ambient_dim:
        data["truncation_sensitive"] = True
    return data


def validation_to_data(report):
    return {
        "valid": report.ok,
        "structural": [],  # shapes are refused at construction
        "identity_failures": [
            {"j": j, "p": p, "i": i,
             "residual": [list(row) for row in residual.data]}
            for (j, p, i, residual) in report.identity_failures
        ],
    }


# ---------------------------------------------------------------------------
# commands


def _emit(out, json_doc, text, as_json):
    """Write `json_doc` as canonical JSON, else what `text()` returns."""
    if as_json:
        out.write(canonical_json(json_doc))
    else:
        out.write(text() + "\n")


def _input_failure(exc, path):
    """Report an error raised while loading or building `path` and return
    the exit code: a failed covering check is inconsistent flow data,
    anything else is bad input, whose message names its own path."""
    if isinstance(exc, CoveringError):
        sys.stderr.write(f"inconsistent flow data: {path}: {exc}\n")
        return EXIT_SEMANTIC
    sys.stderr.write(f"input error: {exc}\n")
    return EXIT_INPUT


def _load(path, morse=False):
    """(presentation, Morse data or None, multicomplex, expected table or
    None) of a flow or Morse document: the presentation from
    schema.presentation_from_file, then, with `morse`, the refusal of a
    document that is not a Morse one, then `expected`, then the build, so
    every command refuses the same input with the same error.  Raises
    SchemaError, naming the file or JSON path at fault, for every input
    error, and CoveringError from the build's covering check, the one
    check that is not the reader's."""
    fp, md, doc = presentation_from_file(path)
    if morse and md is None:
        raise SchemaError(f"{path}: expected a morse document")
    expected = expected_from_doc(doc, where=path)
    return fp, md, build_multicomplex(fp, check=False), expected


def _report(report, stream, as_json, heading=""):
    """Write a validation report and return its exit code."""
    verdict = "valid" if report.ok else "INVALID"
    _emit(stream, validation_to_data(report), lambda: "\n".join([
        f"{heading}multicomplex: {verdict}",
        *(f"  {line}" for line in report.describe())]), as_json)
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def cmd_validate(path, as_json=False):
    try:
        _, _, mc, _ = _load(path)
    except ValueError as exc:
        return _input_failure(exc, path)
    return _report(validate_multicomplex(mc), sys.stdout, as_json)


def parse_degree_range(text, default_hi):
    """The degrees `--degrees` names: K, A..B, or 0..default_hi when it is
    absent.  Raises ValueError naming the option."""
    if text is None:
        return range(0, default_hi + 1)
    # plain ASCII decimals only: int() would also take "1_0", " 1", "+1"
    # and non-ASCII digits
    match = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)
    degrees = None
    if match:
        lo, hi = match.groups()
        degrees = range(int(lo), int(hi or lo) + 1)
    if not degrees:  # unparsable, or B < A
        raise ValueError(f"--degrees: expected K or A..B, got {text!r}")
    return degrees


def _expected_mismatches(groups, expected):
    """One line per degree where a computed group differs from the expected
    one.  Both are dicts keyed by degree; expected degrees that were not
    computed are skipped."""
    lines = []
    for k, want in sorted(expected.items()):
        got = groups.get(k)
        if got is not None and got != want:
            lines.append(f"degree {k}: computed {got}, expected betti "
                         f"{want.betti}, torsion {list(want.torsion)}")
    return lines


def cmd_homology(path, degrees=None, as_json=False):
    try:
        _, _, mc, expected = _load(path)
    except ValueError as exc:
        return _input_failure(exc, path)
    try:
        degree_range = parse_degree_range(degrees, mc.ambient_dim)
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    try:
        groups = dict(zip(degree_range, homology_table(mc, degree_range)))
    except InvalidMulticomplex as exc:
        return _report(exc.report, sys.stderr, as_json)
    data = {
        "valid": True,
        "homology": [group_to_data(k, group, mc.ambient_dim)
                     for k, group in groups.items()],
    }
    code = EXIT_OK
    if expected is not None:
        mismatches = _expected_mismatches(groups, expected)
        data["expected_match"] = not mismatches
        data["mismatches"] = mismatches
        if mismatches:
            code = EXIT_SEMANTIC
            for line in mismatches:
                sys.stderr.write(line + "\n")
    _emit(sys.stdout, data, lambda: ", ".join(
        f"HB_{k}={group}" for k, group in groups.items()), as_json)
    return code


def cmd_morse(path, as_json=False):
    """Check that a Morse document's build is its critical-point complex.

    The document is read and built as every command does it (`_load`), so
    a malformed one of any kind exits 2 naming its JSON path; a well-formed
    flow document is refused as not a Morse one before its `expected` list
    or its build is looked at.  Then the build gets its one homology table
    (`homology_table`), so counts that do not square to zero fail its
    validation (identity j = 2) and are reported as `homology` reports
    them.  The build is then compared with the counts directly
    (morse.is_critical_point_complex).  When it is the critical-point
    complex, that table is both tables, every verdict holds and no other
    complex is formed; otherwise the program has a bug, `morse_complex`
    gives the Morse table, the chain map is reported BROKEN and the exit
    is 1."""
    # imported here: the other commands never need the module
    from .morse import is_critical_point_complex, morse_complex

    try:
        fp, md, mc, _ = _load(path, morse=True)
    except ValueError as exc:
        return _input_failure(exc, path)
    dim = mc.ambient_dim
    degrees = range(dim + 1)
    try:
        mb_homology = homology_table(mc, degrees)
    except InvalidMulticomplex as exc:
        return _report(exc.report, sys.stderr, as_json)
    ok = is_critical_point_complex(md, fp, mc)
    morse_homology = mb_homology if ok else homology_at(morse_complex(md),
                                                        degrees)
    data = {
        "morse_homology": [group_to_data(k, g, dim)
                           for k, g in zip(degrees, morse_homology)],
        "mb_homology": [group_to_data(k, g, dim)
                        for k, g in zip(degrees, mb_homology)],
        "chain_map_exact": ok,
        "odd_components_zero": ok,
        "quasi_isomorphism": ok,
        "ok": ok,
    }
    _emit(sys.stdout, data, lambda: "\n".join([
        "CM homology: " + ", ".join(
            f"HM_{k}={g}" for k, g in zip(degrees, morse_homology)),
        "HB homology: " + ", ".join(
            f"HB_{k}={g}" for k, g in zip(degrees, mb_homology)),
        f"chain map: {'exact' if ok else 'BROKEN'}; "
        f"quasi-isomorphism: {'yes' if ok else 'NO'}"]), as_json)
    return EXIT_OK if ok else EXIT_SEMANTIC


def cmd_compare(path_a, path_b, as_json=False):
    tables = []
    for path in (path_a, path_b):
        try:
            _, _, mc, _ = _load(path)
        except ValueError as exc:
            return _input_failure(exc, path)
        try:
            tables.append(homology_table(mc, range(0, mc.ambient_dim + 1)))
        except InvalidMulticomplex as exc:
            return _report(exc.report, sys.stderr, as_json, f"{path}:\n")
    # every degree both tables cover; both start at degree 0
    comparisons = [(k, a, b, a == b)
                   for k, (a, b) in enumerate(zip(*tables))]
    all_iso = all(iso for *_, iso in comparisons)
    data = {
        "comparisons": [{
            "degree": k,
            "left": {"betti": a.betti, "torsion": list(a.torsion)},
            "right": {"betti": b.betti, "torsion": list(b.torsion)},
            "isomorphic": iso,
        } for k, a, b, iso in comparisons],
        "isomorphic": all_iso,
    }
    _emit(sys.stdout, data, lambda: "\n".join([
        *(f"degree {k}: {a} vs {b}: {'isomorphic' if iso else 'DIFFERENT'}"
          for k, a, b, iso in comparisons),
        "comparison: " + ("isomorphic" if all_iso else "NOT isomorphic")]),
        as_json)
    return EXIT_OK if all_iso else EXIT_SEMANTIC


@functools.cache  # built by the first main call; parsing never changes it
def _parser():
    parser = argparse.ArgumentParser(
        prog="mbhomology",
        description="Exact integer Morse-Bott homology of finite flow "
                    "presentations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, paths in (
            ("validate", "check the anticommutation identities", ["path"]),
            ("homology", "compute the homology table", ["path"]),
            ("morse", "verify the critical-point complex embedding", ["path"]),
            ("compare", "compare homology tables of two presentations",
             ["path_a", "path_b"])):
        p = sub.add_parser(name, help=text)
        for path in paths:
            p.add_argument(path)
        if name == "homology":
            p.add_argument("--degrees", help="single degree K or range "
                           "A..B (default 0..dim)")
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.path, as_json=args.json)
    if args.command == "homology":
        return cmd_homology(args.path, degrees=args.degrees,
                            as_json=args.json)
    if args.command == "morse":
        return cmd_morse(args.path, as_json=args.json)
    return cmd_compare(args.path_a, args.path_b, as_json=args.json)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
