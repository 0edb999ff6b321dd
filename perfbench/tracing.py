"""Spans around calls into each layer, recorded from outside the program.

The tracer replaces a layer's public function, in every `mbhomology`
module that calls it, with a wrapper that records one span per call:
name, start, end, parent span and call id.  Spans stay in memory; the
benchmark writes them out when the run ends.  No program file is changed,
and the originals are restored after every traced call.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name, patch inside the defining module too)
#
# A function is wrapped where other modules call it.  Calls from inside
# its own module are wrapped only where that module is the caller the
# pipeline uses (cli's loaders, morse's embedding), so that, for example,
# the homology_at calls inside chain.quasi_iso stay part of quasi_iso.
TARGETS = (
    ("mbhomology.cli", "presentation_from_file", "cli.load", True),
    ("mbhomology.cli", "load_document", "cli.load", True),
    ("mbhomology.cli", "morse_from_doc", "cli.load", True),
    ("mbhomology.flowdata", "build_multicomplex", "flowdata.build", False),
    ("mbhomology.flowdata", "morse_to_flow", "flowdata.build", False),
    ("mbhomology.multicomplex", "validate_multicomplex",
     "multicomplex.validate", False),
    ("mbhomology.multicomplex", "totalize", "multicomplex.totalize", False),
    ("mbhomology.chain", "homology_at", "chain.homology", False),
    ("mbhomology.chain", "quasi_iso", "chain.quasi_iso", False),
    ("mbhomology.chain", "induced_map_on_homology", "chain.induced", False),
    ("mbhomology.morse", "morse_complex", "morse.complex", True),
    ("mbhomology.morse", "phi_chain_map", "morse.phi", True),
    ("mbhomology.morse", "verify_morse_mb", "morse.verify", False),
)
STAGES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, call]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.call = None
        self.last = {}

    def span(self, name, fn):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None,
                    self.call]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            self.last[fn.__name__] = result
            return result
        traced.__wrapped__ = fn
        return traced

    def sites(self):
        """(module, attribute, original, span name) for every call site."""
        out = []
        missing = []
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "mbhomology" or n.startswith("mbhomology.")]
        for modname, attr, name, inside in TARGETS:
            owner = sys.modules.get(modname)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{modname}.{attr}")
                continue
            home = getattr(fn, "__module__", modname)
            for mod in loaded:
                if mod.__name__ == home and not inside:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        out.append((mod, key, fn, name))
        return out, missing

    @contextmanager
    def active(self, call, sites):
        self.call = call
        self.last = {}
        for mod, key, fn, name in sites:
            setattr(mod, key, self.span(name, fn))
        try:
            yield
        finally:
            for mod, key, fn, _ in sites:
                setattr(mod, key, fn)
            self.call = None


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def stage_times(spans, own):
    """{call id: {span name: summed self time}}."""
    out = {}
    for span, t in zip(spans, own):
        per_call = out.setdefault(span[4], {})
        per_call[span[0]] = per_call.get(span[0], 0.0) + t
    return out
