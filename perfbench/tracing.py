"""Run the pushresp CLI with spans around its layer functions.

    python perfbench/tracing.py SPANS_JSON -- CLI_ARGS...

Spans are installed by rebinding module attributes before the CLI runs,
so the program's own files stay untouched. Three kinds of names are
rebound: the layer functions `pipeline` calls through a module
(`surface_mod.accumulate_surface`, ...), the names `pipeline` imported
from `series`, and the helpers entry points call through module globals
(`ingest.read_quote_csv`, `lags.compute_moments`, ...). Each span keeps
its name, start, end, parent and counts taken from the arguments or the
returned object. Spans stay in memory and are written out at exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        # One stack per thread: a wrapped call made from a worker thread
        # becomes a root of its own, which fails the self-time check,
        # instead of nesting under whatever the main thread is running.
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs, counts=None):
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1]["id"] if stack else None, "counts": {}}
        self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if counts is not None:
            span["counts"] = counts(result, *args, **kwargs)
        return result

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        setattr(module, attr, traced)


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer) -> None:
    from pushresp import cleaning, cli, decomposition, figures, ingest, lags, pipeline, surface, synthetic

    def ingest_counts(result, *args, **kwargs):
        _, report = result
        return {"n_records": report.n_records, "n_emitted": report.n_emitted, "rss_hwm_mib": _rss_mib()}

    def surface_counts(surf, *args, **kwargs):
        return {"n_pairs": sum(m.n_pairs for m in surf.moments), "in_grid": int(surf.counts.sum())}

    wraps = [
        # Layer functions the pipeline calls through the module.
        (synthetic, "generate", "synthetic.generate", lambda r, *a, **k: {"events": len(r)}),
        (ingest, "ingest_files", "ingest.ingest_files", ingest_counts),
        (cleaning, "clean", "cleaning.clean",
         lambda r, series, *a, **k: {"events_in": len(series), "events_out": len(r[0])}),
        (lags, "compute_moments_table", "lags.compute_moments_table", None),
        (lags, "write_moments_csv", "lags.write_moments_csv", None),
        (surface, "accumulate_surface", "surface.accumulate_surface", surface_counts),
        (surface, "write_surface_csv", "surface.write_surface_csv", None),
        (surface, "read_surface_csv", "surface.read_surface_csv", None),
        (decomposition, "decompose", "decomposition.decompose", lambda r, *a, **k: {"pairs": len(r)}),
        (decomposition, "summarize", "decomposition.summarize", None),
        (decomposition, "write_heatmap_csv", "decomposition.write_heatmap_csv", None),
        (decomposition, "write_summary_csv", "decomposition.write_summary_csv", None),
        (figures, "render_figure", "figures.render_figure",
         lambda r, spec, *a, **k: {"kind": spec.kind, "bytes": os.path.getsize(r)}),
        # Names the pipeline imported from series.
        (pipeline, "read_prms", "series.read_prms",
         lambda r, path, *a, **k: {"bytes": os.path.getsize(path), "events": len(r)}),
        (pipeline, "write_prms", "series.write_prms", None),
        (pipeline, "write_manifest", "series.write_manifest", None),
        (pipeline, "read_manifest", "series.read_manifest", None),
        # Helpers the entry points call through module globals.
        (ingest, "read_quote_csv", "ingest.read_quote_csv", None),
        (ingest, "filter_eligible", "ingest.filter_eligible", None),
        (ingest, "consolidate_nbbo", "ingest.consolidate_nbbo", None),
        (ingest, "build_mid_series", "ingest.build_mid_series", None),
        (cleaning, "winsorize_returns", "cleaning.winsorize_returns", None),
        (cleaning, "remove_jumps", "cleaning.remove_jumps", None),
        (lags, "compute_moments", "lags.compute_moments", lambda r, *a, **k: {"n_pairs": r.n_pairs}),
        (decomposition, "bootstrap_rho", "decomposition.bootstrap_rho", None),
        # The CLI's own binding of the pipeline entry point.
        (cli, "run_pipeline", "pipeline.run_pipeline", None),
    ]
    for module, attr, name, counts in wraps:
        tracer.wrap(module, attr, name, counts)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from pushresp import cli

    try:
        code = tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
