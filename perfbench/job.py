"""Run one bayeskit CLI job in this fresh interpreter and record its costs.

    python3 perfbench/job.py RESULT.json [--trace SPANS.json] -- ARGV...
    python3 perfbench/job.py RESULT.json --import-only

The parent starts this script and times from just before the start.  Here,
`bayeskit.cli` is imported first, and the monotonic clock and CPU time are
read right after the import and again after `main(argv)` returns.  CLOCK_MONOTONIC
is shared by all processes, so the parent can subtract its own start time.
With --trace, the calls into bayeskit's layers are wrapped after the import
and the spans are written to SPANS.json.  The exit code is main's.
"""

import json
import resource
import sys
import time


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(result_path: str, options: list[str]) -> int:
    import bayeskit.cli

    imported, cpu_imported = time.monotonic(), _cpu()
    record = {"imported": imported, "module": bayeskit.cli.__file__}
    code = 0
    if options != ["--import-only"]:
        split = options.index("--")
        spans_path = options[options.index("--trace") + 1] if "--trace" in options[:split] else None
        argv = options[split + 1:]
        tracer = None
        if spans_path:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            root = tracer.open(f"cli.{argv[0]}")
        code = bayeskit.cli.main(argv)
        record["ended"] = time.monotonic()
        record["cpu_s"] = _cpu() - cpu_imported
        if tracer is not None:
            tracer.close(root)
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    record["code"] = code
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
