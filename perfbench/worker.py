"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SRC WORKLOAD SEED MODE

MODE is `setup` (import and build the parser, then exit), `plain`, `trace`
(span wrappers installed) or `count` (LaurentPoly.__add__/__mul__ counted).
The worker first imports satkit.cli from SRC and builds its parser, and
reports the monotonic time at which that finished: the parent subtracts the
time it started the process to get the set-up time.  It then runs the jobs
of the pass one after another through satkit.cli.run, each with its stdout
and stderr captured, and writes one JSON line per job to its own stdout,
then a final line with its peak resident memory, the reference timings and,
in the traced modes, the spans and counters.

Nothing but sys, os and time is imported before satkit, so the set-up time
is what a CLI user pays on every command.
"""

import os
import sys
import time


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It runs right after start-up and after every job, and the benchmark
    divides job times by it to cancel the host's speed, which on a shared
    machine drifts by tens of percent within minutes.  It runs with the
    interpreter's default GC thresholds and without trace or profile hooks,
    whatever the library under test has set, so that the library cannot
    change its own yardstick.
    """
    import gc
    from fractions import Fraction

    trace, profile, threshold = sys.gettrace(), sys.getprofile(), gc.get_threshold()
    enabled = gc.isenabled()
    sys.settrace(None)
    sys.setprofile(None)
    gc.set_threshold(700, 10, 10)
    gc.enable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 1500):
            key = (i % 37, i % 11)
            table[key] = table.get(key, 0) + i
            acc += Fraction(i % 7, i % 5 + 1)
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()


def peak_rss_kb() -> int:
    """This process's peak resident memory since it started, in KiB.

    Read from VmHWM: getrusage's ru_maxrss also counts the parent's memory at
    the time it spawned this process, since Linux carries it across exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, src)
    import satkit.cli

    satkit.cli.build_parser()
    ready = time.monotonic()

    import contextlib
    import io
    import json

    proto = sys.stdout
    if not os.path.abspath(satkit.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"satkit was imported from {satkit.cli.__file__}, not from {src}\n")
        return 2
    proto.write(json.dumps({"ready": ready}) + "\n")
    refs = [reference()]  # refs[j] and refs[j + 1] bracket job j
    if mode == "setup":
        proto.write(json.dumps({"refs": refs}) + "\n")
        return 0

    import spans
    import workloads

    rec = spans.Recorder()
    if mode == "trace":
        import argparse

        modules = [sys.modules[name] for name in spans.MODULES]
        spans.install_spans(modules, rec, [(argparse.ArgumentParser, "parse_args", "argparse.parse_args")])
    elif mode == "count":
        spans.install_counts(satkit.laurent.LaurentPoly, rec)

    for i, argv in enumerate(workloads.generate(workload, seed)):
        rec.job = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = satkit.cli.run(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        refs.append(reference())
        proto.write(json.dumps({"job": i, "s": seconds, "exit": code, "out": out.getvalue(), "err": err.getvalue()}) + "\n")
        proto.flush()

    peak_kb = peak_rss_kb()
    proto.write(json.dumps({"refs": refs, "peak_rss_kb": peak_kb, "spans": rec.spans, "counters": rec.counters}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
