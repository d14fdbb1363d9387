"""One workload in one process: set-up, timed passes, the exact-output gate.

Started by run.py; prints one JSON object on its last stdout line.  Modes:

  setup    import profcalc, build the inputs, report setup_s and exit
  run      then run untraced passes for --seconds; report pass times, peak RSS
  trace    alternate untraced and traced passes; report per-layer metrics and
           write the first traced pass's spans to .perfbench/
  digests  run one pass and print each item's output digest (to re-record
           perfbench/digests.json after a deliberate, versioned change)
  faults   run the tiny clean and faulty cases of the gate's self-test
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_LOOP_S = 0.00232  # reference_s() on an idle 2-vCPU x86-64 VM, Python 3.11
SAMPLE_PERIOD_S = 0.5


class Gate:
    """Counts attempts and failures; a failure is a raise, an oracle miss or a digest drift."""

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.first_seen: dict[str, str] = {}
        self.attempted = 0
        self.failures = {"raised": 0, "oracle": 0, "digest": 0}
        self.messages: list[str] = []

    def _fail(self, kind: str, item, message: str) -> None:
        self.failures[kind] += 1
        if len(self.messages) < 20:
            self.messages.append(f"{kind}: {item.name}: {message}")

    def attempt(self, item, clock: "HostSpeed") -> tuple[float, float]:
        """Run the item; return its (raw, calibrated) seconds (checks are not timed)."""
        self.attempted += 1
        try:
            output = clock.time(item.run)
        except Exception as exc:  # the gate counts any raise as a failed item
            self._fail("raised", item, repr(exc))
            return clock.raw, clock.cal
        try:
            miss = item.oracle(output)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            miss = f"oracle cannot read the output: {exc!r}"
        if miss is not None:
            self._fail("oracle", item, miss)
            return clock.raw, clock.cal
        digest = item.digest(output)
        # suites at a fresh seed have no recorded digest: they must repeat the first pass
        expected = self.recorded.get(item.name) or self.first_seen.setdefault(item.name, digest)
        if digest != expected:
            self._fail("digest", item, f"{digest[:16]} != recorded {expected[:16]}")
        return clock.raw, clock.cal

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def reference_s(repeats: int = 5) -> float:
    """The host's current speed: best time of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Times calls and calibrates them to the reference speed, piecewise.

    While `time()` runs a call, SIGALRM fires every SAMPLE_PERIOD_S and the
    handler times the reference loop.  Each stretch between two speed samples
    is rescaled by REFERENCE_LOOP_S over the mean loop time at its ends; the
    handler's own time is left out of both the raw and the calibrated time.
    """

    def __init__(self):
        self.speed = reference_s()
        self.raw = self.cal = 0.0

    def _close(self, end: float, speed: float) -> None:
        stretch = end - self._start
        self.raw += stretch
        self.cal += stretch * REFERENCE_LOOP_S / ((self.speed + speed) / 2)
        self.speed = speed

    def _sample(self, _signum, _frame) -> None:
        now = time.perf_counter()
        speed = reference_s(repeats=3)
        self._close(now, speed)
        self._start = time.perf_counter()

    def time(self, fn):
        """Return fn(); leave its raw and calibrated seconds in .raw and .cal."""
        self.raw = self.cal = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            self._close(end, reference_s())


def run_pass(items, gate: Gate, clock: HostSpeed, item_times: dict | None = None) -> tuple[float, float]:
    """Run every item once; return the pass's (raw, calibrated) seconds."""
    raw = cal = 0.0
    for item in items:
        item_raw, item_cal = gate.attempt(item, clock)
        if item_times is not None:
            item_times.setdefault(item.name, []).append(item_raw)
        raw += item_raw
        cal += item_cal
    return raw, cal


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def write_spans(path: str, spans: list) -> None:
    """A header line naming the spans, then one line per span id:
    [parent id (-1 at the root), name index, start s, end s]."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    names = sorted({name for _, name, _, _ in spans})
    index = {name: i for i, name in enumerate(names)}
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"names": names}) + "\n")
        for parent, name, start, end in spans:
            out.write(json.dumps([parent, index[name], start, end]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--mode", choices=["setup", "run", "trace", "digests", "faults"], required=True)
    parser.add_argument("--seed", type=int, default=0, help="orders each pass's items")
    parser.add_argument("--suite-seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    clock = HostSpeed()
    if args.mode == "faults":
        sys.path.insert(0, SRC)
        import workloads

        cases = {}
        for name, items, faulty in workloads.fault_cases():
            gate = Gate(load_digests())
            run_pass(items, gate, clock)
            cases[name] = {"faulty": faulty, "attempted": gate.attempted, "failed": gate.failed}
        print(json.dumps({"cases": cases}))
        return 0

    def set_up():
        sys.path.insert(0, SRC)
        import workloads  # imports profcalc

        return workloads, workloads.build(args.workload, args.suite_seed)

    workloads, items = clock.time(set_up)
    result: dict = {"setup_s": clock.cal, "setup_raw_s": clock.raw}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "digests":
        digests = {}
        for item in items:
            output = item.run()
            miss = item.oracle(output)
            if miss is not None:
                raise SystemExit(f"{item.name}: {miss}")
            digests[item.name] = item.digest(output)
        print(json.dumps(digests, indent=2, sort_keys=True))
        return 0

    gate = Gate(load_digests())
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, layer_metrics

        tracer = Tracer(extra_modules=[workloads])
    rng = random.Random(args.seed)
    plain: list[tuple[float, float]] = []  # (raw, calibrated) seconds per pass
    traced: list[tuple[float, float]] = []
    layer_passes = []
    item_times: dict[str, list[float]] = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        order = rng.sample(items, len(items))
        if tracer is not None and len(traced) < len(plain):
            layer_passes.append(tracer.new_pass())
            tracer.install()
            try:
                traced.append(run_pass(order, gate, clock))
            finally:
                tracer.uninstall()
            upcoming = plain[-1][0]
        else:
            plain.append(run_pass(order, gate, clock, item_times))
            upcoming = (traced or plain)[-1][0]
        # stop before a pass that would end past the deadline (each kind runs at least once)
        if time.perf_counter() + upcoming > deadline and (tracer is None or traced):
            break

    result.update(
        walls=[cal for _, cal in plain],
        walls_raw=[raw for raw, _ in plain],
        item_times=item_times,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.failures,
        messages=gate.messages,
    )
    if tracer is not None:
        result["layers"] = layer_metrics(
            layer_passes, [cal for _, cal in traced], [cal for _, cal in plain]
        )
        write_spans(
            os.path.join(os.path.dirname(HERE), ".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl"),
            layer_passes[0].spans,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
