#!/usr/bin/env python3
"""Debugging tour: witness a violation, minimize it, read the timeline.

The paper proves its ✗ cells with tiny hand-crafted counterexamples.
This example shows the tooling that recovers such counterexamples from
*live* runs automatically:

1. run randomized replicated systems until one violates consistency;
2. shrink the violating run's inputs with delta-debugging until it is as
   small as the paper's own Theorem-4 example;
3. record the (pre-shrink) run's ``repro.trace/1`` event stream and draw
   it as a lane timeline, to see the failure unfold in simulated time.

Run:  python examples/debugging_violations.py
"""

from repro.analysis.witness import counterexample_from_run, shrink_counterexample
from repro.displayers.registry import make_ad
from repro.engine.spec import TrialSpec
from repro.observability import record_trial, render_timeline
from repro.workloads.scenarios import SINGLE_VARIABLE_SCENARIOS


def main() -> None:
    scenario = SINGLE_VARIABLE_SCENARIOS["aggressive"]
    condition = scenario.make_condition()

    # 1. Hunt for a consistency violation.
    print("hunting for a consistency violation (c2, 30% loss, AD-1) ...")
    found = None
    for seed in range(300):
        run = TrialSpec("single", "aggressive", "AD-1", seed, 20).run()
        counterexample = counterexample_from_run(run)
        if counterexample is not None and counterexample.violation == "consistent":
            found = (seed, run, counterexample)
            break
    assert found is not None, "no violation in 300 seeds (unexpected)"
    seed, run, counterexample = found
    print(f"found at seed {seed}: {counterexample.total_updates} updates, "
          f"{len(run.displayed)} displayed alerts\n")

    # 2. Shrink it to paper size.
    shrunk = shrink_counterexample(
        counterexample, lambda: make_ad("AD-1", condition)
    )
    print("minimized counterexample (compare the paper's Theorem 4):")
    print(shrunk.describe())
    print(f"(shrunk {counterexample.total_updates} -> "
          f"{shrunk.total_updates} updates)\n")

    # 3. Record the original run's trace and draw it with exact timestamps.
    print(f"timeline of the original violating run (seed {seed}):")
    trace = record_trial(TrialSpec("single", "aggressive", "AD-1", seed, 20))
    print(render_timeline(trace.events, max_rows=30))


if __name__ == "__main__":
    main()
