#!/usr/bin/env python3
"""Multiple conditions (Appendix D): conflicts, demux, and disjunction.

Three demonstrations:

1. **Example 4** — two interdependent conditions monitored on separate
   nodes contradict each other with no replication at all.
2. **Figure D-7(c)** — a replicated multi-condition system where the AD
   runs one filter instance per condition stream, keeping each stream's
   single-condition guarantees.
3. **Figure D-8** — co-located conditions reduce to one combined
   condition C = A ∨ B.

Run:  python examples/multi_condition.py
"""

from repro import ExpressionCondition, H, SystemConfig, run_system
from repro.displayers import AD2
from repro.multicondition import DemuxAD, DisjunctionCondition, example_4
from repro.props.orderedness import check_orderedness


def demo_example_4() -> None:
    print("=== Example 4: contradiction without replication ===")
    alerts_a, alerts_b = example_4()
    print("Both reactors rise 2000 -> 2100; the two CEs see the changes "
          "in different orders.")
    print(f"condition A ('x hotter than y') alerted: "
          f"{[a.shorthand() for a in alerts_a]}")
    print(f"condition B ('y hotter than x') alerted: "
          f"{[a.shorthand() for a in alerts_b]}")
    print("The user is told both that x > y and that y > x.\n")


def demo_per_condition_ad() -> None:
    print("=== Figure D-7(c): one AD, one filter instance per condition ===")
    hot = ExpressionCondition("hot", H.x[0].value > 3000)
    very_hot = ExpressionCondition("very_hot", H.x[0].value > 3200)
    workload = {"x": [(t * 10.0, 2900.0 + (t % 8) * 60.0) for t in range(30)]}
    config = SystemConfig(replication=2, ad_algorithm="pass", front_loss=0.3)

    arrivals = []
    for condition in (hot, very_hot):
        result = run_system(condition, workload, config, seed=17)
        arrivals.extend(result.ad_arrivals)

    demux = DemuxAD({"hot": AD2("x"), "very_hot": AD2("x")})
    demux.offer_all(arrivals)
    for name in ("hot", "very_hot"):
        stream = list(demux.stream_output(name))
        print(f"  stream {name!r}: {len(stream)} alerts, ordered="
              f"{bool(check_orderedness([a.identity() for a in stream], ['x']))}")
    print("Each stream gets AD-2's orderedness guarantee independently.\n")


def demo_disjunction() -> None:
    print("=== Figure D-8: co-located conditions as C = A OR B ===")
    too_hot = ExpressionCondition("A", H.x[0].value > 3000)
    too_cold = ExpressionCondition("B", H.x[0].value < 2600)
    out_of_band = DisjunctionCondition("C", [too_hot, too_cold])
    workload = {"x": [(t * 10.0, 2500.0 + (t % 7) * 120.0) for t in range(20)]}
    config = SystemConfig(replication=1, ad_algorithm="pass")

    result = run_system(out_of_band, workload, config, seed=3)
    print(f"combined condition C fired on seqnos: "
          f"{[a.seqno('x') for a in result.displayed]}")
    run_a = run_system(too_hot, workload, config, seed=3)
    run_b = run_system(too_cold, workload, config, seed=3)
    print(f"A alone: {[a.seqno('x') for a in run_a.displayed]}, "
          f"B alone: {[a.seqno('x') for a in run_b.displayed]}")
    print("C fires exactly on the union — the two-condition system reduces "
          "to a single-condition one, and all of Sections 3-4 applies.")


def main() -> None:
    demo_example_4()
    demo_per_condition_ad()
    demo_disjunction()


if __name__ == "__main__":
    main()
