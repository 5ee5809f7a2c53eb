#!/usr/bin/env python3
"""Stock alerts: the introduction's "sharp price drop" confusion, replayed.

Section 1 motivates the whole paper with this scenario: a monitoring
system reports "sharp price drops" (a quote more than 20% below the
previous one).  Quotes 100, 50, 52 are sent; CE1 sees all three and
alerts on the 100→50 drop; CE2 misses the 50 and alerts on the "drop"
100→52.  The alerts are not duplicates — the user thinks the price
dropped sharply twice.

This script replays that exact trace, then shows AD-2 and AD-4 cleaning
up the user's view, and finally runs a randomized market to measure how
often the confusion occurs.

Run:  python examples/stock_alerts.py
"""

from repro import SystemConfig, parse_trace, run_system, sharp_price_drop
from repro.core.evaluator import ConditionEvaluator
from repro.displayers import AD1, AD4
from repro.props.consistency import check_consistency_single
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import stock_quotes


def paper_trace() -> None:
    print("=== The paper's own trace: quotes 100, 50, 52 ===")
    condition = sharp_price_drop(0.2)

    ce1 = ConditionEvaluator(condition, source="CE1")
    a1_stream = ce1.ingest_all(parse_trace("1price(100), 2price(50), 3price(52)"))
    ce2 = ConditionEvaluator(condition, source="CE2")
    a2_stream = ce2.ingest_all(parse_trace("1price(100), 3price(52)"))

    print(f"CE1 (saw all quotes) alerts:   {[a.shorthand() for a in a1_stream]}")
    print(f"CE2 (missed the 50) alerts:    {[a.shorthand() for a in a2_stream]}")

    ad = AD1()
    displayed = ad.offer_all(a1_stream + a2_stream)
    print(f"AD-1 shows the user:           {[a.shorthand() for a in displayed]}")
    consistent = check_consistency_single([a.identity() for a in displayed], "price")
    print(f"consistent? {bool(consistent)} — {consistent.conflict}")
    print("The user believes there were TWO sharp drops. There was one.\n")

    ad4 = AD4("price")
    displayed4 = ad4.offer_all(a1_stream + a2_stream)
    print(f"AD-4 instead shows:            {[a.shorthand() for a in displayed4]}")
    print("One drop reported; the conflicting retelling is filtered.\n")


def randomized_market() -> None:
    print("=== Randomized market: how often does the confusion bite? ===")
    condition = sharp_price_drop(0.2, varname="price")
    streams = RandomStreams(99)
    inconsistent_runs = 0
    trials = 150
    for trial in range(trials):
        workload = {
            "price": stock_quotes(streams.spawn(f"t{trial}").stream("w"), 30)
        }
        config = SystemConfig(replication=2, ad_algorithm="AD-1", front_loss=0.25)
        result = run_system(condition, workload, config, seed=trial)
        if not result.evaluate_properties().consistent:
            inconsistent_runs += 1
    print(
        f"{inconsistent_runs}/{trials} runs showed the user an alert set no "
        "single quote stream could explain (25% quote loss, 2 CEs, AD-1)."
    )

    fixed = 0
    for trial in range(trials):
        workload = {
            "price": stock_quotes(streams.spawn(f"t{trial}").stream("w"), 30)
        }
        config = SystemConfig(replication=2, ad_algorithm="AD-4", front_loss=0.25)
        result = run_system(condition, workload, config, seed=trial)
        if not result.evaluate_properties().consistent:
            fixed += 1
    print(f"{fixed}/{trials} inconsistent runs remain under AD-4 "
          "(Theorem 9 says this must be 0).")


def main() -> None:
    paper_trace()
    randomized_market()


if __name__ == "__main__":
    main()
