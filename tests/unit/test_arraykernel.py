"""Unit tests for the struct-of-arrays trial executor.

The broad random equivalence argument lives in
``tests/property/test_prop_kernel_differential.py``; here are the pinned
edge cases that exercise specific arraykernel code paths — the one AD
offer loop (kernel-built or caller-supplied algorithm alike), the single
CE step shared with the object kernel, the per-link send loop under
adversarial faults (burst-loss chains, duplication), the high-water
catch-up replay, per-link model state on a reused config, the compiled condition closure, the
tracer dispatch (off / counters / full), and the kernel-knob plumbing
itself.
"""

import pytest

from repro.components.system import SystemConfig, run_system
from repro.core.condition import (
    ExpressionCondition,
    PredicateCondition,
    c2,
    c3,
    cm,
    compile_condition,
)
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.displayers.registry import make_ad
from repro.faults.model import (
    DelaySpikeSchedule,
    DuplicationAdversary,
    GilbertElliottLoss,
    GilbertElliottParams,
)
from repro.membership import MembershipConfig
from repro.observability import (
    CountersTracer,
    MemoryTracer,
    ReasonCountersTracer,
    TraceEvent,
)
from repro.simulation import arraykernel
from repro.simulation.arraykernel import run_system_array
from repro.simulation.failures import CrashSchedule
from repro.simulation.network import PerLinkSkewDelay
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import rising_runs, threshold_crossers

_RUN_FIELDS = (
    "sent", "sent_log", "received", "ce_alerts", "ad_arrivals",
    "ad_arrival_times", "displayed", "filtered", "missed_while_down",
    "dm_suppressed",
)


def _workload(seed: int, n: int = 20, variables: tuple[str, ...] = ("x",)):
    streams = RandomStreams(seed)
    generators = {"x": rising_runs, "y": threshold_crossers}
    return {
        var: generators[var](streams.stream(f"workload/{var}"), n)
        for var in variables
    }


def _assert_kernels_agree(condition, workload, make_config, seed, **kwargs):
    object_run = run_system(
        condition, workload, make_config(), seed=seed, kernel="object",
        **kwargs,
    )
    array_run = run_system(
        condition, workload, make_config(), seed=seed, kernel="array",
        **kwargs,
    )
    for field in _RUN_FIELDS:
        assert getattr(object_run, field) == getattr(array_run, field), field
    return object_run, array_run


def test_unknown_kernel_is_rejected():
    with pytest.raises(ValueError, match="unknown kernel"):
        run_system(
            c2(), _workload(0), SystemConfig(replication=1), kernel="turbo"
        )


def test_replication_one_and_three():
    for replication in (1, 3):
        _assert_kernels_agree(
            c3(),
            _workload(11),
            lambda replication=replication: SystemConfig(
                replication=replication, ad_algorithm="AD-4", front_loss=0.3
            ),
            seed=11,
        )


@pytest.mark.parametrize("name", ["AD-5", "pass"])
def test_caller_supplied_algorithm_runs_like_a_kernel_built_one(name):
    """Both kernels decide every arrival's key on the ADAlgorithm object,
    so an instance the caller supplies and one the kernel builds from the
    config give field-identical runs on either kernel — and the caller's
    instance ends in the decision state the object kernel leaves it in.
    Neither fills its ``output``: only ``offer`` keeps alerts, and the
    run's displayed sequence is ``RunResult.displayed``."""
    condition = cm()
    workload = _workload(5, n=10, variables=("x", "y"))
    config = SystemConfig(replication=2, front_loss=0.3, ad_algorithm=name)
    runs, supplied = [], []
    for kernel in ("object", "array"):
        runs.append(
            run_system(condition, workload, config, seed=5, kernel=kernel)
        )
        algorithm = make_ad(name, condition)
        supplied.append(algorithm)
        runs.append(
            run_system(
                condition, workload, config,
                seed=5, algorithm=algorithm, kernel=kernel,
            )
        )
    for run in runs[1:]:
        for field in _RUN_FIELDS:
            assert getattr(run, field) == getattr(runs[0], field), field
    assert runs[0].displayed
    assert bool(runs[0].filtered) == (name == "AD-5")
    object_algorithm, array_algorithm = supplied
    assert vars(array_algorithm) == vars(object_algorithm)
    assert object_algorithm.output == array_algorithm.output == ()


def _churn_config():
    return SystemConfig(
        replication=2,
        ad_algorithm="AD-2",
        front_loss=0.3,
        crash_schedules={0: CrashSchedule(windows=((30.0, 80.0),))},
        membership=MembershipConfig(detection_timeout=4.0, catchup_latency=2.0),
    )


def test_every_ce_step_is_one_evaluator_ingest(monkeypatch):
    """The array kernel has no CE step of its own: whatever a CE
    incorporates — live deliveries and catch-up replay alike — went through
    ``ConditionEvaluator.step`` (which the object kernel's ``ingest``
    wraps) exactly once, whether the condition renders to a lambda or
    not, and the run still equals the object kernel's."""
    ingested = []
    step = ConditionEvaluator.step

    def counting(self, update):
        ingested.append(update)
        return step(self, update)

    opaque = PredicateCondition(
        "hot", {"x": 1}, lambda h: h["x"][0].value > 1050.0
    )

    def lossy():
        return SystemConfig(replication=2, ad_algorithm="AD-5", front_loss=0.3)

    for condition in (c2(), opaque):
        for make_config in (lossy, _churn_config):
            with monkeypatch.context() as patch:
                patch.setattr(ConditionEvaluator, "step", counting)
                del ingested[:]
                array_run = run_system(
                    condition, _workload(7), make_config(), seed=7,
                    kernel="array",
                )
                assert len(ingested) == sum(map(len, array_run.received)) > 0
            if make_config is _churn_config:
                assert sum(array_run.caught_up) > 0  # replay did happen
            object_run = run_system(
                condition, _workload(7), make_config(), seed=7,
                kernel="object",
            )
            for field in _RUN_FIELDS + ("caught_up",):
                assert getattr(object_run, field) == getattr(array_run, field), field


def test_adversarial_faults_take_the_per_link_send_loop():
    """Gilbert-Elliott loss (one chain per link) and duplication run in
    the same per-link send loop as Bernoulli loss, with the copies'
    ranks interleaved exactly as the object kernel schedules them; CE
    and DM crash windows ride along."""
    def make_config():
        return SystemConfig(
            replication=2,
            ad_algorithm="AD-4",
            front_loss_model=GilbertElliottLoss(
                GilbertElliottParams(0.2, 0.4, 0.05, 0.7)
            ),
            front_duplication=DuplicationAdversary(
                duplicate_prob=0.3, max_copies=2
            ),
            crash_schedules={0: CrashSchedule(windows=((30.0, 80.0),))},
            dm_crash_schedules={"x": CrashSchedule(windows=((90.0, 120.0),))},
        )

    _assert_kernels_agree(c2(), _workload(13), make_config, seed=13)


def _interleaved_workload():
    """x reads every 0.7 units and y every 9, so at any instant their
    seqnos — and a recovering CE's high-water marks — sit far apart in
    the merged log; z is read but no condition watches it."""
    return {
        "x": [(0.7 * i, 1000.0 + 40.0 * (i % 7)) for i in range(300)],
        "y": [(9.0 * i, 900.0 + 55.0 * (i % 5)) for i in range(24)],
        "z": [(4.0 * i, 0.0) for i in range(50)],
    }


@pytest.mark.parametrize("source", ["log", "peer", "peer-then-log"])
def test_high_water_catchup_matches_the_object_kernels_full_replay(source):
    """The array kernel starts a catch-up replay at the high-water mark;
    the object kernel filters the whole log or peer history.  Over
    multi-variable churn — a CE that has seen nothing when it recovers,
    a recovery aborted by the next crash, recoveries with no usable
    peer, lossy links — both must replay the same updates: equal
    RunResults, caught-up and replayed tallies."""
    def make_config():
        return SystemConfig(
            replication=3,
            ad_algorithm="AD-6",
            front_loss=0.3,
            front_loss_per_ce={1: 0.7},
            front_outages={2: CrashSchedule(windows=((0.0, 40.0),))},
            crash_schedules={
                0: CrashSchedule(windows=((30.0, 70.0), (72.0, 90.0))),
                1: CrashSchedule(windows=((60.0, 100.0), (140.0, 180.0))),
                2: CrashSchedule(windows=((20.0, 50.0), (85.0, 95.0))),
            },
            membership=MembershipConfig(
                detection_timeout=4.0, catchup_latency=4.0,
                catchup_source=source,
            ),
        )

    condition, workload = cm(), _interleaved_workload()
    counters = {}
    runs = {}
    for kernel in ("object", "array"):
        tracer = CountersTracer()
        runs[kernel] = run_system(
            condition, workload, make_config(), seed=3, tracer=tracer,
            kernel=kernel,
        )
        counters[kernel] = tracer.as_dict()
    for field in _RUN_FIELDS + ("caught_up",):
        assert getattr(runs["array"], field) == getattr(runs["object"], field), field
    assert counters["array"] == counters["object"]
    tallies = {
        kind: sum(n for key, n in counters["array"].items()
                  if key.startswith(f"membership/{kind}/"))
        for kind in ("catchup-ingest", "replay-buffered", "buffered")
    }
    assert tallies["catchup-ingest"] == sum(runs["array"].caught_up) > 0
    assert tallies["buffered"] > 0
    assert any(event.aborted for event in runs["array"].membership.recoveries)
    sources = {event.source.split(":")[0]
               for event in runs["array"].membership.recoveries}
    assert sources == {"log": {"log"}, "peer": {"peer", "none"},
                       "peer-then-log": {"peer", "log"}}[source]


def _reusable_faulted_config():
    """Every model that keeps per-link state: skewed delays on both
    link directions and a burst-loss chain, plus duplication and a
    crash window."""
    return SystemConfig(
        replication=2,
        ad_algorithm="AD-4",
        front_delay=PerLinkSkewDelay(),
        back_delay=PerLinkSkewDelay((0.0, 10.0), (0.05, 1.5)),
        front_loss_model=GilbertElliottLoss(
            GilbertElliottParams(0.2, 0.4, 0.05, 0.7)
        ),
        front_duplication=DuplicationAdversary(duplicate_prob=0.3, max_copies=2),
        crash_schedules={0: CrashSchedule(windows=((30.0, 80.0),))},
    )


@pytest.mark.parametrize("kernel", ["object", "array"])
def test_a_reused_config_reruns_identically(kernel):
    """Per-link model state lives on the run, never on the config: one
    config run three times — with other runs of it, on both kernels, in
    between — gives one RunResult, the one a fresh config gives."""
    condition, workload = c2(), _workload(29)
    config = _reusable_faulted_config()
    runs = []
    for other in range(3):
        runs.append(
            run_system(condition, workload, config, seed=29, kernel=kernel)
        )
        for other_kernel in ("object", "array"):
            run_system(
                condition, _workload(40 + other), config, seed=40 + other,
                kernel=other_kernel,
            )
    assert runs[0] == runs[1] == runs[2]
    fresh = run_system(
        condition, workload, _reusable_faulted_config(), seed=29,
        kernel="array" if kernel == "object" else "object",
    )
    for field in _RUN_FIELDS:
        assert getattr(runs[0], field) == getattr(fresh, field), field


class _ThirdPartyTracer:
    """Knows nothing of ``order_free``: must be treated as ordered."""

    def __init__(self):
        self.lines = []

    def emit(self, time, stage, kind, node, **data):
        self.lines.append(TraceEvent(time, stage, kind, node, data).json_line())


def test_ordered_tracers_get_the_object_kernels_run_and_stream():
    """The array kernel has no ordered event stream, so any tracer that
    does not declare itself order-free is served by the object kernel:
    same RunResult, same ``repro.trace/1`` lines."""
    condition, workload = c2(), _workload(17)
    oracle = MemoryTracer()
    object_run = run_system(
        condition, workload, _churn_config(), seed=17, tracer=oracle,
        kernel="object",
    )
    assert any(event.stage == "membership" for event in oracle.events)

    def lines_on_array(tracer, lines_of):
        array_run = run_system(
            condition, workload, _churn_config(), seed=17, tracer=tracer,
            kernel="array",
        )
        for field in _RUN_FIELDS:
            assert getattr(object_run, field) == getattr(array_run, field), field
        return lines_of(tracer)

    expected = oracle.event_lines()
    assert lines_on_array(MemoryTracer(), MemoryTracer.event_lines) == expected
    assert lines_on_array(_ThirdPartyTracer(), lambda t: t.lines) == expected


@pytest.mark.parametrize("tracer_type", [CountersTracer, ReasonCountersTracer])
def test_counting_tracers_never_build_the_object_kernel(monkeypatch, tracer_type):
    """Order-free tracers are served by the phase core: identical
    counters (no zero-valued keys), and no MonitoringSystem behind them."""
    condition, workload = c2(), _workload(17)
    oracle = tracer_type()
    run_system(
        condition, workload, _churn_config(), seed=17, tracer=oracle,
        kernel="object",
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("a counting tracer fell back to the object kernel")

    monkeypatch.setattr(arraykernel, "MonitoringSystem", forbidden)
    counted = tracer_type()
    run_system(
        condition, workload, _churn_config(), seed=17, tracer=counted,
        kernel="array",
    )
    assert counted.as_dict() == oracle.as_dict()
    assert all(counted.counts.values())
    with pytest.raises(AssertionError, match="fell back"):
        run_system(
            condition, workload, _churn_config(), seed=17,
            tracer=MemoryTracer(), kernel="array",
        )


def _every_surface_config():
    """Membership on, and one of every planned fault: each kind of
    time-0 surface event occurs (some in several windows or on several
    nodes), the adaptive AD rejects for more than one reason."""
    return SystemConfig(
        replication=3,
        ad_algorithm="adaptive",
        front_loss_model=GilbertElliottLoss(
            GilbertElliottParams(0.2, 0.4, 0.05, 0.7)
        ),
        front_duplication=DuplicationAdversary(duplicate_prob=0.3, max_copies=2),
        crash_schedules={
            0: CrashSchedule(windows=((30.0, 80.0), (120.0, 121.0))),
            2: CrashSchedule(windows=((60.0, 100.0),)),
        },
        dm_crash_schedules={"x": CrashSchedule(windows=((150.0, 160.0),))},
        ad_crash_schedule=CrashSchedule(windows=((40.0, 55.0),)),
        front_outages={1: CrashSchedule(windows=((10.0, 25.0),))},
        back_outages={0: CrashSchedule(windows=((85.0, 95.0),))},
        front_delay_spikes=DelaySpikeSchedule(((20.0, 40.0), (90.0, 110.0)), 3.0),
        back_delay_spikes=DelaySpikeSchedule(((0.0, 200.0),), 2.0),
        membership=MembershipConfig(detection_timeout=1.0, catchup_latency=2.0),
    )


@pytest.mark.parametrize("tracer_type", [CountersTracer, ReasonCountersTracer])
def test_the_counted_surface_is_the_emitted_surface(tracer_type):
    """The array kernel counts the planned surface a group at a time and
    the object kernel emits it an event at a time, from one description:
    the counters must agree key for key, every surface kind included."""
    condition, workload = c2(), _workload(23, n=40)
    counters = {}
    for kernel in ("object", "array"):
        tracer = tracer_type()
        run_system(
            condition, workload, _every_surface_config(), seed=23,
            tracer=tracer, kernel=kernel,
        )
        counters[kernel] = tracer.as_dict()
    assert counters["array"] == counters["object"]
    surface = {
        key.rsplit("/", 1)[0] for key in counters["array"]
        if key.startswith(("fault/", "membership/"))
    }
    assert surface >= {
        "fault/ce-crash-window", "fault/dm-crash-window",
        "fault/ad-crash-window", "fault/front-outage-window",
        "fault/back-outage-window", "fault/burst-loss", "fault/duplication",
        "fault/delay-spike-window", "membership/config",
        "membership/heartbeat", "membership/suspect", "membership/detection",
        "membership/recovery-plan", "membership/below-quorum",
    }
    assert counters["array"]["fault/ce-crash-window/CE1"] == 2
    assert counters["array"]["fault/delay-spike-window/front"] == 2


def test_compiled_closure_matches_condition_evaluate():
    condition = ExpressionCondition(
        "risen", (H.x[0].value - H.x[-1].value > 120.0), conservative=True
    )
    closure = compile_condition(condition)
    run = run_system_array(
        condition,
        _workload(3),
        SystemConfig(replication=1, front_loss=0.3),
        seed=3,
    )
    # Replay every CE decision through the closure on the received
    # history suffixes: each generated alert corresponds to a True.
    assert run.ce_alerts  # the workload must actually trigger alerts
    for stream, alerts in zip(run.received, run.ce_alerts):
        fired = 0
        history: list = []
        for update in stream:
            history.insert(0, update)
            if len(history) >= 2 and closure(history[:2]):
                fired += 1
        assert fired == len(alerts)


def test_old_trace_headers_without_kernel_field_still_replay():
    """Traces recorded before the kernel knob existed have no ``kernel``
    key in their header; they must deserialize (to the array default)
    and replay bit-identically."""
    from repro.engine.spec import TrialSpec
    from repro.observability import record_trial, replay_trace

    trace = record_trial(TrialSpec("single", "conservative", "AD-3", 9, 8))
    stripped_spec = dict(trace.spec)
    assert stripped_spec.pop("kernel") == "array"
    legacy_trace = type(trace)(
        spec=stripped_spec, events=trace.events, metrics=trace.metrics
    )
    result = replay_trace(legacy_trace)
    assert result.identical, result.describe()
