"""Coverage for smaller paths: report internals, timeline multi-variable
rendering, registry errors, delayed-AD accounting, and __init__ surfaces."""

import pytest

from repro.analysis.repro_report import ReproductionReport, SectionResult
from repro.components.system import SystemConfig, run_system
from repro.core.condition import cm
from repro.core.wire import minimum_encoding
from repro.observability import MemoryTracer, render_timeline


class TestReproReportRendering:
    def test_failed_section_marks_fail(self):
        report = ReproductionReport(
            sections=[
                SectionResult("good", True, "fine", 0.1),
                SectionResult("bad", False, "broken", 0.2),
            ]
        )
        assert not report.passed
        text = report.to_markdown()
        assert "## good — PASS" in text
        assert "## bad — FAIL" in text
        assert "**FAIL**" in text
        assert "(1/2" in text

    def test_empty_report_passes_vacuously(self):
        assert ReproductionReport().passed


class TestTimelineMultiVariable:
    def test_two_dm_lanes(self):
        workload = {
            "x": [(0.0, 1000.0), (10.0, 1200.0)],
            "y": [(0.0, 1150.0), (10.0, 1100.0)],
        }
        config = SystemConfig(replication=2, front_loss=0.0, ad_algorithm="AD-5")
        tracer = MemoryTracer()
        run_system(cm(), workload, config, seed=2, tracer=tracer)
        text = render_timeline(tracer.events)
        assert "DM-x" in text
        assert "DM-y" in text
        # DMs start in variable-name order, so simultaneous readings do too.
        x_line = text.index("broadcast 1x")
        y_line = text.index("broadcast 1y")
        assert x_line < y_line


class TestPublicSurfaces:
    def test_top_level_all_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_all_importable(self):
        import repro.analysis
        import repro.core
        import repro.displayers
        import repro.multicondition
        import repro.props
        import repro.simulation
        import repro.workloads

        for module in (
            repro.analysis,
            repro.core,
            repro.displayers,
            repro.multicondition,
            repro.props,
            repro.simulation,
            repro.workloads,
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (
                    f"{module.__name__}.{name}"
                )

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestWireRegistryErrors:
    def test_minimum_encoding_covers_registry(self):
        from repro.displayers.registry import algorithm_names

        for name in algorithm_names():
            minimum_encoding(name)  # must not raise for any known algorithm


class TestDelayedAccounting:
    def test_duplicates_dropped_counter(self):
        from repro.displayers.delayed import DelayedDisplayAD
        from repro.simulation.kernel import Kernel
        from tests.conftest import alert_deg1

        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=1.0)
        for time, seqno in ((0.0, 1), (0.1, 1), (0.2, 2)):
            kernel.schedule_at(
                time, lambda s=seqno: ad.receive(alert_deg1(s))
            )
        kernel.run()
        ad.flush()
        assert ad.arrivals == 3
        assert len(ad.displayed) == 2
        assert ad.duplicates_dropped == 1


class TestEventImpulses:
    def test_bounds_and_values(self):
        import random

        from repro.workloads.generators import event_impulses

        readings = event_impulses(random.Random(1), 200, event_prob=0.25)
        values = {v for _, v in readings}
        assert values <= {0.0, 1.0}
        fired = sum(1 for _, v in readings if v == 1.0)
        assert 25 <= fired <= 80  # ~50 expected

    def test_prob_validation(self):
        import random

        from repro.workloads.generators import event_impulses

        with pytest.raises(ValueError):
            event_impulses(random.Random(1), 5, event_prob=1.5)
