import math

import pytest

from tracekit.core import EventId
from tracekit.errors import InvalidSpec
from tracekit.synth import (
    GeneratorSpec,
    PeriodicMessage,
    RareMessage,
    TriggeredMessage,
    generate_trace,
)


def periodic(*entries):
    return tuple(PeriodicMessage(EventId(i), p, j) for i, p, j in entries)


class TestValidation:
    def test_needs_periodic(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(periodic=(), duration=1.0)

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(periodic=periodic(("A", 0.0, 0.0)), duration=1.0)

    def test_rejects_jitter_out_of_range(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(periodic=periodic(("A", 0.1, 0.5)), duration=1.0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(
                periodic=periodic(("A", 0.1, 0.0), ("A", 0.2, 0.0)), duration=1.0
            )

    def test_rejects_unknown_trigger(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(
                periodic=periodic(("A", 0.1, 0.0)),
                triggered=(TriggeredMessage(EventId("T"), EventId("Z"), 0.5, 0.01),),
                duration=1.0,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name", ["duration", "period", "jitter", "probability", "delay", "rate"])
    def test_rejects_non_finite_values(self, name, bad):
        # Built, never generated: a trace from such a spec may never end.
        v = dict(duration=1.0, period=0.1, jitter=0.0, probability=0.5, delay=0.01, rate=1.0)
        v[name] = bad
        with pytest.raises(InvalidSpec):
            GeneratorSpec(
                periodic=periodic(("A", v["period"], v["jitter"])),
                triggered=(TriggeredMessage(EventId("T"), EventId("A"), v["probability"],
                                            v["delay"]),),
                rare=(RareMessage(EventId("R"), v["rate"]),),
                duration=v["duration"],
            )


class TestPeriodic:
    def test_single_periodic_schedule(self):
        spec = GeneratorSpec(periodic=periodic(("P", 0.01, 0.0)), duration=0.05, seed=1)
        t = generate_trace(spec)
        assert t.id_column == ("P",) * 5
        assert t.time_column[0] == 0.0
        assert t.time_column[-1] == pytest.approx(0.04)

    def test_two_periodic_merge_pattern(self):
        # Hand-enumerated merge of two arithmetic progressions (0.01 and 0.02):
        # t=0: A,B; t=.01: A; t=.02: A,B; ... repeating A,B,A.
        spec = GeneratorSpec(
            periodic=periodic(("A", 0.01, 0.0), ("B", 0.02, 0.0)), duration=0.06, seed=1
        )
        ids = list(generate_trace(spec).id_column)
        assert ids == ["A", "B", "A", "A", "B", "A", "A", "B", "A"]

    def test_tie_break_by_declaration_order(self):
        spec = GeneratorSpec(
            periodic=periodic(("Z", 0.01, 0.0), ("A", 0.01, 0.0)), duration=0.03, seed=1
        )
        ids = list(generate_trace(spec).id_column)
        assert ids == ["Z", "A", "Z", "A", "Z", "A"]

    def test_determinism_under_seed(self):
        spec = dict(
            periodic=periodic(("A", 0.01, 0.3), ("B", 0.025, 0.2)),
            triggered=(TriggeredMessage(EventId("T"), EventId("B"), 0.5, 0.002),),
            rare=(RareMessage(EventId("R"), 5.0),),
            duration=0.5,
        )
        a = generate_trace(GeneratorSpec(seed=9, **spec))
        b = generate_trace(GeneratorSpec(seed=9, **spec))
        c = generate_trace(GeneratorSpec(seed=10, **spec))
        assert a == b
        assert a != c

    def test_jitter_keeps_periodic_skeleton_anchored(self):
        # Jitter never moves an emission by more than half its period, so
        # per-id event counts match the jitter-free schedule.
        clean = generate_trace(
            GeneratorSpec(periodic=periodic(("A", 0.01, 0.0)), duration=0.5, seed=3)
        )
        noisy = generate_trace(
            GeneratorSpec(periodic=periodic(("A", 0.01, 0.4)), duration=0.5, seed=3)
        )
        assert abs(len(noisy) - len(clean)) <= 1  # at most one boundary emission


class TestTriggered:
    def test_probability_one_always_fires(self):
        spec = GeneratorSpec(
            periodic=periodic(("A", 0.01, 0.0)),
            triggered=(TriggeredMessage(EventId("T"), EventId("A"), 1.0, 0.001),),
            duration=0.05,
            seed=2,
        )
        ids = list(generate_trace(spec).id_column)
        assert ids == ["A", "T"] * 5

    def test_chained_triggers(self):
        spec = GeneratorSpec(
            periodic=periodic(("A", 0.01, 0.0)),
            triggered=(
                TriggeredMessage(EventId("T1"), EventId("A"), 1.0, 0.001),
                TriggeredMessage(EventId("T2"), EventId("T1"), 1.0, 0.001),
            ),
            duration=0.03,
            seed=2,
        )
        ids = list(generate_trace(spec).id_column)
        assert ids == ["A", "T1", "T2"] * 3

    def test_timestamps_non_decreasing(self):
        spec = GeneratorSpec(
            periodic=periodic(("A", 0.01, 0.3), ("B", 0.03, 0.2)),
            triggered=(TriggeredMessage(EventId("T"), EventId("A"), 0.7, 0.005),),
            rare=(RareMessage(EventId("R"), 10.0),),
            duration=1.0,
            seed=5,
        )
        times = generate_trace(spec).time_column
        assert all(a <= b for a, b in zip(times, times[1:]))


class TestRare:
    def test_rare_count_scales_with_rate(self):
        base = GeneratorSpec(periodic=periodic(("A", 0.001, 0.0)), duration=1.0, seed=4)
        n_base = len(generate_trace(base))
        spec = GeneratorSpec(
            periodic=periodic(("A", 0.001, 0.0)),
            rare=(RareMessage(EventId("R"), 2.0),),
            duration=1.0,
            seed=4,
        )
        t = generate_trace(spec)
        n_rare = t.id_column.count("R")
        assert n_rare == round(2.0 * n_base / 1000.0)
