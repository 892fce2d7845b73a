"""Fault layer: spec parsing, seeded schedules, per-fault semantics."""

import numpy as np
import pytest

from repro.core import streaming
from repro.robustness.faults import (
    FAULT_NAMES,
    POISONING_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    apply_fault,
    parse_fault_specs,
)
from repro.adapt.guard import LADDER


@pytest.fixture
def batch(rng):
    images = rng.random((16, 3, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 10, size=16)
    return images, labels


def fault_rng(seed=0):
    return np.random.default_rng(seed)


class TestSpecParsing:
    def test_rate_form(self):
        spec = FaultSpec.parse("nan:0.2")
        assert spec.fault == "nan" and spec.rate == 0.2 and spec.at == ()

    def test_index_form(self):
        spec = FaultSpec.parse("constant@3")
        assert spec.fault == "constant" and spec.at == (3,) and spec.rate == 0.0

    def test_multi_index_form(self):
        assert FaultSpec.parse("inf@2+5").at == (2, 5)

    def test_bare_name_means_every_batch(self):
        assert FaultSpec.parse("wrong_range").rate == 1.0

    def test_whitespace_tolerated(self):
        assert FaultSpec.parse("  nan:0.5 ").fault == "nan"

    def test_comma_list(self):
        specs = parse_fault_specs("nan:0.1, constant@3")
        assert [s.fault for s in specs] == ["nan", "constant"]

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultSpec.parse("cosmic_ray:0.1")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(fault="nan", rate=1.5)

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError, match="indices"):
            FaultSpec.parse("nan@x")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_fault_specs("  ,  ")


class TestSchedule:
    def test_same_seed_same_plan(self):
        specs = parse_fault_specs("nan:0.3,inf:0.1")
        a = FaultSchedule(specs, seed=7).plan(200)
        b = FaultSchedule(specs, seed=7).plan(200)
        assert a == b and a   # deterministic and non-empty at these rates

    def test_different_seed_different_plan(self):
        specs = parse_fault_specs("nan:0.3")
        assert (FaultSchedule(specs, seed=1).plan(200)
                != FaultSchedule(specs, seed=2).plan(200))

    def test_explicit_indices_always_fire(self):
        plan = FaultSchedule(parse_fault_specs("constant@3+17"), seed=0).plan(20)
        assert plan == {3: "constant", 17: "constant"}

    def test_rate_one_fires_every_batch(self):
        plan = FaultSchedule(parse_fault_specs("nan"), seed=0).plan(10)
        assert plan == {i: "nan" for i in range(10)}

    def test_explicit_wins_over_rate(self):
        specs = parse_fault_specs("constant@2,nan")
        assert FaultSchedule(specs, seed=0).plan(4)[2] == "constant"

    def test_out_of_order_queries_match_plan(self):
        """Memoized draws: querying index 50 first must not shift the
        realization of earlier indices."""
        specs = parse_fault_specs("nan:0.4")
        ordered = FaultSchedule(specs, seed=5)
        shuffled = FaultSchedule(specs, seed=5)
        shuffled.fault_for(50)
        assert all(ordered.fault_for(i) == shuffled.fault_for(i)
                   for i in range(51))


class TestApplyFault:
    def test_nan_pixels(self, batch):
        images, labels = batch
        out, out_labels = apply_fault(images, labels, "nan", fault_rng())
        assert out.shape == images.shape and out.dtype == images.dtype
        assert np.isnan(out).any() and not np.isnan(out).all()
        np.testing.assert_array_equal(out_labels, labels)

    def test_inf_pixels_both_signs(self, batch):
        images, labels = batch
        out, _ = apply_fault(images, labels, "inf", fault_rng())
        assert np.isposinf(out).any() and np.isneginf(out).any()

    def test_constant_batch_has_zero_variance(self, batch):
        images, labels = batch
        out, _ = apply_fault(images, labels, "constant", fault_rng())
        assert np.array_equal(out, np.full_like(out, out.flat[0]))
        assert 0.0 <= out.flat[0] <= 1.0
        assert out.shape == images.shape

    def test_wrong_range_scales_to_uint8_range(self, batch):
        images, labels = batch
        out, _ = apply_fault(images, labels, "wrong_range", fault_rng())
        np.testing.assert_allclose(out, images * 255.0, rtol=1e-6)

    def test_truncated_cuts_frames_and_labels_together(self, batch):
        images, labels = batch
        out, out_labels = apply_fault(images, labels, "truncated", fault_rng())
        assert len(out) == len(out_labels) == max(1, len(images) // 4)
        np.testing.assert_array_equal(out, images[:len(out)])

    def test_duplicated_repeats_first_frame(self, batch):
        images, labels = batch
        out, _ = apply_fault(images, labels, "duplicated", fault_rng())
        assert out.shape == images.shape
        assert np.array_equal(out, np.broadcast_to(out[0], out.shape))

    def test_unknown_fault_raises(self, batch):
        images, labels = batch
        with pytest.raises(ValueError):
            apply_fault(images, labels, "gamma_ray", fault_rng())

    def test_input_batch_never_mutated(self, batch):
        images, labels = batch
        before = images.copy()
        for fault in FAULT_NAMES:
            apply_fault(images, labels, fault, fault_rng())
        np.testing.assert_array_equal(images, before)


class TestInjector:
    def _batches(self, rng, n=10, size=8):
        for _ in range(n):
            yield (rng.random((size, 3, 8, 8)).astype(np.float32),
                   rng.integers(0, 10, size=size))

    def test_events_record_schedule(self, rng):
        injector = FaultInjector(parse_fault_specs("nan@1+4"), seed=0)
        list(injector.inject(self._batches(rng)))
        assert injector.events == [FaultEvent(1, "nan"), FaultEvent(4, "nan")]
        assert injector.faults_injected == 2
        assert injector.batches_seen == 10

    def test_clean_when_rate_zero(self, rng):
        injector = FaultInjector([FaultSpec(fault="nan", rate=0.0)], seed=0)
        list(injector.inject(self._batches(rng)))
        assert injector.faults_injected == 0

    def test_faulted_images_deterministic_across_runs(self):
        """Same seed => the realized fault noise is identical batch-for-
        batch, independent of the stream's own generator state."""
        specs = parse_fault_specs("nan:0.5")
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            injector = FaultInjector(specs, seed=3)
            runs.append([img for img, _ in
                         injector.inject(self._batches(rng, n=6))])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_clean_batches_pass_through_untouched(self, rng):
        batches = list(self._batches(rng, n=4))
        injector = FaultInjector(parse_fault_specs("constant@2"), seed=0)
        out = list(injector.inject(iter(batches)))
        for i in (0, 1, 3):
            assert out[i][0] is batches[i][0]


class TestCrossModuleContract:
    """core.streaming mirrors robustness constants as literals (to avoid
    a core -> robustness import); these keep the two in lock-step."""

    def test_poisoning_faults_match_streaming_copy(self):
        assert POISONING_FAULTS == streaming._POISONING_FAULT_NAMES

    def test_poisoning_faults_are_known_faults(self):
        assert POISONING_FAULTS <= set(FAULT_NAMES)

    def test_ladder_depth_matches_guard_ladder(self):
        assert set(streaming._LADDER_DEPTH) == set(LADDER)
        for name, depth in streaming._LADDER_DEPTH.items():
            assert depth == len(LADDER) - LADDER.index(name)
