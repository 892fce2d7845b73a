"""SessionManager: coalescing, admission, and journal kill-resume.

The kill-resume test is the PR's acceptance contract at the manager
layer: abandon a journaled manager mid-stream without any goodbye (the
journal is fsync'd per entry, so this is what SIGKILL leaves behind),
resume a fresh manager from the same journal, finish the stream, and
the per-tenant scorecard and model bytes must equal an uninterrupted
twin's exactly.
"""

import threading

import numpy as np
import pytest

import repro.adapt.session as session_module
from repro.resilience.journal import scan_journal
from repro.serve.manager import AdmissionError, SessionManager, TenantSpec

from tests.test_serve.conftest import (
    assert_states_identical,
    make_batches,
    poison,
    strip_timing,
)


def spec_for(tenant, **overrides):
    base = dict(tenant=tenant, model="wrn40_2", method="bn_norm",
                batch_size=8, guard=False, queue_capacity=2,
                image_size=16, seed=3)
    base.update(overrides)
    return TenantSpec(**base)


@pytest.fixture
def manager():
    instance = SessionManager()
    yield instance
    instance.close()


class TestSpec:
    def test_fingerprint_is_stable_and_spec_sensitive(self):
        assert spec_for("a").fingerprint() == spec_for("a").fingerprint()
        assert spec_for("a").fingerprint() != \
            spec_for("a", seed=4).fingerprint()

    @pytest.mark.parametrize("tenant,overrides", [
        ("", {}), ("t", {"batch_size": 0}), ("t", {"queue_capacity": -1}),
    ])
    def test_invalid_specs_rejected(self, tenant, overrides):
        with pytest.raises(ValueError):
            spec_for(tenant, **overrides)


class TestLifecycle:
    def test_open_ingest_close(self, manager):
        manager.open_tenant(spec_for("cam0"))
        images, labels = make_batches(1, batch_size=8)[0]
        ack = manager.ingest("cam0", images, labels)
        assert ack["accepted"] == 8 and ack["batches_done"] == 1
        card = manager.close_tenant("cam0")
        assert card.tenant == "cam0" and card.frames_processed == 8
        assert manager.tenants() == []

    def test_partial_chunks_coalesce_into_batches(self, manager):
        manager.open_tenant(spec_for("cam0"))
        images, labels = make_batches(1, batch_size=20)[0]
        # 20 frames, batch_size 8: two batches run, 4 frames stay queued
        ack = manager.ingest("cam0", images, labels)
        assert ack == dict(accepted=20, dropped=0, batches_done=2,
                           rollbacks=0, degraded_batches=0,
                           fallback_frames=0, duplicate=False)
        ack = manager.ingest("cam0", images[:4], labels[:4])
        assert ack["batches_done"] == 3

    def test_admission_drops_past_capacity(self, manager):
        manager.open_tenant(spec_for("cam0", queue_capacity=0))
        # capacity = (0 + 1) * 8 = 8 buffered frames
        images, labels = make_batches(1, batch_size=20)[0]
        ack = manager.ingest("cam0", images, labels)
        assert ack["accepted"] == 8 and ack["dropped"] == 12
        card = manager.scorecard("cam0")
        assert card.frames_dropped == 12
        assert card.frames_total == card.frames_processed + 12

    def test_max_tenants_enforced(self):
        manager = SessionManager(max_tenants=1)
        try:
            manager.open_tenant(spec_for("cam0"))
            with pytest.raises(AdmissionError, match="limit"):
                manager.open_tenant(spec_for("cam1"))
        finally:
            manager.close()

    def test_reopen_live_tenant_reattaches(self, manager):
        manager.open_tenant(spec_for("cam0"))
        images, labels = make_batches(1, batch_size=8)[0]
        manager.ingest("cam0", images, labels)
        opened = manager.open_tenant(spec_for("cam0"))
        assert opened == {"resumed": True, "batches_done": 1,
                          "chunk": -1}

    def test_reopen_live_tenant_with_other_spec_refused(self, manager):
        manager.open_tenant(spec_for("cam0"))
        with pytest.raises(AdmissionError, match="different"):
            manager.open_tenant(spec_for("cam0", seed=9))

    def test_unknown_tenant_refused(self, manager):
        with pytest.raises(AdmissionError, match="unknown"):
            manager.ingest("ghost", np.zeros((1, 3, 16, 16)), np.zeros(1))

    def test_faults_tally_onto_scorecard(self, manager):
        manager.open_tenant(spec_for("cam0"))
        images, labels = make_batches(1, batch_size=8)[0]
        manager.ingest("cam0", images, labels, faults=3)
        assert manager.scorecard("cam0").faults_injected == 3


class TestConsistentReads:
    """Readers take the tenant lock, so a batch is counted whole or not."""

    @pytest.fixture
    def held_batch(self, manager, monkeypatch):
        """One batch held in its scoring step: ``batches_total`` already
        counts it, ``frames_processed`` does not yet."""
        scoring, release = threading.Event(), threading.Event()

        class BlockingScoring:
            def __getattr__(self, name):
                return getattr(np, name)

            def nan_to_num(self, *args, **kwargs):
                scoring.set()
                release.wait(10)
                return np.nan_to_num(*args, **kwargs)

        manager.open_tenant(spec_for("cam0"))
        monkeypatch.setattr(session_module, "np", BlockingScoring())
        images, labels = make_batches(1, batch_size=8)[0]
        ingest = threading.Thread(target=manager.ingest,
                                  args=("cam0", images, labels), daemon=True)
        ingest.start()
        assert scoring.wait(10)
        yield release
        release.set()
        ingest.join(10)
        assert not ingest.is_alive()

    def read_while_held(self, release, read):
        seen = {}
        reader = threading.Thread(target=lambda: seen.update(read=read()),
                                  daemon=True)
        reader.start()
        reader.join(0.5)          # an unlocked read returns here, torn
        blocked = reader.is_alive()
        release.set()
        reader.join(10)
        assert not reader.is_alive()
        return blocked, seen["read"]

    def test_status_waits_for_the_batch(self, manager, held_batch):
        blocked, status = self.read_while_held(held_batch, manager.status)
        row = status["tenants"]["cam0"]
        assert (row["batches_done"], row["frames_processed"]) == (1, 8)
        assert row["pending_frames"] == 0
        assert blocked

    def test_scorecard_waits_for_the_batch(self, manager, held_batch):
        blocked, card = self.read_while_held(
            held_batch, lambda: manager.scorecard("cam0"))
        assert (card.batches_total, card.frames_processed) == (1, 8)
        assert blocked


class TestJournalResume:
    def _chunks(self):
        # guarded bn_opt with a fault before and after the kill point
        return poison(make_batches(10, batch_size=8, seed=11), {2, 7})

    def _feed(self, manager, tenant, chunks, faults_at=(2, 7)):
        for index, (images, labels) in enumerate(chunks):
            manager.ingest(tenant, images, labels,
                           faults=1 if index in faults_at else 0)

    def _spec(self):
        return spec_for("cam0", method="bn_opt", guard=True)

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        chunks = self._chunks()

        twin = SessionManager()
        twin.open_tenant(self._spec())
        self._feed(twin, "cam0", chunks)
        twin_state = twin.session("cam0").model.state_dict()
        twin_card = twin.scorecard("cam0")
        assert twin_card.rollbacks >= 1      # the faults actually bit

        journal = str(tmp_path / "serve.jsonl")
        first = SessionManager(journal=journal)
        first.open_tenant(self._spec())
        self._feed(first, "cam0", chunks[:5])
        # SIGKILL: no close_tenant, no close — the journal already has
        # every per-batch checkpoint fsync'd
        del first

        second = SessionManager(journal=journal, resume=True)
        try:
            opened = second.open_tenant(self._spec())
            assert opened == {"resumed": True, "batches_done": 5,
                              "chunk": -1}
            self._feed(second, "cam0", chunks[5:],
                       faults_at={2})        # chunk index 7 is now 2
            assert strip_timing(second.scorecard("cam0")) == \
                strip_timing(twin_card)
            assert_states_identical(twin_state,
                                    second.session("cam0").model.state_dict())
        finally:
            second.close()
        twin.close()

    def test_resume_under_changed_spec_refused(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        first = SessionManager(journal=journal)
        first.open_tenant(self._spec())
        self._feed(first, "cam0", self._chunks()[:2], faults_at=())
        del first

        second = SessionManager(journal=journal, resume=True)
        try:
            with pytest.raises(AdmissionError, match="different spec"):
                second.open_tenant(spec_for("cam0", method="bn_opt",
                                            guard=True, seed=99))
        finally:
            second.close()

    def test_closed_tenant_does_not_resume(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        first = SessionManager(journal=journal)
        first.open_tenant(self._spec())
        self._feed(first, "cam0", self._chunks()[:2], faults_at=())
        first.close_tenant("cam0")
        del first

        second = SessionManager(journal=journal, resume=True)
        try:
            opened = second.open_tenant(self._spec())
            assert opened == {"resumed": False, "batches_done": 0,
                              "chunk": -1}
        finally:
            second.close()

    def test_journal_records_serve_events(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        manager = SessionManager(journal=journal)
        manager.open_tenant(self._spec())
        self._feed(manager, "cam0", self._chunks()[:2], faults_at=())
        manager.close_tenant("cam0")
        manager.close()

        events = [entry["event"] for entry in scan_journal(journal).entries]
        assert events[0] == "serve_start"
        assert events.count("tenant_open") == 1
        assert events.count("tenant_checkpoint") == 2
        assert events[-1] == "tenant_close"

    def test_checkpoint_every_thins_journal(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        manager = SessionManager(journal=journal, checkpoint_every=3)
        manager.open_tenant(self._spec())
        self._feed(manager, "cam0", self._chunks()[:6], faults_at=())
        manager.close()

        events = [entry["event"] for entry in scan_journal(journal).entries]
        assert events.count("tenant_checkpoint") == 2    # batches 3 and 6
