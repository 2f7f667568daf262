//! Satellite property: cursor-based incremental drains are a faithful
//! decomposition of the batch export. A subscriber that drains a
//! [`RingBuffer`] at arbitrary intervals sees, per drain, exactly the
//! retained suffix of the push sequence past its cursor — and when the
//! buffer is bounded and the subscriber falls behind, the reported
//! `missed` count accounts for every evicted entry, so
//! `drained + missed == pushed` always, and with no drops the
//! concatenated drains reconstruct the batch-export sequence byte for
//! byte.
//!
//! The trace keeps the same contract with its records stored as runs:
//! sequence numbers, cursors, `missed` and the capacity count *units*, so
//! a cursor may land inside a stored run, and the tail run may have grown
//! since the last drain. A drain then yields the rest of that run.

use proptest::prelude::*;

use tcf_obs::{RingBuffer, Trace, TraceEvent, UnitKind};

/// Pushes `0..total` (the item *is* its sequence number) into a buffer of
/// the given capacity, draining after each batch in `batches`; checks
/// every drain against the reference push sequence and returns the
/// concatenated drains plus the total missed count.
fn run_drains(capacity: Option<usize>, batches: &[usize]) -> (Vec<u64>, u64) {
    let mut ring = match capacity {
        Some(cap) => RingBuffer::bounded(cap),
        None => RingBuffer::unbounded(),
    };
    let mut next = 0u64;
    let mut cursor = 0u64;
    let mut collected: Vec<u64> = Vec::new();
    let mut missed_total = 0u64;
    for &batch in batches {
        for _ in 0..batch {
            ring.push(next);
            next += 1;
        }
        let d = ring.drain_from(cursor);
        // The drain resumes precisely `missed` entries past the cursor
        // and runs to the end of the push sequence.
        let resume = cursor + d.missed;
        let expect: Vec<u64> = (resume..next).collect();
        assert_eq!(d.items, expect, "drain window mismatch");
        assert_eq!(d.cursor, next, "cursor must advance to next_seq");
        assert_eq!(
            d.missed,
            ring.first_seq().saturating_sub(cursor),
            "missed must equal the evicted gap"
        );
        collected.extend(&d.items);
        missed_total += d.missed;
        cursor = d.cursor;
    }
    assert_eq!(
        collected.len() as u64 + missed_total,
        next,
        "every pushed entry is either drained or reported missed"
    );
    (collected, missed_total)
}

/// Unit `i` of the trace the run-shaped drains are checked on: one
/// compute unit a cycle on thread `i`, so consecutive units merge into
/// one run — except that every `run_len`-th unit skips a cycle and starts
/// the next run.
fn trace_unit(i: u64, run_len: u64) -> TraceEvent {
    TraceEvent::unit(
        i + i / run_len,
        0,
        Some(1),
        Some(i as usize),
        UnitKind::Compute,
    )
}

/// [`run_drains`] on a [`Trace`]: pushes units `0..total`, draining after
/// each batch, and checks the units of every drain against the push
/// sequence. Batches and `run_len` are independent, so cursors land
/// inside runs and the tail run grows between drains.
fn run_trace_drains(capacity: Option<usize>, run_len: u64, batches: &[usize]) -> (u64, u64) {
    let mut trace = capacity.map_or_else(Trace::recording, Trace::ring);
    let (mut next, mut cursor) = (0u64, 0u64);
    let (mut drained, mut missed_total) = (0u64, 0u64);
    for &batch in batches {
        for _ in 0..batch {
            trace.push(trace_unit(next, run_len));
            next += 1;
        }
        let first_seq = next - trace.len();
        let d = trace.drain_from(cursor);
        assert_eq!(d.missed, first_seq.saturating_sub(cursor), "missed");
        assert_eq!(d.cursor, next, "cursor must advance to next_seq");
        let got: Vec<TraceEvent> = d.items.iter().flat_map(TraceEvent::units).collect();
        let expect: Vec<TraceEvent> = (cursor + d.missed..next)
            .map(|i| trace_unit(i, run_len))
            .collect();
        assert_eq!(got, expect, "drain window mismatch");
        // Runs, not units: a drain yields no more items than the runs it
        // touches.
        let runs_touched = expect.len() as u64 / run_len + 2;
        assert!(d.items.len() as u64 <= runs_touched, "drain expanded runs");
        drained += got.len() as u64;
        missed_total += d.missed;
        cursor = d.cursor;
    }
    assert_eq!(drained + missed_total, next);
    assert_eq!(trace.dropped(), next - trace.len());
    (drained, missed_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The trace, unbounded: drains that start inside a run and find the
    /// tail run longer than they left it still concatenate to the push
    /// sequence.
    #[test]
    fn trace_drains_resume_inside_runs(
        run_len in 1u64..9,
        batches in prop::collection::vec(0usize..12, 1..10)
    ) {
        let total: usize = batches.iter().sum();
        let (drained, missed) = run_trace_drains(None, run_len, &batches);
        prop_assert_eq!((drained, missed), (total as u64, 0));
    }

    /// The trace as a ring: capacity and `missed` count units, wherever
    /// the run boundaries fall.
    #[test]
    fn trace_ring_drops_are_accounted_in_units(
        cap in 1usize..8,
        run_len in 1u64..9,
        batches in prop::collection::vec(0usize..24, 1..10)
    ) {
        let (_, missed) = run_trace_drains(Some(cap), run_len, &batches);
        let expect_missed: u64 = batches
            .iter()
            .map(|&b| b.saturating_sub(cap) as u64)
            .sum();
        prop_assert_eq!(missed, expect_missed);
    }

    /// Unbounded buffer: incremental drains concatenate to exactly the
    /// batch-export sequence, nothing ever missed.
    #[test]
    fn unbounded_drains_reconstruct_batch(
        batches in prop::collection::vec(0usize..12, 1..10)
    ) {
        let total: usize = batches.iter().sum();
        let (collected, missed) = run_drains(None, &batches);
        prop_assert_eq!(missed, 0);
        prop_assert_eq!(collected, (0..total as u64).collect::<Vec<_>>());
    }

    /// Bounded buffer, subscriber keeping up (every drain interval fits
    /// the capacity): still a perfect reconstruction, even though the
    /// buffer itself evicted entries between drains of earlier windows.
    #[test]
    fn keeping_up_with_bounded_ring_loses_nothing(
        cap in 1usize..16,
        rounds in 1usize..12
    ) {
        let batches = vec![cap; rounds];
        let (collected, missed) = run_drains(Some(cap), &batches);
        prop_assert_eq!(missed, 0);
        prop_assert_eq!(collected, (0..(cap * rounds) as u64).collect::<Vec<_>>());
    }

    /// Bounded buffer with forced drops (intervals may exceed capacity):
    /// the per-drain invariants checked inside `run_drains` hold, and the
    /// missed totals account exactly for the entries that cannot appear.
    #[test]
    fn forced_drops_are_accounted_exactly(
        cap in 1usize..8,
        batches in prop::collection::vec(0usize..24, 1..10)
    ) {
        let total: usize = batches.iter().sum();
        let (collected, missed) = run_drains(Some(cap), &batches);
        prop_assert_eq!(collected.len() as u64 + missed, total as u64);
        // Drops happen exactly when a batch overflows the capacity.
        let expect_missed: u64 = batches
            .iter()
            .map(|&b| b.saturating_sub(cap) as u64)
            .sum();
        prop_assert_eq!(missed, expect_missed);
    }
}
