//! A bounded (or unbounded) event buffer.
//!
//! Long simulations emit millions of records; observability must not
//! change the asymptotics of a run. [`RingBuffer`] therefore supports a
//! fixed capacity: once full, the oldest entries are dropped (and counted),
//! keeping memory constant while the most recent window stays inspectable —
//! the mode `tdbg` and long sweeps use.
//!
//! This buffer holds one entry per event and serves the flow-event sink
//! ([`crate::ObsSink`]). The cycle trace keeps the same contract —
//! sequence numbers, capacity, `dropped` and `missed` — but counts them in
//! *units* while storing *runs*, so it carries its own ring
//! ([`crate::Trace`]): eviction there trims the front of a run and a
//! cursor may point into one. [`Drained`] is the result type of both.
//!
//! Every entry also carries an implicit monotonic **sequence number**: the
//! first entry ever pushed is seq 0, and eviction never renumbers. A
//! streaming subscriber holds a cursor (the next seq it wants) and calls
//! [`RingBuffer::drain_from`] to pick up everything that arrived since —
//! including, when it fell behind a bounded buffer, an exact count of the
//! entries it missed ([`Drained::missed`]). This is the substrate of the
//! incremental NDJSON export (`crate::stream`).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Result of one cursor drain: the entries with sequence numbers in
/// `[cursor, next_seq)` that were still retained, the advanced cursor, and
/// how many requested entries had already been evicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drained<T> {
    /// The drained entries, oldest first.
    pub items: Vec<T>,
    /// The cursor to pass to the next drain (= the buffer's `next_seq`).
    pub cursor: u64,
    /// Entries in `[old cursor, next_seq)` that were evicted before this
    /// drain could see them (0 when the subscriber kept up).
    pub missed: u64,
}

/// FIFO buffer with optional capacity; overflow drops the oldest entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingBuffer<T> {
    items: VecDeque<T>,
    capacity: Option<usize>,
    dropped: u64,
    /// Total entries ever pushed; the next entry's sequence number.
    pushed: u64,
}

// Manual impl: the derive would needlessly require `T: Default`.
impl<T> Default for RingBuffer<T> {
    fn default() -> RingBuffer<T> {
        RingBuffer::unbounded()
    }
}

impl<T> RingBuffer<T> {
    /// An unbounded buffer.
    pub fn unbounded() -> RingBuffer<T> {
        RingBuffer {
            items: VecDeque::new(),
            capacity: None,
            dropped: 0,
            pushed: 0,
        }
    }

    /// A buffer keeping at most `capacity` entries (the most recent ones).
    pub fn bounded(capacity: usize) -> RingBuffer<T> {
        assert!(capacity > 0, "ring buffer needs at least one slot");
        RingBuffer {
            items: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            dropped: 0,
            pushed: 0,
        }
    }

    /// Appends an entry, evicting the oldest when at capacity.
    pub fn push(&mut self, item: T) {
        if let Some(cap) = self.capacity {
            if self.items.len() == cap {
                self.items.pop_front();
                self.dropped += 1;
            }
        }
        self.items.push_back(item);
        self.pushed += 1;
    }

    /// Sequence number the *next* pushed entry will get (= total entries
    /// ever pushed). A subscriber that wants only future entries starts
    /// its cursor here.
    pub fn next_seq(&self) -> u64 {
        self.pushed
    }

    /// Sequence number of the oldest entry still retained (= `next_seq`
    /// when the buffer is empty). Everything before it is gone for good.
    pub fn first_seq(&self) -> u64 {
        self.pushed - self.items.len() as u64
    }

    /// Entries currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries evicted by overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes all entries (the dropped count is kept).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<T: Clone> RingBuffer<T> {
    /// The retained window as a vector, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.items.iter().cloned().collect()
    }

    /// Drains every entry with sequence number ≥ `cursor`, non-destructively
    /// (the buffer keeps its window; the *subscriber* owns the cursor).
    ///
    /// When `cursor` has fallen behind `first_seq` — the bounded buffer
    /// evicted entries the subscriber never saw — the gap is reported in
    /// [`Drained::missed`] and the drain resumes at the oldest retained
    /// entry. Concatenating the `items` of successive drains therefore
    /// reconstructs the exact push sequence whenever `missed` stays 0
    /// (the cursor/drain property test in `tests/` pins this down).
    pub fn drain_from(&self, cursor: u64) -> Drained<T> {
        let (items, cursor, missed) = self.view_from(cursor);
        Drained {
            items: items.cloned().collect(),
            cursor,
            missed,
        }
    }
}

impl<T> RingBuffer<T> {
    /// The borrowing form of [`drain_from`](RingBuffer::drain_from):
    /// `(retained entries ≥ cursor, next cursor, missed)` with no clone
    /// and no allocation — what the streaming NDJSON encoder walks.
    pub fn view_from(&self, cursor: u64) -> (impl Iterator<Item = &T> + '_, u64, u64) {
        let first = self.first_seq();
        let missed = first.saturating_sub(cursor);
        let skip = cursor.saturating_sub(first) as usize;
        (self.items.iter().skip(skip), self.pushed, missed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_keeps_everything() {
        let mut r = RingBuffer::unbounded();
        for i in 0..100 {
            r.push(i);
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.snapshot()[0], 0);
    }

    #[test]
    fn bounded_drops_oldest() {
        let mut r = RingBuffer::bounded(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.snapshot(), vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.capacity(), Some(3));
    }

    #[test]
    fn clear_keeps_dropped_count() {
        let mut r = RingBuffer::bounded(1);
        r.push(1);
        r.push(2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn sequence_numbers_survive_eviction() {
        let mut r = RingBuffer::bounded(2);
        assert_eq!((r.first_seq(), r.next_seq()), (0, 0));
        for i in 0..5 {
            r.push(i);
        }
        // Entries 0..=2 were evicted; 3 and 4 remain as seqs 3 and 4.
        assert_eq!((r.first_seq(), r.next_seq()), (3, 5));
        r.clear();
        assert_eq!((r.first_seq(), r.next_seq()), (5, 5));
    }

    #[test]
    fn drain_from_is_incremental() {
        let mut r = RingBuffer::unbounded();
        r.push(10);
        r.push(11);
        let d = r.drain_from(0);
        assert_eq!((d.items.clone(), d.cursor, d.missed), (vec![10, 11], 2, 0));
        r.push(12);
        let d = r.drain_from(d.cursor);
        assert_eq!((d.items.clone(), d.cursor, d.missed), (vec![12], 3, 0));
        // Nothing new: empty drain, cursor stands still.
        let d = r.drain_from(d.cursor);
        assert!(d.items.is_empty());
        assert_eq!((d.cursor, d.missed), (3, 0));
    }

    #[test]
    fn drain_from_reports_missed_entries() {
        let mut r = RingBuffer::bounded(2);
        for i in 0..6 {
            r.push(i);
        }
        // Cursor 1 wants seqs 1..6, but only 4 and 5 survive: 3 missed.
        let d = r.drain_from(1);
        assert_eq!((d.items.clone(), d.cursor, d.missed), (vec![4, 5], 6, 3));
    }

    #[test]
    fn drain_from_mid_window_skips_seen_entries() {
        let mut r = RingBuffer::bounded(4);
        for i in 0..6 {
            r.push(i);
        }
        // Window holds seqs 2..6; a cursor inside it drains the tail only.
        let d = r.drain_from(4);
        assert_eq!((d.items.clone(), d.cursor, d.missed), (vec![4, 5], 6, 0));
    }
}
