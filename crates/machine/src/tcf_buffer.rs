//! The TCF storage buffer of an extended PRAM-NUMA processor.
//!
//! §3.3 of the paper: *"there needs to be a `T_p`-element storage block,
//! e.g. ring buffer or addressable register file that contains the TCF
//! information, e.g. thickness and mode as well as a pointer to the next
//! yet not executed operation in the case of the balanced variant."*
//!
//! Switching between flows resident in the buffer is **free** — this is
//! what makes multitasking cheap in the extended model (Table 1's
//! task-switch row: 0 for the TCF variants versus `O(T_p)` for thread
//! machines). A flow that is *not* resident must be loaded first, paying
//! `load_cost` cycles and evicting the least-recently-used resident flow,
//! which produces the capacity knee measured by the `tcf_buffer_sweep`
//! bench.
//!
//! The host pays for that free switch once per flow per group per step,
//! so the store is built like the hardware block it stands for: fixed
//! slots a descriptor never moves between, recency as links between the
//! slots, and a table bounded by the capacity to find a flow's slot — a
//! hit or a miss costs the same few memory touches at 1 slot or 64 (see
//! [`TcfBuffer`] and `docs/PERFORMANCE.md`).

use serde::{Deserialize, Serialize};
use tcf_obs::LatencyHistogram;

use crate::trace::FlowTag;

/// Execution mode of a flow descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowMode {
    /// Data-parallel: one instruction = `thickness` identical operations.
    Pram,
    /// Sequential bunch: thickness `1/numa_slots`, one step = that many
    /// consecutive instructions of one stream.
    Numa,
}

/// One flow's descriptor as held by the TCF buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowDesc {
    /// Flow identifier.
    pub id: FlowTag,
    /// PRAM-mode thickness (number of implicit threads). May be 0, in
    /// which case the flow executes nothing (paper §3.1).
    pub thickness: usize,
    /// NUMA bunch length `T` when `mode == Numa` (thickness `1/T`).
    pub numa_slots: usize,
    /// Mode.
    pub mode: FlowMode,
    /// Program counter.
    pub pc: usize,
    /// Next unexecuted operation within the current instruction — the
    /// Balanced variant's resume pointer (§3.2).
    pub next_op: usize,
}

impl FlowDesc {
    /// A PRAM-mode descriptor.
    pub fn pram(id: FlowTag, thickness: usize, pc: usize) -> FlowDesc {
        FlowDesc {
            id,
            thickness,
            numa_slots: 0,
            mode: FlowMode::Pram,
            pc,
            next_op: 0,
        }
    }

    /// A NUMA-mode descriptor of bunch length `slots`.
    pub fn numa(id: FlowTag, slots: usize, pc: usize) -> FlowDesc {
        FlowDesc {
            id,
            thickness: 1,
            numa_slots: slots,
            mode: FlowMode::Numa,
            pc,
            next_op: 0,
        }
    }
}

/// Null slot index of the LRU and free lists.
const NIL: u32 = u32::MAX;

/// One of the buffer's `capacity` descriptor slots.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Slot {
    /// The resident descriptor; `None` while the slot is free.
    desc: Option<FlowDesc>,
    /// Neighbour towards the least recently used end.
    prev: u32,
    /// Neighbour towards the most recently used end; the next free slot
    /// while this one is free.
    next: u32,
}

/// One cell of the id → slot table.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct IndexCell {
    id: FlowTag,
    /// Slot holding `id`'s descriptor, `NIL` for an empty cell.
    slot: u32,
}

/// Ring-buffer flow store with LRU replacement.
///
/// A descriptor stays in the slot it was loaded into until it is evicted
/// or removed. Recency is a doubly-linked list threaded through the slots
/// (`lru` end evicted first), and a linear-probing table of
/// `4 · capacity` cells (rounded up to a power of two) finds a flow's
/// slot, so a hit is a probe, a relink and an in-place refresh and a miss
/// is a probe, an unlink of the list head and two table edits: both O(1),
/// whatever the capacity. Memory is `capacity` slots plus the table —
/// about 80 bytes per slot, fixed at construction whatever ids the buffer
/// sees.
///
/// The simulator only ever calls [`activate`](TcfBuffer::activate) and
/// reads the counters: it picks the next flow from its own flow table and
/// never deallocates a descriptor. [`next_flow`](TcfBuffer::next_flow),
/// [`update`](TcfBuffer::update), [`get`](TcfBuffer::get) and
/// [`remove`](TcfBuffer::remove) model the rest of §3.3's storage block
/// for callers that drive a buffer directly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TcfBuffer {
    slots: Vec<Slot>,
    /// Open-addressed id → slot table; at most a quarter full, so a probe
    /// is nearly always one cell.
    index: Vec<IndexCell>,
    /// Least recently used slot: the eviction victim.
    lru: u32,
    /// Most recently used slot.
    mru: u32,
    /// Head of the free-slot list.
    free: u32,
    len: usize,
    load_cost: u64,
    /// Slot where [`next_flow`](TcfBuffer::next_flow) resumes.
    cursor: usize,
    /// Total switches served.
    pub switches: u64,
    /// Switches that required a descriptor load.
    pub misses: u64,
    /// Total overhead cycles paid for loads.
    pub overhead_cycles: u64,
    /// Distribution of per-activation reload costs (misses only).
    pub reload: LatencyHistogram,
}

impl TcfBuffer {
    /// A buffer holding up to `capacity` descriptors, paying `load_cost`
    /// cycles per non-resident activation.
    pub fn new(capacity: usize, load_cost: u64) -> TcfBuffer {
        assert!(capacity > 0, "TCF buffer needs at least one slot");
        assert!(
            capacity < NIL as usize,
            "TCF buffer of {capacity} slots is not addressable"
        );
        // Slots hand themselves out in index order: 0, 1, 2, ...
        let slots = (1..=capacity as u32)
            .map(|next| Slot {
                desc: None,
                prev: NIL,
                next: if next as usize == capacity { NIL } else { next },
            })
            .collect();
        let cells = (4 * capacity).next_power_of_two();
        TcfBuffer {
            slots,
            index: vec![IndexCell { id: 0, slot: NIL }; cells],
            lru: NIL,
            mru: NIL,
            free: 0,
            len: 0,
            load_cost,
            cursor: 0,
            switches: 0,
            misses: 0,
            overhead_cycles: 0,
            reload: LatencyHistogram::new(),
        }
    }

    /// Number of resident flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no flows are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffer capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether `id` is resident.
    pub fn is_resident(&self, id: FlowTag) -> bool {
        self.find(id).is_some()
    }

    /// Activates `desc`, returning the switch cost in cycles: 0 when the
    /// descriptor is already resident (the stored copy is refreshed), or
    /// `load_cost` when it must be brought in (evicting the LRU descriptor
    /// if the buffer is full). The returned descriptor position is always
    /// most-recently-used.
    pub fn activate(&mut self, desc: FlowDesc) -> u64 {
        self.switches += 1;
        if let Some(slot) = self.slot_of(desc.id) {
            self.slots[slot as usize].desc = Some(desc);
            if slot != self.mru {
                self.unlink(slot);
                self.link_mru(slot);
            }
            return 0;
        }
        self.misses += 1;
        self.overhead_cycles += self.load_cost;
        self.reload.record(self.load_cost);
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.slots[slot as usize].next;
            self.len += 1;
            slot
        } else {
            let victim = self.lru;
            let evicted = self.slots[victim as usize]
                .desc
                .expect("a full buffer's LRU slot is occupied");
            let cell = self.find(evicted.id).expect("resident flow is indexed");
            self.erase(cell);
            self.unlink(victim);
            victim
        };
        self.slots[slot as usize].desc = Some(desc);
        self.link_mru(slot);
        self.insert(desc.id, slot);
        self.load_cost
    }

    /// Updates a resident descriptor in place (no cost, no LRU effect).
    pub fn update(&mut self, desc: FlowDesc) -> bool {
        match self.slot_of(desc.id) {
            Some(slot) => {
                self.slots[slot as usize].desc = Some(desc);
                true
            }
            None => false,
        }
    }

    /// Gets a resident descriptor.
    pub fn get(&self, id: FlowTag) -> Option<&FlowDesc> {
        self.slots[self.slot_of(id)? as usize].desc.as_ref()
    }

    /// Removes a flow (it terminated or was deallocated). Its slot is the
    /// next one a load fills.
    pub fn remove(&mut self, id: FlowTag) -> Option<FlowDesc> {
        let cell = self.find(id)?;
        let slot = self.index[cell].slot;
        self.erase(cell);
        self.unlink(slot);
        let s = &mut self.slots[slot as usize];
        s.next = self.free;
        self.free = slot;
        self.len -= 1;
        s.desc.take()
    }

    /// Round-robin selection of the next flow with work (non-zero
    /// thickness or NUMA mode), mirroring the "fetch the next nonempty TCF
    /// from the TCF storage block" step of §3.3. Returns a copy; callers
    /// write back via [`update`](TcfBuffer::update). The rotation is over
    /// slots, which neither a hit nor an eviction reorders: a flow
    /// activated between two calls makes neither skip nor repeat one.
    pub fn next_flow(&mut self) -> Option<FlowDesc> {
        let n = self.slots.len();
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            let Some(d) = self.slots[idx].desc else {
                continue;
            };
            let runnable = match d.mode {
                FlowMode::Pram => d.thickness > 0,
                FlowMode::Numa => d.numa_slots > 0,
            };
            if runnable {
                self.cursor = (idx + 1) % n;
                return Some(d);
            }
        }
        None
    }

    /// Miss ratio over all activations.
    pub fn miss_ratio(&self) -> f64 {
        if self.switches == 0 {
            0.0
        } else {
            self.misses as f64 / self.switches as f64
        }
    }

    /// Cell where the probe sequence of `id` starts (Fibonacci hashing:
    /// consecutive ids, the common case, spread over the table).
    #[inline]
    fn home(&self, id: FlowTag) -> usize {
        let bits = self.index.len().trailing_zeros();
        // The table has at least two cells, so `bits >= 1`.
        (id.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize
    }

    /// The index cell holding `id`, if resident. The table is never more
    /// than a quarter full, so the probe ends at an empty cell.
    #[inline]
    fn find(&self, id: FlowTag) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut cell = self.home(id);
        loop {
            let c = self.index[cell];
            if c.slot == NIL {
                return None;
            }
            if c.id == id {
                return Some(cell);
            }
            cell = (cell + 1) & mask;
        }
    }

    /// The slot holding `id`'s descriptor, if resident.
    #[inline]
    fn slot_of(&self, id: FlowTag) -> Option<u32> {
        self.find(id).map(|cell| self.index[cell].slot)
    }

    /// Indexes `id` (not resident) at `slot`.
    fn insert(&mut self, id: FlowTag, slot: u32) {
        let mask = self.index.len() - 1;
        let mut cell = self.home(id);
        while self.index[cell].slot != NIL {
            cell = (cell + 1) & mask;
        }
        self.index[cell] = IndexCell { id, slot };
    }

    /// Empties index cell `hole`, moving later entries of its probe run
    /// back so that none is cut off from its home cell (no tombstones: the
    /// table never degrades however many ids pass through).
    fn erase(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let c = self.index[cell];
            if c.slot == NIL {
                break;
            }
            // `c` may move back to the hole only if that keeps it at or
            // after its home cell.
            let from_home = cell.wrapping_sub(self.home(c.id)) & mask;
            let from_hole = cell.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.index[hole] = c;
                hole = cell;
            }
        }
        self.index[hole].slot = NIL;
    }

    /// Takes `slot` out of the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.lru = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends `slot` (not in the list) at the most recently used end.
    #[inline]
    fn link_mru(&mut self, slot: u32) {
        let old = self.mru;
        let s = &mut self.slots[slot as usize];
        s.prev = old;
        s.next = NIL;
        match old {
            NIL => self.lru = slot,
            o => self.slots[o as usize].next = slot,
        }
        self.mru = slot;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn resident_switch_is_free() {
        let mut b = TcfBuffer::new(4, 10);
        assert_eq!(b.activate(FlowDesc::pram(1, 8, 0)), 10); // first load
        assert_eq!(b.activate(FlowDesc::pram(1, 8, 5)), 0); // resident
        assert_eq!(b.get(1).unwrap().pc, 5);
        assert_eq!(b.misses, 1);
        assert_eq!(b.switches, 2);
        assert_eq!(b.reload.count(), 1);
        assert_eq!(b.reload.max(), 10);
    }

    #[test]
    fn eviction_is_lru() {
        let mut b = TcfBuffer::new(2, 1);
        b.activate(FlowDesc::pram(1, 1, 0));
        b.activate(FlowDesc::pram(2, 1, 0));
        b.activate(FlowDesc::pram(1, 1, 0)); // refresh 1; 2 becomes LRU
        b.activate(FlowDesc::pram(3, 1, 0)); // evicts 2
        assert!(b.is_resident(1));
        assert!(!b.is_resident(2));
        assert!(b.is_resident(3));
    }

    #[test]
    fn over_capacity_working_set_thrashes() {
        let mut b = TcfBuffer::new(2, 5);
        let mut cost = 0;
        for round in 0..10 {
            for id in 0..3u32 {
                cost += b.activate(FlowDesc::pram(id, 1, round));
            }
        }
        // Working set 3 > capacity 2 with round-robin access: every
        // activation after warmup misses.
        assert_eq!(cost, 30 * 5);
        assert_eq!(b.miss_ratio(), 1.0);
    }

    #[test]
    fn within_capacity_working_set_is_free_after_warmup() {
        let mut b = TcfBuffer::new(4, 5);
        let mut cost = 0;
        for round in 0..10 {
            for id in 0..4u32 {
                cost += b.activate(FlowDesc::pram(id, 1, round));
            }
        }
        assert_eq!(cost, 4 * 5); // only the 4 cold loads
    }

    #[test]
    fn miss_ratio_knee_sits_exactly_at_capacity() {
        // The multitasking knee of the tcf_buffer_sweep bench, as a unit
        // property: round-robin over a working set of W flows through a
        // B-slot buffer is free after warmup for every W <= B, and misses
        // on *every* activation at W = B + 1 — the steady-state miss
        // ratio jumps from 0 to 1 with no intermediate regime.
        const B: usize = 8;
        const ROUNDS: u32 = 20;
        let steady = |w: u32| -> f64 {
            let mut b = TcfBuffer::new(B, 7);
            for id in 0..w {
                b.activate(FlowDesc::pram(id, 1, 0)); // warmup (cold loads)
            }
            let (warm_misses, warm_switches) = (b.misses, b.switches);
            for round in 1..=ROUNDS {
                for id in 0..w {
                    b.activate(FlowDesc::pram(id, 1, round as usize));
                }
            }
            (b.misses - warm_misses) as f64 / (b.switches - warm_switches) as f64
        };
        for w in 1..=B as u32 {
            assert_eq!(steady(w), 0.0, "working set {w} <= capacity must be free");
        }
        assert_eq!(
            steady(B as u32 + 1),
            1.0,
            "W = B + 1 must thrash on every switch"
        );
        // Overhead accounting at the knee: every steady-state activation
        // pays exactly load_cost.
        let w = B as u32 + 1;
        let mut b = TcfBuffer::new(B, 7);
        for round in 0..10 {
            for id in 0..w {
                b.activate(FlowDesc::pram(id, 1, round));
            }
        }
        assert_eq!(b.overhead_cycles, u64::from(10 * w) * 7);
        assert_eq!(b.reload.count(), u64::from(10 * w));
    }

    #[test]
    fn eviction_under_interleaved_refresh_keeps_hot_set() {
        // A hot flow refreshed between other activations must survive
        // arbitrarily many evictions of the cold rotation.
        let mut b = TcfBuffer::new(3, 2);
        b.activate(FlowDesc::pram(0, 1, 0)); // the hot flow
        let mut hot_cost = 0;
        for id in 1..20u32 {
            b.activate(FlowDesc::pram(id, 1, 0)); // cold stream
            hot_cost += b.activate(FlowDesc::pram(0, 1, 0)); // refresh hot
        }
        assert_eq!(hot_cost, 0, "refreshed hot flow must never reload");
        assert!(b.is_resident(0));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn next_flow_round_robins_and_skips_empty() {
        let mut b = TcfBuffer::new(4, 1);
        b.activate(FlowDesc::pram(1, 4, 0));
        b.activate(FlowDesc::pram(2, 0, 0)); // thickness 0: never selected
        b.activate(FlowDesc::pram(3, 2, 0));
        let picks: Vec<FlowTag> = (0..4).map(|_| b.next_flow().unwrap().id).collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
    }

    #[test]
    fn next_flow_is_not_disturbed_by_a_hit() {
        // The rotation used to index LRU order, which a hit reshuffles:
        // re-activating flow 1 moved flow 2 under the cursor's feet and
        // the next call returned 3.
        let mut b = TcfBuffer::new(4, 1);
        for id in 1..=3 {
            b.activate(FlowDesc::pram(id, 1, 0));
        }
        assert_eq!(b.next_flow().unwrap().id, 1);
        assert_eq!(b.activate(FlowDesc::pram(1, 1, 0)), 0);
        assert_eq!(b.next_flow().unwrap().id, 2);
        assert_eq!(b.next_flow().unwrap().id, 3);
    }

    #[test]
    fn next_flow_is_not_disturbed_by_an_eviction() {
        let mut b = TcfBuffer::new(3, 1);
        for id in 1..=3 {
            b.activate(FlowDesc::pram(id, 1, 0));
        }
        assert_eq!(b.next_flow().unwrap().id, 1);
        b.activate(FlowDesc::pram(4, 1, 0)); // evicts 1, takes its slot
        assert!(!b.is_resident(1));
        let picks: Vec<FlowTag> = (0..3).map(|_| b.next_flow().unwrap().id).collect();
        assert_eq!(picks, vec![2, 3, 4]);
    }

    #[test]
    fn next_flow_empty_buffer_none() {
        let mut b = TcfBuffer::new(2, 1);
        assert!(b.next_flow().is_none());
        b.activate(FlowDesc::pram(1, 0, 0));
        assert!(b.next_flow().is_none()); // resident but no work
    }

    #[test]
    fn remove_adjusts_cursor() {
        let mut b = TcfBuffer::new(4, 1);
        b.activate(FlowDesc::pram(1, 1, 0));
        b.activate(FlowDesc::pram(2, 1, 0));
        b.activate(FlowDesc::pram(3, 1, 0));
        assert_eq!(b.next_flow().unwrap().id, 1);
        assert_eq!(b.next_flow().unwrap().id, 2);
        b.remove(1);
        // Cursor stays on flow 3.
        assert_eq!(b.next_flow().unwrap().id, 3);
    }

    #[test]
    fn update_only_touches_resident() {
        let mut b = TcfBuffer::new(2, 1);
        b.activate(FlowDesc::pram(1, 1, 0));
        assert!(b.update(FlowDesc::pram(1, 9, 7)));
        assert_eq!(b.get(1).unwrap().thickness, 9);
        assert!(!b.update(FlowDesc::pram(42, 1, 0)));
    }

    #[test]
    fn numa_descriptor_runnable() {
        let mut b = TcfBuffer::new(2, 1);
        b.activate(FlowDesc::numa(5, 4, 0));
        let d = b.next_flow().unwrap();
        assert_eq!(d.mode, FlowMode::Numa);
        assert_eq!(d.numa_slots, 4);
    }

    /// The buffer as it was before the slots: resident descriptors in one
    /// `Vec`, least recently used first, searched and shifted on every
    /// activation. Kept as the reference the slot/list/table version is
    /// checked against.
    struct VecBuffer {
        resident: Vec<FlowDesc>,
        capacity: usize,
        load_cost: u64,
        switches: u64,
        misses: u64,
        overhead_cycles: u64,
        reload: LatencyHistogram,
    }

    impl VecBuffer {
        fn new(capacity: usize, load_cost: u64) -> VecBuffer {
            VecBuffer {
                resident: Vec::with_capacity(capacity),
                capacity,
                load_cost,
                switches: 0,
                misses: 0,
                overhead_cycles: 0,
                reload: LatencyHistogram::new(),
            }
        }

        fn activate(&mut self, desc: FlowDesc) -> u64 {
            self.switches += 1;
            if let Some(pos) = self.resident.iter().position(|d| d.id == desc.id) {
                self.resident.remove(pos);
                self.resident.push(desc);
                return 0;
            }
            self.misses += 1;
            self.overhead_cycles += self.load_cost;
            self.reload.record(self.load_cost);
            if self.resident.len() == self.capacity {
                self.resident.remove(0); // LRU is at the front
            }
            self.resident.push(desc);
            self.load_cost
        }
    }

    impl TcfBuffer {
        /// Resident descriptors, least recently used first.
        fn lru_order(&self) -> Vec<FlowDesc> {
            let mut order = Vec::with_capacity(self.len);
            let mut slot = self.lru;
            while slot != NIL {
                let s = &self.slots[slot as usize];
                order.push(s.desc.expect("listed slot is occupied"));
                slot = s.next;
            }
            order
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random activation streams: the buffer cannot be told from the
        /// `Vec` it replaced — cost of every call, counters, histogram,
        /// residency, and the whole LRU order after every call. Ids are
        /// drawn from a pool spread over the `u32` range, so a structure
        /// sized by the ids it has seen would not survive this test.
        #[test]
        fn buffer_matches_the_vec_it_replaced(
            capacity in prop::sample::select(vec![1usize, 2, 3, 16, 64]),
            // Working set as a share of capacity: below, at and above it.
            pool_pct in prop::sample::select(vec![50usize, 100, 125, 300]),
            stride in prop::sample::select(vec![1u32, 7, 1 << 16, 0x0100_0001]),
            picks in prop::collection::vec((any::<u32>(), any::<u32>()), 0..600),
        ) {
            let pool = (capacity * pool_pct / 100).max(1) as u32;
            // Pool member k, counted down from the largest usable id.
            let id_of = |k: u32| (u32::MAX - 1).wrapping_sub(k.wrapping_mul(stride));
            let mut model = VecBuffer::new(capacity, 11);
            let mut b = TcfBuffer::new(capacity, 11);
            let cells = b.index.len();
            for (step, &(pick, payload)) in picks.iter().enumerate() {
                let id = id_of(pick % pool);
                let desc = if payload % 4 == 0 {
                    FlowDesc::numa(id, payload as usize % 9, step)
                } else {
                    FlowDesc::pram(id, payload as usize % 1024, step)
                };
                prop_assert_eq!(b.activate(desc), model.activate(desc));
                prop_assert_eq!(b.lru_order(), model.resident.clone());
                prop_assert_eq!(b.len(), model.resident.len());
                prop_assert_eq!(b.get(id), Some(&desc));
                for k in 0..pool {
                    let seen = id_of(k);
                    prop_assert_eq!(
                        b.is_resident(seen),
                        model.resident.iter().any(|d| d.id == seen)
                    );
                }
            }
            prop_assert_eq!(b.switches, model.switches);
            prop_assert_eq!(b.misses, model.misses);
            prop_assert_eq!(b.overhead_cycles, model.overhead_cycles);
            prop_assert_eq!(&b.reload, &model.reload);
            // Memory is what `new` allocated.
            prop_assert_eq!(b.slots.len(), capacity);
            prop_assert_eq!(b.index.len(), cells);
        }
    }
}
