//! Thick control flows and their fragments.

use serde::{Deserialize, Serialize};

use crate::thick::ThickRegs;

/// Execution mode of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Data-parallel: one instruction = `thickness` identical operations.
    Pram,
    /// Thickness `1/slots`: one step executes `slots` consecutive
    /// instructions of a single sequential stream against local memory.
    Numa {
        /// The bunch length `T` of `#1/T`.
        slots: usize,
    },
}

/// Scheduling status of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowStatus {
    /// Has work.
    Running,
    /// A `split` parent waiting for its children's `join`s.
    WaitingJoin {
        /// Children still outstanding.
        pending: usize,
    },
    /// A `spawn`ing flow waiting at `sjoin` (Multi-instruction variant).
    WaitingSpawn {
        /// Spawned threads still outstanding.
        pending: usize,
    },
    /// Absorbed into a NUMA bunch led by another unit flow (Configurable
    /// single operation variant); resumes with the leader's state at
    /// `endnuma`.
    Absorbed {
        /// The bunch leader's flow id.
        leader: u32,
    },
    /// Finished.
    Halted,
}

/// One slice of a flow's thickness allocated to one processor group
/// (horizontal allocation, §3.3/§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fragment {
    /// Executing processor group.
    pub group: usize,
    /// First implicit-thread index covered.
    pub offset: usize,
    /// Number of implicit threads covered.
    pub len: usize,
}

impl Fragment {
    /// A fragment covering `[offset, offset + len)` on `group`.
    pub fn new(group: usize, offset: usize, len: usize) -> Fragment {
        Fragment { group, offset, len }
    }
}

/// One thick control flow.
///
/// A flow owns exactly one program counter and one call stack regardless
/// of thickness — calls are flow-wise (§2.2). Its registers are
/// [`ThickRegs`]: per-implicit-thread values with uniform compression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Flow identifier (unique within a machine run).
    pub id: u32,
    /// Current thickness (implicit threads) in PRAM mode.
    pub thickness: usize,
    /// Execution mode.
    pub mode: ExecMode,
    /// The flow's single program counter.
    pub pc: usize,
    /// The flow's registers.
    pub regs: ThickRegs,
    /// The flow's single call stack.
    pub call_stack: Vec<usize>,
    /// Scheduling status. Private: the owning [`FlowTable`] lists and
    /// counts flows by it, so it changes only through the table
    /// ([`FlowTable::set_status`]) or on a flow taken out of it
    /// ([`TakenFlow::set_status`]).
    status: FlowStatus,
    /// Parent flow to notify at `join` (split children only).
    pub parent: Option<u32>,
    /// Thickness slices per processor group (capacity and work
    /// attribution; execution order is rank-contiguous via `next_op`).
    pub fragments: Vec<Fragment>,
    /// First not-yet-executed operation of the *current* instruction —
    /// the Balanced variant's resume pointer held in the TCF buffer
    /// (§3.3: "a pointer to the next yet not executed operation").
    /// Operations always execute in rank-contiguous order, which keeps
    /// multiprefix rank ordering intact across slices.
    pub next_op: usize,
    /// Base rank for deterministic cross-flow ordering of memory
    /// references: implicit thread `i` has global rank `rank_base + i`.
    pub rank_base: usize,
    /// Offset added to the `tid` special register. 0 for ordinary flows;
    /// the global thread rank for the SPMD unit flows of the
    /// thread-based variants; the spawn index for Multi-instruction
    /// spawned threads.
    pub tid_offset: usize,
    /// Per-lane step of the `tid` special register: lane `e` reads
    /// `tid_offset + e·tid_stride`. 1 for ordinary flows; the group count
    /// for Multi-instruction spawn *blocks*, whose lanes are the spawned
    /// threads `g, g + G, g + 2G, …` scheduled onto one group.
    pub tid_stride: usize,
}

impl Flow {
    /// A fresh PRAM-mode flow.
    pub fn new(id: u32, thickness: usize, pc: usize, nregs: usize) -> Flow {
        Flow {
            id,
            thickness,
            mode: ExecMode::Pram,
            pc,
            regs: ThickRegs::new(nregs),
            call_stack: Vec::new(),
            status: FlowStatus::Running,
            parent: None,
            fragments: Vec::new(),
            next_op: 0,
            rank_base: (id as usize) << 32,
            tid_offset: 0,
            tid_stride: 1,
        }
    }

    /// Scheduling status.
    #[inline]
    pub fn status(&self) -> FlowStatus {
        self.status
    }

    /// Whether the flow can execute this step.
    #[inline]
    pub fn is_running(&self) -> bool {
        self.status == FlowStatus::Running
    }

    /// The group owning the flow's first fragment (where flow-wise
    /// instructions execute).
    pub fn home_group(&self) -> usize {
        self.fragments.first().map(|f| f.group).unwrap_or(0)
    }

    /// Whether the current instruction has executed for every implicit
    /// thread.
    pub fn instruction_complete(&self) -> bool {
        self.next_op >= self.thickness
    }

    /// Resets instruction progress (for the next instruction or after a
    /// thickness change).
    pub fn reset_progress(&mut self) {
        self.next_op = 0;
    }

    /// Total implicit threads covered by fragments (must equal
    /// `thickness` in PRAM mode; checked by the scheduler's debug
    /// assertions).
    pub fn fragmented_threads(&self) -> usize {
        self.fragments.iter().map(|f| f.len).sum()
    }
}

/// A running flow taken out of its [`FlowTable`] slot so an executor can
/// step it against the rest of the machine ([`FlowTable::take`]). It is a
/// [`Flow`] (it derefs to one) whose status may change: the table books
/// whatever status it comes back with ([`FlowTable::put`]).
#[derive(Debug)]
pub struct TakenFlow(Flow);

impl TakenFlow {
    /// Changes the flow's status; booked when the flow is put back.
    #[inline]
    pub fn set_status(&mut self, status: FlowStatus) {
        self.0.status = status;
    }
}

impl std::ops::Deref for TakenFlow {
    type Target = Flow;
    #[inline]
    fn deref(&self) -> &Flow {
        &self.0
    }
}

impl std::ops::DerefMut for TakenFlow {
    #[inline]
    fn deref_mut(&mut self) -> &mut Flow {
        &mut self.0
    }
}

/// Dense flow storage indexed by flow id, plus the scheduler's run list.
///
/// Flow ids are allocated sequentially from 0 and never reused, so one
/// slot per id makes a lookup an index. Halted flows keep their slots —
/// their registers stay readable — so the slots (one `Option<Flow>` each)
/// grow with every flow ever created.
///
/// What a step costs must not: the table also keeps the ids of the flows
/// whose status is [`FlowStatus::Running`], ascending, and the executors
/// walk that list instead of the slots. Ascending id order is the order
/// the slot walk had, and it is load-bearing: memory-reference ranks, the
/// event stream and the order flows meet the TCF buffers (hence what the
/// buffers evict) all follow it. The list is bounded by the live flows;
/// the counts behind [`len`](FlowTable::len), [`live`](FlowTable::live)
/// and [`waiting`](FlowTable::waiting) are kept with it, so none of them
/// scans.
///
/// The list follows the flows' status, and the types keep the two
/// together: `Flow::status` is private, so it changes either on a flow
/// taken out with [`take`](FlowTable::take) — a [`TakenFlow`], whose
/// [`put`](FlowTable::put) books the change — or through
/// [`set_status`](FlowTable::set_status) for a flow in the table; a
/// `&mut Flow` from [`get_mut`](FlowTable::get_mut) cannot write it.
/// Booking a change is O(1): a flow that stops running stays listed and
/// one that starts is appended, and [`settle`](FlowTable::settle), once
/// per step, sorts and sweeps the list. The executors read the list at
/// the start of a step only (a flow created or woken mid-step first runs
/// in the next one), so they never see it unsettled; and a step in which
/// all 10^5 unit flows halt costs one sweep, not 10^5 removals from the
/// front of a vector.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    slots: Vec<Option<Flow>>,
    /// Ids of the `Running` flows, ascending — once settled.
    run: Vec<u32>,
    /// Whether `run` may be out of order, or list a flow twice or one
    /// that no longer runs.
    unsettled: bool,
    /// Flows in the table, taken-out ones included.
    present: usize,
    /// Of those, waiting on a join or a spawn.
    waiting: usize,
    /// Of those, halted.
    halted: usize,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of flows present.
    pub fn len(&self) -> usize {
        self.present
    }

    /// Whether the table holds no flows.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Number of flows that have not halted.
    pub fn live(&self) -> usize {
        self.present - self.halted
    }

    /// Number of flows waiting on a `join` or an `sjoin`.
    pub fn waiting(&self) -> usize {
        self.waiting
    }

    /// Ids of the flows whose status is `Running`, ascending.
    ///
    /// # Panics
    /// If status changes were booked since the last
    /// [`settle`](FlowTable::settle).
    #[inline]
    pub fn runnable(&self) -> &[u32] {
        assert!(!self.unsettled, "run list read mid-step");
        &self.run
    }

    /// The `Running` flows in id order. The table must be settled.
    pub fn running(&self) -> impl Iterator<Item = &Flow> {
        self.runnable().iter().map(|id| &self[id])
    }

    /// Brings the run list up to date with the status changes booked
    /// since it last was: O(1) when there were none, else one sort of a
    /// nearly sorted list and one sweep. No flow may be taken out.
    pub fn settle(&mut self) {
        if !self.unsettled {
            return;
        }
        self.run.sort_unstable();
        self.run.dedup();
        let slots = &self.slots;
        self.run
            .retain(|&id| slots[id as usize].as_ref().is_some_and(|f| f.is_running()));
        self.unsettled = false;
    }

    /// Adds `flow` under its id, which must be vacant.
    pub fn insert(&mut self, flow: Flow) {
        let i = flow.id as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        debug_assert!(self.slots[i].is_none(), "flow id {i} reused");
        self.present += 1;
        self.book(flow.id, flow.status);
        self.slots[i] = Some(flow);
    }

    /// Takes the running flow `id` out of its slot so an executor can
    /// step it against the rest of the machine; the table still counts
    /// and lists it. [`put`](FlowTable::put) gives it back.
    #[inline]
    pub fn take(&mut self, id: u32) -> TakenFlow {
        let flow = self.slots[id as usize].take().expect("flow exists");
        debug_assert!(flow.is_running(), "only a running flow is stepped");
        TakenFlow(flow)
    }

    /// Returns a flow taken with [`take`](FlowTable::take), booking the
    /// status it was left in.
    #[inline]
    pub fn put(&mut self, flow: TakenFlow) {
        let flow = flow.0;
        if !flow.is_running() {
            self.unbook(FlowStatus::Running);
            self.book(flow.id, flow.status);
        }
        let i = flow.id as usize;
        self.slots[i] = Some(flow);
    }

    /// Changes the status of flow `id`, which is in the table.
    pub fn set_status(&mut self, id: u32, status: FlowStatus) {
        let flow = self.slots[id as usize].as_mut().expect("flow exists");
        let old = std::mem::replace(&mut flow.status, status);
        self.unbook(old);
        self.book(id, status);
    }

    /// Books a flow of `status` into the run list or its count.
    fn book(&mut self, id: u32, status: FlowStatus) {
        if status == FlowStatus::Running {
            // A new flow has the highest id so far and keeps the list in
            // order; a woken one does not, and may still be listed.
            if self.run.last().is_some_and(|&last| last >= id) {
                self.unsettled = true;
            }
            self.run.push(id);
        } else if let Some(n) = self.counter(status) {
            *n += 1;
        }
    }

    /// Inverse of [`book`](FlowTable::book) for a flow that was in
    /// `status`; a listed flow stays listed until the list is settled.
    fn unbook(&mut self, status: FlowStatus) {
        if status == FlowStatus::Running {
            self.unsettled = true;
        } else if let Some(n) = self.counter(status) {
            *n -= 1;
        }
    }

    /// The count a flow of `status` is kept under, if any.
    fn counter(&mut self, status: FlowStatus) -> Option<&mut usize> {
        match status {
            FlowStatus::WaitingJoin { .. } | FlowStatus::WaitingSpawn { .. } => {
                Some(&mut self.waiting)
            }
            FlowStatus::Halted => Some(&mut self.halted),
            FlowStatus::Running | FlowStatus::Absorbed { .. } => None,
        }
    }

    /// Recounts everything the table keeps incrementally from the flows
    /// themselves: `Err` names the first disagreement. The table must be
    /// settled.
    pub fn check(&self) -> Result<(), String> {
        if self.unsettled {
            return Err("run list not settled".into());
        }
        let mut running = Vec::new();
        let mut recount = (0, 0, 0);
        for f in self.values() {
            recount.0 += 1;
            match f.status {
                FlowStatus::Running => running.push(f.id),
                FlowStatus::WaitingJoin { .. } | FlowStatus::WaitingSpawn { .. } => recount.1 += 1,
                FlowStatus::Halted => recount.2 += 1,
                FlowStatus::Absorbed { .. } => {}
            }
        }
        if running != self.run {
            return Err(format!(
                "run list {:?}, running flows {running:?}",
                self.run
            ));
        }
        let kept = (self.present, self.waiting, self.halted);
        if kept != recount {
            return Err(format!(
                "(present, waiting, halted) kept as {kept:?}, recounted {recount:?}"
            ));
        }
        Ok(())
    }

    /// The flow under `id`.
    #[inline]
    pub fn get(&self, id: &u32) -> Option<&Flow> {
        self.slots.get(*id as usize).and_then(Option::as_ref)
    }

    /// The flow under `id`, mutably (its status changes through
    /// [`set_status`](FlowTable::set_status)).
    #[inline]
    pub fn get_mut(&mut self, id: &u32) -> Option<&mut Flow> {
        self.slots.get_mut(*id as usize).and_then(Option::as_mut)
    }

    /// Ids of present flows, ascending.
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.values().map(|f| f.id)
    }

    /// Present flows in id order.
    pub fn values(&self) -> impl Iterator<Item = &Flow> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Present flows in id order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Flow> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

impl std::ops::Index<&u32> for FlowTable {
    type Output = Flow;
    #[inline]
    fn index(&self, id: &u32) -> &Flow {
        self.get(id).expect("flow exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FlowTable {
        /// Removes and returns the flow under `id` — the map operation the
        /// simulator never performs (halted flows keep their slots). No
        /// flow may be taken out.
        fn remove(&mut self, id: &u32) -> Option<Flow> {
            let flow = self.slots.get_mut(*id as usize)?.take()?;
            self.present -= 1;
            self.unbook(flow.status);
            self.settle();
            Some(flow)
        }
    }

    #[test]
    fn flow_table_mirrors_map_semantics() {
        let mut t = FlowTable::new();
        assert!(t.is_empty());
        t.insert(Flow::new(2, 1, 0, 4));
        t.insert(Flow::new(0, 1, 0, 4));
        assert_eq!(t.len(), 2);
        assert_eq!(t.keys().collect::<Vec<_>>(), vec![0, 2]);
        t.settle(); // ids arrived out of order
        assert_eq!(t.runnable(), [0, 2]);
        assert!(t.get(&1).is_none());
        assert_eq!(t[&2].id, 2);
        let f = t.remove(&0).unwrap();
        assert_eq!(f.id, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.runnable(), [2]);
        t.insert(f);
        assert_eq!(t.keys().collect::<Vec<_>>(), vec![0, 2]);
        t.settle();
        assert_eq!(t.runnable(), [0, 2]);
        t.check().unwrap();
    }

    /// Inserts, removals, executor take/put round trips and in-table
    /// status changes in a scrambled order, settled the way a step settles
    /// them — after a burst of changes, not after each: the run list and
    /// the counts then equal a recount from the flows.
    #[test]
    fn run_list_and_counts_follow_every_status_change() {
        use FlowStatus::*;
        let statuses = [
            Running,
            WaitingJoin { pending: 2 },
            WaitingJoin { pending: 1 },
            WaitingSpawn { pending: 7 },
            Absorbed { leader: 0 },
            Halted,
        ];
        let mut t = FlowTable::new();
        let mut next_id = 0u32;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) as usize
        };
        for round in 0..2000 {
            // One "step": a burst of changes the list is not read across.
            for _ in 0..1 + draw() % 6 {
                let ids: Vec<u32> = t.keys().collect();
                let status = statuses[draw() % statuses.len()];
                match draw() % 4 {
                    0 => {
                        t.insert(Flow::new(next_id, 1, 0, 1));
                        next_id += 1;
                    }
                    1 if !ids.is_empty() => {
                        // What an executor does, to a flow that runs.
                        let id = ids[draw() % ids.len()];
                        if t[&id].is_running() {
                            let mut f = t.take(id);
                            f.set_status(status);
                            t.put(f);
                        }
                    }
                    _ if !ids.is_empty() => t.set_status(ids[draw() % ids.len()], status),
                    _ => {}
                }
            }
            t.settle();
            // Between steps, a host-side removal now and then.
            if draw() % 4 == 0 && !t.is_empty() {
                let ids: Vec<u32> = t.keys().collect();
                let id = ids[draw() % ids.len()];
                assert_eq!(t.remove(&id).unwrap().id, id);
                assert!(t.remove(&id).is_none());
            }
            t.check().unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(t.len(), t.keys().count());
            let live = t.values().filter(|f| f.status != Halted).count();
            assert_eq!(t.live(), live);
        }
        assert!(next_id > 500 && t.waiting() > 0 && !t.runnable().is_empty());
    }

    #[test]
    fn fresh_flow_is_running() {
        let f = Flow::new(3, 8, 2, 32);
        assert!(f.is_running());
        assert_eq!(f.rank_base, 3usize << 32);
        assert_eq!(f.home_group(), 0);
    }

    #[test]
    fn fragment_progress() {
        let mut f = Flow::new(0, 10, 0, 4);
        f.fragments = vec![Fragment::new(0, 0, 6), Fragment::new(1, 6, 4)];
        assert_eq!(f.fragmented_threads(), 10);
        assert!(!f.instruction_complete());
        f.next_op = 10;
        assert!(f.instruction_complete());
        f.reset_progress();
        assert_eq!(f.next_op, 0);
    }

    #[test]
    fn home_group_is_first_fragment() {
        let mut f = Flow::new(0, 4, 0, 4);
        f.fragments = vec![Fragment::new(2, 0, 2), Fragment::new(3, 2, 2)];
        assert_eq!(f.home_group(), 2);
    }
}
