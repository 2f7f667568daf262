//! Memory references: what one implicit thread asks of shared memory in one
//! step.

use serde::{Deserialize, Serialize};

use tcf_isa::instr::MultiKind;
use tcf_isa::progression::{AddrRun, Seg};
use tcf_isa::word::{Addr, Word};

/// Where a reference comes from, used for deterministic ordering.
///
/// `rank` is the global thread rank of the issuing implicit thread: for a
/// TCF it is the thread index within the flow (offset by the flow's base
/// rank when a flow spans processors); for baseline models it is
/// `pid * T_p + tid`. Multiprefix results and the deterministic variants of
/// concurrent-write resolution are defined in `rank` order, which makes
/// every execution model in the workspace reproducible bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RefOrigin {
    /// Processor group issuing the reference.
    pub group: usize,
    /// Global thread rank (see type-level docs).
    pub rank: usize,
}

impl RefOrigin {
    /// Convenience constructor.
    pub fn new(group: usize, rank: usize) -> RefOrigin {
        RefOrigin { group, rank }
    }
}

/// The operation a reference performs.
///
/// The strided variants are *bulk* references: one `MemRef` standing for
/// `count` lane references whose addresses (and, for writes, values) form
/// an arithmetic progression. Lane `k` of a bulk reference has address
/// `base + k·stride` and global rank `origin.rank + k`; its semantics are
/// *defined* as the expansion into `count` scalar references in lane
/// order, and `SharedMemory::step_bulk_into` resolves it either through a
/// dedicated O(modules) path (when the step's address sets are disjoint)
/// or by literally expanding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemOp {
    /// Read a word; the reply carries the value before this step's writes.
    Read(Addr),
    /// Write a word; concurrent writes are resolved by the CRCW policy.
    Write(Addr, Word),
    /// Multioperation: contribute to a combined update of one word.
    Multi(MultiKind, Addr, Word),
    /// Multiprefix: contribute and receive the exclusive prefix (in rank
    /// order, seeded with the word's pre-step value).
    Prefix(MultiKind, Addr, Word),
    /// Bulk read: lane `k` (of `count`) reads `base + k·stride`.
    StridedRead {
        /// Address of lane 0.
        base: Addr,
        /// Address increment between consecutive lanes.
        stride: i64,
        /// Number of lanes.
        count: u32,
    },
    /// Bulk write: lane `k` (of `count`) writes value `vbase + k·vstride`
    /// (wrapping word arithmetic) to address `base + k·stride`.
    StridedWrite {
        /// Address of lane 0.
        base: Addr,
        /// Address increment between consecutive lanes.
        stride: i64,
        /// Number of lanes.
        count: u32,
        /// Value written by lane 0.
        vbase: Word,
        /// Value increment between consecutive lanes (wrapping).
        vstride: Word,
    },
    /// Bulk multioperation / multiprefix: lane `k` (of `count`)
    /// contributes value `vbase + k·vstride` (wrapping) to address
    /// `base + k·astride` with global rank `origin.rank + k`. With
    /// `astride == 0` every lane combines into the same word — the
    /// compressed form of a thick flow's `Mu*`/`Mp*` on one target.
    /// When `prefix` is set each lane receives its exclusive rank-order
    /// prefix through the bulk-reply channel.
    BulkMulti {
        /// Combine operator.
        kind: MultiKind,
        /// Whether lanes receive exclusive prefixes (multiprefix).
        prefix: bool,
        /// Address of lane 0.
        base: Addr,
        /// Address increment between consecutive lanes (0 = one word).
        astride: i64,
        /// Number of lanes.
        count: u32,
        /// Contribution of lane 0.
        vbase: Word,
        /// Contribution increment between consecutive lanes (wrapping).
        vstride: Word,
    },
}

impl MemOp {
    /// The address touched (lane 0's address for bulk references).
    #[inline]
    pub fn addr(&self) -> Addr {
        match *self {
            MemOp::Read(a)
            | MemOp::Write(a, _)
            | MemOp::Multi(_, a, _)
            | MemOp::Prefix(_, a, _)
            | MemOp::StridedRead { base: a, .. }
            | MemOp::StridedWrite { base: a, .. }
            | MemOp::BulkMulti { base: a, .. } => a,
        }
    }

    /// Whether the issuing thread expects a reply value. (A `StridedRead`
    /// or prefixing `BulkMulti` replies through the bulk-reply channel,
    /// not the per-reference slot.)
    #[inline]
    pub fn wants_reply(&self) -> bool {
        match *self {
            MemOp::Read(_) | MemOp::Prefix(..) | MemOp::StridedRead { .. } => true,
            MemOp::BulkMulti { prefix, .. } => prefix,
            _ => false,
        }
    }

    /// Whether this is a bulk (strided) reference.
    #[inline]
    pub fn is_bulk(&self) -> bool {
        matches!(
            self,
            MemOp::StridedRead { .. } | MemOp::StridedWrite { .. } | MemOp::BulkMulti { .. }
        )
    }

    /// Number of lane references this operation stands for.
    #[inline]
    pub fn lanes(&self) -> usize {
        match *self {
            MemOp::StridedRead { count, .. }
            | MemOp::StridedWrite { count, .. }
            | MemOp::BulkMulti { count, .. } => count as usize,
            _ => 1,
        }
    }

    /// The address progression of the reference; a scalar operation is a
    /// run of one lane.
    #[inline]
    pub fn addrs(&self) -> AddrRun {
        match *self {
            MemOp::StridedRead {
                base,
                stride,
                count,
            }
            | MemOp::StridedWrite {
                base,
                stride,
                count,
                ..
            }
            | MemOp::BulkMulti {
                base,
                astride: stride,
                count,
                ..
            } => AddrRun {
                base,
                stride,
                count,
            },
            _ => AddrRun {
                base: self.addr(),
                stride: 0,
                count: 1,
            },
        }
    }

    /// The value progression a bulk reference carries — what its lanes
    /// write or contribute. Empty for reads and scalar operations.
    #[inline]
    pub fn values(&self) -> Seg {
        match *self {
            MemOp::StridedWrite {
                count,
                vbase,
                vstride,
                ..
            }
            | MemOp::BulkMulti {
                count,
                vbase,
                vstride,
                ..
            } => Seg {
                len: count,
                base: vbase,
                stride: vstride,
            },
            _ => Seg::default(),
        }
    }

    /// The scalar operation of lane `k`: a bulk reference *is* its lanes
    /// `0..lanes()` in order, lane `k` at global rank `origin.rank + k`.
    /// Lane addresses saturate ([`AddrRun::saturating_at`]), so a lane
    /// that left the address space faults in the scalar step.
    #[inline]
    pub fn lane(&self, k: usize) -> MemOp {
        let addr = self.addrs().saturating_at(k);
        let v = self.values().at(k);
        match *self {
            MemOp::StridedRead { .. } => MemOp::Read(addr),
            MemOp::StridedWrite { .. } => MemOp::Write(addr, v),
            MemOp::BulkMulti {
                kind, prefix: true, ..
            } => MemOp::Prefix(kind, addr, v),
            MemOp::BulkMulti { kind, .. } => MemOp::Multi(kind, addr, v),
            scalar => scalar,
        }
    }
}

/// One memory reference: origin plus operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRef {
    /// Issuing thread.
    pub origin: RefOrigin,
    /// Requested operation.
    pub op: MemOp,
}

impl MemRef {
    /// Convenience constructor.
    pub fn new(origin: RefOrigin, op: MemOp) -> MemRef {
        MemRef { origin, op }
    }

    /// The chain key of a zero-astride bulk multioperation: references
    /// with equal keys combine into the same word under the same operator
    /// and reply kind, so a *rank-ordered* sequence of them — the shape a
    /// masked thick multioperation splits into at mask-run boundaries —
    /// resolves in closed form one reference at a time, each reading its
    /// predecessor's result, exactly like the rank-ordered per-lane
    /// expansion. Returns the key plus the reference's half-open global
    /// rank window `[rank, rank + count)`.
    pub fn multi_chain_key(&self) -> Option<((Addr, MultiKind, bool), usize, usize)> {
        match self.op {
            MemOp::BulkMulti {
                kind,
                prefix,
                base,
                astride: 0,
                count,
                ..
            } => Some((
                (base, kind, prefix),
                self.origin.rank,
                self.origin.rank + count as usize,
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_and_reply_classification() {
        assert_eq!(MemOp::Read(7).addr(), 7);
        assert_eq!(MemOp::Write(8, 1).addr(), 8);
        assert_eq!(MemOp::Multi(MultiKind::Add, 9, 1).addr(), 9);
        assert_eq!(MemOp::Prefix(MultiKind::Max, 10, 1).addr(), 10);
        assert!(MemOp::Read(0).wants_reply());
        assert!(MemOp::Prefix(MultiKind::Add, 0, 0).wants_reply());
        assert!(!MemOp::Write(0, 0).wants_reply());
        assert!(!MemOp::Multi(MultiKind::Add, 0, 0).wants_reply());
    }
}
