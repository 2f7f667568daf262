//! Thick values: per-implicit-thread data with uniform-value compression.
//!
//! A register of a flow of thickness `T` conceptually holds `T` words. Most
//! registers hold the *same* word for every implicit thread (base
//! addresses, loop bounds, flow-wise temporaries); the extended model's
//! architecture proposal explicitly calls out that such registers need not
//! be replicated (§3.3). [`ThickValue`] keeps that distinction: a
//! `Uniform` value is stored once and instructions whose operands are all
//! uniform execute *once* on the flow's common operands instead of `T`
//! times — the scalarization the TCF processor's operand-select stage
//! performs.
//!
//! The second compression dimension is *affine* values: in the TCF model
//! one instruction stands for `T` identical operations, and the values
//! that differ between lanes are overwhelmingly arithmetic progressions
//! of the lane id (the thread-id seed, induction vectors, addresses of
//! array sweeps). An [`Affine`](ThickValue::Affine) value stores them as
//! `base + stride·i`, a [`Segments`](ThickValue::Segments) value as a
//! short piecewise-affine run list (what comparisons of an affine value
//! against a bound produce). The closure algebra over these forms lives
//! in [`affine_alu`]; values decay to `PerThread` lanes only when the
//! algebra genuinely escapes the form.

use serde::{Deserialize, Serialize};

use tcf_isa::op::AluOp;
use tcf_isa::progression::{at, clip, Clip};
use tcf_isa::word::{shamt, Word};

pub use tcf_isa::progression::Seg;

use crate::lanes;

/// Maximum number of affine runs a masked / piecewise closed-form slice
/// may work with before execution decays to the SoA lane planes. Divergent
/// control flow expressed through `Sel` and comparisons produces a handful
/// of runs (a comparison of exact progressions yields at most three); a
/// run count past this budget means the value has effectively lost its
/// structure and O(#runs) closed-form execution would no longer beat the
/// vectorized per-lane kernels. Decays for this reason are counted as
/// `decay_mask_runs` in the taxonomy.
pub const MASK_RUN_BUDGET: usize = 32;

/// A value with one word per implicit thread, compressed when uniform or
/// (piecewise) affine in the lane index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThickValue {
    /// Every implicit thread sees this word.
    Uniform(Word),
    /// Thread `i` sees `values[i]`; the vector's length is the thickness
    /// at materialization time. Reads beyond the vector (after a thickness
    /// increase) see 0.
    PerThread(Vec<Word>),
    /// Thread `i` sees `base + stride·i` (wrapping). Invariant:
    /// `stride != 0` (a zero stride is stored as `Uniform`).
    Affine {
        /// Lane 0's value.
        base: Word,
        /// Per-lane increment.
        stride: Word,
    },
    /// Piecewise affine from lane 0; lanes beyond the segments' total
    /// length see 0. Invariants: non-empty, every segment has `len ≥ 1`,
    /// single-lane segments store stride 0, and no two adjacent segments
    /// are mergeable into one progression.
    Segments(Vec<Seg>),
}

impl ThickValue {
    /// The zero value.
    pub fn zero() -> ThickValue {
        ThickValue::Uniform(0)
    }

    /// Whether the value is stored uniformly.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        matches!(self, ThickValue::Uniform(_))
    }

    /// An affine value, canonicalized: stride 0 collapses to `Uniform`.
    #[inline]
    pub fn affine(base: Word, stride: Word) -> ThickValue {
        if stride == 0 {
            ThickValue::Uniform(base)
        } else {
            ThickValue::Affine { base, stride }
        }
    }

    /// A piecewise value from runs in lane order, folded into canonical
    /// form ([`Seg::try_merge`]): no runs collapse to zero (lanes beyond
    /// the runs read 0), a single run covering exactly `thickness` lanes
    /// collapses to its affine form (the progression past the thickness
    /// is unobservable — a thickness change pins affine registers first).
    /// A longer run holds lanes an earlier, thicker pin kept, and stays
    /// bounded.
    fn from_segs(runs: impl IntoIterator<Item = Seg>, thickness: usize) -> ThickValue {
        let mut segs: Vec<Seg> = Vec::new();
        // Internal iteration: a chain of clips folds as one plain loop
        // per part.
        runs.into_iter().for_each(|run| {
            if let Some(run) = run.append_to(segs.last_mut(), Seg::try_merge) {
                segs.push(run);
            }
        });
        match segs[..] {
            [] => ThickValue::Uniform(0),
            [s] if s.len as usize == thickness => ThickValue::affine(s.base, s.stride),
            _ => ThickValue::Segments(segs),
        }
    }

    /// Lanes `[lo, hi)` of a compressed value as affine pieces, in lane
    /// order and covering the range exactly: a run list and what lanes
    /// past it read, through [`clip`]. `None` for `PerThread` values,
    /// whose piecewise structure would cost O(lanes) to discover.
    #[inline]
    fn pieces(&self, lo: usize, hi: usize) -> Option<Clip<'_>> {
        let (runs, tail): (&[Seg], _) = match self {
            ThickValue::Uniform(v) => (&[], (*v, 0)),
            ThickValue::Affine { base, stride } => (&[], (*base, *stride)),
            ThickValue::Segments(segs) => (segs, (0, 0)),
            ThickValue::PerThread(_) => return None,
        };
        Some(clip(runs, tail, lo, hi))
    }

    /// The value thread `i` sees.
    #[inline]
    pub fn get(&self, i: usize) -> Word {
        match self {
            ThickValue::Uniform(v) => *v,
            ThickValue::PerThread(vs) => vs.get(i).copied().unwrap_or(0),
            ThickValue::Affine { base, stride } => at(*base, *stride, i),
            ThickValue::Segments(segs) => {
                let mut k = i;
                for s in segs {
                    if k < s.len as usize {
                        return s.at(k);
                    }
                    k -= s.len as usize;
                }
                0
            }
        }
    }

    /// Gathers lanes `[lo, lo + out.len())` into the dense plane `out` —
    /// exactly `out[k] = self.get(lo + k)`, but bulk per representation:
    /// a `memcpy` plus zero tail for `PerThread`, the chunked progression
    /// kernel per piece for the compressed forms. This is the
    /// structure-of-arrays operand gather of the per-lane fallback path
    /// (`crate::lanes`).
    pub fn fill_lanes(&self, lo: usize, out: &mut [Word]) {
        if let ThickValue::PerThread(vs) = self {
            // `lo` may sit past the materialized end (all-zero lanes).
            let start = lo.min(vs.len());
            let avail = (vs.len() - start).min(out.len());
            out[..avail].copy_from_slice(&vs[start..start + avail]);
            out[avail..].fill(0);
            return;
        }
        let mut done = 0usize;
        for p in self.pieces(lo, lo + out.len()).into_iter().flatten() {
            let end = done + p.len as usize;
            lanes::fill_affine(&mut out[done..end], p.base, p.stride);
            done = end;
        }
    }

    /// First `k` where `values[k] != self.get(lo + k)` — the bulk
    /// mismatch scan [`ThickRegs::write_lanes`] uses to decide whether a
    /// lane run leaves the stored representation untouched. Chunked per
    /// piece (`crate::lanes`); `PerThread` compares directly.
    pub fn first_mismatch(&self, lo: usize, values: &[Word]) -> Option<usize> {
        let Some(pieces) = self.pieces(lo, lo + values.len()) else {
            return values
                .iter()
                .enumerate()
                .find_map(|(k, &x)| (x != self.get(lo + k)).then_some(k));
        };
        let mut done = 0usize;
        for p in pieces {
            let end = done + p.len as usize;
            if let Some(k) = lanes::first_mismatch_affine(&values[done..end], p.base, p.stride) {
                return Some(done + k);
            }
            done = end;
        }
        None
    }

    /// The uniform value, if uniform.
    #[inline]
    pub fn as_uniform(&self) -> Option<Word> {
        match self {
            ThickValue::Uniform(v) => Some(*v),
            _ => None,
        }
    }

    /// The lane range `[lo, lo + len)` as an arithmetic progression
    /// `(value at lo, per-lane stride)`, when the representation yields it
    /// without touching lanes. `PerThread` always answers `None` — the
    /// point is O(1) classification, not O(len) detection.
    pub fn affine_over(&self, lo: usize, len: usize) -> Option<(Word, Word)> {
        match self {
            ThickValue::Uniform(v) => Some((*v, 0)),
            ThickValue::Affine { base, stride } => Some((at(*base, *stride, lo), *stride)),
            ThickValue::Segments(segs) => {
                // A one-lane window of a list run answers stride 0, an
                // `Affine` value its own: what a single-lane reference
                // says its stride is picks its timing path, so both stay
                // as they always were.
                let mut pieces = clip(segs, (0, 0), lo, lo + len);
                match (pieces.next(), pieces.next()) {
                    (Some(p), None) => Some((p.base, if len == 1 { 0 } else { p.stride })),
                    (None, _) => Some((self.get(lo), 0)),
                    _ => None,
                }
            }
            ThickValue::PerThread(_) => None,
        }
    }

    /// Appends the affine pieces of lanes `[lo, lo + len)` to `out`, in
    /// lane order, covering the range exactly (the tail beyond a
    /// `Segments` value's covered lanes appears as a zero piece). Returns
    /// `false` — leaving `out` untouched — for `PerThread` values, whose
    /// piecewise structure would cost O(len) to discover. This is the
    /// splitting primitive of masked execution: where
    /// [`affine_over`](ThickValue::affine_over) answers `None` because the
    /// range straddles segment boundaries, the pieces let the caller run
    /// the closed-form algebra per run instead of decaying to lanes.
    pub fn piece_runs(&self, lo: usize, len: usize, out: &mut Vec<Seg>) -> bool {
        let Some(pieces) = self.pieces(lo, lo + len) else {
            return false;
        };
        out.extend(pieces);
        true
    }

    /// The lane range `[lo, lo + len)` re-based as a fresh value of
    /// thickness `len` — lane `k` of the result reads `self.get(lo + k)`.
    /// Compressed representations stay compressed (O(#runs), and a range
    /// inside one run collapses back to `Affine`/`Uniform`); `PerThread`
    /// copies the covered lanes (O(len)). This is the flow-splitting
    /// primitive: carving a sub-block out of a thick flow costs the run
    /// structure, not the thickness.
    pub fn slice_range(&self, lo: usize, len: usize) -> ThickValue {
        match self {
            ThickValue::Uniform(v) => ThickValue::Uniform(*v),
            ThickValue::PerThread(vs) => {
                let mut out = vec![0; len];
                let start = lo.min(vs.len());
                let avail = (vs.len() - start).min(len);
                out[..avail].copy_from_slice(&vs[start..start + avail]);
                ThickValue::PerThread(out)
            }
            ThickValue::Affine { base, stride } => {
                ThickValue::affine(at(*base, *stride, lo), *stride)
            }
            ThickValue::Segments(segs) => {
                ThickValue::from_segs(clip(segs, (0, 0), lo, lo + len), len)
            }
        }
    }

    /// Number of affine runs of the stored representation: 1 for
    /// `Uniform`/`Affine`, the segment count for `Segments`, and 0 for
    /// `PerThread` (no run structure). Feeds the mask-run budget check and
    /// the run-growth regression tests.
    pub fn run_count(&self) -> usize {
        match self {
            ThickValue::Uniform(_) | ThickValue::Affine { .. } => 1,
            ThickValue::Segments(segs) => segs.len(),
            ThickValue::PerThread(_) => 0,
        }
    }

    /// Lanes the stored representation spells out, past which it reads
    /// 0: a `Segments` list's length, a `PerThread` vector's, and 0 for
    /// the forms that describe every lane. A write keeps those past the
    /// thickness — what an earlier, thicker [`pin`](ThickValue::pin) or
    /// per-thread store kept there is read again once the flow regrows.
    fn held(&self) -> usize {
        match self {
            ThickValue::Segments(segs) => segs.iter().map(|s| s.len as usize).sum(),
            ThickValue::PerThread(vs) => vs.len(),
            ThickValue::Uniform(_) | ThickValue::Affine { .. } => 0,
        }
    }

    /// Materializes the value as a per-thread vector of length `thickness`.
    pub fn materialize(&self, thickness: usize) -> Vec<Word> {
        let mut out = vec![0; thickness];
        self.fill_lanes(0, &mut out);
        out
    }

    /// The word every one of the first `thickness` implicit threads sees,
    /// when they all agree — [`normalize`](ThickValue::normalize)'s
    /// uniformity test as a non-mutating read. This is the operand-select
    /// fast path: flow-wise execution asks "is this operand uniform right
    /// now?" without cloning the per-thread vector (the stored
    /// representation is left as is).
    pub fn uniform_over(&self, thickness: usize) -> Option<Word> {
        match self {
            ThickValue::Uniform(v) => Some(*v),
            ThickValue::PerThread(vs) => {
                let first = vs.first().copied().unwrap_or(0);
                if (0..thickness).all(|i| vs.get(i).copied().unwrap_or(0) == first) {
                    Some(first)
                } else {
                    None
                }
            }
            // Nonzero stride: uniform only degenerately.
            ThickValue::Affine { base, .. } => (thickness <= 1).then_some(*base),
            ThickValue::Segments(_) => {
                let first = self.get(0);
                (1..thickness)
                    .all(|i| self.get(i) == first)
                    .then_some(first)
            }
        }
    }

    /// Sets thread `i`'s value, promoting to per-thread storage if it
    /// breaks the compressed form. `thickness` is the flow's current
    /// thickness (needed for promotion).
    ///
    /// Compressed forms (`Uniform`, `Affine`, `Segments`) stay compressed
    /// when the written value equals what lane `i` already reads —
    /// including at the thickness boundaries (`i == thickness - 1`,
    /// `thickness == 1`) — and otherwise decay to a `PerThread` vector of
    /// length `max(thickness, i + 1)` (or the lanes a `Segments` value
    /// holds, if more) with the write applied, exactly the state a
    /// never-compressed register would be in.
    pub fn set(&mut self, i: usize, v: Word, thickness: usize) {
        match self {
            ThickValue::Uniform(u) if *u == v => {}
            ThickValue::Uniform(u) => {
                let mut vs = vec![*u; thickness.max(i + 1)];
                vs[i] = v;
                *self = ThickValue::PerThread(vs);
            }
            ThickValue::PerThread(vs) => {
                if vs.len() <= i {
                    vs.resize(i + 1, 0);
                }
                vs[i] = v;
            }
            ThickValue::Affine { .. } | ThickValue::Segments(_) => {
                if self.get(i) == v {
                    return;
                }
                let mut vs = self.materialize(thickness.max(i + 1).max(self.held()));
                vs[i] = v;
                *self = ThickValue::PerThread(vs);
            }
        }
    }

    /// Re-compresses to uniform storage when all of the first `thickness`
    /// entries agree. Returns whether the value is now uniform.
    pub fn normalize(&mut self, thickness: usize) -> bool {
        match self {
            ThickValue::Uniform(_) => {}
            ThickValue::PerThread(vs) => {
                let first = vs.first().copied().unwrap_or(0);
                let all_same = (0..thickness).all(|i| vs.get(i).copied().unwrap_or(0) == first);
                if all_same {
                    *self = ThickValue::Uniform(first);
                }
            }
            ThickValue::Affine { .. } | ThickValue::Segments(_) => {
                if let Some(v) = self.uniform_over(thickness) {
                    *self = ThickValue::Uniform(v);
                }
            }
        }
        self.is_uniform()
    }

    /// Bounds an `Affine` value at `len` lanes, in closed form: one run
    /// of `len` lanes, past which it reads 0.
    ///
    /// This is the semantic guard for thickness changes: an `Affine`
    /// value extends its progression to every lane index, whereas the
    /// per-thread vector it stands in for would read 0 beyond the old
    /// thickness. Pinning at the *old* thickness before the change keeps
    /// both behaviours observably identical. The other forms already say
    /// what lies past the thickness — `Uniform` the same word, `Segments`
    /// and `PerThread` the lanes they hold and 0 beyond — so they are
    /// left as they are: a bounded value is never cut shorter, because
    /// the lanes an earlier, thicker pin kept are read again when the
    /// flow regrows.
    pub(crate) fn pin(&mut self, len: usize) {
        if let ThickValue::Affine { base, stride } = *self {
            *self = ThickValue::Segments(vec![Seg::new(len.max(1), base, stride)]);
        }
    }
}

impl Default for ThickValue {
    fn default() -> ThickValue {
        ThickValue::zero()
    }
}

/// One run of a [`LaneMask`]: `len` consecutive lanes starting at `start`
/// (relative to the mask's queried range), all selected (`set`) or all
/// masked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskRun {
    /// First lane of the run, relative to the range the mask was built
    /// over.
    pub start: usize,
    /// Number of lanes in the run (≥ 1).
    pub len: usize,
    /// Whether the run's lanes are selected (condition read nonzero).
    pub set: bool,
}

/// Why a [`LaneMask`] could not be built from a condition value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskError {
    /// The condition holds explicit lanes (`PerThread`) or a wrapping
    /// progression whose zero set cannot be classified in O(1) — run
    /// structure would cost O(len) to discover.
    Lanes,
    /// The condition's run structure exceeds the caller's budget
    /// (`decay_mask_runs` in the decay taxonomy).
    Budget,
}

/// A run-length lane mask: the truthiness (nonzero-ness) of a compressed
/// condition value over a lane range, as sorted alternating runs of set
/// and clear lanes. This is what lets `Sel`, masked stores and strided
/// references execute divergent control flow in O(#runs) instead of
/// decaying to O(thickness) lane planes: each run of the mask is
/// homogeneous, so the closed-form affine algebra applies per run.
///
/// The struct is a reusable buffer ([`rebuild`](LaneMask::rebuild) clears
/// and refills it), pooled by the execution engine's fragment outputs so
/// steady-state masked slices allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct LaneMask {
    runs: Vec<MaskRun>,
}

impl LaneMask {
    /// Rebuilds the mask as the truthiness runs of `v` over lanes
    /// `[lo, lo + len)`. Uniform and segment pieces classify wholesale; a
    /// non-uniform piece classifies only when its progression is exact
    /// ([`Seg::exact_last`]) — an exact progression passes through zero
    /// at most once, splitting the piece into at most three runs. Adjacent
    /// same-truthiness runs merge, so the result is alternating. Fails
    /// with [`MaskError::Lanes`] on `PerThread` or inexact-progression
    /// conditions and [`MaskError::Budget`] when more than `budget` runs
    /// accumulate.
    pub fn rebuild(
        &mut self,
        v: &ThickValue,
        lo: usize,
        len: usize,
        budget: usize,
    ) -> Result<(), MaskError> {
        self.runs.clear();
        if len == 0 {
            return Ok(());
        }
        let pieces = v.pieces(lo, lo + len).ok_or(MaskError::Lanes)?;
        fn push(runs: &mut Vec<MaskRun>, start: usize, len: usize, set: bool) {
            if len == 0 {
                return;
            }
            if let Some(last) = runs.last_mut() {
                if last.set == set {
                    last.len += len;
                    return;
                }
            }
            runs.push(MaskRun { start, len, set });
        }
        let runs = &mut self.runs;
        let mut start = 0usize;
        for s in pieces {
            let plen = s.len as usize;
            if s.stride == 0 || plen == 1 {
                push(runs, start, plen, s.base != 0);
            } else {
                if s.exact_last().is_none() {
                    return Err(MaskError::Lanes);
                }
                // Exact ⇒ the progression hits zero at most once, at
                // k = −base/stride when that divides evenly.
                let (b, st) = (s.base as i128, s.stride as i128);
                let zero = if (-b).rem_euclid(st.abs()) == 0 {
                    let k = (-b).div_euclid(st);
                    (k >= 0 && (k as usize) < plen).then_some(k as usize)
                } else {
                    None
                };
                match zero {
                    Some(k) => {
                        push(runs, start, k, true);
                        push(runs, start + k, 1, false);
                        push(runs, start + k + 1, plen - k - 1, true);
                    }
                    None => push(runs, start, plen, true),
                }
            }
            start += plen;
            if runs.len() > budget {
                return Err(MaskError::Budget);
            }
        }
        Ok(())
    }

    /// The mask's runs, in lane order, alternating set/clear.
    #[inline]
    pub fn runs(&self) -> &[MaskRun] {
        &self.runs
    }
}

/// The result of a closed-form ALU evaluation over a run of lanes: at
/// most three affine runs covering the lanes in order (a comparison of an
/// affine value against a bound yields zeros, a crossover, and ones; all
/// purely affine results are a single run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AffineRuns {
    runs: [Seg; 3],
    n: usize,
}

impl AffineRuns {
    fn one(len: usize, base: Word, stride: Word) -> AffineRuns {
        let mut r = AffineRuns::default();
        r.push(Seg::new(len, base, stride));
        r
    }

    /// Appends `run`, merged into the last one only when it is that
    /// progression going on ([`Seg::continued_by`]). The runs are spliced
    /// into a register next, and only there — with the register's own
    /// runs in view — may a single lane adopt a stride
    /// ([`Seg::try_merge`]): `1 | 0 | 0 0 0` is a one and a run of zeros,
    /// not `1 0` followed by zeros.
    #[inline]
    fn push(&mut self, run: Seg) {
        let last = self.runs[..self.n].last_mut();
        if let Some(run) = run.append_to(last, Seg::continued_by) {
            self.runs[self.n] = run;
            self.n += 1;
        }
    }

    /// The runs, in lane order.
    #[inline]
    pub fn runs(&self) -> &[Seg] {
        &self.runs[..self.n]
    }

    /// Value of lane `k` (relative to the run list's first lane).
    pub fn get(&self, k: usize) -> Word {
        let mut k = k;
        for s in self.runs() {
            if k < s.len as usize {
                return s.at(k);
            }
            k -= s.len as usize;
        }
        0
    }
}

/// Lane-ordered region lengths `(a, b, c)` of the sign of the exact
/// affine `d(k) = db + ds·k` over `k in [0, len)`, together with the sign
/// of each region: returns `[(len, ordering)]` where ordering is the
/// comparison of `d(k)` against 0. `ds` may be any sign.
fn sign_regions(db: i128, ds: i128, len: usize) -> [(usize, core::cmp::Ordering); 3] {
    use core::cmp::Ordering::*;
    let n = len as i128;
    if ds == 0 {
        return [(len, db.cmp(&0)), (0, Equal), (0, Equal)];
    }
    // Reflect a decreasing progression so we can always count an
    // increasing one, then un-reflect the region order.
    let (b, s, flip) = if ds > 0 {
        (db, ds, false)
    } else {
        (db + ds * (n - 1), -ds, true)
    };
    // d(k) < 0  ⟺  k < -b/s ; d(k) ≤ 0  ⟺  k ≤ -b/s.
    let clamp = |x: i128| x.clamp(0, n) as usize;
    let n_lt = clamp((-b).div_euclid(s) + ((-b).rem_euclid(s) != 0) as i128);
    let n_le = clamp((-b).div_euclid(s) + 1);
    let (lt, eq, gt) = (n_lt, n_le - n_lt, len - n_le);
    if flip {
        [(gt, Greater), (eq, Equal), (lt, Less)]
    } else {
        [(lt, Less), (eq, Equal), (gt, Greater)]
    }
}

/// Closed-form evaluation of `op` over a run of `len` lanes whose
/// operands are arithmetic progressions: operand lane `k` reads
/// `base + stride·k` (wrapping). Returns the result as at most three
/// affine runs, or `None` when the op escapes the affine form (the
/// caller falls back to per-lane evaluation). The result is bit-exact
/// with per-lane [`AluOp::eval`] — comparisons and min/max, which are
/// not modular, are only folded when both progressions stay in exact
/// range ([`Seg::exact_last`]).
pub fn affine_alu(
    op: AluOp,
    (ab, astride): (Word, Word),
    (bb, bstride): (Word, Word),
    len: usize,
) -> Option<AffineRuns> {
    use core::cmp::Ordering;
    if len == 0 {
        return Some(AffineRuns::default());
    }
    // Unaries and modular-linear ops first: these are exact under
    // wrapping for any strides (addition and constant multiplication are
    // ring homomorphisms mod 2^64).
    match op {
        AluOp::Mov => return Some(AffineRuns::one(len, ab, astride)),
        AluOp::Neg => {
            return Some(AffineRuns::one(
                len,
                ab.wrapping_neg(),
                astride.wrapping_neg(),
            ))
        }
        AluOp::Not => {
            // !x = -x - 1, lane-wise.
            return Some(AffineRuns::one(len, !ab, astride.wrapping_neg()));
        }
        AluOp::Add => {
            return Some(AffineRuns::one(
                len,
                ab.wrapping_add(bb),
                astride.wrapping_add(bstride),
            ))
        }
        AluOp::Sub => {
            return Some(AffineRuns::one(
                len,
                ab.wrapping_sub(bb),
                astride.wrapping_sub(bstride),
            ))
        }
        AluOp::Mul if bstride == 0 => {
            return Some(AffineRuns::one(
                len,
                ab.wrapping_mul(bb),
                astride.wrapping_mul(bb),
            ))
        }
        AluOp::Mul if astride == 0 => {
            return Some(AffineRuns::one(
                len,
                bb.wrapping_mul(ab),
                bstride.wrapping_mul(ab),
            ))
        }
        _ => {}
    }
    // Everything below needs uniform-or-exact operands; fold both-uniform
    // through the scalar ALU for any remaining op.
    if astride == 0 && bstride == 0 {
        return Some(AffineRuns::one(len, op.eval(ab, bb), 0));
    }
    match op {
        AluOp::Shl if bstride == 0 => {
            // x << k multiplies by 2^k mod 2^64: still modular-linear.
            Some(AffineRuns::one(
                len,
                ab.wrapping_shl(shamt(bb)),
                astride.wrapping_shl(shamt(bb)),
            ))
        }
        AluOp::Slt
        | AluOp::Sle
        | AluOp::Seq
        | AluOp::Sne
        | AluOp::Sgt
        | AluOp::Sge
        | AluOp::Min
        | AluOp::Max => {
            let (mut a, mut b) = (Seg::new(len, ab, astride), Seg::new(len, bb, bstride));
            a.exact_last()?;
            b.exact_last()?;
            // Sign of d(k) = a(k) - b(k), exactly (operands unwrapped, so
            // the i128 difference is the true difference).
            let db = ab as i128 - bb as i128;
            let ds = astride as i128 - bstride as i128;
            let mut out = AffineRuns::default();
            for (rlen, ord) in sign_regions(db, ds, len) {
                let (region_a, region_b);
                (region_a, a) = a.split_at(rlen);
                (region_b, b) = b.split_at(rlen);
                out.push(match op {
                    // d ≤ 0 → a, else b (ties read identically).
                    AluOp::Min if ord != Ordering::Greater => region_a,
                    AluOp::Max if ord != Ordering::Less => region_a,
                    AluOp::Min | AluOp::Max => region_b,
                    _ => {
                        let truthy = match op {
                            AluOp::Slt => ord == Ordering::Less,
                            AluOp::Sle => ord != Ordering::Greater,
                            AluOp::Seq => ord == Ordering::Equal,
                            AluOp::Sne => ord != Ordering::Equal,
                            AluOp::Sgt => ord == Ordering::Greater,
                            AluOp::Sge => ord != Ordering::Less,
                            _ => unreachable!(),
                        };
                        Seg::new(rlen, truthy as Word, 0)
                    }
                });
            }
            Some(out)
        }
        _ => None,
    }
}

/// The register file of one flow: `R` thick values. Index 0 is the
/// hardwired zero register.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThickRegs {
    regs: Vec<ThickValue>,
}

impl ThickRegs {
    /// `nregs` zeroed registers.
    pub fn new(nregs: usize) -> ThickRegs {
        ThickRegs {
            regs: vec![ThickValue::zero(); nregs],
        }
    }

    /// Number of registers.
    #[inline]
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the file is empty (never true in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// The thick value of register `r`.
    #[inline]
    pub fn value(&self, r: tcf_isa::reg::Reg) -> &ThickValue {
        &self.regs[r.index()]
    }

    /// Thread `i`'s view of register `r`.
    #[inline]
    pub fn read(&self, r: tcf_isa::reg::Reg, i: usize) -> Word {
        self.regs[r.index()].get(i)
    }

    /// Writes thread `i`'s view of register `r` (r0 writes discarded).
    #[inline]
    pub fn write(&mut self, r: tcf_isa::reg::Reg, i: usize, v: Word, thickness: usize) {
        if !r.is_zero() {
            self.regs[r.index()].set(i, v, thickness);
        }
    }

    /// Writes a uniform value to register `r`.
    #[inline]
    pub fn write_uniform(&mut self, r: tcf_isa::reg::Reg, v: Word) {
        if !r.is_zero() {
            self.regs[r.index()] = ThickValue::Uniform(v);
        }
    }

    /// Replaces register `r` wholesale.
    #[inline]
    pub fn write_value(&mut self, r: tcf_isa::reg::Reg, v: ThickValue) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Writes `values` to the contiguous lane range starting at `base` of
    /// register `r` — exactly equivalent to calling
    /// [`write`](ThickRegs::write) once per lane in ascending order, but
    /// with one representation decision for the whole run: the register
    /// stays uniform when every lane agrees with it, and promotes with a
    /// single bulk copy otherwise. The thick-execution merge replays
    /// register runs through here.
    ///
    /// Returns whether a *compressed* (`Affine`/`Segments`) value decayed
    /// to explicit lanes — the `lane_write` decay reason.
    pub fn write_lanes(
        &mut self,
        r: tcf_isa::reg::Reg,
        base: usize,
        values: &[Word],
        thickness: usize,
    ) -> bool {
        if r.is_zero() || values.is_empty() {
            return false;
        }
        let end = base + values.len();
        match &mut self.regs[r.index()] {
            ThickValue::Uniform(u) => {
                let u = *u;
                // Per-lane `set` leaves a uniform register untouched until
                // the first disagreeing lane, then promotes to length
                // `max(thickness, lane + 1)` and extends lane by lane.
                let Some(p) = lanes::first_mismatch_uniform(values, u) else {
                    return false;
                };
                let first = base + p;
                let mut vs = vec![u; thickness.max(first + 1).max(end)];
                vs[first..end].copy_from_slice(&values[p..]);
                self.regs[r.index()] = ThickValue::PerThread(vs);
                false
            }
            ThickValue::PerThread(vs) => {
                if vs.len() < end {
                    vs.resize(end, 0);
                }
                vs[base..end].copy_from_slice(values);
                false
            }
            cur @ (ThickValue::Affine { .. } | ThickValue::Segments(_)) => {
                // Per-lane `set` on a compressed value is a no-op until
                // the first disagreeing lane, then decays to lanes of
                // length `max(thickness, lane + 1)` and extends from
                // there.
                let Some(p) = cur.first_mismatch(base, values) else {
                    return false;
                };
                let first = base + p;
                let mut vs = cur.materialize(thickness.max(first + 1).max(cur.held()));
                if vs.len() < end {
                    vs.resize(end, 0);
                }
                vs[first..end].copy_from_slice(&values[p..]);
                *cur = ThickValue::PerThread(vs);
                true
            }
        }
    }

    /// Writes the arithmetic progression `vbase + k·vstride` (wrapping)
    /// to the `count` lanes starting at `base` of register `r` — the
    /// value-level equivalent of [`write_lanes`](ThickRegs::write_lanes)
    /// for a run the caller holds in compressed form. Lanes below
    /// `max(thickness, base + count)`, and those a `Segments` value holds
    /// past it, read exactly what the per-lane replay produces; lanes
    /// beyond may read the extended progression where the replay's vector
    /// would read 0, which is unobservable because a thickness change
    /// pins affine registers first. The stored representation is kept
    /// compressed (`Uniform`, `Affine` or `Segments`) whenever the
    /// register was compressed, decaying per-lane only when it already
    /// held explicit lanes.
    pub fn write_affine(
        &mut self,
        r: tcf_isa::reg::Reg,
        base: usize,
        count: usize,
        vbase: Word,
        vstride: Word,
        thickness: usize,
    ) {
        if r.is_zero() || count == 0 {
            return;
        }
        let end = base + count;
        let reg = &mut self.regs[r.index()];
        match reg {
            ThickValue::PerThread(vs) => {
                if vs.len() < end {
                    vs.resize(end, 0);
                }
                let mut v = vbase;
                for slot in &mut vs[base..end] {
                    *slot = v;
                    v = v.wrapping_add(vstride);
                }
            }
            _ => {
                // Whole-register overwrite: the common shape (every slice
                // of an instruction writing one progression) stays
                // allocation-free.
                let kept = thickness.max(reg.held());
                if base == 0 && end >= kept {
                    *reg = ThickValue::affine(vbase, vstride);
                    return;
                }
                // Splice the run into the compressed value: keep what is
                // below `base` and above `end`, canonicalize, collapse.
                let pieces = |lo, hi| reg.pieces(lo, hi).into_iter().flatten();
                let spliced = pieces(0, base)
                    .chain([Seg::new(count, vbase, vstride)])
                    .chain(pieces(end, kept.max(end)));
                *reg = ThickValue::from_segs(spliced, thickness);
            }
        }
    }

    /// The lane range `[lo, lo + len)` of every register as a fresh
    /// register file of thickness `len` (see
    /// [`ThickValue::slice_range`]). Splitting a flow into sub-blocks —
    /// the Balanced bound boundary, an async budget boundary, a branch
    /// divergence frontier — costs O(#runs) per register, never
    /// O(thickness), unless a register already holds explicit lanes.
    pub fn slice_lanes(&self, lo: usize, len: usize) -> ThickRegs {
        ThickRegs {
            regs: self.regs.iter().map(|v| v.slice_range(lo, len)).collect(),
        }
    }

    /// The flow-wise (thread 0) view as a fresh register file — exactly
    /// what cloning and then
    /// [`collapse_to_flowwise`](ThickRegs::collapse_to_flowwise) produces,
    /// but built uniform-by-uniform so the parent's per-thread lane
    /// vectors are never cloned just to be thrown away.
    pub fn clone_flowwise(&self) -> ThickRegs {
        ThickRegs {
            regs: self
                .regs
                .iter()
                .map(|v| ThickValue::Uniform(v.get(0)))
                .collect(),
        }
    }

    /// Collapses every register to the flow-wise (thread 0) view — the
    /// state a child flow inherits across a `split`, and the state a flow
    /// keeps when its thickness changes (per-thread data is meaningless
    /// under a new thickness).
    pub fn collapse_to_flowwise(&mut self) {
        for r in &mut self.regs {
            if !r.is_uniform() {
                *r = ThickValue::Uniform(r.get(0));
            }
        }
    }

    /// Bounds every affine register at `len` lanes (see
    /// [`ThickValue::pin`]). Called before a thickness change so the
    /// unbounded affine forms cannot leak values past the old thickness:
    /// O(registers), whatever the thickness.
    pub(crate) fn pin(&mut self, len: usize) {
        for r in &mut self.regs {
            r.pin(len);
        }
    }

    /// Number of registers currently needing per-thread storage (used by
    /// the Table 1 registers-per-thread measurement).
    pub fn per_thread_count(&self) -> usize {
        self.regs.iter().filter(|r| !r.is_uniform()).count()
    }

    /// Test support: rewrites every register into its fully materialized
    /// per-thread form — `thickness` lanes, or the lanes a value holds
    /// past it. Semantically the identity — every implicit thread reads
    /// the same words as before, and a non-uniform register reads the
    /// same after a later regrow — but it defeats the uniform
    /// representation, forcing execution down the general thick path. The
    /// scalarization property test uses this to pin the uniform fast path
    /// against per-thread execution.
    pub fn materialize_all(&mut self, thickness: usize) {
        for v in &mut self.regs {
            *v = ThickValue::PerThread(v.materialize(thickness.max(1).max(v.held())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcf_isa::reg::r;

    /// Expands a mask to per-lane booleans via the runs.
    fn mask_lanes(m: &LaneMask, len: usize) -> Vec<bool> {
        let mut out = vec![false; len];
        let mut covered = 0;
        for r in m.runs() {
            out[r.start..r.start + r.len].fill(r.set);
            covered += r.len;
        }
        assert_eq!(covered, len, "runs must tile the slice");
        out
    }

    #[test]
    fn lane_mask_matches_truthiness_per_lane() {
        let vals: Vec<(&str, ThickValue)> = vec![
            ("uniform-true", ThickValue::Uniform(3)),
            ("uniform-false", ThickValue::Uniform(0)),
            (
                "affine-crossing",
                ThickValue::Affine {
                    base: -6,
                    stride: 2,
                },
            ),
            (
                "affine-offset",
                ThickValue::Affine {
                    base: -5,
                    stride: 2,
                },
            ),
            (
                "affine-neg",
                ThickValue::Affine {
                    base: 9,
                    stride: -3,
                },
            ),
            (
                "segments",
                // Lanes [1, 1, 0, 0, 0, 7, 8, 9, 0, 2].
                ThickValue::Segments(vec![
                    Seg {
                        len: 2,
                        base: 1,
                        stride: 0,
                    },
                    Seg {
                        len: 3,
                        base: 0,
                        stride: 0,
                    },
                    Seg {
                        len: 3,
                        base: 7,
                        stride: 1,
                    },
                    Seg {
                        len: 1,
                        base: 0,
                        stride: 0,
                    },
                    Seg {
                        len: 1,
                        base: 2,
                        stride: 0,
                    },
                ]),
            ),
        ];
        for (name, v) in &vals {
            for (lo, len) in [(0usize, 10usize), (0, 1), (3, 5), (9, 1), (0, 0)] {
                let mut m = LaneMask::default();
                m.rebuild(v, lo, len, usize::MAX)
                    .unwrap_or_else(|e| panic!("{name}: {e:?}"));
                let got = mask_lanes(&m, len);
                let want: Vec<bool> = (lo..lo + len).map(|k| v.get(k) != 0).collect();
                assert_eq!(got, want, "{name} lo={lo} len={len}");
                // Alternation: adjacent runs never share truthiness.
                for w in m.runs().windows(2) {
                    assert_ne!(w[0].set, w[1].set, "{name}: runs must alternate");
                }
            }
        }
    }

    #[test]
    fn lane_mask_rejects_lanes_and_budget() {
        let mut m = LaneMask::default();
        assert_eq!(
            m.rebuild(&ThickValue::PerThread(vec![1, 0, 1]), 0, 3, usize::MAX),
            Err(MaskError::Lanes)
        );
        // 0,1,0,1,... segments — every lane its own run, blows a budget of 3.
        let v = ThickValue::Segments(
            (0..8)
                .flat_map(|_| {
                    [
                        Seg {
                            len: 1,
                            base: 0,
                            stride: 0,
                        },
                        Seg {
                            len: 1,
                            base: 1,
                            stride: 0,
                        },
                    ]
                })
                .collect(),
        );
        assert_eq!(m.rebuild(&v, 0, 16, 3), Err(MaskError::Budget));
        assert!(m.rebuild(&v, 0, 16, 16).is_ok());
    }

    #[test]
    fn piece_runs_and_run_count_cover_representations() {
        let mut buf = Vec::new();
        assert!(ThickValue::Uniform(5).piece_runs(2, 4, &mut buf));
        assert_eq!(
            buf,
            vec![Seg {
                len: 4,
                base: 5,
                stride: 0
            }]
        );
        buf.clear();
        assert!(ThickValue::Affine {
            base: 10,
            stride: 3
        }
        .piece_runs(1, 3, &mut buf));
        assert_eq!(
            buf,
            vec![Seg {
                len: 3,
                base: 13,
                stride: 3
            }]
        );
        buf.clear();
        let segs = ThickValue::Segments(vec![
            Seg {
                len: 3,
                base: 7,
                stride: 0,
            },
            Seg {
                len: 3,
                base: 1,
                stride: 1,
            },
        ]);
        assert!(segs.piece_runs(0, 6, &mut buf));
        let total: usize = buf.iter().map(|s| s.len as usize).sum();
        assert_eq!(total, 6);
        buf.clear();
        assert!(!ThickValue::PerThread(vec![1, 2]).piece_runs(0, 2, &mut buf));
        assert_eq!(ThickValue::Uniform(0).run_count(), 1);
        assert_eq!(ThickValue::Affine { base: 0, stride: 1 }.run_count(), 1);
        assert!(segs.run_count() >= 2);
        assert_eq!(ThickValue::PerThread(vec![1]).run_count(), 0);
    }

    #[test]
    fn merge_segs_coalesces_single_lane_rejoins() {
        // Repeated branch-rejoin writebacks produce adjacent single-lane
        // segments that together form a progression; canonicalization must
        // fold them so run-count doesn't grow monotonically.
        let v = ThickValue::from_segs(
            vec![
                Seg {
                    len: 1,
                    base: 10,
                    stride: 0,
                },
                Seg {
                    len: 1,
                    base: 12,
                    stride: 0,
                },
                Seg {
                    len: 1,
                    base: 14,
                    stride: 0,
                },
                Seg {
                    len: 1,
                    base: 16,
                    stride: 0,
                },
            ],
            4,
        );
        assert_eq!(v.run_count(), 1);
        assert_eq!(
            v,
            ThickValue::Affine {
                base: 10,
                stride: 2
            }
        );
        // Uniform rejoin: equal single lanes collapse too.
        let u = ThickValue::from_segs(
            vec![
                Seg {
                    len: 1,
                    base: 5,
                    stride: 0,
                },
                Seg {
                    len: 1,
                    base: 5,
                    stride: 0,
                },
                Seg {
                    len: 2,
                    base: 5,
                    stride: 0,
                },
            ],
            4,
        );
        assert_eq!(u, ThickValue::Uniform(5));
    }

    #[test]
    fn uniform_reads_everywhere() {
        let v = ThickValue::Uniform(7);
        assert_eq!(v.get(0), 7);
        assert_eq!(v.get(1_000_000), 7);
        assert_eq!(v.as_uniform(), Some(7));
    }

    #[test]
    fn set_same_value_stays_uniform() {
        let mut v = ThickValue::Uniform(7);
        v.set(3, 7, 8);
        assert!(v.is_uniform());
    }

    #[test]
    fn set_different_value_promotes() {
        let mut v = ThickValue::Uniform(7);
        v.set(2, 9, 4);
        assert!(!v.is_uniform());
        assert_eq!(v.get(0), 7);
        assert_eq!(v.get(2), 9);
        assert_eq!(v.get(3), 7);
    }

    #[test]
    fn per_thread_reads_beyond_length_are_zero() {
        let v = ThickValue::PerThread(vec![1, 2]);
        assert_eq!(v.get(5), 0);
    }

    #[test]
    fn normalize_recompresses() {
        let mut v = ThickValue::PerThread(vec![4, 4, 4]);
        assert!(v.normalize(3));
        assert_eq!(v, ThickValue::Uniform(4));
        let mut v = ThickValue::PerThread(vec![4, 5, 4]);
        assert!(!v.normalize(3));
    }

    #[test]
    fn materialize_pads_with_zero() {
        let v = ThickValue::PerThread(vec![1, 2]);
        assert_eq!(v.materialize(4), vec![1, 2, 0, 0]);
        let u = ThickValue::Uniform(9);
        assert_eq!(u.materialize(3), vec![9, 9, 9]);
    }

    #[test]
    fn uniform_over_matches_normalize_without_mutating() {
        let cases = vec![
            (ThickValue::Uniform(3), 4),
            (ThickValue::PerThread(vec![4, 4, 4]), 3),
            (ThickValue::PerThread(vec![4, 5, 4]), 3),
            // Beyond-length entries read 0: uniform over 4 iff first is 0.
            (ThickValue::PerThread(vec![0, 0]), 4),
            (ThickValue::PerThread(vec![2, 2]), 4),
            (ThickValue::PerThread(vec![]), 2),
            (ThickValue::PerThread(vec![1, 1, 9]), 2),
        ];
        for (v, t) in cases {
            let before = v.clone();
            let expect = {
                let mut c = v.clone();
                c.normalize(t);
                c.as_uniform()
            };
            assert_eq!(v.uniform_over(t), expect, "{v:?} over {t}");
            assert_eq!(v, before, "uniform_over must not mutate");
        }
    }

    #[test]
    fn regs_r0_hardwired() {
        let mut f = ThickRegs::new(8);
        f.write(r(0), 0, 42, 4);
        assert_eq!(f.read(r(0), 0), 0);
        f.write_uniform(r(0), 42);
        assert_eq!(f.read(r(0), 0), 0);
    }

    #[test]
    fn regs_collapse_to_flowwise() {
        let mut f = ThickRegs::new(4);
        f.write(r(1), 0, 10, 3);
        f.write(r(1), 1, 20, 3);
        f.write_uniform(r(2), 5);
        assert_eq!(f.per_thread_count(), 1);
        f.collapse_to_flowwise();
        assert_eq!(f.per_thread_count(), 0);
        assert_eq!(f.read(r(1), 2), 10); // thread 0's view everywhere
        assert_eq!(f.read(r(2), 0), 5);
    }

    #[test]
    fn write_lanes_matches_per_lane_writes() {
        // Bulk lane writes must leave the register bit-identical to the
        // ascending per-lane replay they replace — including the stored
        // representation, not just the values threads read.
        let starts = [
            ThickValue::Uniform(7),
            ThickValue::Uniform(0),
            ThickValue::PerThread(vec![1, 2, 3]),
            ThickValue::PerThread(vec![]),
        ];
        let runs: [(usize, &[Word]); 6] = [
            (0, &[7, 7, 7]),    // all agree with Uniform(7)
            (0, &[7, 9, 7]),    // disagree mid-run
            (2, &[5, 6]),       // offset run
            (5, &[1]),          // run beyond current length
            (0, &[]),           // empty run
            (1, &[2, 2, 2, 2]), // run crossing the stored length
        ];
        for start in &starts {
            for &(base, values) in &runs {
                for thickness in [1usize, 3, 6] {
                    let mut bulk = ThickRegs::new(2);
                    bulk.write_value(r(1), start.clone());
                    let mut lanes = ThickRegs::new(2);
                    lanes.write_value(r(1), start.clone());
                    bulk.write_lanes(r(1), base, values, thickness);
                    for (j, &v) in values.iter().enumerate() {
                        lanes.write(r(1), base + j, v, thickness);
                    }
                    assert_eq!(
                        bulk.value(r(1)),
                        lanes.value(r(1)),
                        "start={start:?} base={base} values={values:?} t={thickness}"
                    );
                }
            }
        }
    }

    #[test]
    fn write_tracks_thickness_for_promotion() {
        let mut f = ThickRegs::new(4);
        f.write_uniform(r(3), 1);
        f.write(r(3), 2, 9, 6);
        // Threads 0..6 except 2 should still see 1.
        assert_eq!(f.read(r(3), 0), 1);
        assert_eq!(f.read(r(3), 2), 9);
        assert_eq!(f.read(r(3), 5), 1);
    }

    #[test]
    fn affine_reads_progression() {
        let v = ThickValue::affine(10, 3);
        assert_eq!(v.get(0), 10);
        assert_eq!(v.get(4), 22);
        assert!(!v.is_uniform());
        assert_eq!(v.as_uniform(), None);
        // Stride 0 canonicalizes to Uniform.
        assert_eq!(ThickValue::affine(7, 0), ThickValue::Uniform(7));
        // Wrapping lanes.
        let w = ThickValue::affine(Word::MAX, 1);
        assert_eq!(w.get(1), Word::MIN);
    }

    #[test]
    fn segments_read_piecewise_and_zero_beyond() {
        let v = ThickValue::Segments(vec![
            Seg {
                len: 2,
                base: 5,
                stride: 0,
            },
            Seg {
                len: 3,
                base: 100,
                stride: -2,
            },
        ]);
        assert_eq!(
            (0..7).map(|i| v.get(i)).collect::<Vec<_>>(),
            vec![5, 5, 100, 98, 96, 0, 0]
        );
        assert_eq!(v.materialize(7), vec![5, 5, 100, 98, 96, 0, 0]);
    }

    #[test]
    fn affine_set_agreeing_value_keeps_compression() {
        // Satellite regression: `set` on Affine must stay compressed when
        // the written value matches the progression — including at both
        // thickness boundaries.
        for (i, t) in [(0usize, 1usize), (3, 4), (0, 4), (2, 4), (7, 4)] {
            let mut v = ThickValue::affine(10, 3);
            v.set(i, 10 + 3 * i as Word, t);
            assert_eq!(
                v,
                ThickValue::affine(10, 3),
                "agreeing set at i={i} t={t} must not decay"
            );
        }
    }

    #[test]
    fn affine_set_decays_exactly_like_per_thread_promotion() {
        // Disagreeing `set` must land in the same PerThread state a
        // never-compressed register would be in: length
        // max(thickness, i+1), progression values, write applied.
        let cases = [(0usize, 1usize), (0, 4), (2, 4), (3, 4), (5, 4), (0, 0)];
        for (i, t) in cases {
            let mut v = ThickValue::affine(10, 3);
            v.set(i, -1, t);
            let mut want: Vec<Word> = (0..t.max(i + 1) as Word).map(|k| 10 + 3 * k).collect();
            want[i] = -1;
            assert_eq!(v, ThickValue::PerThread(want), "set at i={i} t={t}");
        }
        // Thickness-1 boundary: a single-lane affine write decays to a
        // one-element vector, not an empty or progression-extended one.
        let mut v = ThickValue::affine(4, 9);
        v.set(0, 0, 1);
        assert_eq!(v, ThickValue::PerThread(vec![0]));
        // index == thickness - 1 boundary.
        let mut v = ThickValue::affine(0, 1);
        v.set(3, 99, 4);
        assert_eq!(v, ThickValue::PerThread(vec![0, 1, 2, 99]));
    }

    #[test]
    fn segments_set_boundaries_match_per_thread_promotion() {
        let seg = || {
            ThickValue::Segments(vec![
                Seg {
                    len: 2,
                    base: 1,
                    stride: 0,
                },
                Seg {
                    len: 2,
                    base: 8,
                    stride: 1,
                },
            ])
        };
        // Agreeing writes keep the segments.
        let mut v = seg();
        v.set(3, 9, 4);
        assert_eq!(v, seg());
        // Beyond-total lanes read 0; writing 0 there stays compressed.
        let mut v = seg();
        v.set(5, 0, 4);
        assert_eq!(v, seg());
        // Disagreeing write at the last lane decays at max(t, i+1).
        let mut v = seg();
        v.set(3, -7, 4);
        assert_eq!(v, ThickValue::PerThread(vec![1, 1, 8, -7]));
        // Disagreeing write past the thickness extends with the
        // materialized reads (zeros past the total).
        let mut v = seg();
        v.set(5, 2, 4);
        assert_eq!(v, ThickValue::PerThread(vec![1, 1, 8, 9, 0, 2]));
    }

    #[test]
    fn normalize_and_uniform_over_handle_compressed_forms() {
        let mut v = ThickValue::affine(6, 5);
        assert!(!v.normalize(3));
        assert!(v.normalize(1));
        assert_eq!(v, ThickValue::Uniform(6));
        let mut v = ThickValue::Segments(vec![
            Seg {
                len: 1,
                base: 4,
                stride: 0,
            },
            Seg {
                len: 2,
                base: 4,
                stride: 3,
            },
        ]);
        assert_eq!(v.uniform_over(2), Some(4));
        assert_eq!(v.uniform_over(3), None);
        assert!(v.normalize(2));
        assert_eq!(v, ThickValue::Uniform(4));
    }

    #[test]
    fn pin_bounds_an_affine_value_at_the_old_thickness() {
        let mut v = ThickValue::affine(0, 2);
        v.pin(3);
        assert_eq!(v, ThickValue::Segments(vec![Seg::new(3, 0, 2)]));
        assert_eq!(v.materialize(3), vec![0, 2, 4]);
        // After the pin, lanes past the old thickness read 0 — the same
        // view a per-thread register has across a thickness increase.
        assert_eq!(v.get(5), 0);
        // Uniform and PerThread are untouched.
        let mut u = ThickValue::Uniform(9);
        u.pin(4);
        assert_eq!(u, ThickValue::Uniform(9));
        let mut p = ThickValue::PerThread(vec![1, 2]);
        p.pin(1);
        assert_eq!(p, ThickValue::PerThread(vec![1, 2]));
    }

    #[test]
    fn pin_at_the_thickness_edges() {
        // Thickness 0 clamps to one lane: a flow with no implicit threads
        // still holds a well-formed bounded value.
        let mut v = ThickValue::affine(5, 3);
        v.pin(0);
        assert_eq!(v, ThickValue::Segments(vec![Seg::new(1, 5, 0)]));

        // Thickness 1 keeps exactly the first lane; later lanes read 0
        // like any short per-thread vector.
        let mut v = ThickValue::affine(5, 3);
        v.pin(1);
        assert_eq!(v.materialize(5), vec![5, 0, 0, 0, 0]);

        // A bounded value is never cut shorter: its lanes past a smaller
        // thickness are what an earlier, thicker pin kept.
        let segs = ThickValue::Segments(vec![Seg::new(2, 7, 1), Seg::new(2, 100, 0)]);
        let mut s = segs.clone();
        s.pin(1);
        assert_eq!(s, segs);
    }

    #[test]
    fn regs_pin_keeps_the_materialized_view() {
        // Every register reads exactly its materialized lanes after the
        // pin; the affine one becomes a bounded run, the rest keep their
        // form (unlike `materialize_all`, which forces everything
        // per-thread).
        let thickness = 4;
        let mut regs = ThickRegs::new(5);
        regs.write_affine(r(1), 0, thickness, 10, 2, thickness); // affine
        regs.write(r(2), 2, 9, thickness); // per-thread
        regs.write_uniform(r(3), 6);
        regs.write_value(
            r(4),
            ThickValue::Segments(vec![Seg::new(2, 1, 1), Seg::new(2, 50, -3)]),
        );
        let mut reference = regs.clone();
        reference.materialize_all(thickness);

        regs.pin(thickness);
        for reg in [r(1), r(2), r(3), r(4)] {
            // Past the thickness only the uniform register reads its word
            // where a materialized vector reads 0.
            let lanes = if reg == r(3) {
                thickness
            } else {
                thickness + 2
            };
            for lane in 0..lanes {
                assert_eq!(
                    regs.read(reg, lane),
                    reference.read(reg, lane),
                    "reg {reg:?} lane {lane}"
                );
            }
        }
        // Uniform stayed uniform.
        assert_eq!(regs.per_thread_count(), 3);
    }

    #[test]
    fn pinned_lanes_survive_writes_at_a_smaller_thickness() {
        // Thickness 8 shrinks to 2: the per-lane view keeps lanes 2..8 of
        // a register through every kind of write at thickness 2, and
        // reads them again when the flow regrows.
        let (old, t) = (8, 2);
        let write: [&dyn Fn(&mut ThickRegs); 4] = [
            &|regs| regs.write_affine(r(1), 0, t, 100, 1, t),
            &|regs| regs.write_affine(r(1), 1, 1, 100, 0, t),
            &|regs| {
                regs.write_lanes(r(1), 0, &[100, -100], t);
            },
            &|regs| regs.write(r(1), 1, -100, t),
        ];
        for (k, write) in write.iter().enumerate() {
            let mut regs = ThickRegs::new(2);
            regs.write_affine(r(1), 0, old, 0, 3, old);
            let mut lanes = regs.clone();
            lanes.materialize_all(old);
            regs.pin(old);
            write(&mut regs);
            write(&mut lanes);
            for lane in 0..old + 2 {
                assert_eq!(
                    regs.read(r(1), lane),
                    lanes.read(r(1), lane),
                    "write {k} lane {lane}"
                );
            }
            assert_eq!(regs.read(r(1), old - 1), 21, "write {k}");
        }
    }

    #[test]
    fn affine_over_extracts_progressions() {
        assert_eq!(ThickValue::Uniform(3).affine_over(5, 10), Some((3, 0)));
        assert_eq!(ThickValue::affine(10, 3).affine_over(2, 4), Some((16, 3)));
        let segs = ThickValue::Segments(vec![
            Seg {
                len: 4,
                base: 0,
                stride: 2,
            },
            Seg {
                len: 4,
                base: 50,
                stride: 0,
            },
        ]);
        assert_eq!(segs.affine_over(1, 3), Some((2, 2)));
        assert_eq!(segs.affine_over(4, 4), Some((50, 0)));
        assert_eq!(segs.affine_over(2, 4), None); // straddles pieces
        assert_eq!(segs.affine_over(8, 3), Some((0, 0))); // zero tail
        assert_eq!(ThickValue::PerThread(vec![0, 1, 2]).affine_over(0, 3), None);
    }

    #[test]
    fn write_affine_matches_per_lane_replay() {
        // write_affine must leave every lane reading exactly what the
        // ascending per-lane replay produces, for every starting
        // representation — and keep compressed starts compressed.
        let starts = [
            ThickValue::Uniform(7),
            ThickValue::affine(0, 1),
            ThickValue::affine(-5, 3),
            ThickValue::Segments(vec![
                Seg {
                    len: 3,
                    base: 2,
                    stride: 4,
                },
                Seg {
                    len: 3,
                    base: 0,
                    stride: 0,
                },
            ]),
            ThickValue::PerThread(vec![9, 8, 7]),
        ];
        let runs = [
            (0usize, 6usize, 0 as Word, 1 as Word), // whole overwrite
            (0, 3, 0, 1),                           // prefix
            (3, 3, 3, 1),                           // suffix continuing lane ids
            (2, 2, 50, 0),                          // interior constant
            (5, 4, -2, -2),                         // crossing the end
            (1, 1, 77, 5),                          // single lane
            (0, 0, 1, 1),                           // empty run
        ];
        for start in &starts {
            for &(base, count, vb, vs) in &runs {
                for t in [1usize, 4, 6] {
                    let mut bulk = ThickRegs::new(2);
                    bulk.write_value(r(1), start.clone());
                    let mut lanes = ThickRegs::new(2);
                    lanes.write_value(r(1), start.clone());
                    bulk.write_affine(r(1), base, count, vb, vs, t);
                    for k in 0..count {
                        lanes.write(r(1), base + k, vb.wrapping_add(vs * k as Word), t);
                    }
                    // Lanes beyond max(thickness, end) are unobservable
                    // (thickness growth pins affine registers first), so
                    // equivalence is checked below that line.
                    let top = t.max(base + count);
                    for i in 0..top {
                        assert_eq!(
                            bulk.value(r(1)).get(i),
                            lanes.value(r(1)).get(i),
                            "lane {i}: start={start:?} run=({base},{count},{vb},{vs}) t={t}"
                        );
                    }
                    if !matches!(start, ThickValue::PerThread(_)) {
                        assert!(
                            !matches!(bulk.value(r(1)), ThickValue::PerThread(_)),
                            "compressed start decayed: start={start:?} run=({base},{count},{vb},{vs}) t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn write_affine_slices_reassemble_to_affine() {
        // Four fragment slices writing consecutive pieces of one
        // progression must merge back into a single Affine value — the
        // shape the parallel engine's per-slice merge produces.
        let mut f = ThickRegs::new(2);
        f.write_value(r(1), ThickValue::Uniform(0));
        for slice in 0..4usize {
            let lo = slice * 256;
            f.write_affine(r(1), lo, 256, lo as Word * 3, 3, 1024);
        }
        assert_eq!(f.value(r(1)), &ThickValue::affine(0, 3));
    }

    #[test]
    fn write_lanes_decays_compressed_forms_like_per_lane_sets() {
        let starts = [
            ThickValue::affine(0, 2),
            ThickValue::Segments(vec![
                Seg {
                    len: 2,
                    base: 3,
                    stride: 0,
                },
                Seg {
                    len: 2,
                    base: 10,
                    stride: 1,
                },
            ]),
        ];
        let runs: [(usize, &[Word]); 4] = [
            (0, &[0, 2, 4]), // agrees with affine start
            (1, &[2, 9]),    // disagrees mid-run
            (5, &[1]),       // beyond current coverage
            (0, &[]),        // empty
        ];
        for start in &starts {
            for &(base, values) in &runs {
                for t in [1usize, 4, 6] {
                    let mut bulk = ThickRegs::new(2);
                    bulk.write_value(r(1), start.clone());
                    let mut lanes = ThickRegs::new(2);
                    lanes.write_value(r(1), start.clone());
                    bulk.write_lanes(r(1), base, values, t);
                    for (j, &v) in values.iter().enumerate() {
                        lanes.write(r(1), base + j, v, t);
                    }
                    assert_eq!(
                        bulk.value(r(1)),
                        lanes.value(r(1)),
                        "start={start:?} base={base} values={values:?} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn affine_alu_matches_scalar_eval() {
        // Every closed-form result must agree lane for lane with the
        // scalar ALU on materialized operands and cover exactly `len`
        // lanes, across all 22 ops — exhaustively on small domains, not
        // by sampling: a one-lane region beside a coinciding value (the
        // `min`/`max` of two crossing progressions) only shows up when
        // every base meets every stride at every length.
        fn check(grid: &[(Word, Word)], lens: std::ops::RangeInclusive<usize>) {
            for op in AluOp::ALL {
                for &a in grid {
                    for &b in grid {
                        for len in lens.clone() {
                            let Some(runs) = affine_alu(op, a, b, len) else {
                                continue;
                            };
                            let total: usize = runs.runs().iter().map(|s| s.len as usize).sum();
                            assert_eq!(total, len, "{op:?} a={a:?} b={b:?} covers all lanes");
                            for k in 0..len {
                                assert_eq!(
                                    runs.get(k),
                                    op.eval(at(a.0, a.1, k), at(b.0, b.1, k)),
                                    "{op:?} lane {k} of {len} a={a:?} b={b:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        let grid = |bases: &[Word], strides: std::ops::RangeInclusive<Word>| -> Vec<(Word, Word)> {
            bases
                .iter()
                .flat_map(|&b| strides.clone().map(move |s| (b, s)))
                .collect()
        };
        let small: Vec<Word> = (-8..=8).collect();
        check(&grid(&small, -4..=4), 1..=6);
        let (max, min) = (Word::MAX, Word::MIN);
        let edges = [max, max - 1, max - 5, min, min + 1, min + 5, 0, 1, -1];
        check(&grid(&edges, -3..=3), 1..=5);
        // Long strides and progressions that wrap within the run.
        let wrapping = [
            (0, 1),
            (5, 0),
            (-3, 2),
            (100, -7),
            (0, 0),
            (Word::MAX - 4, 3), // wraps within 8 lanes
            (Word::MIN + 2, -1),
            (2, 63),
        ];
        check(&wrapping, 8..=8);
    }

    #[test]
    fn affine_alu_folds_the_hot_shapes() {
        // The shapes the benchmark loop leans on must stay closed (not
        // fall back to per-lane evaluation).
        assert!(affine_alu(AluOp::Add, (0, 1), (1 << 14, 0), 1024).is_some());
        assert!(affine_alu(AluOp::Add, (0, 3), (0, 1), 1024).is_some());
        assert!(affine_alu(AluOp::Mul, (0, 1), (8, 0), 1024).is_some());
        assert!(affine_alu(AluOp::Slt, (0, 1), (512, 0), 1024).is_some());
        // And the comparison splits into the documented ≤3 runs.
        let runs = affine_alu(AluOp::Slt, (0, 1), (512, 0), 1024).unwrap();
        assert_eq!(
            runs.runs(),
            &[
                Seg {
                    len: 512,
                    base: 1,
                    stride: 0
                },
                Seg {
                    len: 512,
                    base: 0,
                    stride: 0
                }
            ]
        );
        // Non-affine algebra escapes: quadratic products, data shifts.
        assert!(affine_alu(AluOp::Mul, (0, 1), (0, 2), 8).is_none());
        assert!(affine_alu(AluOp::And, (0, 1), (3, 0), 8).is_none());
        assert!(affine_alu(AluOp::Shr, (0, 4), (1, 0), 8).is_none());
    }
}
