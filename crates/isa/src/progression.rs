//! Runs of lanes in arithmetic progression.
//!
//! One thick instruction stands for `T` operations whose operands are,
//! overwhelmingly, a function of the lane index: `base + stride·k`. Two
//! types say so, one per kind of thing that progresses:
//!
//! * [`Seg`] — `len` lanes of *values*, wrapping word arithmetic. Thick
//!   register values, closed-form ALU results, bulk store values and
//!   bulk read replies are lists of these.
//! * [`AddrRun`] — `count` lanes of *addresses*, exact integer
//!   arithmetic (an address that leaves the address space is a fault, not
//!   a wrap). Bulk memory references carry one.
//!
//! Everything that used to be re-derived per caller lives here once: the
//! lane evaluation ([`at`]), the exactness guards ([`Seg::exact_last`],
//! [`AddrRun::from_words`], [`AddrRun::first_outside`]), the merge rule
//! ([`Seg::try_merge`], and [`Seg::continued_by`], the part of it that is
//! safe before a list is complete), the clipped walk over a run list
//! ([`clip`]) and the lockstep walk over two ([`lockstep`]).

use serde::{Deserialize, Serialize};

use crate::word::{Addr, Word};

/// Lane `k` of the value progression `base + stride·k` (wrapping).
#[inline]
pub fn at(base: Word, stride: Word, k: usize) -> Word {
    base.wrapping_add(stride.wrapping_mul(k as Word))
}

/// A run of `len` lanes reading `base + stride·k` (wrapping), `k`
/// relative to the run's first lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Seg {
    /// Number of lanes in the run.
    pub len: u32,
    /// Value of the run's first lane.
    pub base: Word,
    /// Per-lane increment (0 for single-lane runs, by canonical form).
    pub stride: Word,
}

impl Seg {
    /// A run in canonical form: a single lane has no stride to speak of,
    /// so it stores 0.
    #[inline]
    pub fn new(len: usize, base: Word, stride: Word) -> Seg {
        Seg {
            len: len as u32,
            base,
            stride: if len == 1 { 0 } else { stride },
        }
    }

    /// Value of lane `k` (relative to the run's first lane).
    #[inline]
    pub fn at(&self, k: usize) -> Word {
        at(self.base, self.stride, k)
    }

    /// The first `k` lanes and the rest, each keeping the stride.
    #[inline]
    pub fn split_at(&self, k: usize) -> (Seg, Seg) {
        let head = Seg {
            len: k as u32,
            ..*self
        };
        let tail = Seg {
            len: self.len - k as u32,
            base: self.at(k),
            ..*self
        };
        (head, tail)
    }

    /// The value-exactness guard: the last lane's value when the exact
    /// (unwrapped) progression stays within `Word` range over the whole
    /// run — that is, when wrapping per-lane evaluation agrees with
    /// integer arithmetic on every lane. The progression is monotone, so
    /// the last lane decides for all of them. Comparisons, `min`/`max`
    /// and zero crossings are only folded in closed form under this
    /// guard.
    #[inline]
    pub fn exact_last(&self) -> Option<Word> {
        let last = self.base as i128 + self.stride as i128 * (self.len as i128 - 1).max(0);
        Word::try_from(last).ok()
    }

    /// This run with `next` appended, when `next` is this progression
    /// going on: it starts where this run ends and steps by the same
    /// stride (a single-lane `next` has no stride of its own). Both runs
    /// are non-empty. This never changes what either run's stride says,
    /// so it is safe on a list that is still being built.
    #[inline]
    pub fn continued_by(&self, next: &Seg) -> Option<Seg> {
        let goes_on = next.base == self.at(self.len as usize)
            && (next.len == 1 || next.stride == self.stride);
        goes_on.then_some(Seg {
            len: self.len + next.len,
            ..*self
        })
    }

    /// The canonical merge rule: the one run that reads this run's lanes
    /// followed by `next`'s, when there is one. It is
    /// [`continued_by`](Seg::continued_by) after the one thing a stored
    /// stride cannot say: a single lane fixes no stride, so it heads any
    /// progression that steps away from it (`5 | 7 9 11` is `5 7 9 11`,
    /// but `5 | 5 6 7` is not a run), and two single lanes always form a
    /// two-lane run. Masked write-backs splice runs at mask boundaries
    /// and leave single-lane fringes behind; without this a rejoin would
    /// grow a register's run count one fringe at a time.
    #[inline]
    pub fn try_merge(&self, next: &Seg) -> Option<Seg> {
        let mut head = *self;
        if head.len == 1 {
            head.stride = match next.len {
                1 => next.base.wrapping_sub(head.base),
                _ => next.stride,
            };
        }
        head.continued_by(next)
    }

    /// Appends this run to the run list ending in `last` under `rule`
    /// ([`try_merge`](Seg::try_merge) for a stored list,
    /// [`continued_by`](Seg::continued_by) for one still being built):
    /// merged into `last` when the rule allows, dropped when empty,
    /// otherwise returned in canonical form for the caller to push. A
    /// list built only through here has no two neighbours the rule would
    /// merge.
    #[inline]
    pub fn append_to(
        self,
        last: Option<&mut Seg>,
        rule: impl Fn(&Seg, &Seg) -> Option<Seg>,
    ) -> Option<Seg> {
        if self.len == 0 {
            return None;
        }
        let run = Seg::new(self.len as usize, self.base, self.stride);
        if let Some(prev) = last {
            if let Some(merged) = rule(prev, &run) {
                *prev = merged;
                return None;
            }
        }
        Some(run)
    }
}

/// The pieces of a run list over the lane window `[lo, hi)`, in lane
/// order and covering the window exactly. Lanes past the list read the
/// unbounded progression `tail = (base, stride)`, indexed from the list's
/// end: `(0, 0)` for a list whose uncovered lanes read zero, and an empty
/// list with a tail is a single unbounded progression. Pieces keep their
/// source run's stride, single-lane pieces included.
#[inline]
pub fn clip(runs: &[Seg], tail: (Word, Word), lo: usize, hi: usize) -> Clip<'_> {
    Clip {
        runs: runs.iter(),
        tail,
        skip: lo,
        left: hi.saturating_sub(lo),
    }
}

/// Iterator of [`clip`].
#[derive(Debug, Clone)]
pub struct Clip<'a> {
    runs: std::slice::Iter<'a, Seg>,
    tail: (Word, Word),
    /// Lanes still to pass over before the window starts.
    skip: usize,
    /// Lanes of the window still to yield.
    left: usize,
}

impl Iterator for Clip<'_> {
    type Item = Seg;

    #[inline]
    fn next(&mut self) -> Option<Seg> {
        while self.left > 0 {
            let run = match self.runs.next() {
                Some(run) => *run,
                // Past the list: the tail, as long as the window needs.
                None => Seg {
                    len: (self.skip + self.left) as u32,
                    base: self.tail.0,
                    stride: self.tail.1,
                },
            };
            let len = run.len as usize;
            if self.skip >= len {
                self.skip -= len;
                continue;
            }
            let take = self.left.min(len - self.skip);
            let piece = Seg {
                len: take as u32,
                base: run.at(self.skip),
                stride: run.stride,
            };
            self.skip = 0;
            self.left -= take;
            return Some(piece);
        }
        None
    }
}

/// Walks two run lists in lockstep, yielding `(start, a, b)` once per
/// maximal sub-run over which both lists are single progressions — the
/// union of the two boundary sets. `a` and `b` are the equally long
/// pieces of either list from lane `start` on; the walk ends with the
/// shorter list.
#[inline]
pub fn lockstep<'a>(a: &'a [Seg], b: &'a [Seg]) -> Lockstep<'a> {
    Lockstep {
        a: a.iter(),
        b: b.iter(),
        rest: (Seg::default(), Seg::default()),
        start: 0,
    }
}

/// Iterator of [`lockstep`].
#[derive(Debug, Clone)]
pub struct Lockstep<'a> {
    a: std::slice::Iter<'a, Seg>,
    b: std::slice::Iter<'a, Seg>,
    /// What is left of either list's current run.
    rest: (Seg, Seg),
    start: usize,
}

impl Iterator for Lockstep<'_> {
    type Item = (usize, Seg, Seg);

    #[inline]
    fn next(&mut self) -> Option<(usize, Seg, Seg)> {
        if self.rest.0.len == 0 {
            self.rest.0 = *self.a.next()?;
        }
        if self.rest.1.len == 0 {
            self.rest.1 = *self.b.next()?;
        }
        let n = self.rest.0.len.min(self.rest.1.len) as usize;
        let (a, a_rest) = self.rest.0.split_at(n);
        let (b, b_rest) = self.rest.1.split_at(n);
        self.rest = (a_rest, b_rest);
        let start = self.start;
        self.start += n;
        Some((start, a, b))
    }
}

/// A run of `count` lane addresses `base + stride·k`, in exact integer
/// arithmetic: lane `k` of a bulk memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRun {
    /// Address of lane 0.
    pub base: Addr,
    /// Address increment between consecutive lanes.
    pub stride: i64,
    /// Number of lanes.
    pub count: u32,
}

impl AddrRun {
    /// The lane addresses `to_addr(value + off)` of a word progression as
    /// an exact run, when per-lane wrapping and clamping provably cannot
    /// kick in: the exact progression must stay in `[0, i64::MAX]`. It is
    /// monotone, so both ends in range cover every lane — the wrapped
    /// per-lane result is then the exact value, and
    /// [`to_addr`](crate::word::to_addr) is the identity on
    /// non-negatives.
    #[inline]
    pub fn from_words(words: Seg, off: Word) -> Option<AddrRun> {
        let base = words.base.checked_add(off)?;
        let last = Seg { base, ..words }.exact_last()?;
        (base >= 0 && last >= 0).then_some(AddrRun {
            base: base as Addr,
            stride: words.stride,
            count: words.len,
        })
    }

    /// Lane `k`'s position on the integer line.
    #[inline]
    fn exact(&self, k: usize) -> i128 {
        self.base as i128 + k as i128 * self.stride as i128
    }

    /// Address of lane `k` of a run that lies inside an address space
    /// ([`first_outside`](AddrRun::first_outside) answered `None`).
    #[inline]
    pub fn at(&self, k: usize) -> Addr {
        (self.base as i64 + k as i64 * self.stride) as Addr
    }

    /// Address of lane `k` of an unchecked run: a lane below address 0
    /// or past `usize::MAX` saturates to `usize::MAX`, which no address
    /// space holds, so the reference faults instead of wrapping.
    #[inline]
    pub fn saturating_at(&self, k: usize) -> Addr {
        Addr::try_from(self.exact(k)).unwrap_or(Addr::MAX)
    }

    /// The lowest and highest lane positions, `None` for an empty run.
    #[inline]
    pub fn span(&self) -> Option<(i128, i128)> {
        let last = self.exact((self.count as usize).checked_sub(1)?);
        let first = self.base as i128;
        Some((first.min(last), first.max(last)))
    }

    /// The first lane address, in lane order, outside `[0, size)` —
    /// found without walking the lanes: a monotone progression leaves the
    /// window once. A lane below 0 reports the
    /// [`saturating_at`](AddrRun::saturating_at) sentinel.
    pub fn first_outside(&self, size: usize) -> Option<Addr> {
        let (lo, hi) = self.span()?;
        let (first, size) = (self.base as i128, size as i128);
        if lo >= 0 && hi < size {
            return None;
        }
        let stride = self.stride as i128;
        let k = if first >= size {
            0
        } else if stride > 0 {
            // first lane with base + k·stride ≥ size
            (size - first + stride - 1) / stride
        } else {
            // A run that starts inside only leaves by moving, so the
            // stride is negative: first lane with base + k·stride < 0.
            first / -stride + 1
        };
        Some(self.saturating_at(k as usize))
    }

    /// Whether `next` is this progression going on: the same stride,
    /// starting where this run ends.
    #[inline]
    pub fn continues(&self, next: &AddrRun) -> bool {
        next.stride == self.stride && next.base as i128 == self.exact(self.count as usize)
    }
}

#[cfg(test)]
mod tests {
    //! By brute force over small domains rather than by sampling: the bug
    //! this module's merge rule fixes sat in a corner (a one-lane run
    //! beside a coinciding value) that a sampled grid never visited.

    use super::*;
    use crate::word::to_addr;

    fn lanes(runs: &[Seg]) -> Vec<Word> {
        runs.iter()
            .flat_map(|s| (0..s.len as usize).map(|k| s.at(k)))
            .collect()
    }

    /// Every run of up to `max_len` lanes over the given bases and
    /// strides, single-lane runs with a stray stride included.
    fn segs(bases: &[Word], strides: &[Word], max_len: u32) -> Vec<Seg> {
        let mut out = Vec::new();
        for len in 1..=max_len {
            for &base in bases {
                for &stride in strides {
                    out.push(Seg { len, base, stride });
                }
            }
        }
        out
    }

    #[test]
    fn exact_last_iff_wrapping_evaluation_is_integer_evaluation() {
        let (max, min) = (Word::MAX, Word::MIN);
        let bases = [
            min,
            min + 1,
            min + 5,
            -2,
            -1,
            0,
            1,
            2,
            max - 5,
            max - 1,
            max,
        ];
        let strides = [min, -(1 << 62), -3, -2, -1, 0, 1, 2, 3, 1 << 62, max];
        for len in 0..=7u32 {
            for base in bases {
                for stride in strides {
                    let s = Seg { len, base, stride };
                    let exact = |k: u32| base as i128 + stride as i128 * k as i128;
                    let agrees = (0..len).all(|k| s.at(k as usize) as i128 == exact(k));
                    assert_eq!(s.exact_last().is_some(), agrees, "{s:?}");
                    if let (Some(last), true) = (s.exact_last(), len > 0) {
                        assert_eq!(last as i128, exact(len - 1), "{s:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn split_at_reads_the_same_lanes() {
        for s in segs(&[-3, 0, Word::MAX], &[-2, 0, 1, 5], 5) {
            for k in 0..=s.len as usize {
                let (head, tail) = s.split_at(k);
                assert_eq!(head.len as usize, k);
                assert_eq!(lanes(&[head, tail]), lanes(&[s]), "{s:?} at {k}");
            }
        }
    }

    /// The canonical-form pass `ThickValue` ran before this module
    /// existed, kept as the oracle for what a folded list looks like.
    fn merge_segs(segs: &mut Vec<Seg>) {
        let mut out = 0usize;
        for i in 0..segs.len() {
            let mut s = segs[i];
            if s.len == 0 {
                continue;
            }
            if s.len == 1 {
                s.stride = 0;
            }
            if out > 0 {
                let prev = segs[out - 1];
                let cont = prev.at(prev.len as usize);
                let merged = if prev.len == 1 && s.len == 1 {
                    Some(Seg {
                        len: 2,
                        base: prev.base,
                        stride: s.base.wrapping_sub(prev.base),
                    })
                } else if prev.len == 1 && s.base == prev.base.wrapping_add(s.stride) {
                    Some(Seg {
                        len: prev.len + s.len,
                        base: prev.base,
                        stride: s.stride,
                    })
                } else if s.base == cont && (s.stride == prev.stride || s.len == 1) {
                    Some(Seg {
                        len: prev.len + s.len,
                        base: prev.base,
                        stride: prev.stride,
                    })
                } else {
                    None
                };
                if let Some(m) = merged {
                    segs[out - 1] = m;
                    continue;
                }
            }
            segs[out] = s;
            out += 1;
        }
        segs.truncate(out);
    }

    fn fold(runs: &[Seg]) -> Vec<Seg> {
        let mut out: Vec<Seg> = Vec::new();
        for &run in runs {
            if let Some(run) = run.append_to(out.last_mut(), Seg::try_merge) {
                out.push(run);
            }
        }
        out
    }

    #[test]
    fn try_merge_reads_the_concatenation_or_there_is_no_single_run() {
        let all = segs(&[-2, -1, 0, 1, 2, Word::MAX], &[-2, -1, 0, 1, 2], 3);
        for a in &all {
            for b in &all {
                let want = lanes(&[*a, *b]);
                let is_run = want
                    .windows(3)
                    .all(|w| w[1].wrapping_sub(w[0]) == w[2].wrapping_sub(w[1]));
                match a.try_merge(b) {
                    Some(m) => assert_eq!(lanes(&[m]), want, "{a:?} + {b:?}"),
                    None => assert!(!is_run, "{a:?} + {b:?} is one run"),
                }
                // The strict half answers exactly when `a`'s own stride
                // reaches `b`, and agrees where it does.
                let strict = a.continued_by(b);
                let reached = b.base == a.at(a.len as usize);
                assert_eq!(strict.is_some(), is_run && reached, "{a:?} + {b:?}");
                assert!(
                    strict.is_none() || strict == a.try_merge(b),
                    "{a:?} + {b:?}"
                );
            }
        }
        // The case two hand-written merge rules disagreed on.
        let head = Seg::new(1, -8, 0);
        assert_eq!(head.try_merge(&Seg::new(2, -8, -1)), None);
        assert_eq!(
            head.try_merge(&Seg::new(2, -9, -1)),
            Some(Seg::new(3, -8, -1))
        );
    }

    #[test]
    fn folded_lists_are_canonical() {
        let mut all = segs(&[0, 1, 2], &[0, 1], 2);
        all.push(Seg::default()); // empty runs vanish
        for a in &all {
            for b in &all {
                for c in &all {
                    for d in &all {
                        let list = [*a, *b, *c, *d];
                        let folded = fold(&list);
                        assert_eq!(lanes(&folded), lanes(&list), "{list:?}");
                        for w in folded.windows(2) {
                            assert_eq!(w[0].try_merge(&w[1]), None, "{list:?} -> {folded:?}");
                        }
                        assert!(folded.iter().all(|s| s.len > 1 || s.stride == 0));
                        let mut oracle = list.to_vec();
                        merge_segs(&mut oracle);
                        assert_eq!(folded, oracle, "{list:?}");
                    }
                }
            }
        }
    }

    /// Run lists of up to three runs covering at most 9 lanes.
    fn lists() -> Vec<Vec<Seg>> {
        let runs = segs(&[-5, 7], &[0, 3], 3);
        let mut out = vec![vec![]];
        for a in &runs {
            out.push(vec![*a]);
            for b in &runs {
                out.push(vec![*a, *b]);
                for c in runs.iter().step_by(5) {
                    out.push(vec![*a, *b, *c]);
                }
            }
        }
        out
    }

    #[test]
    fn clip_yields_the_window_piece_by_piece() {
        for list in lists() {
            let covered = lanes(&list);
            for tail in [(0, 0), (100, -1)] {
                let read = |i: usize| match covered.get(i) {
                    Some(&v) => v,
                    None => at(tail.0, tail.1, i - covered.len()),
                };
                for lo in 0..=12usize {
                    for hi in lo..=12 {
                        let pieces: Vec<Seg> = clip(&list, tail, lo, hi).collect();
                        let want: Vec<Word> = (lo..hi).map(read).collect();
                        assert_eq!(lanes(&pieces), want, "{list:?} tail {tail:?} [{lo}, {hi})");
                        assert!(pieces.iter().all(|p| p.len > 0));
                        // One piece per source run the window meets, and
                        // one for the tail.
                        let mut ends = vec![0usize];
                        for s in &list {
                            ends.push(ends.last().unwrap() + s.len as usize);
                        }
                        let met = ends
                            .windows(2)
                            .filter(|w| w[0].max(lo) < w[1].min(hi))
                            .count();
                        let past = (hi > covered.len().max(lo)) as usize;
                        assert_eq!(pieces.len(), met + past, "{list:?} [{lo}, {hi})");
                    }
                }
            }
        }
    }

    #[test]
    fn lockstep_cuts_at_the_union_of_both_boundary_sets() {
        fn bounds(list: &[Seg], upto: usize) -> Vec<usize> {
            let mut at = 0;
            let mut out = vec![0];
            for s in list {
                at += s.len as usize;
                out.push(at.min(upto));
            }
            out
        }
        let all = lists();
        for a in all.iter().step_by(3) {
            for b in all.iter().step_by(7) {
                let (la, lb) = (lanes(a), lanes(b));
                let n = la.len().min(lb.len());
                let mut want = [bounds(a, n), bounds(b, n)].concat();
                want.sort_unstable();
                want.dedup();
                let mut cuts = vec![0];
                for (start, pa, pb) in lockstep(a, b) {
                    assert_eq!(start, *cuts.last().unwrap());
                    assert_eq!(pa.len, pb.len);
                    let end = start + pa.len as usize;
                    assert_eq!(lanes(&[pa]), la[start..end], "{a:?} | {b:?}");
                    assert_eq!(lanes(&[pb]), lb[start..end], "{a:?} | {b:?}");
                    cuts.push(end);
                }
                if n == 0 {
                    want = vec![0];
                }
                assert_eq!(cuts, want, "{a:?} | {b:?}");
            }
        }
    }

    #[test]
    fn addr_run_matches_lane_enumeration() {
        for base in 0..50usize {
            for stride in -3..=3i64 {
                for count in 0..=7u32 {
                    let run = AddrRun {
                        base,
                        stride,
                        count,
                    };
                    let exact: Vec<i128> = (0..count as i128)
                        .map(|k| base as i128 + k * stride as i128)
                        .collect();
                    assert_eq!(
                        run.span(),
                        exact.iter().min().copied().zip(exact.iter().max().copied())
                    );
                    for (k, &a) in exact.iter().enumerate() {
                        let sat = if a < 0 { Addr::MAX } else { a as Addr };
                        assert_eq!(run.saturating_at(k), sat, "{run:?} lane {k}");
                    }
                    for size in [0, 1, base.saturating_sub(1), base, base + 1, 48, 49, 50, 70] {
                        let first = exact.iter().position(|&a| a < 0 || a >= size as i128);
                        assert_eq!(
                            run.first_outside(size),
                            first.map(|k| run.saturating_at(k)),
                            "{run:?} in {size}"
                        );
                        if first.is_none() {
                            for (k, &a) in exact.iter().enumerate() {
                                assert_eq!(run.at(k) as i128, a, "{run:?} lane {k}");
                            }
                        }
                    }
                    let next = AddrRun {
                        base: (base as i64 + count as i64 * stride).max(0) as Addr,
                        ..run
                    };
                    let lands = base as i128 + count as i128 * stride as i128 >= 0;
                    assert_eq!(run.continues(&next), lands, "{run:?}");
                    assert!(!run.continues(&AddrRun {
                        stride: stride + 1,
                        ..next
                    }));
                }
            }
        }
    }

    #[test]
    fn from_words_iff_no_lane_wraps_or_clamps() {
        let (max, min) = (Word::MAX, Word::MIN);
        let words = [min, -9, -1, 0, 1, 9, max - 9, max - 1, max];
        for base in words {
            for off in words {
                for stride in [min, -4, -1, 0, 1, 4, max] {
                    for len in 1..=4u32 {
                        let s = Seg { len, base, stride };
                        let exact =
                            |k: u32| base as i128 + off as i128 + stride as i128 * k as i128;
                        let plain = (0..len).all(|k| (0..=max as i128).contains(&exact(k)));
                        let run = AddrRun::from_words(s, off);
                        assert_eq!(run.is_some(), plain, "{s:?} + {off}");
                        let Some(run) = run else { continue };
                        assert_eq!((run.stride, run.count), (stride, len));
                        for k in 0..len as usize {
                            let lane = to_addr(s.at(k).wrapping_add(off));
                            assert_eq!(run.saturating_at(k), lane, "{s:?} + {off} lane {k}");
                        }
                    }
                }
            }
        }
    }
}
