//! `thick_regs` — register-only compressed thick flows. Per step the
//! simulator does fetch/dispatch, flow scheduling, mask classification and
//! closed-form timing; no lane is ever touched and memory is reached once,
//! at the end, to hand the result to the oracle. The bypass workload for
//! every per-lane or memory optimisation.

use tcf_core::Variant;
use tcf_isa::word::Word;

use super::{random_words, Job, Scale, Source, SHARED_DEFAULT};
use crate::rng::Rng;

const SUM: usize = 64;
const ARR_A: usize = 1 << 18;
const ARR_C: usize = 2 << 18;

/// Seeded constants of the moving-cut recurrence at thickness `n`.
struct Cut {
    n: usize,
    iters: usize,
    s0: Word,
    c0: Word,
    mult: Word,
    base: Word,
    step: Word,
}

impl Cut {
    fn new(rng: &mut Rng, n: usize, iters: usize) -> Cut {
        let n_w = n as Word;
        Cut {
            n,
            // The seed moves the trip count a little, so simulated cycles
            // are a function of the seed like every other input.
            iters: iters + rng.below(16) as usize,
            s0: rng.range(2, 9),
            c0: rng.range(1, 1000),
            mult: 2 * rng.range(1, 8) + 1,
            // Sixteen cut points `base + k*step`, all inside the lane
            // range and (n being no multiple of 24) off every fragment
            // boundary.
            base: rng.range(n_w / 8, n_w / 4),
            step: rng.range(n_w / 32, n_w / 24),
        }
    }

    fn cut(&self, i: usize) -> Word {
        self.base + (i & 15) as Word * self.step
    }

    /// The recurrence in assembly: tce has no per-lane select, and `sel`
    /// under a run-length mask is the path this leg is here to time.
    fn asm(&self, setthick: bool) -> String {
        let prologue = if setthick {
            format!("    setthick {}\n", self.n)
        } else {
            String::new()
        };
        format!(
            "main:
{prologue}    mfs r1, tid
    mul r3, r1, {s0}
    add r3, r3, {c0}
    ldi r4, 0
loop:
    and r9, r4, 15
    mul r7, r9, {step}
    add r7, r7, {base}
    slt r2, r1, r7
    mul r10, r1, {mult}
    sel r6, r2, r10, r3
    add r3, r3, r6
    add r4, r4, 1
    slt r8, r4, {iters}
    bnez r8, loop
    madd [r0+{SUM}], r3
    halt
",
            s0 = self.s0,
            c0 = self.c0,
            step = self.step,
            base = self.base,
            mult = self.mult,
            iters = self.iters,
        )
    }

    /// Oracle. Lanes between two neighbouring cut points share one
    /// history, so each such interval carries `acc = a + b*lane`; a lane
    /// below the cut adds `lane*mult`, a lane at or above it doubles.
    /// The shared word ends as the wrapping sum of `acc` over all lanes.
    fn expected_sum(&self) -> Word {
        let mut bounds: Vec<Word> = (0..16).map(|k| self.cut(k)).collect();
        bounds.push(0);
        bounds.push(self.n as Word);
        bounds.sort_unstable();
        bounds.dedup();
        let mut sum: Word = 0;
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let (mut a, mut b) = (self.c0, self.s0);
            for i in 0..self.iters {
                if hi <= self.cut(i) {
                    b = b.wrapping_add(self.mult);
                } else {
                    a = a.wrapping_mul(2);
                    b = b.wrapping_mul(2);
                }
            }
            let len = (hi - lo) as i128;
            let lanes = ((lo + hi - 1) as i128 * len / 2) as Word; // sum of lane ids
            sum = sum
                .wrapping_add(a.wrapping_mul(len as Word))
                .wrapping_add(b.wrapping_mul(lanes));
        }
        sum
    }
}

pub fn build(seed: u64, scale: Scale) -> Vec<Job> {
    let mut rng = Rng::new(seed, 1);
    let mut jobs = Vec::new();

    // SingleInstruction at thickness ~4e6 (not 1e8: on the hashed module
    // map the one closing `madd` costs O(thickness) host time in tcf-mem's
    // per-module accounting, and this workload is about everything else).
    let cut = Cut::new(
        &mut rng,
        scale.pick(4_194_301, 65_533),
        scale.pick(6_000, 100),
    );
    let mut job = Job::new(
        "regs_single_instruction",
        Source::Asm(cut.asm(true)),
        Variant::SingleInstruction,
        SHARED_DEFAULT,
    );
    job.expect.push((SUM, vec![cut.expected_sum()]));
    jobs.push(job);

    // The same recurrence as one machine-fixed vector of width 1e6.
    let cut = Cut::new(&mut rng, scale.pick(999_983, 4_093), scale.pick(3_000, 100));
    let mut job = Job::new(
        "regs_fixed_thickness",
        Source::Asm(cut.asm(false)),
        Variant::FixedThickness { width: cut.n },
        SHARED_DEFAULT,
    );
    job.expect.push((SUM, vec![cut.expected_sum()]));
    jobs.push(job);

    jobs.push(fork_job(&mut rng, scale));
    jobs.push(balanced_job(&mut rng, scale));
    jobs
}

/// `fork` of 2^17 asynchronous threads under MultiInstruction: O(groups)
/// block flows, quantum windows of `T_p` lanes.
fn fork_job(rng: &mut Rng, scale: Scale) -> Job {
    let n = scale.pick(1 << 17, 1 << 10);
    let rounds = 4;
    let mult = 2 * rng.range(1, 8) + 1;
    let src = format!(
        "shared int a[{n}] @ {ARR_A};
shared int c[{n}] @ {ARR_C};
void main() {{
    fork (i = 0; i < {n}) {{
        int v = a[i];
        int k = 0;
        while (k < {rounds}) {{
            v = v * {mult} + i;
            k += 1;
        }}
        c[i] = v;
    }}
}}
"
    );
    let a = random_words(rng, n, 1 << 20);
    let c = a
        .iter()
        .enumerate()
        .map(|(i, &v)| (0..rounds).fold(v, |v, _| v.wrapping_mul(mult).wrapping_add(i as Word)))
        .collect();
    let mut job = Job::new(
        "regs_fork_multi_instruction",
        Source::Tce(src),
        Variant::MultiInstruction,
        SHARED_DEFAULT,
    );
    job.pokes.push((ARR_A, a));
    job.expect.push((ARR_C, c));
    job
}

/// Thickness 16*64*P under `Balanced {{ 64 }}`: every thick instruction
/// takes 16 steps, resumed on compressed registers. Written in tce with
/// the arithmetic select `c*x + (1-c)*y`, which stays compressed too.
fn balanced_job(rng: &mut Rng, scale: Scale) -> Job {
    let n = scale.pick(16 * 64 * 16, 2 * 64 * 16);
    let iters = scale.pick(300, 20) + rng.below(4) as usize;
    let (s0, c0, mult) = (rng.range(2, 9), rng.range(1, 1000), rng.range(2, 9));
    let n_w = n as Word;
    let (base, step) = (rng.range(n_w / 8, n_w / 4), rng.range(n_w / 32, n_w / 24));
    let src = format!(
        "shared int sum @ {SUM};
shared int out[{n}] @ {ARR_C};
void main() {{
    #{n};
    int acc = . * {s0} + {c0};
    int i = 0;
    while (i < {iters}) {{
        int cut = (i & 15) * {step} + {base};
        int c = . < cut;
        acc = acc + c * (. * {mult}) + (1 - c) * acc;
        multi(sum, MPADD, acc);
        i += 1;
    }}
    out[.] = acc;
}}
"
    );
    let mut sum: Word = 0;
    let mut out = Vec::with_capacity(n);
    for lane in 0..n_w {
        let mut acc = lane.wrapping_mul(s0).wrapping_add(c0);
        for i in 0..iters {
            let cut = (i & 15) as Word * step + base;
            let pick = if lane < cut {
                lane.wrapping_mul(mult)
            } else {
                acc
            };
            acc = acc.wrapping_add(pick);
            sum = sum.wrapping_add(acc);
        }
        out.push(acc);
    }
    let mut job = Job::new(
        "regs_balanced",
        Source::Tce(src),
        Variant::Balanced { bound: 64 },
        SHARED_DEFAULT,
    );
    job.expect.push((SUM, vec![sum]));
    job.expect.push((ARR_C, out));
    job
}
