//! `thick_mem` — one flow of thickness 1e5 streaming shared memory:
//! unit-stride read-modify-write, a stride-2 gather, a broadcast store and
//! a `multi`/`prefix` of loaded values. The work is legitimately O(T)
//! words per instruction: `tcf-mem` bulk resolution, `tcf-net` per-message
//! routing on the mesh and `tcf-machine` `SharedRun` timing dominate.

use tcf_core::Variant;
use tcf_isa::word::Word;

use super::{random_words, Job, Scale, Source};
use crate::rng::Rng;

const SUM: usize = 64;
const PSUM: usize = 65;

pub fn build(seed: u64, scale: Scale) -> Vec<Job> {
    let mut rng = Rng::new(seed, 2);
    let t = scale.pick(100_000, 2_000);
    let iters = scale.pick(2, 2);
    let region = (2 * t).next_power_of_two();
    let (a_base, b_base, c_base, p_base) = (region, 2 * region, 3 * region, 4 * region);
    let (k1, k2) = (rng.range(3, 11), rng.range(1, 100));
    let src = format!(
        "shared int sum @ {SUM};
shared int psum @ {PSUM};
shared int a[{t}] @ {a_base};
shared int b[{t2}] @ {b_base};
shared int c[{t}] @ {c_base};
shared int pre[{t}] @ {p_base};
void main() {{
    #{t};
    int i = 0;
    while (i < {iters}) {{
        a[.] = a[.] + b[2 * .] + i;
        c[.] = i * {k1} + {k2};
        multi(sum, MPADD, a[.]);
        pre[.] = prefix(psum, MPADD, b[2 * . + 1] & 1023);
        i += 1;
    }}
}}
",
        t2 = 2 * t
    );
    let a0 = random_words(&mut rng, t, 1 << 30);
    let b0 = random_words(&mut rng, 2 * t, 1 << 30);

    // Oracle: the loop, lane by lane.
    let mut a = a0.clone();
    let (mut sum, mut psum): (Word, Word) = (0, 0);
    let mut pre = vec![0; t];
    for i in 0..iters as Word {
        for (lane, x) in a.iter_mut().enumerate() {
            *x = x.wrapping_add(b0[2 * lane]).wrapping_add(i);
            sum = sum.wrapping_add(*x);
        }
        for (lane, p) in pre.iter_mut().enumerate() {
            *p = psum; // exclusive prefix in rank order, seeded with the old word
            psum = psum.wrapping_add(b0[2 * lane + 1] & 1023);
        }
    }
    let c = vec![(iters as Word - 1) * k1 + k2; t];

    // Hashed placement (the paper-scale default) sends every lane through
    // the per-lane resolver; interleaved placement lets the same program's
    // strided references resolve in bulk.
    [
        ("mem_hashed", Variant::SingleInstruction, false),
        ("mem_interleaved", Variant::SingleInstruction, true),
        (
            "mem_balanced_hashed",
            Variant::Balanced { bound: 64 },
            false,
        ),
    ]
    .into_iter()
    .map(|(name, variant, interleaved)| {
        let mut job = Job::new(name, Source::Tce(src.clone()), variant, 5 * region);
        job.interleaved = interleaved;
        job.pokes.push((a_base, a0.clone()));
        job.pokes.push((b_base, b0.clone()));
        job.expect.push((SUM, vec![sum, psum]));
        job.expect.push((a_base, a.clone()));
        job.expect.push((c_base, c.clone()));
        job.expect.push((p_base, pre.clone()));
        job
    })
    .collect()
}
