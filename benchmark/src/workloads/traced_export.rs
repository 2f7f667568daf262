//! `traced_export` — a thickness-1024 array loop run with both sinks
//! recording, then pushed through every exporter: event clones, Chrome
//! trace, the v2 NDJSON stream (drained while running), `parse_stream`,
//! registry replay and the metrics JSON. `tcf-obs` does most of the work;
//! every other workload runs with the sinks disabled, so the pair shows both
//! what observing costs and that turning it off stays free.

use tcf_core::Variant;
use tcf_isa::word::Word;

use super::{random_words, Job, Scale, Source, SHARED_DEFAULT};
use crate::rng::Rng;

const T: usize = 1024;
const A: usize = 1 << 14;
const B: usize = 2 << 14;

pub fn build(seed: u64, scale: Scale) -> Vec<Job> {
    let mut rng = Rng::new(seed, 5);
    let iters = scale.pick(40, 3) as Word;
    let k = rng.range(1, 9);
    let src = format!(
        "shared int a[{T}] @ {A};
shared int b[{T}] @ {B};
void main() {{
    #{T};
    int i = 0;
    while (i < {iters}) {{
        a[.] = a[.] + b[.] + . * {k};
        i = i + 1;
    }}
}}
"
    );
    let a0 = random_words(&mut rng, T, 1 << 30);
    let b0 = random_words(&mut rng, T, 1 << 30);
    let mut a = a0.clone();
    for _ in 0..iters {
        for (j, x) in a.iter_mut().enumerate() {
            *x += b0[j] + j as Word * k;
        }
    }
    let mut job = Job::new(
        "array_loop_recorded",
        Source::Tce(src),
        Variant::SingleInstruction,
        SHARED_DEFAULT,
    );
    job.pokes.push((A, a0));
    job.pokes.push((B, b0));
    job.expect.push((A, a));
    job.export = true;
    vec![job]
}
