//! `thread_flows` — the paper's thread-model side: many thin flows. The
//! `FlowTable` walk, per-flow fetch, `split`/`join`, `TcfBuffer` eviction
//! and one-unit pipeline entries do the work and compression does none.

use std::fmt::Write;

use tcf_core::Variant;
use tcf_isa::word::Word;

use super::{random_words, Job, Scale, Source};
use crate::rng::Rng;

const ACC: usize = 64;
const REGION: usize = 1 << 16;
const A: usize = REGION;
const B: usize = 2 * REGION;
const C: usize = 3 * REGION;
const SHARED: usize = 4 * REGION;

pub fn build(seed: u64, scale: Scale) -> Vec<Job> {
    let mut rng = Rng::new(seed, 4);
    let size = scale.pick(1 << 15, 1 << 12);
    let a = random_words(&mut rng, size, 1 << 30);
    let b = random_words(&mut rng, size, 1 << 30);
    let c: Vec<Word> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
    let decls = format!(
        "shared int acc @ {ACC};
shared int a[{size}] @ {A};
shared int b[{size}] @ {B};
shared int c[{size}] @ {C};
"
    );
    // Section 4's loop form: 1024 SPMD unit flows striding over the array.
    let loop_body = format!(
        "    int total = nprocs * nthreads;
    int i = gid;
    while (i < {size}) {{
        c[i] = a[i] + b[i];
        i = i + total;
    }}
"
    );
    let with_arrays = |name: &str, src: String, variant| {
        let mut job = Job::new(name, Source::Tce(src), variant, SHARED);
        job.pokes.push((A, a.clone()));
        job.pokes.push((B, b.clone()));
        job
    };

    let mut jobs = Vec::new();

    let mut job = with_arrays(
        "loop_vadd_single_operation",
        format!("{decls}void main() {{\n{loop_body}}}\n"),
        Variant::SingleOperation,
    );
    job.expect.push((C, c.clone()));
    job.pram_ref = true;
    jobs.push(job);

    // Section 4's guard form on the first `guard` elements, then the loop
    // form over everything (which rewrites those elements identically).
    let guard = scale.pick(768, 48);
    let mut job = with_arrays(
        "guard_loop_vadd_configurable",
        format!(
            "{decls}void main() {{
    if (gid < {guard}) {{
        c[gid] = a[gid] + b[gid];
    }}
{loop_body}}}
"
        ),
        Variant::ConfigurableSingleOperation,
    );
    job.expect.push((C, c.clone()));
    job.pram_ref = true;
    jobs.push(job);

    // P3-style sequential section: the unit flows of each group bunch into
    // one NUMA stream per group.
    let spins = scale.pick(6_000, 200) as Word + rng.range(0, 15);
    let k3 = rng.range(2, 9);
    let numa_section = format!(
        "    numa (8) {{
        int k = 0;
        int s = 0;
        while (k < {spins}) {{
            s = s + k * {k3};
            k = k + 1;
        }}
        acc = s;
    }}
"
    );
    let spin_sum = k3 * spins * (spins - 1) / 2;
    let mut job = Job::new(
        "numa_bunch_configurable",
        Source::Tce(format!("{decls}void main() {{\n{numa_section}}}\n")),
        Variant::ConfigurableSingleOperation,
        SHARED,
    );
    job.expect.push((ACC, vec![spin_sum]));
    jobs.push(job);

    // Multitasking under SingleInstruction: every round splits into
    // `outer*inner` child flows of thickness 512, 64, 8, 1, 256, 1024, ... —
    // more resident flows per group than `tcf_buffer_slots` (64) — then a
    // NUMA section. The arms are nested because each arm's thickness holds
    // a register while the `split` is assembled.
    let (outer, inner) = (scale.pick(9, 3), scale.pick(9, 3));
    let rounds = scale.pick(10, 2);
    let mut arms = String::new();
    let mut off = 0;
    for o in 0..outer {
        arms.push_str("            #1: parallel {\n");
        for i in 0..inner {
            let t = [512, 64, 8, 1, 256, 1024][(o * inner + i) % 6];
            writeln!(
                arms,
                "                #{t}: c[. + {off}] = a[. + {off}] + b[. + {off}] + r;"
            )
            .unwrap();
            off += t;
        }
        arms.push_str("            }\n");
    }
    assert!(off <= size, "multitasking arms exceed the arrays");
    let expect_c = (0..off).map(|j| c[j] + rounds as Word - 1).collect();
    let mut job = with_arrays(
        "multitasking_single_instruction",
        format!(
            "{decls}void main() {{
    int r = 0;
    while (r < {rounds}) {{
        parallel {{
{arms}        }}
        r += 1;
    }}
{numa_section}}}
"
        ),
        Variant::SingleInstruction,
    );
    job.expect.push((C, expect_c));
    job.expect.push((ACC, vec![spin_sum]));
    jobs.push(job);

    jobs
}
