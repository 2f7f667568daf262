//! `irregular_lanes` — data-dependent PRAM algorithms whose registers decay
//! to explicit lanes: the same `tcf-mem`/`tcf-net` layers as `thick_mem`
//! used the other way (scattered per-lane references with conflicts through
//! `step_into` instead of conflict-free strided runs), plus the
//! `tcf_core::lanes` kernels and `write_lanes`.

use tcf_core::Variant;
use tcf_isa::word::Word;

use super::{random_words, Job, Scale, Source};
use crate::rng::Rng;

pub fn build(seed: u64, scale: Scale) -> Vec<Job> {
    let mut rng = Rng::new(seed, 3);
    vec![
        list_ranking(&mut rng, scale),
        histogram(&mut rng, scale),
        compaction(&mut rng, scale),
        parity(&mut rng, scale),
    ]
}

/// Wyllie pointer jumping over a seeded permutation: every round gathers
/// through `succ[.]`, so addresses are scattered and registers per-lane.
fn list_ranking(rng: &mut Rng, scale: Scale) -> Job {
    let log_n = scale.pick(15, 8);
    let n = 1usize << log_n;
    let (succ_b, rank_b, nsucc_b, nrank_b) = (n, 2 * n, 3 * n, 4 * n);
    let src = format!(
        "shared int succ[{n}] @ {succ_b};
shared int rank[{n}] @ {rank_b};
shared int nsucc[{n}] @ {nsucc_b};
shared int nrank[{n}] @ {nrank_b};
void main() {{
    int round = 0;
    while (round < {log_n}) {{
        #{n};
        nrank[.] = rank[.] + rank[succ[.]];
        nsucc[.] = succ[succ[.]];
        rank[.] = nrank[.];
        succ[.] = nsucc[.];
        round += 1;
    }}
}}
"
    );
    // `order[pos]` is the node at list position `pos`; the tail points to itself.
    let order = rng.permutation(n);
    let mut succ = vec![0; n];
    let mut rank0 = vec![1; n];
    let mut rank = vec![0; n];
    for (pos, &node) in order.iter().enumerate() {
        succ[node] = *order.get(pos + 1).unwrap_or(&node) as Word;
        rank[node] = (n - 1 - pos) as Word;
    }
    rank0[order[n - 1]] = 0;
    let mut job = Job::new(
        "list_ranking",
        Source::Tce(src),
        Variant::SingleInstruction,
        (5 * n).max(1 << 16),
    );
    job.pokes.push((succ_b, succ));
    job.pokes.push((rank_b, rank0));
    job.expect.push((rank_b, rank));
    job
}

/// Histogram by combining writes with a skewed key distribution: the
/// minimum of three uniform draws piles most keys on the low buckets, so
/// most references of a step conflict and are combined.
fn histogram(rng: &mut Rng, scale: Scale) -> Job {
    let n = scale.pick(1 << 15, 1 << 9);
    let buckets = 256;
    let rounds = scale.pick(6, 2);
    let (key_b, hist_b) = (n, 2 * n);
    let src = format!(
        "shared int key[{n}] @ {key_b};
shared int hist[{buckets}] @ {hist_b};
void main() {{
    #{n};
    int r = 0;
    while (r < {rounds}) {{
        multi(hist[key[.]], MPADD, 1 + r);
        r += 1;
    }}
}}
"
    );
    let keys: Vec<Word> = (0..n)
        .map(|_| (0..3).map(|_| rng.below(buckets)).min().unwrap() as Word)
        .collect();
    let per_key: Word = (1..=rounds as Word).sum();
    let mut hist = vec![0; buckets as usize];
    for &k in &keys {
        hist[k as usize] += per_key;
    }
    let mut job = Job::new(
        "histogram",
        Source::Tce(src),
        Variant::SingleInstruction,
        (3 * n).max(1 << 16),
    );
    job.pokes.push((key_b, keys));
    job.expect.push((hist_b, hist));
    job
}

/// Stream compaction: keepers take their output slot from one multiprefix,
/// the rest write past the output (branch-free target selection).
fn compaction(rng: &mut Rng, scale: Scale) -> Job {
    let n = scale.pick(1 << 15, 1 << 9);
    let count_addr = 70;
    let (data_b, out_b) = (n, 2 * n);
    let modulus = rng.range(3, 7);
    let src = format!(
        "shared int data[{n}] @ {data_b};
shared int out[{n2}] @ {out_b};
shared int count @ {count_addr};
void main() {{
    #{n};
    int v = data[.];
    int keep = v % {modulus} == 0;
    int slot = prefix(count, MPADD, keep);
    int target = keep * slot + (1 - keep) * ({n} + .);
    out[target] = v;
}}
",
        n2 = 2 * n
    );
    let data = random_words(rng, n, 1 << 20);
    let kept: Vec<Word> = data.iter().copied().filter(|v| v % modulus == 0).collect();
    let mut job = Job::new(
        "compaction",
        Source::Tce(src),
        Variant::SingleInstruction,
        (4 * n).max(1 << 16),
    );
    job.pokes.push((data_b, data));
    job.expect.push((count_addr, vec![kept.len() as Word]));
    job.expect.push((out_b, kept));
    job
}

/// `sel`-heavy parity recurrence: the opening `and` of the lane ids leaves
/// the affine algebra, so every later instruction runs on the per-lane
/// kernels. Assembly, because tce has no per-lane select.
fn parity(rng: &mut Rng, scale: Scale) -> Job {
    let n = scale.pick(1 << 16, 1 << 9);
    let iters = scale.pick(48, 8);
    let out_b = n;
    let bit = 1 << rng.below(3);
    let src = format!(
        "main:
    setthick {n}
    mfs r1, tid
    and r2, r1, {bit}
    sne r2, r2, 0
    ldi r3, 0
    ldi r4, 0
loop:
    sel r6, r2, r1, r3
    add r3, r3, r6
    xor r2, r2, 1
    sub r5, r3, r1
    sel r3, r2, r5, r3
    add r4, r4, 1
    slt r7, r4, {iters}
    bnez r7, loop
    st r3, [r1+{out_b}]
    halt
"
    );
    let out = (0..n as Word)
        .map(|id| {
            let (mut par, mut acc): (bool, Word) = (id & bit != 0, 0);
            for _ in 0..iters {
                acc = acc.wrapping_add(if par { id } else { acc });
                par = !par;
                if par {
                    acc = acc.wrapping_sub(id);
                }
            }
            acc
        })
        .collect();
    let mut job = Job::new(
        "parity_select",
        Source::Asm(src),
        Variant::SingleInstruction,
        (2 * n).max(1 << 16),
    );
    job.expect.push((out_b, out));
    job
}
