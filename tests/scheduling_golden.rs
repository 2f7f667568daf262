//! Golden flow scheduling: steps, cycles, pipeline statistics, every
//! group's TCF-buffer counters and the final memory of five many-flow
//! programs on `default_machine()` (P = 16, T_p = 64, 64 buffer slots),
//! recorded before the buffer became slots + list + table, before the
//! step loop read a run list instead of walking the flow table, and before
//! a buffer miss became one `OverheadRun`. Which flow runs when, in which
//! order it meets the buffers and what the buffers evict are all in these
//! numbers; the host may find them faster, it may not move one of them,
//! under either engine, recorded or not.
//!
//! To re-record after a change that *means* to move the model, run
//! `cargo test --test scheduling_golden -- --nocapture` and copy the `got`
//! lines of the failure message.

use std::collections::HashMap;
use std::fmt::Write;

use tcf::core::{Engine, TcfMachine, Variant};
use tcf::isa::word::Word;
use tcf::machine::{MachineConfig, UnitKind};
use tcf::pram::RunSummary;
use tcf_obs::FlowEvent;

const ACC: usize = 64;
const A: usize = 100_000;
const B: usize = 200_000;
const C: usize = 300_000;
const SIZE: usize = 8192;

fn decls() -> String {
    format!(
        "shared int acc @ {ACC};
shared int a[{SIZE}] @ {A};
shared int b[{SIZE}] @ {B};
shared int c[{SIZE}] @ {C};
"
    )
}

/// Everything the scheduler decides, one line each.
fn fingerprint(m: &TcfMachine, s: &RunSummary) -> String {
    let st = &s.machine;
    let buffer_overhead: u64 = m.buffers().iter().map(|b| b.overhead_cycles).sum();
    let per_group: Vec<(u64, u64)> = m.buffers().iter().map(|b| (b.switches, b.misses)).collect();
    // FNV-1a over the result region and the accumulator word.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = m.peek_range(C, SIZE).unwrap();
    words.push(m.peek(ACC).unwrap());
    for w in words {
        hash = (hash ^ w as u64).wrapping_mul(0x0100_0000_01b3);
    }
    format!(
        "steps={} cycles={} compute={} shared={} local={} fetches={} bubbles={} overhead={}\n\
         buffer_overhead={} flows={} live={}\n\
         switches/misses {:?}\n\
         memory {:016x}",
        s.steps,
        s.cycles,
        st.compute_ops,
        st.shared_refs,
        st.local_refs,
        st.fetches,
        st.bubbles,
        st.overhead_cycles,
        buffer_overhead,
        m.flow_ids().len(),
        m.live_flows(),
        per_group,
        hash,
    )
}

fn check(name: &str, variant: Variant, src: &str, golden: &str) {
    let program = tcf::lang::compile(src).expect("golden program compiles");
    let config = MachineConfig::default_machine();
    for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
        for recorded in [false, true] {
            let mut m = TcfMachine::new(config.clone(), variant, program.clone());
            m.set_engine(engine);
            m.set_tracing(recorded);
            m.set_observing(recorded);
            for i in 0..SIZE {
                m.poke(A + i, ((i * 2_654_435_761usize) >> 9) as Word % 1000)
                    .unwrap();
                m.poke(B + i, (i * 7 % 113) as Word).unwrap();
            }
            let s = m.run(1_000_000).expect("golden program halts");
            let got = fingerprint(&m, &s);
            assert_eq!(
                got, golden,
                "{name} under {engine:?}, recorded = {recorded}\ngot:\n{got}\n"
            );
            if recorded {
                check_overhead_events(name, &m, &s);
            }
        }
    }
}

/// Every buffer miss shows in the trace as `load_cost` `FlowOverhead`
/// units of the missing flow on the missing group — however the units
/// reached the pipeline — and the trace holds no overhead event that the
/// statistics do not count.
fn check_overhead_events(name: &str, m: &TcfMachine, s: &RunSummary) {
    let load_cost = m.config().tcf_load_cost;
    let mut traced: HashMap<(usize, u32), u64> = HashMap::new();
    for e in m.trace().events() {
        if e.kind == UnitKind::FlowOverhead {
            *traced
                .entry((e.group, e.flow.expect("overhead has a flow")))
                .or_default() += e.count();
        }
    }
    assert_eq!(
        traced.values().sum::<u64>(),
        s.machine.overhead_cycles,
        "{name}: traced overhead events vs counted overhead cycles"
    );
    let mut reloads: HashMap<(usize, u32), u64> = HashMap::new();
    for e in m.obs().events() {
        if let FlowEvent::BufferReload { flow, group, cost } = e.event {
            assert_eq!(cost, load_cost, "{name}: a reload costs load_cost");
            *reloads.entry((group, flow)).or_default() += cost;
        }
    }
    let misses: u64 = m.buffers().iter().map(|b| b.misses).sum();
    assert_eq!(reloads.values().sum::<u64>(), misses * load_cost);
    for (key, cost) in reloads {
        let seen = traced.get(&key).copied().unwrap_or(0);
        assert!(
            seen >= cost,
            "{name}: flow {} missed for {cost} cycles on group {} but the trace holds {seen}",
            key.1,
            key.0
        );
    }
}

/// `outer × inner` child flows per round under `SingleInstruction` — 81
/// of them plus the 9 arm parents and the root against 64 buffer slots per
/// group — then a NUMA tail, so the run ends with ~180 halted flows in the
/// table while one bunch steps.
fn multitasking_src() -> String {
    let (outer, inner, rounds) = (9, 9, 2);
    let mut arms = String::new();
    let mut off = 0;
    for o in 0..outer {
        arms.push_str("            #1: parallel {\n");
        for i in 0..inner {
            let t = [48, 64, 8, 1, 256, 20][(o * inner + i) % 6];
            writeln!(
                arms,
                "                #{t}: c[. + {off}] = a[. + {off}] + b[. + {off}] + r;"
            )
            .unwrap();
            off += t;
        }
        arms.push_str("            }\n");
    }
    assert!(off <= SIZE);
    format!(
        "{}void main() {{
    int r = 0;
    while (r < {rounds}) {{
        parallel {{
{arms}        }}
        r += 1;
    }}
    numa (8) {{
        int k = 0;
        int s = 0;
        while (k < 150) {{
            s = s + k * 3;
            k = k + 1;
        }}
        acc = s;
    }}
}}
",
        decls()
    )
}

/// Section 4's guard form on the first 700 elements, then the loop form
/// over all of them: 1 024 SPMD unit flows, 324 of which sit the guard
/// out.
fn guard_loop_src() -> String {
    format!(
        "{}void main() {{
    if (gid < 700) {{
        c[gid] = a[gid] + b[gid];
    }}
    int total = nprocs * nthreads;
    int i = gid;
    while (i < {SIZE}) {{
        c[i] = a[i] + b[i];
        i = i + total;
    }}
}}
",
        decls()
    )
}

/// 128 bunches of 8 unit flows: every other one halts inside its bunch
/// (the absorbed siblings halt with it), the rest leave NUMA mode and all
/// eight flows go on SPMD.
fn bunch_src() -> String {
    format!(
        "{}void main() {{
    numa (8) {{
        int k = 0;
        int s = 0;
        while (k < 90) {{
            s = s + k * 5;
            k = k + 1;
        }}
        acc = s;
        if (gid % 16 == 8) {{
            return;
        }}
        s = s + 1;
    }}
    c[gid] = a[gid] + b[gid] + gid;
}}
",
        decls()
    )
}

/// A `fork` wider than one quantum of the 16 groups, so the spawn's block
/// flows split at the budget boundary and the tails get fresh ids.
fn spawn_src() -> String {
    format!(
        "{}void main() {{
    fork (i = 0; i < 3000) {{
        c[i] = a[i] + b[i] * 2;
    }}
    fork (i = 0; i < 50) {{
        c[i + 4000] = a[i] - b[i];
    }}
}}
",
        decls()
    )
}

const GOLDEN_MULTITASKING: &str = "\
steps=306 cycles=72796 compute=87060 shared=31687 local=0 fetches=4349 bubbles=217996 overhead=285074\n\
buffer_overhead=279312 flows=181 live=0\n\
switches/misses [(2898, 2469), (2040, 2040), (2040, 2040), (2040, 2040), (2040, 2040), (2040, 2040), (2040, 2040), (2040, 2040), (1620, 108), (1620, 108), (1230, 82), (1230, 82), (1230, 82), (1230, 82), (1230, 82), (1230, 82)]\n\
memory e8ddda88e4f1c4bc";
/// The two thread-based variants schedule this program identically.
const GOLDEN_GUARD_LOOP: &str = "\
steps=102 cycles=22325 compute=75180 shared=26676 local=0 fetches=101856 bubbles=88198 overhead=16384\n\
buffer_overhead=16384 flows=1024 live=0\n\
switches/misses [(6528, 64), (6528, 64), (6528, 64), (6528, 64), (6528, 64), (6528, 64), (6528, 64), (6528, 64), (6528, 64), (6528, 64), (6496, 64), (6016, 64), (6016, 64), (6016, 64), (6016, 64), (6016, 64)]\n\
memory ab1c883beaacfeaa";
const GOLDEN_BUNCH: &str = "\
steps=138 cycles=26590 compute=133312 shared=1664 local=0 fetches=135168 bubbles=81320 overhead=30784\n\
buffer_overhead=30592 flows=1024 live=0\n\
switches/misses [(2000, 952), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64), (1360, 64)]\n\
memory 53249fd1247689b8";
const GOLDEN_SPAWN: &str = "\
steps=31 cycles=6762 compute=18309 shared=9150 local=0 fetches=875 bubbles=40809 overhead=2\n\
buffer_overhead=0 flows=145 live=0\n\
switches/misses [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)]\n\
memory 00568e7c2b34480c";

#[test]
fn multitasking_past_the_buffer_with_a_numa_tail() {
    check(
        "multitasking",
        Variant::SingleInstruction,
        &multitasking_src(),
        GOLDEN_MULTITASKING,
    );
}

#[test]
fn guarded_spmd_loop_single_operation() {
    check(
        "guard_loop_single_operation",
        Variant::SingleOperation,
        &guard_loop_src(),
        GOLDEN_GUARD_LOOP,
    );
}

#[test]
fn guarded_spmd_loop_configurable() {
    check(
        "guard_loop_configurable",
        Variant::ConfigurableSingleOperation,
        &guard_loop_src(),
        GOLDEN_GUARD_LOOP,
    );
}

#[test]
fn bunches_exit_and_halt() {
    check(
        "bunch",
        Variant::ConfigurableSingleOperation,
        &bunch_src(),
        GOLDEN_BUNCH,
    );
}

#[test]
fn multi_instruction_spawn() {
    check(
        "spawn",
        Variant::MultiInstruction,
        &spawn_src(),
        GOLDEN_SPAWN,
    );
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Bounded rings, which no `repro` command turns on: the multitasking
/// program recorded into `set_trace_ring(4096)` + `set_observing_ring(4096)`
/// must drop, keep and export exactly what it did when the ring held one
/// record per unit. The constants were recorded by running this test at
/// the commit before the trace stored runs (PR 14).
#[test]
fn bounded_ring_artifacts_are_the_per_unit_ring_s() {
    let program = tcf::lang::compile(&multitasking_src()).unwrap();
    let mut m = TcfMachine::new(
        MachineConfig::default_machine(),
        Variant::SingleInstruction,
        program,
    );
    m.set_trace_ring(4096);
    m.set_observing_ring(4096);
    for i in 0..SIZE {
        m.poke(A + i, ((i * 2_654_435_761usize) >> 9) as Word % 1000)
            .unwrap();
        m.poke(B + i, (i * 7 % 113) as Word).unwrap();
    }
    m.run(1_000_000).unwrap();
    let trace = m.trace();
    assert_eq!(
        (trace.dropped(), m.obs().dropped(), trace.next_seq()),
        (617_721, 18_620, 621_817)
    );
    assert_eq!(trace.len(), 4096);
    assert_eq!(fnv(&trace.to_csv()), 0x3763_682c_bb66_fd5f, "to_csv");
    assert_eq!(fnv(&trace.gantt(0)), 0xf417_937e_f8cb_d2d3, "gantt(0)");
    let chrome = tcf_obs::chrome::chrome_trace_with_drops(
        &trace.events(),
        &m.obs().events(),
        trace.dropped(),
        m.obs().dropped(),
    );
    assert_eq!(
        fnv(&chrome),
        0x189e_309b_dd31_392d,
        "chrome_trace_with_drops"
    );
}
