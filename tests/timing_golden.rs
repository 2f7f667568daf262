//! Golden simulated timing: cycles, network statistics and round-trip
//! histograms of four memory-shaped programs on `default_machine()`
//! (P = 16, 4×4 mesh), recorded before the network's route table, fused
//! round trip and run-accumulated statistics went in. The timing walk may
//! get cheaper on the host; it may not move one simulated number, under
//! either engine.
//!
//! To re-record after a change that *means* to move the model, run
//! `cargo test --test timing_golden -- --nocapture` and copy the `got`
//! lines of the failure message.

use tcf::core::{Engine, TcfMachine, Variant};
use tcf::machine::MachineConfig;
use tcf::mem::ModuleMap;
use tcf::pram::RunSummary;
use tcf_obs::LatencyHistogram;

fn hist(h: &LatencyHistogram) -> String {
    format!(
        "n={} sum={} max={} {:?}",
        h.count(),
        h.sum(),
        h.max(),
        h.nonempty_buckets()
    )
}

/// Every simulated number the timing walk produces, on one line each.
fn fingerprint(s: &RunSummary) -> String {
    let n = &s.network;
    format!(
        "steps={} cycles={} shared_refs={} bubbles={}\n\
         net messages={} hops={} queue_cycles={} max_queue={} local={} route_sends={}\n\
         queue {}\n\
         roundtrip {}",
        s.steps,
        s.cycles,
        s.machine.shared_refs,
        s.machine.bubbles,
        n.messages,
        n.hops,
        n.queue_cycles,
        n.max_queue_cycles,
        n.local_deliveries,
        n.route_sends,
        hist(&n.queue),
        hist(&s.machine.mem_roundtrip),
    )
}

fn check(name: &str, config: MachineConfig, variant: Variant, src: &str, golden: &str) {
    let program = tcf::lang::compile(src).expect("golden program compiles");
    for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
        let mut m = TcfMachine::new(config.clone(), variant, program.clone());
        m.set_engine(engine);
        for i in 0..8192 {
            // Inputs with a skew: low values repeat, so `key % 64` piles up.
            let v = ((i * 2_654_435_761usize) >> 7) % 1000;
            m.poke(100_000 + i, (v * v / 1000) as i64).unwrap();
        }
        let s = m.run(1_000_000).expect("golden program halts");
        let got = fingerprint(&s);
        assert_eq!(got, golden, "{name} under {engine:?}\ngot:\n{got}\n");
    }
}

const GOLDEN_STREAM_HASHED: &str = "\
steps=75 cycles=60301 shared_refs=73728 bubbles=396357\n\
net messages=147456 hops=356352 queue_cycles=71875977 max_queue=2813 local=9240 route_sends=24576\n\
queue n=138216 sum=71875977 max=2813 [(0, 0, 43788), (1, 1, 2718), (2, 3, 3510), (4, 7, 3858), (8, 15, 3216), (16, 31, 3738), (32, 63, 8112), (64, 127, 6801), (128, 255, 6747), (256, 511, 7647), (512, 1023, 15834), (1024, 2047, 25719), (2048, 4095, 6528)]\n\
roundtrip n=73728 sum=102945654 max=3848 [(2, 3, 192), (4, 7, 1161), (8, 15, 3255), (16, 31, 12), (32, 63, 27), (64, 127, 111), (128, 255, 2769), (256, 511, 7254), (512, 1023, 14076), (1024, 2047, 26898), (2048, 4095, 17973)]";

const GOLDEN_STREAM_INTERLEAVED: &str = "\
steps=75 cycles=59806 shared_refs=73728 bubbles=391470\n\
net messages=147456 hops=380928 queue_cycles=77053017 max_queue=2813 local=9216 route_sends=24576\n\
queue n=138240 sum=77053017 max=2813 [(0, 0, 43758), (1, 1, 798), (2, 3, 4821), (4, 7, 3516), (8, 15, 2409), (16, 31, 3936), (32, 63, 8376), (64, 127, 6813), (128, 255, 7635), (256, 511, 7737), (512, 1023, 14565), (1024, 2047, 26025), (2048, 4095, 7851)]\n\
roundtrip n=73728 sum=101776617 max=3848 [(2, 3, 1008), (4, 7, 1173), (8, 15, 2427), (16, 31, 9), (32, 63, 18), (64, 127, 90), (128, 255, 2823), (256, 511, 7545), (512, 1023, 14343), (1024, 2047, 27372), (2048, 4095, 16920)]";

const GOLDEN_CONFLICTING_HISTOGRAM: &str = "\
steps=16 cycles=12923 shared_refs=20480 bubbles=83270\n\
net messages=40960 hops=103038 queue_cycles=20322898 max_queue=2253 local=2526 route_sends=0\n\
queue n=38434 sum=20322898 max=2253 [(0, 0, 5993), (1, 1, 1026), (2, 3, 1214), (4, 7, 1609), (8, 15, 1336), (16, 31, 1800), (32, 63, 3314), (64, 127, 3108), (128, 255, 2616), (256, 511, 2470), (512, 1023, 4841), (1024, 2047, 7836), (2048, 4095, 1271)]\n\
roundtrip n=20480 sum=21930784 max=2261 [(2, 3, 94), (4, 7, 131), (8, 15, 1055), (16, 31, 6), (32, 63, 21), (64, 127, 43), (128, 255, 1099), (256, 511, 2303), (512, 1023, 5156), (1024, 2047, 8855), (2048, 4095, 1717)]";

const GOLDEN_NUMA_SECTION: &str = "\
steps=355 cycles=334094 shared_refs=25728 bubbles=6640\n\
net messages=51456 hops=128384 queue_cycles=1913858 max_queue=1590 local=3216 route_sends=0\n\
queue n=48240 sum=1913858 max=1590 [(0, 0, 45830), (64, 127, 138), (128, 255, 199), (256, 511, 404), (512, 1023, 855), (1024, 2047, 814)]\n\
roundtrip n=25728 sum=2569576 max=1640 [(2, 3, 1418), (4, 7, 10298), (8, 15, 10997), (64, 127, 127), (128, 255, 273), (256, 511, 491), (512, 1023, 1108), (1024, 2047, 1016)]";

const STREAM: &str = "shared int a[8192] @ 100000;
shared int c[4096] @ 300000;
shared int sum @ 64;
shared int ranks @ 65;
void main() {
    #4096;
    int i = 0;
    int t = . * 3;
    while (i < 3) {
        c[.] = a[.] + a[2 * .] + i;
        multi(sum, MPADD, c[.]);
        multi(ranks, MPADD, t);
        i += 1;
    }
}
";

#[test]
fn stream_hashed() {
    check(
        "stream_hashed",
        MachineConfig::default_machine(),
        Variant::SingleInstruction,
        STREAM,
        GOLDEN_STREAM_HASHED,
    );
}

#[test]
fn stream_interleaved() {
    let mut config = MachineConfig::default_machine();
    config.module_map = ModuleMap::Interleaved;
    check(
        "stream_interleaved",
        config,
        Variant::SingleInstruction,
        STREAM,
        GOLDEN_STREAM_INTERLEAVED,
    );
}

#[test]
fn conflicting_histogram() {
    check(
        "conflicting_histogram",
        MachineConfig::default_machine(),
        Variant::SingleInstruction,
        "shared int key[4096] @ 100000;
shared int hist[64] @ 300000;
void main() {
    #4096;
    multi(hist[key[.] % 64], MPADD, 1);
    multi(hist[key[.] % 7], MPADD, key[.]);
}
",
        GOLDEN_CONFLICTING_HISTOGRAM,
    );
}

#[test]
fn numa_section() {
    check(
        "numa_section",
        MachineConfig::default_machine(),
        Variant::ConfigurableSingleOperation,
        "shared int a[8192] @ 100000;
shared int acc @ 64;
void main() {
    numa (8) {
        int k = 0;
        int s = 0;
        while (k < 200) {
            s = s + a[k * 3] * 5;
            k = k + 1;
        }
        acc = s;
    }
}
",
        GOLDEN_NUMA_SECTION,
    );
}
