//! A scriptable debugger for TCF machines.
//!
//! Drives a [`TcfMachine`] step by step with a small command language,
//! inspecting flows, registers and memory. The `tdbg` binary wraps this
//! in a stdin REPL; scripts make it testable and usable from CI.
//!
//! ```text
//! step [n]          advance n machine steps (default 1)
//! run [n]           run to completion (or at most n steps)
//! break <pc>        toggle a breakpoint at instruction index pc
//! flows             list flows (id, status, mode, thickness, pc)
//! regs <flow>       dump a flow's registers (uniform or first lanes)
//! mem <addr> <len>  dump shared memory words
//! thick             machine-wide running thickness
//! stats             step/cycle/fetch counters so far
//! util              per-group issue-slot utilization so far
//! hist              latency histograms (memory round-trip, net queue, …)
//! events [n]        last n recorded flow-lifecycle events (default 10)
//! list              disassembly with the current flow pcs marked
//! help              this text
//! quit              stop the session
//! ```
//!
//! The debugger always records the cycle-level trace and the flow-event
//! stream (`util`, `hist` and `events` read them live).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use tcf_core::{FlowStatus, TcfMachine};

/// Interactive debugger state wrapping a machine.
pub struct Debugger {
    machine: TcfMachine,
    breakpoints: BTreeSet<usize>,
    finished: bool,
}

/// Outcome of one command, for REPL loops.
pub enum CmdOutcome {
    /// Keep reading commands.
    Continue,
    /// `quit` was issued.
    Quit,
}

impl Debugger {
    /// Wraps a machine for debugging, turning on trace and flow-event
    /// recording so `util`, `hist` and `events` have data to show.
    pub fn new(mut machine: TcfMachine) -> Debugger {
        machine.set_tracing(true);
        machine.set_observing(true);
        Debugger {
            machine,
            breakpoints: BTreeSet::new(),
            finished: false,
        }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &TcfMachine {
        &self.machine
    }

    /// Executes one command line, appending human-readable output.
    pub fn exec(&mut self, line: &str, out: &mut String) -> CmdOutcome {
        let mut parts = line.split_whitespace();
        let cmd = match parts.next() {
            Some(c) => c,
            None => return CmdOutcome::Continue,
        };
        let arg1: Option<i64> = parts.next().and_then(|s| s.parse().ok());
        let arg2: Option<i64> = parts.next().and_then(|s| s.parse().ok());
        match cmd {
            "step" | "s" => {
                let n = arg1.unwrap_or(1).max(0) as u64;
                self.advance(n, true, out);
            }
            "run" | "r" => {
                let n = arg1.unwrap_or(1_000_000).max(0) as u64;
                self.advance(n, true, out);
            }
            "break" | "b" => match arg1 {
                Some(pc) if pc >= 0 => {
                    let pc = pc as usize;
                    if self.breakpoints.remove(&pc) {
                        let _ = writeln!(out, "breakpoint at {pc} removed");
                    } else {
                        self.breakpoints.insert(pc);
                        let _ = writeln!(out, "breakpoint at {pc} set");
                    }
                }
                _ => {
                    let _ = writeln!(out, "usage: break <pc>");
                }
            },
            "flows" | "f" => self.show_flows(out),
            "regs" => match arg1 {
                Some(id) if id >= 0 => self.show_regs(id as u32, out),
                _ => {
                    let _ = writeln!(out, "usage: regs <flow-id>");
                }
            },
            "mem" | "m" => match (arg1, arg2) {
                (Some(a), Some(l)) if a >= 0 && l > 0 => {
                    match self.machine.peek_range(a as usize, l as usize) {
                        Ok(words) => {
                            let _ = writeln!(out, "mem[{a}..{}] = {words:?}", a + l);
                        }
                        Err(e) => {
                            let _ = writeln!(out, "error: {e}");
                        }
                    }
                }
                _ => {
                    let _ = writeln!(out, "usage: mem <addr> <len>");
                }
            },
            "thick" => {
                let _ = writeln!(
                    out,
                    "running thickness {}",
                    self.machine.running_thickness()
                );
            }
            "stats" => {
                let s = self.machine.stats();
                let _ = writeln!(
                    out,
                    "steps {}, cycles {}, fetches {}, issued {}, utilization {:.2}",
                    self.machine.steps_executed(),
                    self.machine.cycles(),
                    s.fetches,
                    s.issued(),
                    s.utilization()
                );
            }
            "util" | "u" => self.show_util(out),
            "top" | "t" => self.show_top(out),
            "hist" => self.show_hists(out),
            "events" | "e" => {
                let n = arg1.unwrap_or(10).max(0) as usize;
                self.show_events(n, out);
            }
            "list" | "l" => self.show_listing(out),
            "help" | "h" | "?" => {
                let _ = writeln!(
                    out,
                    "commands: step [n] | run [n] | break <pc> | flows | regs <flow> | \
                     mem <addr> <len> | thick | stats | util | top | hist | events [n] | \
                     list | help | quit"
                );
            }
            "quit" | "q" => return CmdOutcome::Quit,
            other => {
                let _ = writeln!(out, "unknown command `{other}` (try help)");
            }
        }
        CmdOutcome::Continue
    }

    /// Runs a whole script, returning the collected output.
    pub fn run_script(&mut self, script: &str) -> String {
        let mut out = String::new();
        for line in script.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let _ = writeln!(out, "(tdbg) {line}");
            if matches!(self.exec(line, &mut out), CmdOutcome::Quit) {
                break;
            }
        }
        out
    }

    fn advance(&mut self, max_steps: u64, honor_breakpoints: bool, out: &mut String) {
        if self.finished {
            let _ = writeln!(out, "machine already finished");
            return;
        }
        for _ in 0..max_steps {
            match self.machine.step() {
                Ok(true) => {}
                Ok(false) => {
                    self.finished = true;
                    let _ = writeln!(
                        out,
                        "finished after {} steps, {} cycles",
                        self.machine.steps_executed(),
                        self.machine.cycles()
                    );
                    return;
                }
                Err(e) => {
                    self.finished = true;
                    let _ = writeln!(out, "fault: {e}");
                    return;
                }
            }
            if honor_breakpoints && self.at_breakpoint() {
                let _ = writeln!(
                    out,
                    "breakpoint hit at step {}",
                    self.machine.steps_executed()
                );
                self.show_flows(out);
                return;
            }
        }
        let _ = writeln!(
            out,
            "stopped at step {}, cycle {}",
            self.machine.steps_executed(),
            self.machine.cycles()
        );
    }

    fn at_breakpoint(&self) -> bool {
        self.machine.flow_ids().iter().any(|&id| {
            self.machine
                .flow(id)
                .map(|f| f.is_running() && self.breakpoints.contains(&f.pc))
                .unwrap_or(false)
        })
    }

    fn show_flows(&self, out: &mut String) {
        for id in self.machine.flow_ids() {
            let f = self.machine.flow(id).expect("listed flow exists");
            let status = match f.status() {
                FlowStatus::Running => "running".to_string(),
                FlowStatus::WaitingJoin { pending } => format!("waiting-join({pending})"),
                FlowStatus::WaitingSpawn { pending } => format!("waiting-spawn({pending})"),
                FlowStatus::Absorbed { leader } => format!("absorbed(by {leader})"),
                FlowStatus::Halted => "halted".to_string(),
            };
            let mode = match f.mode {
                tcf_core::flow::ExecMode::Pram => format!("pram x{}", f.thickness),
                tcf_core::flow::ExecMode::Numa { slots } => format!("numa 1/{slots}"),
            };
            let _ = writeln!(out, "flow {id:>3}  {status:<18} {mode:<12} pc {}", f.pc);
        }
    }

    fn show_regs(&self, id: u32, out: &mut String) {
        match self.machine.flow(id) {
            None => {
                let _ = writeln!(out, "no flow {id}");
            }
            Some(f) => {
                let mut lanes = vec![0; f.thickness.min(8)];
                for i in 0..f.regs.len() {
                    let reg = tcf_isa::reg::Reg::new(i as u8);
                    let v = f.regs.value(reg);
                    match v.as_uniform() {
                        Some(u) => {
                            if u != 0 {
                                let _ = writeln!(out, "  r{i:<2} = {u}");
                            }
                        }
                        None => {
                            v.fill_lanes(0, &mut lanes);
                            let _ = writeln!(
                                out,
                                "  r{i:<2} = per-thread {lanes:?}{}",
                                if f.thickness > 8 { " ..." } else { "" }
                            );
                        }
                    }
                }
            }
        }
    }

    fn show_util(&self, out: &mut String) {
        let trace = self.machine.trace();
        for g in 0..self.machine.config().groups {
            let _ = writeln!(
                out,
                "group {g}: utilization {:.2} (busy {}, overhead {})",
                trace.utilization(g),
                trace.busy_cycles(g),
                trace.overhead_cycles(g),
            );
        }
        let _ = writeln!(
            out,
            "machine: utilization {:.2}",
            self.machine.stats().utilization()
        );
    }

    /// `top`-style live counters view: slices by rung and how many the
    /// engine sharded, compression/decay taxonomy, coalescing and
    /// bulk-resolution hit rates, and the streaming sink's drop counts —
    /// everything the live telemetry pipeline exports, at a glance.
    fn show_top(&self, out: &mut String) {
        let ec = self.machine.engine_counters();
        let _ = writeln!(
            out,
            "engine: {} thick instrs, {} slices ({} compressed, {} per-lane)",
            ec.thick_instrs, ec.slices, ec.compressed_slices, ec.per_lane_slices
        );
        let _ = writeln!(
            out,
            "sharded: {} slices, {} memory buckets ({:?})",
            ec.sharded_slices,
            ec.sharded_buckets,
            self.machine.engine()
        );
        let td = self.machine.thick_decay();
        let _ = writeln!(
            out,
            "decay: {} total (setthick {}, lane_write {}, mem_reply {}, mask_runs {}, \
             fault {}, balanced_resume {}, async_slice {})",
            td.total(),
            td.setthick,
            td.lane_write,
            td.mem_reply,
            td.mask_runs,
            td.fault,
            td.balanced_resume,
            td.async_slice
        );
        let _ = writeln!(
            out,
            "mask: {} hits, {} misses",
            ec.mask_hits, ec.mask_misses
        );
        let _ = writeln!(
            out,
            "coalesce: {} hits, {} misses; absorbed {} events",
            ec.coalesce_hits, ec.coalesce_misses, ec.absorbed_events
        );
        let bs = self.machine.bulk_stats();
        let _ = writeln!(
            out,
            "bulk: {} fast, {} expanded ({} lanes)",
            bs.fast, bs.expanded, bs.expanded_lanes
        );
        let _ = writeln!(
            out,
            "obs: {} trace events ({} dropped), {} flow events ({} dropped)",
            self.machine.trace().len(),
            self.machine.trace().dropped(),
            self.machine.obs().events().len(),
            self.machine.obs().dropped(),
        );
    }

    fn show_hists(&self, out: &mut String) {
        let reg = self.machine.metrics();
        for name in ["machine.mem_roundtrip", "buffer.reload", "net.queue"] {
            if let Some(h) = reg.histogram(name) {
                let _ = writeln!(out, "{name}:");
                out.push_str(&h.render_ascii());
                out.push('\n');
            }
        }
    }

    fn show_events(&self, n: usize, out: &mut String) {
        let events = self.machine.obs().events();
        if events.is_empty() {
            let _ = writeln!(out, "no flow events recorded yet");
            return;
        }
        let start = events.len().saturating_sub(n);
        for ev in &events[start..] {
            let flow = match ev.event.flow() {
                Some(f) => format!("flow {f}"),
                None => "machine".to_string(),
            };
            let _ = writeln!(
                out,
                "step {:>4} cycle {:>6}  {:<16} {}",
                ev.step,
                ev.cycle,
                ev.event.name(),
                flow
            );
        }
    }

    fn show_listing(&self, out: &mut String) {
        let pcs: BTreeSet<usize> = self
            .machine
            .flow_ids()
            .iter()
            .filter_map(|&id| self.machine.flow(id))
            .filter(|f| f.is_running())
            .map(|f| f.pc)
            .collect();
        for (i, instr) in self.machine.program().instrs.iter().enumerate() {
            let marker = if pcs.contains(&i) { "=>" } else { "  " };
            let bp = if self.breakpoints.contains(&i) {
                "*"
            } else {
                " "
            };
            let _ = writeln!(out, "{marker}{bp}{i:>4}  {instr}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcf_core::Variant;
    use tcf_isa::asm::assemble;
    use tcf_machine::MachineConfig;

    fn dbg(src: &str) -> Debugger {
        let m = TcfMachine::new(
            MachineConfig::small(),
            Variant::SingleInstruction,
            assemble(src).unwrap(),
        );
        Debugger::new(m)
    }

    const PROG: &str = "main:
            setthick 8
            mfs r1, tid
            add r2, r1, 1
            ldi r3, 100
            add r3, r3, r1
            st r2, [r3+0]
            halt
        ";

    #[test]
    fn script_steps_and_inspects() {
        let mut d = dbg(PROG);
        let out = d.run_script(
            "flows
             step 3
             flows
             regs 0
             run
             mem 100 8
             stats
             quit",
        );
        assert!(out.contains("flow   0"), "{out}");
        assert!(out.contains("pram x1"), "{out}"); // before setthick
        assert!(out.contains("pram x8"), "{out}"); // after step 3
        assert!(out.contains("per-thread"), "{out}");
        assert!(
            out.contains("mem[100..108] = [1, 2, 3, 4, 5, 6, 7, 8]"),
            "{out}"
        );
        assert!(out.contains("finished"), "{out}");
    }

    #[test]
    fn breakpoints_pause_execution() {
        let mut d = dbg(PROG);
        let out = d.run_script("break 5\nrun\n");
        assert!(out.contains("breakpoint at 5 set"), "{out}");
        assert!(out.contains("breakpoint hit"), "{out}");
        // The store at pc 5 has not executed yet.
        let mut out2 = String::new();
        d.exec("mem 100 1", &mut out2);
        assert!(out2.contains("[0]"), "{out2}");
        let out3 = d.run_script("run\nmem 100 1\n");
        assert!(out3.contains("[1]"), "{out3}");
    }

    #[test]
    fn listing_marks_pcs() {
        let mut d = dbg(PROG);
        let out = d.run_script("step 2\nlist\n");
        assert!(out.lines().any(|l| l.starts_with("=>")), "{out}");
    }

    #[test]
    fn faults_are_reported_not_panicked() {
        let mut d = dbg("main:\n setthick 4\n mfs r1, tid\n bnez r1, main\n halt\n");
        let out = d.run_script("run\n");
        assert!(out.contains("fault"), "{out}");
        assert!(out.contains("diverged"), "{out}");
    }

    #[test]
    fn util_hist_and_events_show_live_observability() {
        let mut d = dbg(PROG);
        let out = d.run_script("run\nutil\nhist\nevents 100\n");
        assert!(out.contains("group 0: utilization"), "{out}");
        assert!(out.contains("machine: utilization"), "{out}");
        assert!(out.contains("machine.mem_roundtrip:"), "{out}");
        assert!(out.contains("count"), "{out}");
        assert!(out.contains("thickness_change"), "{out}");
        assert!(out.contains("step_end"), "{out}");
    }

    #[test]
    fn top_shows_live_engine_counters() {
        let mut d = dbg(PROG);
        let out = d.run_script("run\ntop\n");
        assert!(out.contains("engine:"), "{out}");
        assert!(out.contains("thick instrs"), "{out}");
        assert!(
            out.contains("sharded: 0 slices, 0 memory buckets (Sequential)"),
            "{out}"
        );
        assert!(out.contains("decay:"), "{out}");
        assert!(out.contains("mask_runs"), "{out}");
        assert!(out.contains("balanced_resume"), "{out}");
        assert!(out.contains("async_slice"), "{out}");
        assert!(out.contains("mask:"), "{out}");
        assert!(out.contains("coalesce:"), "{out}");
        assert!(out.contains("bulk:"), "{out}");
        assert!(out.contains("dropped"), "{out}");
    }

    #[test]
    fn unknown_commands_are_tolerated() {
        let mut d = dbg(PROG);
        let out = d.run_script("frobnicate\nhelp\nquit\nstep");
        assert!(out.contains("unknown command"));
        assert!(out.contains("commands:"));
        // quit stops the script: the trailing step never ran.
        assert!(!out.contains("stopped at step"));
    }
}
