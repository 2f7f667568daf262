//! `tdbg` — interactive debugger for TCF programs.
//!
//! ```sh
//! tdbg program.tce [--variant si|bal|mi|so|cso|ft] [--script cmds.txt]
//! tdbg --asm program.s
//! ```
//!
//! Without `--script`, reads commands from stdin (`help` lists them).

use std::env;
use std::fs;
use std::io::{self, BufRead, Write};
use std::process::ExitCode;

use tcf_bench::debugger::{CmdOutcome, Debugger};
use tcf_core::{TcfMachine, Variant};
use tcf_machine::MachineConfig;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut script: Option<String> = None;
    let mut variant = Variant::SingleInstruction;
    let mut as_asm = false;
    let config = MachineConfig::small();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--asm" => as_asm = true,
            "--script" => script = it.next().cloned(),
            "--variant" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                variant = match v {
                    "si" => Variant::SingleInstruction,
                    "bal" => Variant::Balanced { bound: 8 },
                    "mi" => Variant::MultiInstruction,
                    "so" => Variant::SingleOperation,
                    "cso" => Variant::ConfigurableSingleOperation,
                    "ft" => Variant::FixedThickness {
                        width: config.threads_per_group,
                    },
                    other => {
                        eprintln!("unknown variant `{other}`");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => path = Some(other.to_string()),
        }
    }

    let path = match path {
        Some(p) => p,
        None => {
            eprintln!("usage: tdbg <program.tce> [--asm] [--variant v] [--script file]");
            return ExitCode::FAILURE;
        }
    };
    let source = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = if as_asm {
        match tcf_isa::asm::assemble(&source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("assembly error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match tcf_lang::compile(&source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("compile error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let machine = TcfMachine::new(config, variant, program);
    if let Some(e) = machine.load_error() {
        eprintln!("cannot load program data: {e}");
        return ExitCode::FAILURE;
    }
    let mut dbg = Debugger::new(machine);

    if let Some(script_path) = script {
        let commands = match fs::read_to_string(&script_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {script_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", dbg.run_script(&commands));
        return ExitCode::SUCCESS;
    }

    let stdin = io::stdin();
    let mut out = String::new();
    print!("(tdbg) ");
    io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        out.clear();
        let outcome = dbg.exec(&line, &mut out);
        print!("{out}");
        if matches!(outcome, CmdOutcome::Quit) {
            break;
        }
        print!("(tdbg) ");
        io::stdout().flush().ok();
    }
    ExitCode::SUCCESS
}
