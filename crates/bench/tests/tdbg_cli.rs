//! The `tdbg` binary from the outside: a program it cannot load is an
//! error message and a failing exit status, not a panic.

use std::process::{Command, Stdio};

#[test]
fn data_outside_shared_memory_is_an_error_not_a_panic() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tdbg_bad_data.s");
    std::fs::write(&path, ".data 100000000: 1 2\nmain:\n    halt\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tdbg"))
        .arg(&path)
        .arg("--asm")
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot load program data"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
