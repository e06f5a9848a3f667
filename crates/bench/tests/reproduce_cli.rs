//! `reproduce`'s command line: a value flag given without its value is a
//! usage error (exit status 2, usage on stderr), not a panic.

use std::process::Command;

#[test]
fn flag_without_value_prints_usage_and_exits_2() {
    for flag in ["--csv", "--trace-out", "--metrics-out"] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["validate", flag])
            .output()
            .expect("run reproduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: ran experiments anyway");
    }
}
