//! `reproduce`'s command line: a value flag given without its value, or
//! an unknown experiment id, is a usage error (exit status 2, usage on
//! stderr) raised before any experiment runs, not a panic.

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

#[test]
fn unknown_experiment_id_prints_usage_and_exits_2_before_running_anything() {
    // A typo'd id in a CI step must fail it, even after a valid id.
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["validate", "e99"])
        .output()
        .expect("run reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment id: e99"), "{stderr}");
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
    assert!(out.stdout.is_empty(), "ran experiments anyway");
}
