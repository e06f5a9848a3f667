//! `reproduce`'s command line: a value flag given without its value, an
//! unknown flag or experiment id, or `--trace-out` without `profile` is
//! a usage error (exit status 2, usage on stderr) raised before any
//! experiment runs, not a panic.

use std::process::Command;

#[test]
fn flag_without_value_prints_usage_and_exits_2() {
    for flag in ["--csv", "--trace-out"] {
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

#[test]
fn retired_ids_and_a_trace_dir_without_profile_exit_2_before_running_anything() {
    // `obs` and `fock` name no experiment and `--metrics-out` no flag;
    // `--trace-out` is read by `profile` alone, so without it the flag
    // would be silently ignored.
    let cases: [(&[&str], &str); 4] = [
        (&["validate", "obs"], "unknown experiment id: obs"),
        (&["validate", "fock"], "unknown experiment id: fock"),
        (
            &["validate", "--metrics-out", "x"],
            "unknown flag: --metrics-out",
        ),
        (
            &["validate", "--trace-out", "traces"],
            "--trace-out needs the profile experiment",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("run reproduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran experiments anyway");
    }
}
