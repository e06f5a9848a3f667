//! The executor's helper threads persist across runs and park when
//! idle. One test, so this binary's process has no other test sharing
//! (and spawning) helpers; Linux only, as it reads `/proc`.
#![cfg(target_os = "linux")]

use emx_runtime::{Executor, PolicyKind};
use std::collections::BTreeSet;
use std::time::Duration;

/// The calling thread's kernel thread id.
fn tid() -> u32 {
    let link = std::fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    let name = link
        .file_name()
        .expect("<pid>/task/<tid>")
        .to_string_lossy();
    name.parse().expect("numeric tid")
}

/// Thread `tid`'s utime + stime in clock ticks.
fn cpu_ticks(tid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .expect("read the helper's stat");
    // Fields after the parenthesised comm, which may hold spaces:
    // state is field 3, utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm closes") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric tick count") };
    field(14) + field(15)
}

#[test]
fn helpers_are_reused_across_runs_and_park_when_idle() {
    let caller = tid();
    // Static block over three tasks: task w runs on worker w.
    let ex = Executor::new(3, PolicyKind::StaticBlock);
    let mut helpers = BTreeSet::new();
    for _ in 0..50 {
        let (locals, _) = ex.run(3, |_| 0, |_, t| *t = tid());
        assert_eq!(locals[0], caller, "worker 0 runs on the caller");
        assert_ne!(locals[1], locals[2], "two workers on one thread");
        helpers.extend([locals[1], locals[2]]);
    }
    assert_eq!(helpers.len(), 2, "helper threads {helpers:?} over 50 runs");

    let before: u64 = helpers.iter().map(|&t| cpu_ticks(t)).sum();
    std::thread::sleep(Duration::from_millis(500));
    let after: u64 = helpers.iter().map(|&t| cpu_ticks(t)).sum();
    assert!(
        after - before <= 2,
        "idle helpers burned {} ticks in 500 ms",
        after - before
    );
}
