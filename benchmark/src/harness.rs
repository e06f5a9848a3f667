//! The untraced run protocol shared by every workload: set up several
//! times, then sample the three arms round-robin until the time is up.

use crate::report::Run;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Five, because set-up is
/// short and comes first: after an idle spell the host's second core
/// takes a second or two to come up, which made two set-ups of three
/// slow and failed an A/A comparison on `setup_s` alone.
const SETUP_REPS: usize = 5;
/// Fewest rounds, however slow the arms: the median of three tolerates
/// one disturbed sample.
const MIN_ROUNDS: usize = 3;

/// One arm: takes the set-up state, runs one timed sample with its
/// checks, returns the sample's wall in seconds.
pub type Arm<'a, S> = (&'a str, &'a dyn Fn(&mut S, &mut Run) -> f64);

/// Times `setup` (`setup_s`), then runs `arms` in order, round after
/// round, until `seconds` have passed; records each arm's median under
/// its name. Interleaving puts a slow spell of the host into one sample
/// of every arm instead of all samples of one. `smoke` cuts this to one
/// set-up and one round.
pub fn measure<S>(
    run: &mut Run,
    seconds: f64,
    smoke: bool,
    setup: impl Fn() -> S,
    arms: &[Arm<S>],
) {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..if smoke { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        state = Some(setup());
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up ran");
    run.put_samples("setup_s", &setups);

    let mut samples = vec![Vec::new(); arms.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0
        || (!smoke && (rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds))
    {
        for ((_, arm), out) in arms.iter().zip(&mut samples) {
            out.push(arm(&mut state, run));
        }
        rounds += 1;
    }
    for ((name, _), s) in arms.iter().zip(&samples) {
        run.put_samples(name, s);
    }
}
