//! Pins of the sampled-mode executor: the checkpoint stream and the
//! detailed intervals share one worker pool, so the fast-forward must
//! overlap the intervals, never run more items than the worker budget
//! allows, and leave every result independent of that budget.
//!
//! The worker budget and the span recorder are process-wide, so this
//! binary holds only these tests and runs them one at a time.

use std::sync::{Mutex, MutexGuard};

use dca_bench::{
    set_worker_budget, Lab, Machine, RunOpts, SampleInfo, SampleOpts, SchemeKind, Warming,
    WorkCounts,
};
use dca_obs::SpanEvent;
use dca_workloads::Scale;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const RUNS: [(&str, Machine, SchemeKind); 2] = [
    ("compress", Machine::Clustered, SchemeKind::GeneralBalance),
    ("compress", Machine::Base, SchemeKind::Naive),
];

/// A window long enough that its stream takes a while (the program
/// runs past it at this scale), with an adaptive target so runs go
/// through chunk releases: at 0.1 IPC both runs take all three chunks
/// of their 20-checkpoint budget, at 0.15 both stop early in the first.
fn opts(target: f64) -> RunOpts {
    RunOpts {
        scale: Scale::Default,
        max_insts: 240_000,
        sampling: Some(SampleOpts {
            period: 12_000,
            warmup: 1_000,
            interval: 2_000,
            target_stderr: Some(target),
            warming: Warming::Continuous,
        }),
        ..RunOpts::default()
    }
}

/// Everything of a sampled run that must not depend on the schedule:
/// the merged statistics and the deterministic diagnostics (wall-clock
/// fields aside).
/// The lab holds every run already, so `stats` is a memo lookup.
fn outcome(lab: &mut Lab) -> Vec<String> {
    RUNS.iter()
        .map(|&(bench, machine, scheme)| {
            let stats = lab.stats(bench, machine, scheme);
            let info: &SampleInfo = lab.sample_info(bench, machine, scheme).expect("sampled");
            format!(
                "{stats:?} | {} {} {} {} {} {} {} {} {} {}",
                info.intervals,
                info.budget,
                info.early_stop,
                info.from_store,
                info.restored_snapshots,
                info.detailed_insts,
                info.detailed_cycles,
                info.ipc_mean,
                info.ipc_stderr,
                info.warmed_insts,
            )
        })
        .collect()
}

/// Runs the request cold under `budget` workers, spans recorded.
fn cold(budget: usize, target: f64) -> (Lab, WorkCounts, Vec<SpanEvent>) {
    set_worker_budget(budget);
    dca_obs::span::drain();
    dca_obs::span::set_enabled(true);
    let mut lab = Lab::new(opts(target));
    lab.ensure(&RUNS);
    dca_obs::span::set_enabled(false);
    let events = dca_obs::span::drain();
    let work = lab.work();
    (lab, work, events)
}

fn restore_budget() {
    set_worker_budget(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
}

#[test]
fn one_worker_runs_the_stream_then_the_intervals() {
    let _serial = serial();
    let (lab, work, events) = cold(1, 0.1);
    restore_budget();
    assert_eq!(work.ff_insts, 240_000, "the whole window streamed");
    assert!(work.intervals_computed > 0);
    for &(bench, machine, scheme) in &RUNS {
        assert!(lab.sample_info(bench, machine, scheme).is_some());
    }
    // One worker: nothing overlaps, so every interval starts after the
    // stream has ended.
    let ff_end = span_end(&events, "prog.fast_forward");
    assert!(events
        .iter()
        .filter(|e| e.name == "lab.interval")
        .all(|e| e.ts_ns >= ff_end));
}

#[test]
fn results_are_identical_under_every_worker_budget() {
    let _serial = serial();
    for target in [0.1, 0.15] {
        let (mut lab1, work1, _) = cold(1, target);
        let (mut lab2, work2, _) = cold(2, target);
        let (mut lab4, work4, _) = cold(4, target);
        restore_budget();
        let reference = outcome(&mut lab1);
        assert_eq!(outcome(&mut lab2), reference, "target {target}, budget 2");
        assert_eq!(outcome(&mut lab4), reference, "target {target}, budget 4");
        assert_eq!(lab1.work(), work1, "reading the results simulated nothing");
        assert_eq!(work2, work1, "target {target}, budget 2 work counts");
        assert_eq!(work4, work1, "target {target}, budget 4 work counts");
    }
}

#[test]
fn intervals_start_while_the_stream_runs_and_items_fit_the_budget() {
    let _serial = serial();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for budget in [1usize, 2, 4] {
        let (_, _, events) = cold(budget, 0.1);
        restore_budget();
        let busy = peak_overlap(&events, &["prog.fast_forward", "lab.interval"]);
        assert!(
            busy <= budget,
            "{busy} items ran at once under a budget of {budget}"
        );
        if budget >= 2 && cores >= 2 {
            let first = events
                .iter()
                .filter(|e| e.name == "lab.interval")
                .map(|e| e.ts_ns)
                .min()
                .expect("intervals ran");
            let ff_end = span_end(&events, "prog.fast_forward");
            assert!(
                first < ff_end,
                "budget {budget}: the first interval waited for the whole fast-forward"
            );
        }
    }
}

/// End of the (single) span named `name`.
fn span_end(events: &[SpanEvent], name: &str) -> u64 {
    let spans: Vec<&SpanEvent> = events.iter().filter(|e| e.name == name).collect();
    assert_eq!(spans.len(), 1, "one {name} span");
    spans[0].ts_ns + spans[0].dur_ns
}

/// The most spans among `names` open at any one instant.
fn peak_overlap(events: &[SpanEvent], names: &[&str]) -> usize {
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for e in events.iter().filter(|e| names.contains(&e.name.as_ref())) {
        edges.push((e.ts_ns, 1));
        edges.push((e.ts_ns + e.dur_ns, -1));
    }
    // Ends sort before starts at the same instant.
    edges.sort_unstable();
    let (mut open, mut peak) = (0i64, 0i64);
    for (_, d) in edges {
        open += d;
        peak = peak.max(open);
    }
    peak as usize
}
