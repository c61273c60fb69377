//! The sampled-mode driver behind [`Lab::ensure`] (DESIGN.md §6, §7):
//! a **plan** of work items and one **executor** that list-schedules
//! them over the process-wide worker budget.
//!
//! The plan is what one `ensure` call must do once the memo and the
//! store have been consulted: one checkpoint-stream item per benchmark
//! whose stream is neither memoised nor stored, and one interval item
//! per (run, checkpoint) that no stored prefix already covers. The
//! executor's driving thread owns every decision — which
//! checkpoint-ordered chunk of a run to release next, the adaptive
//! stopping rule ([`adaptive_prefix`]), the round hook and
//! cancellation. Workers only execute: each pulls the next ready item
//! from one queue and reports back over a channel. A stream item
//! publishes each checkpoint the moment the functional fast-forward
//! takes it, so interval `k` starts as soon as checkpoint `k` exists:
//! the fast-forward overlaps the detailed intervals instead of being a
//! barrier before them.
//!
//! Everything a report shows is independent of that schedule. A run's
//! outcomes merge in checkpoint order, and its next chunk is released
//! only once the previous one is decided, so the set of intervals
//! computed, the merged statistics and the store contents are the same
//! under any worker count or completion order.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dca_obs::progress;
use dca_prog::{Checkpoint, CheckpointStream, FastForward};
use dca_sim::{ContinuousWarmer, SimConfig, SimStats, Simulator};
use dca_store::{
    CheckpointKey, FileKind, IntervalRecord, LockAttempt, ResultKey, Store, StoreError,
};
use dca_uarch::UarchSnapshot;
use dca_workloads::Workload;

use crate::{
    claim_workers, default_parallelism, release_workers, FastForwardInfo, Lab, Machine,
    RoundProgress, Run, SampleInfo, SampleOpts, SchemeKind, Warming, WorkTally,
};

/// Intervals released per combination per adaptive chunk. Small
/// enough that an early-stopping combination wastes at most a chunk of
/// intervals, large enough that a 50-interval budget needs only a
/// handful of chunks.
pub(crate) const INTERVAL_CHUNK: usize = 8;

/// One interval of a sampled run: its detailed statistics plus
/// bookkeeping. Store-served intervals carry zero wall-clock.
#[derive(Clone, Debug)]
pub(crate) struct IntervalOutcome {
    pub(crate) stats: SimStats,
    /// Detached functional-warming instructions actually executed
    /// (always 0 under continuous warming).
    pub(crate) warmed: u64,
    /// Whether the interval started from a restored [`UarchSnapshot`].
    pub(crate) restored: bool,
    pub(crate) warm_secs: f64,
    pub(crate) detailed_secs: f64,
    pub(crate) from_store: bool,
}

/// Standard error of the mean of `xs` (0 with fewer than two samples).
fn stderr_of(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (var / n).sqrt()
}

/// Two-sided 95% Student-t quantiles by degrees of freedom (index =
/// df − 1); beyond the table the normal quantile is close enough.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// 95% confidence half-width of the mean of `xs`: Student-t quantile ×
/// standard error. The t factor is what keeps a lucky 2-sample
/// variance estimate from stopping a combination prematurely (t₁ ≈
/// 12.7); infinite below two samples.
fn confidence_half_width(xs: &[f64]) -> f64 {
    match xs.len() {
        0 | 1 => f64::INFINITY,
        n if n - 1 <= T95.len() => T95[n - 2] * stderr_of(xs),
        _ => 1.96 * stderr_of(xs),
    }
}

/// The deterministic early-exit rule of adaptive sampling (DESIGN.md
/// §8): the prefix used for a combination is the **shortest
/// checkpoint-ordered prefix** containing at least 2 measured
/// (non-empty) intervals whose 95% confidence half-width
/// ([`confidence_half_width`]) is ≤ `target`; without such a prefix,
/// the full budget.
///
/// Returns `Some(prefix_len)` once the decision is possible from the
/// available prefix — either the rule fired, or all `budget` intervals
/// are present — and `None` when more intervals are needed. Because
/// the rule scans prefixes from the front, its answer never changes
/// when *more* intervals become available beyond the stopping point:
/// the merged statistics are independent of worker completion order,
/// chunk sizes, and how many extra intervals a previous run left in
/// the store.
pub(crate) fn adaptive_prefix(
    outcomes: &[IntervalOutcome],
    budget: usize,
    target: Option<f64>,
) -> Option<usize> {
    if let Some(target) = target {
        let mut ipcs: Vec<f64> = Vec::new();
        for (i, o) in outcomes.iter().enumerate() {
            if o.stats.committed == 0 {
                continue;
            }
            ipcs.push(o.stats.ipc());
            if ipcs.len() >= 2 && confidence_half_width(&ipcs) <= target {
                return Some(i + 1);
            }
        }
    }
    (outcomes.len() >= budget).then_some(budget)
}

/// Merges the decided prefix `outcomes[..used]` into one `SimStats`
/// plus sampling diagnostics. Checkpoints whose stream ended before
/// the measured window opened contribute warming cost but no
/// statistics, exactly as in the non-adaptive harness.
pub(crate) fn merge_outcomes(
    outcomes: &[IntervalOutcome],
    used: usize,
    budget: u64,
) -> (SimStats, SampleInfo) {
    let mut merged = SimStats::default();
    let mut info = SampleInfo {
        budget,
        early_stop: (used as u64) < budget,
        ..SampleInfo::default()
    };
    let mut ipcs: Vec<f64> = Vec::new();
    for o in &outcomes[..used] {
        info.warmed_insts += o.warmed;
        info.warm_secs += o.warm_secs;
        if o.from_store {
            info.from_store += 1;
        }
        if o.restored {
            info.restored_snapshots += 1;
        }
        if o.stats.committed == 0 {
            continue;
        }
        ipcs.push(o.stats.ipc());
        merged.merge(&o.stats);
        info.intervals += 1;
        info.detailed_insts += o.stats.committed;
        info.detailed_cycles += o.stats.cycles;
        info.detailed_secs += o.detailed_secs;
    }
    let n = ipcs.len() as f64;
    if n > 0.0 {
        info.ipc_mean = ipcs.iter().sum::<f64>() / n;
    }
    info.ipc_stderr = stderr_of(&ipcs);
    (merged, info)
}

// ---------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------

/// The resolved request of one sampled `ensure` call.
struct Plan {
    params: Params,
    runs: Vec<PlannedRun>,
}

/// Parameters shared by every item and store key of one sampled
/// `ensure` call.
struct Params {
    sampling: SampleOpts,
    max_insts: u64,
    scale: &'static str,
    /// Steering-table warm-up. It rides on the detached warming
    /// window; under continuous warming there is no such window to
    /// replay, so the flag is inert (and excluded from the result
    /// keys).
    warm_steering: bool,
    /// `warmup` as the result keys see it. The warmup budget is inert
    /// under continuous warming (zero detached-warming instructions
    /// run), so it is normalised to 0 there: a warm store survives
    /// `--sample-warmup` changes that cannot affect the stored
    /// intervals.
    key_warmup: u64,
    /// Checkpoints a stream over the whole window yields unless the
    /// program halts first: the budget estimate while a stream is
    /// still running, and the reported budget of a cancelled one.
    grid: usize,
}

/// One requested combination, resolved to everything its items and
/// store keys need.
struct PlannedRun {
    bench: &'static str,
    machine: Machine,
    scheme: SchemeKind,
    /// The resolved machine config: result keys carry its
    /// `config_hash`, so ablated/custom geometries never collide.
    cfg: SimConfig,
    machine_key: String,
    scheme_key: String,
    /// Workload fingerprint for the store keys (0 without a store).
    fingerprint: u64,
}

impl PlannedRun {
    fn result_key<'k>(&'k self, p: &'k Params) -> ResultKey<'k> {
        ResultKey {
            workload: self.bench,
            scale: p.scale,
            machine: &self.machine_key,
            geometry: self.cfg.config_hash(),
            scheme: &self.scheme_key,
            period: p.sampling.period,
            warmup: p.key_warmup,
            interval: p.sampling.interval,
            max_insts: p.max_insts,
            warm_steering: p.warm_steering,
            continuous_warming: p.sampling.warming == Warming::Continuous,
            fingerprint: self.fingerprint,
        }
    }

    fn checkpoint_key<'k>(&'k self, p: &'k Params) -> CheckpointKey<'k> {
        CheckpointKey {
            workload: self.bench,
            scale: p.scale,
            period: p.sampling.period,
            max_insts: p.max_insts,
            fingerprint: self.fingerprint,
            // Every stream is warmed on the Table 2 substrate, which
            // all machine presets share; snapshots only restore onto
            // the geometry that produced them.
            uarch: SimConfig::default().uarch_hash(),
        }
    }
}

/// A benchmark's checkpoints as the executor sees them: memoised in
/// the lab from the start (computed earlier or loaded from the store),
/// or arriving from this call's stream item.
struct Source {
    /// The checkpoints stay in the lab's memo ([`Lab::ffs`]).
    memo: bool,
    /// Checkpoints the stream item has published so far.
    ckpts: Vec<Arc<Checkpoint>>,
    /// The final checkpoint count, once known.
    end: Option<usize>,
    /// The stream stopped at a cancellation, short of the window.
    cut: bool,
}

impl Source {
    fn memo(ff: &FastForward) -> Source {
        Source {
            memo: true,
            ckpts: Vec::new(),
            end: Some(ff.checkpoints.len()),
            cut: false,
        }
    }

    fn streaming() -> Source {
        Source {
            memo: false,
            ckpts: Vec::new(),
            end: None,
            cut: false,
        }
    }

    /// Checkpoints that exist so far.
    fn available(&self) -> usize {
        if self.memo {
            self.end.unwrap_or(0)
        } else {
            self.ckpts.len()
        }
    }

    /// The interval budget of a run on this source: the checkpoint
    /// count once the stream has ended, the window's grid before that
    /// (and for a stream cut short).
    fn budget(&self, grid: usize) -> usize {
        match self.end {
            Some(end) if !self.cut => end,
            _ => grid,
        }
    }

    /// [`adaptive_prefix`] against this source. While the budget is
    /// unknown only the stopping rule can decide: its answer on a
    /// prefix never changes as the stream grows.
    fn decide(&self, outcomes: &[IntervalOutcome], target: Option<f64>) -> Option<usize> {
        match self.end {
            Some(end) if !self.cut => adaptive_prefix(outcomes, end, target),
            _ => adaptive_prefix(outcomes, usize::MAX, target),
        }
    }
}

/// A run's interval state on the driving thread.
struct RunState {
    /// Contiguous checkpoint-order prefix of outcomes.
    outcomes: Vec<IntervalOutcome>,
    /// Finished intervals waiting for an earlier one of the same run.
    early: BTreeMap<usize, IntervalOutcome>,
    /// End of the released chunk: every index below it was released.
    released: usize,
    /// Decided prefix length, once the rule fires (or cancellation
    /// freezes the run).
    used: Option<usize>,
    /// Outcomes that came from the store (a prefix).
    prefilled: usize,
}

impl Lab {
    /// Sampled-mode batch driver: plans the call, consults the memo
    /// and the store, executes what is left — checkpoint streams and
    /// sample intervals on one worker pool — and merges each run's
    /// decided prefix into the caches.
    ///
    /// With [`SampleOpts::target_stderr`] set, a run's intervals are
    /// released in checkpoint-order **chunks** and the run stops as
    /// soon as the deterministic prefix rule ([`adaptive_prefix`])
    /// fires — so a low-variance combination costs a handful of
    /// intervals, not the full budget. The rule is evaluated on
    /// checkpoint-ordered prefixes only, which makes the merged
    /// statistics (and every artefact rendered from them) independent
    /// of worker completion order and of whether intervals came from
    /// the store or from fresh simulation.
    pub(crate) fn ensure_sampled(&mut self, todo: &[Run], sampling: SampleOpts) {
        assert!(
            sampling.interval <= sampling.period,
            "sample interval ({}) exceeds the checkpoint period ({}): successive \
             measured windows would overlap and multiply-count instructions",
            sampling.interval,
            sampling.period
        );
        let plan = self.plan(todo, sampling);
        let mut sources = self.sources(&plan);
        let mut states = self.prefill(&plan, &sources);
        let streams = self.execute(&plan, &mut sources, &mut states);
        let (mut ff_executed, mut ff_secs) = (0u64, 0.0f64);
        for (bench, ff, info) in streams {
            ff_executed += info.executed_insts();
            ff_secs += info.secs;
            self.ff_info.insert(bench, info);
            self.ffs.insert(bench, ff);
        }
        if ff_executed > 0 && ff_secs > 0.0 {
            dca_obs::metrics()
                .ff_insts_per_sec
                .set((ff_executed as f64 / ff_secs) as u64);
        }
        self.merge(&plan, &sources, &states);
    }

    /// Resolves the request: per-call parameters and one planned run
    /// per combination.
    fn plan(&self, todo: &[Run], sampling: SampleOpts) -> Plan {
        let continuous = sampling.warming == Warming::Continuous;
        let max_insts = self.opts.max_insts;
        let params = Params {
            sampling,
            max_insts,
            scale: self.opts.scale.name(),
            warm_steering: self.opts.warm_steering && !continuous,
            key_warmup: if continuous { 0 } else { sampling.warmup },
            grid: max_insts.div_ceil(sampling.period).max(1) as usize,
        };
        let mut fingerprints: HashMap<&'static str, u64> = HashMap::new();
        let runs = todo
            .iter()
            .map(|&(bench, machine, scheme)| PlannedRun {
                bench,
                machine,
                scheme,
                cfg: self.config_of(machine),
                machine_key: machine.key(),
                scheme_key: scheme.key(),
                fingerprint: match self.store {
                    Some(_) => *fingerprints
                        .entry(bench)
                        .or_insert_with(|| self.workloads[bench].fingerprint()),
                    None => 0,
                },
            })
            .collect();
        Plan { params, runs }
    }

    /// Each benchmark's checkpoints: memoised, loaded from the store
    /// (a shorter window may be served from the prefix of a longer
    /// stored stream — cross-scale reuse, DESIGN.md §9), or still to
    /// be streamed. Streams always run through a [`ContinuousWarmer`],
    /// so every stream carries per-checkpoint `UarchSnapshot`s
    /// whichever warming mode this call uses — both modes share one
    /// stream file per benchmark, and one warmed stream serves every
    /// machine preset.
    fn sources(&mut self, plan: &Plan) -> BTreeMap<&'static str, Source> {
        let p = &plan.params;
        let mut sources = BTreeMap::new();
        let missing = plan
            .runs
            .iter()
            .filter(|r| !self.ffs.contains_key(r.bench))
            .count();
        let _span = (missing > 0).then(|| dca_obs::span("lab", "lab.fast_forward_phase"));
        for run in &plan.runs {
            if sources.contains_key(run.bench) {
                continue;
            }
            if !self.ffs.contains_key(run.bench) {
                if let Some((ff, info)) = self.load_stream(run, p) {
                    self.ff_info.insert(run.bench, info);
                    self.ffs.insert(run.bench, ff);
                }
            }
            let source = match self.ffs.get(run.bench) {
                Some(ff) => Source::memo(ff),
                None => Source::streaming(),
            };
            sources.insert(run.bench, source);
        }
        let streams = sources.values().filter(|s| s.end.is_none()).count();
        if streams > 0 {
            progress::detail(format!(
                "[lab] fast-forwarding {streams} benchmark(s) ({} insts, checkpoint every {})",
                p.max_insts, p.sampling.period
            ));
        }
        sources
    }

    /// The store's copy of a benchmark's stream, if it holds a current
    /// one. A miss is no error: the stream item elects a computer.
    fn load_stream(&self, run: &PlannedRun, p: &Params) -> Option<(FastForward, FastForwardInfo)> {
        let store = self.store.as_ref()?;
        let t0 = Instant::now();
        let m = dca_obs::metrics();
        match store.load_checkpoints_covering(&run.checkpoint_key(p)) {
            Ok(ff) => {
                m.store_hits_total.inc();
                let info = FastForwardInfo {
                    insts: ff.total_insts,
                    checkpoints: ff.checkpoints.len() as u64,
                    secs: t0.elapsed().as_secs_f64(),
                    from_store: true,
                };
                Some((ff, info))
            }
            Err(e) => {
                m.store_misses_total.inc();
                if !e.is_not_found() {
                    progress::warn(format!(
                        "[lab] store: checkpoints for {}: {e}; recomputing",
                        run.bench
                    ));
                }
                None
            }
        }
    }

    /// Per-run interval state, prefilled from the store. Outcomes
    /// always form a contiguous checkpoint-order prefix.
    fn prefill(&self, plan: &Plan, sources: &BTreeMap<&'static str, Source>) -> Vec<RunState> {
        let p = &plan.params;
        plan.runs
            .iter()
            .map(|run| {
                let mut outcomes: Vec<IntervalOutcome> = Vec::new();
                if let Some(store) = &self.store {
                    match store.load_intervals(&run.result_key(p)) {
                        Ok(records) => {
                            // A stream still to come has no known budget
                            // yet; its end truncates the prefix instead.
                            let budget = sources[run.bench].end.unwrap_or(usize::MAX);
                            outcomes = records
                                .into_iter()
                                .take(budget)
                                .map(|r| IntervalOutcome {
                                    stats: r.stats,
                                    warmed: r.warmed_insts,
                                    restored: p.sampling.warming == Warming::Continuous,
                                    warm_secs: 0.0,
                                    detailed_secs: 0.0,
                                    from_store: true,
                                })
                                .collect();
                            let m = dca_obs::metrics();
                            m.store_hits_total.inc();
                            m.intervals_from_store_total.add(outcomes.len() as u64);
                            self.tally
                                .intervals_from_store
                                .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
                        }
                        Err(e) if e.is_not_found() => {
                            dca_obs::metrics().store_misses_total.inc();
                        }
                        Err(e) => {
                            dca_obs::metrics().store_misses_total.inc();
                            progress::warn(format!("[lab] store: {e}; recomputing"));
                        }
                    }
                }
                RunState {
                    prefilled: outcomes.len(),
                    released: outcomes.len(),
                    outcomes,
                    early: BTreeMap::new(),
                    used: None,
                }
            })
            .collect()
    }

    /// Runs the plan's stream and interval items on one worker pool
    /// until every run is decided and every stream has ended. Returns
    /// the streams that ran to the end of the window, for the memo.
    fn execute(
        &self,
        plan: &Plan,
        sources: &mut BTreeMap<&'static str, Source>,
        states: &mut [RunState],
    ) -> Vec<(&'static str, FastForward, FastForwardInfo)> {
        let grid = plan.params.grid;
        let streams: Vec<&'static str> = sources
            .iter()
            .filter(|(_, s)| s.end.is_none())
            .map(|(&b, _)| b)
            .collect();
        let work = streams.len()
            + plan
                .runs
                .iter()
                .zip(states.iter())
                .map(|(r, st)| {
                    sources[r.bench]
                        .budget(grid)
                        .saturating_sub(st.outcomes.len())
                })
                .sum::<usize>();
        let queue = Queue::default();
        let mut driver = Driver {
            lab: self,
            plan,
            sources,
            states,
            queue: &queue,
            finished: Vec::new(),
            round: 0,
            inflight: 0,
            computed: 0,
            cut: false,
            warned: false,
            t0: Instant::now(),
        };
        // Decide what the memo and the store already settle; a warm
        // call stops here without starting a worker.
        if driver.step() && streams.is_empty() {
            return driver.finished;
        }
        let workers = claim_workers(default_parallelism().min(work.max(1)));
        dca_obs::metrics().lab_workers.set(workers as u64);
        let ctx = Ctx {
            params: &plan.params,
            runs: &plan.runs,
            workloads: &self.workloads,
            store: self.store.as_ref(),
            tally: &self.tally,
            cancel: self.cancel.as_deref(),
        };
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            // Closed on every exit, unwinding included, so no worker is
            // left waiting for items that will never come.
            let _close = CloseOnDrop(&queue);
            for _ in 0..workers {
                let (ctx, queue, tx) = (&ctx, &queue, tx.clone());
                s.spawn(move || ctx.work(queue, tx));
            }
            drop(tx);
            queue.push(|r| r.streams.extend(streams.iter().rev()));
            driver.inflight += streams.len();
            while !driver.done() {
                match rx
                    .recv()
                    .expect("lab workers report until the queue closes")
                {
                    Report::Checkpoint(bench, ckpt) => driver.on_checkpoint(bench, ckpt),
                    Report::Stream(end) => driver.on_stream_end(end),
                    Report::Interval { run, idx, outcome } => {
                        driver.on_interval(run, idx, *outcome)
                    }
                    Report::Panicked => panic!("lab worker panicked"),
                }
                driver.step();
            }
        });
        release_workers(workers);
        driver.finished
    }

    /// Merges each run's decided prefix, persists newly computed
    /// intervals, and fills the caches.
    fn merge(
        &mut self,
        plan: &Plan,
        sources: &BTreeMap<&'static str, Source>,
        states: &[RunState],
    ) {
        let p = &plan.params;
        let (mut all_det_insts, mut all_det_secs) = (0u64, 0.0f64);
        for (run, st) in plan.runs.iter().zip(states) {
            let used = st.used.expect("the executor decides every run");
            let budget = sources[run.bench].budget(p.grid);
            let (merged, info) = merge_outcomes(&st.outcomes, used, budget as u64);
            {
                let m = dca_obs::metrics();
                if info.early_stop {
                    m.early_stops_total.inc();
                }
                m.restored_snapshots_total.add(info.restored_snapshots);
                all_det_insts += info.detailed_insts;
                all_det_secs += info.detailed_secs;
            }
            if let Some(store) = &self.store {
                if st.outcomes.len() > st.prefilled {
                    save_intervals(store, &run.result_key(p), &st.outcomes);
                }
            }
            let key = Self::cache_key(run.bench, run.machine, run.scheme);
            self.sample_info.insert(key.clone(), info);
            self.cache.insert(key, merged);
        }
        if all_det_insts > 0 && all_det_secs > 0.0 {
            dca_obs::metrics()
                .detailed_insts_per_sec
                .set((all_det_insts as f64 / all_det_secs) as u64);
        }
    }
}

/// Persists a run's outcomes. One lock attempt, no retry: interval
/// shards are an optimisation, and a peer holding the lock is writing
/// its own (equal or longer) prefix anyway. Under the lock, never
/// shrink a longer stored prefix — concurrent labs may decide
/// different adaptive budgets for the same combination.
fn save_intervals(store: &Store, key: &ResultKey<'_>, outcomes: &[IntervalOutcome]) {
    match store.try_lock(FileKind::Results, &key.file_name()) {
        LockAttempt::Acquired(_guard) => {
            let existing = store.load_intervals(key).map_or(0, |stored| stored.len());
            if existing < outcomes.len() {
                let records: Vec<IntervalRecord> = outcomes
                    .iter()
                    .map(|o| IntervalRecord {
                        stats: o.stats.clone(),
                        warmed_insts: o.warmed,
                    })
                    .collect();
                if let Err(e) = store.save_intervals(key, &records) {
                    progress::warn(format!("[lab] store: could not save intervals: {e}"));
                }
            }
        }
        LockAttempt::Busy => {} // a peer is writing this shard
        LockAttempt::Unavailable(e) => {
            progress::warn(format!("[lab] store: could not save intervals: {e}"));
        }
    }
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

/// One unit of work a worker executes.
enum Item<'a> {
    /// Fast-forward a benchmark's window, publishing each checkpoint.
    Stream(&'static str),
    /// Simulate one interval of a run from its checkpoint.
    Interval {
        run: usize,
        idx: usize,
        ckpt: Ckpt<'a>,
    },
}

/// An interval's checkpoint: borrowed from the lab's memo, or shared
/// with the stream that just published it.
enum Ckpt<'a> {
    Memo(&'a Checkpoint),
    Streamed(Arc<Checkpoint>),
}

impl std::ops::Deref for Ckpt<'_> {
    type Target = Checkpoint;

    fn deref(&self) -> &Checkpoint {
        match self {
            Ckpt::Memo(c) => c,
            Ckpt::Streamed(c) => c,
        }
    }
}

/// What a worker sends back to the driving thread.
enum Report {
    /// A stream took its next checkpoint.
    Checkpoint(&'static str, Arc<Checkpoint>),
    /// A stream ended (or was cut short by cancellation).
    Stream(StreamEnd),
    Interval {
        run: usize,
        idx: usize,
        outcome: Box<IntervalOutcome>,
    },
    /// A worker is unwinding; the driver stops and re-raises.
    Panicked,
}

/// A stream item's result: the stream (complete, loaded, or cut) and
/// what the memo records about it.
struct StreamEnd {
    bench: &'static str,
    ff: FastForward,
    info: FastForwardInfo,
    cut: bool,
}

/// The ready items, shared by the driver (pushes) and the workers
/// (pop). Streams go first: they unlock every other item.
#[derive(Default)]
struct Queue<'a> {
    ready: Mutex<Ready<'a>>,
    wake: Condvar,
}

#[derive(Default)]
struct Ready<'a> {
    streams: Vec<&'static str>,
    /// Interval items keyed by (checkpoint index, run): the lowest
    /// checkpoint first, so every run's chunk advances together.
    intervals: BTreeMap<(usize, usize), Ckpt<'a>>,
    closed: bool,
}

impl<'a> Queue<'a> {
    fn push(&self, add: impl FnOnce(&mut Ready<'a>)) {
        add(&mut self.ready.lock().expect("lab queue"));
        self.wake.notify_all();
    }

    /// The next ready item; `None` once the queue is closed.
    fn pop(&self) -> Option<Item<'a>> {
        let mut ready = self.ready.lock().expect("lab queue");
        loop {
            if ready.closed {
                return None;
            }
            if let Some(bench) = ready.streams.pop() {
                return Some(Item::Stream(bench));
            }
            if let Some(((idx, run), ckpt)) = ready.intervals.pop_first() {
                return Some(Item::Interval { run, idx, ckpt });
            }
            ready = self.wake.wait(ready).expect("lab queue");
        }
    }

    /// Closes the queue and drops what is left in it. Runs on drop,
    /// unwinding included, so it must not panic: every update of the
    /// queue leaves it valid, and a poisoned lock is taken over.
    fn close(&self) {
        let mut ready = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
        ready.closed = true;
        ready.streams.clear();
        ready.intervals.clear();
        drop(ready);
        self.wake.notify_all();
    }
}

struct CloseOnDrop<'q, 'a>(&'q Queue<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Tells the driver when a worker unwinds, so it never waits for a
/// report that will not come.
struct ReportPanic<'t>(&'t Sender<Report>);

impl Drop for ReportPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(Report::Panicked);
        }
    }
}

/// What a worker may read while it executes items.
struct Ctx<'a> {
    params: &'a Params,
    runs: &'a [PlannedRun],
    workloads: &'a HashMap<&'static str, Workload>,
    store: Option<&'a Store>,
    tally: &'a WorkTally,
    cancel: Option<&'a AtomicBool>,
}

impl Ctx<'_> {
    /// A worker: executes ready items until the queue closes.
    fn work(&self, queue: &Queue<'_>, tx: Sender<Report>) {
        let _panic = ReportPanic(&tx);
        let mut span = dca_obs::span("lab", "lab.worker");
        let mut items = 0usize;
        while let Some(item) = queue.pop() {
            items += 1;
            let report = match item {
                Item::Stream(bench) => Report::Stream(self.stream(bench, &tx)),
                Item::Interval { run, idx, ckpt } => Report::Interval {
                    run,
                    idx,
                    outcome: Box::new(self.interval(run, idx, &ckpt)),
                },
            };
            // The driver only hangs up while unwinding.
            let _ = tx.send(report);
        }
        span.add_arg("items", items);
    }

    /// The stream item: the benchmark's functional fast-forward,
    /// publishing each checkpoint as it is taken. With a store, one
    /// lab per shard computes it (first-writer-wins) and saves it here,
    /// when the stream ends; a lab that loses the election loads the
    /// winner's copy. The cancellation token is checked at every
    /// checkpoint: a stream cut there is neither saved nor memoised.
    fn stream(&self, bench: &'static str, tx: &Sender<Report>) -> StreamEnd {
        let _span = dca_obs::span("lab", "lab.fast_forward_phase").arg("bench", bench);
        let t0 = Instant::now();
        let p = self.params;
        let w = &self.workloads[bench];
        let (mut published, mut executed) = (0usize, 0u64);
        let mut compute = || {
            let mut hook = ContinuousWarmer::new(&SimConfig::default());
            let mut stream = CheckpointStream::new(
                &w.program,
                w.memory.clone(),
                p.sampling.period,
                p.max_insts,
                &mut hook,
            );
            let (mut checkpoints, mut cut) = (Vec::new(), false);
            for ckpt in stream.by_ref() {
                let _ = tx.send(Report::Checkpoint(bench, Arc::new(ckpt.clone())));
                checkpoints.push(ckpt);
                if self.cancel.is_some_and(|t| t.load(Ordering::Relaxed)) {
                    cut = true;
                    break;
                }
            }
            published = checkpoints.len();
            executed = stream.insts();
            let ff = FastForward {
                checkpoints,
                total_insts: stream.insts(),
                halted: stream.halted(),
            };
            (ff, cut)
        };
        let run = self
            .runs
            .iter()
            .find(|r| r.bench == bench)
            .expect("a stream serves a planned run");
        let ((ff, cut), from_store) = match self.store {
            Some(store) => {
                let key = run.checkpoint_key(p);
                elect_or_compute(
                    store,
                    &key.file_name(),
                    &format!("checkpoints for {bench}"),
                    || store.load_checkpoints_covering(&key).map(|ff| (ff, false)),
                    compute,
                    |(ff, cut)| {
                        if *cut {
                            Ok(())
                        } else {
                            store.save_checkpoints(&key, ff).map(|_| ())
                        }
                    },
                )
            }
            None => (compute(), false),
        };
        // A stream loaded from a peer's copy publishes all at once.
        for ckpt in &ff.checkpoints[published..] {
            let _ = tx.send(Report::Checkpoint(bench, Arc::new(ckpt.clone())));
        }
        self.tally.ff_insts.fetch_add(executed, Ordering::Relaxed);
        let info = FastForwardInfo {
            insts: ff.total_insts,
            checkpoints: ff.checkpoints.len() as u64,
            secs: t0.elapsed().as_secs_f64(),
            from_store,
        };
        StreamEnd {
            bench,
            ff,
            info,
            cut,
        }
    }

    /// The interval item: warm-starts the run's machine at checkpoint
    /// `idx` and measures one detailed interval.
    fn interval(&self, run: usize, idx: usize, ckpt: &Checkpoint) -> IntervalOutcome {
        let r = &self.runs[run];
        let p = self.params;
        let bench = r.bench;
        let _span = dca_obs::span("lab", "lab.interval")
            .arg("bench", bench)
            .arg("checkpoint", idx);
        let w = &self.workloads[bench];
        let mut steering = r.scheme.instantiate(&w.program);
        let mut sim = Simulator::resume_from(&r.cfg, &w.program, ckpt);
        let t0 = Instant::now();
        // Continuous warming restores the checkpoint's carried
        // snapshot — zero detached-warming instructions (the acceptance
        // counter of the warming work); detached warming replays
        // `warmup` instructions as before.
        let warmed = match p.sampling.warming {
            Warming::Continuous => {
                let blob = ckpt.uarch().unwrap_or_else(|| {
                    panic!(
                        "continuous warming: checkpoint at {} of {bench} carries no \
                         uarch snapshot (stream computed without a warm hook?)",
                        ckpt.seq()
                    )
                });
                let snap = UarchSnapshot::decode(blob).unwrap_or_else(|e| {
                    panic!("continuous warming: {bench} @ {}: {e}", ckpt.seq())
                });
                sim.restore_uarch(&snap).unwrap_or_else(|e| {
                    panic!(
                        "continuous warming: {bench} @ {} on {}: {e}",
                        ckpt.seq(),
                        r.machine.key()
                    )
                });
                0
            }
            Warming::Detached if p.warm_steering => {
                sim.warm_functional_steered(p.sampling.warmup, steering.as_mut())
            }
            Warming::Detached => sim.warm_functional(p.sampling.warmup),
        };
        let warm_secs = t0.elapsed().as_secs_f64();
        let budget = (ckpt.seq() + warmed + p.sampling.interval).min(p.max_insts);
        let t1 = Instant::now();
        let stats = sim.run_mut(steering.as_mut(), budget);
        let detailed_secs = t1.elapsed().as_secs_f64();
        let m = dca_obs::metrics();
        m.intervals_computed_total.inc();
        self.tally
            .intervals_computed
            .fetch_add(1, Ordering::Relaxed);
        m.warm_insts_total.add(warmed);
        m.interval_ns.record((detailed_secs * 1e9) as u64);
        IntervalOutcome {
            stats,
            warmed,
            restored: p.sampling.warming == Warming::Continuous,
            warm_secs,
            detailed_secs,
            from_store: false,
        }
    }
}

/// The driving thread's side of the executor: it alone changes run
/// state, releases chunks, calls the round hook and observes
/// cancellation.
struct Driver<'a> {
    lab: &'a Lab,
    plan: &'a Plan,
    sources: &'a mut BTreeMap<&'static str, Source>,
    states: &'a mut [RunState],
    queue: &'a Queue<'a>,
    /// Streams that covered the whole window, for the memo.
    finished: Vec<(&'static str, FastForward, FastForwardInfo)>,
    round: u64,
    /// Items handed to workers and not yet reported back.
    inflight: usize,
    /// Intervals computed by this executor (the live rate).
    computed: u64,
    /// A stream reported a cancellation cut.
    cut: bool,
    warned: bool,
    t0: Instant,
}

impl<'a> Driver<'a> {
    /// Every run decided, every stream ended, nothing in flight.
    fn done(&self) -> bool {
        self.inflight == 0 && self.states.iter().all(|st| st.used.is_some())
    }

    /// Decides every run whose released chunk is complete, then
    /// releases the next chunk of each run still undecided — one
    /// *round* for the hook — unless cancellation freezes it instead.
    /// Returns `true` when every run is decided.
    fn step(&mut self) -> bool {
        let target = self.plan.params.sampling.target_stderr;
        let grid = self.plan.params.grid;
        let cancelled = self.cut || self.lab.cancelled();
        let mut release: Vec<usize> = Vec::new();
        for (i, st) in self.states.iter_mut().enumerate() {
            if st.used.is_some() {
                continue;
            }
            let src = &self.sources[self.plan.runs[i].bench];
            // Indices at or past a stream's end never arrive.
            if st.outcomes.len() < st.released.min(src.end.unwrap_or(usize::MAX)) {
                continue; // the chunk is still running
            }
            st.used = src.decide(&st.outcomes, target);
            if st.used.is_some() {
                continue;
            }
            if cancelled {
                // Freeze at the contiguous prefix (possibly empty), so
                // the merge stays total.
                st.used = Some(st.outcomes.len());
                if !self.warned {
                    self.warned = true;
                    progress::warn("[lab] sampling cancelled; merging completed prefixes");
                }
                continue;
            }
            release.push(i);
        }
        if release.is_empty() {
            return self.states.iter().all(|st| st.used.is_some());
        }
        // Without a stderr target a run's one chunk is its whole
        // budget (no adaptivity).
        let (mut batch, mut ready) = (0u64, Vec::new());
        for &i in &release {
            let st = &mut self.states[i];
            let src = &self.sources[self.plan.runs[i].bench];
            let have = st.outcomes.len();
            st.released = match target {
                Some(_) => have + INTERVAL_CHUNK,
                None => usize::MAX,
            };
            batch += st.released.min(src.budget(grid)).saturating_sub(have) as u64;
            let lab: &'a Lab = self.lab;
            for idx in have..st.released.min(src.available()) {
                let ckpt = if src.memo {
                    Ckpt::Memo(&lab.ffs[self.plan.runs[i].bench].checkpoints[idx])
                } else {
                    Ckpt::Streamed(Arc::clone(&src.ckpts[idx]))
                };
                ready.push(((idx, i), ckpt));
            }
        }
        // Worst-case work remaining (every undecided run exhausts its
        // budget), for the ETA off the live intervals/sec rate.
        let remaining: u64 = self
            .plan
            .runs
            .iter()
            .zip(self.states.iter())
            .filter(|(_, st)| st.used.is_none())
            .map(|(r, st)| {
                let budget = self.sources[r.bench].budget(grid);
                budget.saturating_sub(st.outcomes.len()) as u64
            })
            .sum();
        let m = dca_obs::metrics();
        let secs = self.t0.elapsed().as_secs_f64();
        if self.computed > 0 && secs > 0.0 {
            m.intervals_per_sec_milli
                .set((self.computed as f64 * 1000.0 / secs) as u64);
        }
        progress::detail(format!(
            "[lab] sampling round: {batch} intervals ({remaining} worst-case, {})",
            progress::eta(remaining, m.intervals_per_sec_milli.get())
        ));
        self.round += 1;
        if let Some(hook) = &self.lab.round_hook {
            hook(&RoundProgress {
                round: self.round,
                batch,
                remaining,
                intervals_per_sec_milli: m.intervals_per_sec_milli.get(),
            });
        }
        self.inflight += ready.len();
        self.queue.push(|r| r.intervals.extend(ready));
        false
    }

    /// Checkpoint `k` of `bench` exists: release it to every run whose
    /// current chunk is waiting for it.
    fn on_checkpoint(&mut self, bench: &'static str, ckpt: Arc<Checkpoint>) {
        let src = self.sources.get_mut(bench).expect("a planned stream");
        let k = src.ckpts.len();
        src.ckpts.push(Arc::clone(&ckpt));
        let mut ready = Vec::new();
        for (i, (run, st)) in self.plan.runs.iter().zip(self.states.iter()).enumerate() {
            if run.bench == bench && st.used.is_none() && st.outcomes.len() <= k && k < st.released
            {
                ready.push(((k, i), Ckpt::Streamed(Arc::clone(&ckpt))));
            }
        }
        self.inflight += ready.len();
        self.queue.push(|r| r.intervals.extend(ready));
    }

    /// A stream ended: its checkpoint count is now every run's budget,
    /// and items released past it are dropped. A stream cut by
    /// cancellation is not memoised.
    fn on_stream_end(&mut self, end: StreamEnd) {
        self.inflight -= 1;
        let target = self.plan.params.sampling.target_stderr;
        let src = self.sources.get_mut(end.bench).expect("a planned stream");
        let n = src.ckpts.len();
        src.end = Some(n);
        src.cut = end.cut;
        if end.cut {
            self.cut = true;
            return;
        }
        // A stored prefix cannot outrun its own stream for a current
        // key; clamp it anyway so the merge never reads past the budget.
        for (run, st) in self.plan.runs.iter().zip(self.states.iter_mut()) {
            if run.bench == end.bench && st.outcomes.len() > n {
                st.outcomes.truncate(n);
                st.prefilled = st.prefilled.min(n);
                if st.used.is_some() {
                    st.used = adaptive_prefix(&st.outcomes, n, target);
                }
            }
        }
        self.finished.push((end.bench, end.ff, end.info));
    }

    /// Appends a finished interval once every earlier one of its run
    /// is in: outcomes stay a contiguous checkpoint-order prefix.
    fn on_interval(&mut self, run: usize, idx: usize, outcome: IntervalOutcome) {
        self.inflight -= 1;
        self.computed += 1;
        let st = &mut self.states[run];
        st.early.insert(idx, outcome);
        while let Some(o) = st.early.remove(&st.outcomes.len()) {
            st.outcomes.push(o);
        }
    }
}

/// First-writer-wins election for a checkpoint shard whose fast-path
/// load missed: race the other labs for the shard lock; the winner
/// re-checks under the lock (a peer may have published while it
/// waited), computes, saves and releases. Losers poll the shard with
/// exponential backoff (10ms doubling, capped at 250ms) until the
/// winner publishes or [`Store::lock_wait`] elapses.
///
/// Degradation rule: a store that is unreadable, not lockable, or
/// whose lock never frees must never fail the run — every such path
/// computes in memory, skips the save, warns on stderr, and reports
/// `from_store = false`. A stale or corrupt entry is *not* a reason to
/// abandon the store: the winner heals it (recompute + save).
fn elect_or_compute<T>(
    store: &Store,
    name: &str,
    what: &str,
    load: impl Fn() -> Result<T, StoreError>,
    mut compute: impl FnMut() -> T,
    save: impl Fn(&T) -> Result<(), StoreError>,
) -> (T, bool) {
    let m = dca_obs::metrics();
    let wait_t0 = Instant::now();
    let deadline = wait_t0 + store.lock_wait();
    let mut backoff = Duration::from_millis(10);
    let waited_ns = || wait_t0.elapsed().as_nanos() as u64;
    loop {
        match store.try_lock(FileKind::Checkpoints, name) {
            LockAttempt::Acquired(_guard) => {
                m.lock_elections_won_total.inc();
                m.lock_wait_ns.record(waited_ns());
                match load() {
                    Ok(v) => return (v, true),
                    Err(e) if e.is_not_found() => {}
                    Err(e) => {
                        progress::warn(format!("[lab] store: {what}: {e}; recomputing"));
                    }
                }
                let v = compute();
                if let Err(e) = save(&v) {
                    progress::warn(format!("[lab] store: could not save {what}: {e}"));
                }
                return (v, false);
            }
            LockAttempt::Busy => {
                // The holder is computing (or healing) this shard: poll
                // for its publication, quietly treating not-yet-healed
                // errors as misses.
                if let Ok(v) = load() {
                    m.lock_elections_lost_total.inc();
                    m.lock_wait_ns.record(waited_ns());
                    return (v, true);
                }
                if Instant::now() >= deadline {
                    // The loser's degradation is part of the total-
                    // degradation invariant (a permanently held lock
                    // must never fail a run) — counted, so a fleet of
                    // serve workers wedging on one lock is visible in
                    // the metrics, not just in stderr.
                    m.lock_deadline_expired_total.inc();
                    m.lock_wait_ns.record(waited_ns());
                    progress::warn(format!(
                        "[lab] store: lock on {name} still held after {:?}; \
                         computing {what} without the store",
                        store.lock_wait()
                    ));
                    return (compute(), false);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(250));
            }
            LockAttempt::Unavailable(e) => {
                m.lock_wait_ns.record(waited_ns());
                progress::warn(format!(
                    "[lab] store: lock unavailable ({e}); computing {what} without the store"
                ));
                return (compute(), false);
            }
        }
    }
}
