//! Per-layer timings for the dca benchmark (`perfbench/run.py`).
//!
//! ```text
//! dca-perfbench-tracer layers    SPEC.json OUT.json   # traced run: one number per layer
//! dca-perfbench-tracer reference SPEC.json OUT.json   # in-process reports for output checks
//! ```
//!
//! `SPEC.json` is written by `run.py` from the workload definition:
//!
//! ```text
//! {"scale": "paper", "bench": "compress", "window": 20000000, "period": 2000000,
//!  "interval": 100000, "sim_budget": 300000, "workdir": "...",
//!  "requests": [["sampling", "--scale", "paper"], ...]}
//! ```
//!
//! `requests` is the workload's own figure work, in the request grammar
//! `dca serve` accepts. `reference` computes each request's report
//! in-process with one `Lab` per options key, as the daemon does, and
//! writes the documents. `layers` runs that same work in pairs of passes
//! with span recording off and on (`obs.trace_overhead_pct`, and the
//! `lab.*` metrics from the program's own spans), then times the
//! benchmark's calls into every crate's public functions on the
//! workload's inputs. Every call is wrapped in a span; spans stay in
//! memory and are written once, as Chrome trace-event JSON, at the end.
//! Every repeated timing goes to `OUT.json` as its raw samples; `run.py`
//! summarises them all with one percentile rule.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dca_bench::{figures, Lab, Machine, SchemeKind, WorkCounts, ALL_SCHEMES};
use dca_obs::json::{self, Json};
use dca_obs::SpanEvent;
use dca_prog::{fast_forward_with, CheckpointDecoder, CheckpointEncoder, FastForward, NoWarmHook};
use dca_serve::http::HttpReader;
use dca_serve::proto::FigureRequest;
use dca_serve::service::Service;
use dca_sim::{ContinuousWarmer, Engine, SimConfig, Simulator};
use dca_store::{CheckpointKey, FileKind, IntervalRecord, LockAttempt, ResultKey, Store};
use dca_uarch::UarchSnapshot;
use dca_workloads::Scale;

/// The workload parameters `run.py` passes in.
struct Spec {
    scale: Scale,
    bench: &'static str,
    window: u64,
    period: u64,
    interval: u64,
    sim_budget: u64,
    workdir: PathBuf,
    requests: Vec<(String, Vec<String>)>,
}

impl Spec {
    fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text)?;
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("spec: missing `{k}`"))
        };
        let string = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("spec: missing `{k}`"))
        };
        let bench = string("bench")?;
        let bench = *dca_workloads::NAMES
            .iter()
            .find(|n| **n == bench)
            .ok_or(format!("spec: unknown benchmark `{bench}`"))?;
        let mut requests = Vec::new();
        for r in doc
            .get("requests")
            .and_then(Json::as_array)
            .ok_or("spec: missing `requests`")?
        {
            let words: Vec<String> = r
                .as_array()
                .ok_or("spec: a request is an array of strings")?
                .iter()
                .map(|w| {
                    w.as_str()
                        .map(str::to_string)
                        .ok_or("spec: a request is an array of strings")
                })
                .collect::<Result<_, _>>()?;
            let (figure, args) = words.split_first().ok_or("spec: empty request")?;
            requests.push((figure.clone(), args.to_vec()));
        }
        Ok(Spec {
            scale: Scale::from_name(&string("scale")?)?,
            bench,
            window: num("window")?,
            period: num("period")?.max(1),
            interval: num("interval")?,
            sim_budget: num("sim_budget")?,
            workdir: PathBuf::from(string("workdir")?),
            requests,
        })
    }
}

/// Times `f` inside a span named after the layer call it makes.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = dca_obs::span("perfbench", name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Scalar metrics plus raw sample lists, rendered as `OUT.json`. Numbers
/// are kept as rendered text with every digit (`dca_obs::json` rounds
/// floats to three places).
#[derive(Default)]
struct Report {
    values: Vec<(String, String)>,
    samples: Vec<(String, Vec<f64>)>,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

impl Report {
    fn value(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), number(v)));
    }

    fn count(&mut self, name: &str, v: u64) {
        self.values.push((name.to_string(), v.to_string()));
    }

    fn samples(&mut self, name: &str, xs: &[f64]) {
        self.samples.push((name.to_string(), xs.to_vec()));
    }

    fn render(self, docs: &[String]) -> String {
        let key = |k: &str| Json::Str(k.to_string()).render();
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}: {v}", key(k)))
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, xs)| {
                format!(
                    "{}: [{}]",
                    key(k),
                    xs.iter().map(|&x| number(x)).collect::<Vec<_>>().join(", ")
                )
            })
            .collect();
        let docs: Vec<String> = docs.iter().map(|d| key(d)).collect();
        format!(
            "{{\"values\": {{{}}}, \"samples\": {{{}}}, \"docs\": [{}]}}\n",
            values.join(", "),
            samples.join(", "),
            docs.join(", ")
        )
    }
}

/// The workload's figure work, one `Lab` per options key (the
/// `dca serve` pool rule), optionally rooted at a store directory.
/// Returns the documents in request order and the labs.
fn run_requests(
    spec: &Spec,
    store: Option<&Path>,
) -> Result<(Vec<String>, BTreeMap<String, Lab>), String> {
    let mut labs: BTreeMap<String, Lab> = BTreeMap::new();
    let mut docs = Vec::new();
    for (figure, args) in &spec.requests {
        let payload = FigureRequest::render_payload(figure, args);
        let req = FigureRequest::parse(&payload).map_err(|e| format!("{figure} {args:?}: {e}"))?;
        let okey = dca_serve::proto::opts_key(&req.opts);
        let lab = labs.entry(okey).or_insert_with(|| {
            let mut opts = req.opts.clone();
            opts.store_dir = store.map(Path::to_path_buf);
            opts.quiet = true;
            Lab::new(opts)
        });
        let f = figures::by_name(figure).ok_or(format!("unknown figure `{figure}`"))?;
        docs.push(f(lab).document());
    }
    Ok((docs, labs))
}

fn work_of(labs: &BTreeMap<String, Lab>) -> WorkCounts {
    labs.values().fold(WorkCounts::default(), |a, lab| {
        let w = lab.work();
        WorkCounts {
            ff_insts: a.ff_insts + w.ff_insts,
            intervals_computed: a.intervals_computed + w.intervals_computed,
            intervals_from_store: a.intervals_from_store + w.intervals_from_store,
            straight_runs: a.straight_runs + w.straight_runs,
        }
    })
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("{}: {e}", path.display())),
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn span_secs(events: &[SpanEvent], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.dur_ns as f64 / 1e9)
        .collect()
}

/// Total time covered by the named spans, overlaps counted once.
fn covered_secs(events: &[SpanEvent], name: &str) -> f64 {
    let mut spans: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| (e.ts_ns, e.ts_ns + e.dur_ns))
        .collect();
    spans.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (start, end) in spans {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total as f64 / 1e9
}

/// The `bench` and `obs` layers. The workload's figure work runs cold in
/// untraced/traced pairs, each pass on a fresh store, the order within a
/// pair alternating: at least three pairs, and more (up to nine) while
/// the passes have taken under ten seconds. Each pair gives one ratio
/// for `obs.trace_overhead_pct`; the last traced pass gives the `lab.*`
/// numbers. Two warm passes follow: the traced pass's labs render every
/// figure again, every run memoised, and fresh labs run the work over
/// the traced pass's store.
fn lab_layer(spec: &Spec, out: &mut Report, kept: &mut Vec<SpanEvent>) -> Result<(), String> {
    let m = dca_obs::metrics();
    let (mut overhead, mut spent, mut last) = (Vec::new(), 0.0, None);
    while overhead.len() < 3 || (spent < 10.0 && overhead.len() < 9) {
        let order = if overhead.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut secs = [0.0f64; 2];
        for tracing in order {
            dca_obs::span::set_enabled(tracing);
            let store = spec
                .workdir
                .join(if tracing { "store-traced" } else { "store-untraced" });
            fresh_dir(&store)?;
            let written0 = m.store_written_bytes_total.get();
            let t0 = Instant::now();
            let (_, labs) = run_requests(spec, Some(&store))?;
            secs[tracing as usize] = t0.elapsed().as_secs_f64();
            dca_obs::span::set_enabled(false);
            if tracing {
                let events = dca_obs::span::drain();
                kept.extend(events.iter().cloned());
                let written = m.store_written_bytes_total.get() - written0;
                last = Some((labs, store, written, events));
            }
        }
        spent += secs[0] + secs[1];
        overhead.push((secs[1] / secs[0] - 1.0) * 100.0);
    }
    out.samples("obs.trace_overhead_pct", &overhead);
    let (mut labs, store, written, events) = last.ok_or("no traced pass ran")?;
    out.count("store.written_bytes", written);

    let ensure = covered_secs(&events, "lab.ensure");
    let mut busy = span_secs(&events, "lab.interval");
    if busy.is_empty() {
        busy = span_secs(&events, "sim.run");
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.value("lab.ensure_s", ensure);
    out.value(
        "lab.ff_phase_s",
        covered_secs(&events, "lab.fast_forward_phase"),
    );
    out.value(
        "lab.busy_frac",
        busy.iter().sum::<f64>() / (ensure * workers as f64).max(1e-9),
    );
    let runs: Vec<f64> = span_secs(&events, "sim.run")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    out.samples("sim.interval_ms", &runs);

    let cold = work_of(&labs);
    out.count("lab.ff_insts", cold.ff_insts);
    out.count("lab.intervals_computed", cold.intervals_computed);
    out.count("lab.straight_runs", cold.straight_runs);
    out.count("check.cold_intervals_from_store", cold.intervals_from_store);

    // Warm pass 1: rendering from labs whose every run is memoised,
    // which must simulate nothing. Spans stay on from here to the end.
    dca_obs::span::set_enabled(true);
    let mut render = Vec::new();
    for (figure, args) in &spec.requests {
        let payload = FigureRequest::render_payload(figure, args);
        let req = FigureRequest::parse(&payload)?;
        let lab = labs
            .get_mut(&dca_serve::proto::opts_key(&req.opts))
            .ok_or("lab pool lost a key")?;
        let f = figures::by_name(figure).ok_or("unknown figure")?;
        let (_, secs) = timed("figures.render", || f(lab));
        render.push(secs * 1e6);
    }
    out.samples("figures.render_us", &render);
    let memo = work_of(&labs);
    out.count(
        "check.memo_recomputed",
        memo.ff_insts + memo.intervals_computed + memo.straight_runs
            - (cold.ff_insts + cold.intervals_computed + cold.straight_runs),
    );

    // Warm pass 2: fresh labs over the traced pass's store, which must
    // read back every interval the cold pass used.
    let read0 = m.store_read_bytes_total.get();
    let warm = work_of(&run_requests(spec, Some(&store))?.1);
    out.count("store.read_bytes", m.store_read_bytes_total.get() - read0);
    out.count("lab.intervals_from_store", warm.intervals_from_store);
    out.count("check.warm_ff_insts", warm.ff_insts);
    out.count("check.warm_intervals_computed", warm.intervals_computed);
    Ok(())
}

/// Runs `budget` detailed instructions from the program start until at
/// least `min_secs` have passed; returns million committed insts/s.
fn sim_rate(
    cfg: &SimConfig,
    w: &dca_workloads::Workload,
    scheme: SchemeKind,
    budget: u64,
    min_secs: f64,
) -> f64 {
    let (mut insts, mut secs) = (0u64, 0.0f64);
    while secs < min_secs {
        let mut steering = scheme.instantiate(&w.program);
        let sim = Simulator::new(cfg, &w.program, w.memory.clone());
        let (stats, s) = timed("sim.Simulator::run", || sim.run(steering.as_mut(), budget));
        insts += stats.committed;
        secs += s;
    }
    insts as f64 / secs / 1e6
}

/// The layers below `bench`, each timed through its public functions
/// on the workload's inputs.
fn unit_layers(spec: &Spec, out: &mut Report) -> Result<(), String> {
    let (_, build) = timed("workloads.suite", || dca_workloads::suite(spec.scale));
    out.value("workloads.build_s", build);
    let w = dca_workloads::build(spec.bench, spec.scale);

    // prog + uarch: the fast-forward with and without the warm hook.
    let (plain, t_plain) = timed("prog.fast_forward_with", || {
        fast_forward_with(
            &w.program,
            w.memory.clone(),
            spec.period,
            spec.window,
            &mut NoWarmHook,
        )
    });
    let (ff, t_warm) = timed("prog.fast_forward_with+ContinuousWarmer", || {
        let mut hook = ContinuousWarmer::new(&SimConfig::default());
        fast_forward_with(
            &w.program,
            w.memory.clone(),
            spec.period,
            spec.window,
            &mut hook,
        )
    });
    let insts = plain.total_insts.max(1) as f64;
    out.value("prog.ff_minsts_per_s", insts / t_plain / 1e6);
    out.value(
        "uarch.warm_hook_ns_per_inst",
        (t_warm - t_plain) / insts * 1e9,
    );

    let mut enc = CheckpointEncoder::new();
    let (encoded, t_enc) = timed("prog.CheckpointEncoder::encode", || {
        ff.checkpoints
            .iter()
            .map(|c| enc.encode(c))
            .collect::<Vec<_>>()
    });
    let bytes: usize = encoded
        .iter()
        .map(|(pages, payload)| {
            payload.len() + pages.iter().map(|(_, p)| p.len() + 4).sum::<usize>()
        })
        .sum();
    let (decoded, t_dec) = timed("prog.CheckpointDecoder::decode", || {
        let mut dec = CheckpointDecoder::new();
        encoded
            .iter()
            .map(|(pages, payload)| {
                for (id, page) in pages {
                    dec.insert_page(*id, page)?;
                }
                dec.decode(payload)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let decoded = decoded.map_err(|e| format!("checkpoint decode: {e:?}"))?;
    if decoded.len() != ff.checkpoints.len() {
        return Err("checkpoint codec lost checkpoints".into());
    }
    out.value("prog.ckpt_encode_ms", t_enc * 1e3);
    out.value("prog.ckpt_decode_ms", t_dec * 1e3);
    out.count("prog.ckpt_bytes", bytes as u64);

    // uarch + sim: interval set-up and one interval per checkpoint.
    let cfg = Machine::Clustered.config();
    let (mut dec_us, mut restore_us, mut resume_us, mut snap_bytes) =
        (vec![], vec![], vec![], vec![]);
    let mut records = Vec::new();
    for ckpt in &ff.checkpoints {
        let blob = ckpt.uarch().ok_or("checkpoint without a uarch snapshot")?;
        snap_bytes.push(blob.len() as f64);
        let (snap, t) = timed("uarch.UarchSnapshot::decode", || {
            UarchSnapshot::decode(blob)
        });
        let snap = snap.map_err(|e| format!("snapshot decode: {e:?}"))?;
        dec_us.push(t * 1e6);
        let (mut sim, t) = timed("sim.Simulator::resume_from", || {
            Simulator::resume_from(&cfg, &w.program, ckpt)
        });
        resume_us.push(t * 1e6);
        let (r, t) = timed("sim.Simulator::restore_uarch", || sim.restore_uarch(&snap));
        r.map_err(|e| format!("snapshot restore: {e:?}"))?;
        restore_us.push(t * 1e6);
        let mut steering = SchemeKind::GeneralBalance.instantiate(&w.program);
        let budget = (ckpt.seq() + spec.interval).min(spec.window);
        let (stats, _) = timed("sim.Simulator::run_mut", || {
            sim.run_mut(steering.as_mut(), budget)
        });
        records.push(IntervalRecord {
            stats,
            warmed_insts: 0,
        });
    }
    out.samples("uarch.snapshot_decode_us", &dec_us);
    out.samples("uarch.snapshot_restore_us", &restore_us);
    out.samples("uarch.snapshot_bytes", &snap_bytes);
    out.samples("sim.resume_us", &resume_us);

    for (engine, name) in [
        (Engine::Event, "sim.event.minsts_per_s"),
        (Engine::Scan, "sim.scan.minsts_per_s"),
    ] {
        let mut c = cfg.clone();
        c.engine = engine;
        out.value(
            name,
            sim_rate(&c, &w, SchemeKind::GeneralBalance, spec.sim_budget, 0.3),
        );
    }
    for scheme in ALL_SCHEMES {
        let rate = sim_rate(&cfg, &w, scheme, spec.sim_budget / 2, 0.15);
        out.value(&format!("steer.{}.minsts_per_s", scheme.name()), rate);
    }

    store_layer(spec, &w, &ff, &records, out)?;
    serve_layer(spec, out)
}

fn store_layer(
    spec: &Spec,
    w: &dca_workloads::Workload,
    ff: &FastForward,
    records: &[IntervalRecord],
    out: &mut Report,
) -> Result<(), String> {
    let dir = spec.workdir.join("store-layer");
    fresh_dir(&dir)?;
    let store = Store::open(&dir);
    let ckey = CheckpointKey {
        workload: spec.bench,
        scale: spec.scale.name(),
        period: spec.period,
        max_insts: spec.window,
        fingerprint: w.fingerprint(),
        uarch: SimConfig::default().uarch_hash(),
    };
    let cfg = Machine::Clustered.config();
    let rkey = ResultKey {
        workload: spec.bench,
        scale: spec.scale.name(),
        machine: "clustered",
        geometry: cfg.config_hash(),
        scheme: "general",
        period: spec.period,
        warmup: 0,
        interval: spec.interval,
        max_insts: spec.window,
        warm_steering: false,
        continuous_warming: true,
        fingerprint: w.fingerprint(),
    };
    let err = |e: dca_store::StoreError| e.to_string();
    let (r, t) = timed("store.Store::save_checkpoints", || {
        store.save_checkpoints(&ckey, ff)
    });
    r.map_err(err)?;
    out.value("store.save_checkpoints_ms", t * 1e3);
    let (r, t) = timed("store.Store::load_checkpoints", || {
        store.load_checkpoints(&ckey)
    });
    if r.map_err(err)?.checkpoints.len() != ff.checkpoints.len() {
        return Err("store lost checkpoints".into());
    }
    out.value("store.load_checkpoints_ms", t * 1e3);
    let (r, t) = timed("store.Store::save_intervals", || {
        store.save_intervals(&rkey, records)
    });
    r.map_err(err)?;
    out.value("store.save_intervals_ms", t * 1e3);
    let (r, t) = timed("store.Store::load_intervals", || {
        store.load_intervals(&rkey)
    });
    if r.map_err(err)?.len() != records.len() {
        return Err("store lost intervals".into());
    }
    out.value("store.load_intervals_ms", t * 1e3);
    let mut lock_us = Vec::new();
    for _ in 0..100 {
        let (attempt, t) = timed("store.Store::try_lock", || {
            // The guard drops inside the timed call: acquire + release.
            matches!(
                store.try_lock(FileKind::Results, "perfbench"),
                LockAttempt::Acquired(_)
            )
        });
        if !attempt {
            return Err("store lock not acquired".into());
        }
        lock_us.push(t * 1e6);
    }
    out.samples("store.lock_us", &lock_us);
    Ok(())
}

fn serve_layer(spec: &Spec, out: &mut Report) -> Result<(), String> {
    let (figure, args) = spec.requests.first().ok_or("spec has no requests")?;
    let body = FigureRequest::render_payload(figure, args);
    let mut wire = format!(
        "POST /v1/figures HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    let mut parse_us = Vec::new();
    for _ in 0..2000 {
        let (r, t) = timed("serve.HttpReader::read_request", || {
            HttpReader::new(&wire[..]).read_request()
        });
        r.map_err(|e| format!("http parse: {e}"))?;
        parse_us.push(t * 1e6);
    }
    out.samples("serve.http_parse_us", &parse_us);
    let req = FigureRequest::parse(&body)?;
    let mut submit_us = Vec::new();
    for _ in 0..500 {
        let service = Service::new();
        let r = req.clone();
        let (d, t) = timed("serve.Service::submit_detached+next_job", || {
            service.submit_detached("http/1", r);
            service.next_job()
        });
        d.ok_or("submitted job was not dispatched")?;
        submit_us.push(t * 1e6);
    }
    out.samples("serve.submit_us", &submit_us);
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [mode, spec, out] if mode == "layers" || mode == "reference" => Spec::load(Path::new(spec))
            .and_then(|spec| {
                dca_obs::progress::set_verbosity(dca_obs::Verbosity::Quiet);
                let text = if mode == "reference" {
                    let (docs, _) = run_requests(&spec, None)?;
                    Report::default().render(&docs)
                } else {
                    let mut report = Report::default();
                    let mut kept = Vec::new();
                    lab_layer(&spec, &mut report, &mut kept)?;
                    unit_layers(&spec, &mut report)?;
                    kept.extend(dca_obs::span::drain());
                    dca_obs::span::set_enabled(false);
                    let trace = spec.workdir.join("trace.json");
                    std::fs::write(&trace, dca_obs::span::chrome_trace(&kept))
                        .map_err(|e| format!("{}: {e}", trace.display()))?;
                    report.render(&[])
                };
                std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))
            }),
        _ => Err("usage: dca-perfbench-tracer layers|reference SPEC.json OUT.json".into()),
    };
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
