//! `perfbench`: the SimCXL host-time benchmark.
//!
//! ```text
//! perfbench --workload <wave_stress|dense_batch|million_clients|figures_and_faults>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run first makes one pass at the pinned default seeds and checks the
//! pins, then measures passes at `--seed` (default: the pinned seeds)
//! for `--seconds`, each with its own set-up, checking every pass's
//! digests against the first one (rerun equality) or, at the default
//! seeds, against the pins. Everything runs single-threaded in this
//! process. The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it, each starting with `#`, give the
//! host, the sample counts, the wall-time tail and the spans.

mod alloc;
mod engine;
mod figures;
mod kernels;
mod scenario;
#[cfg(test)]
mod tests;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::{SpanTotal, Tracer};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One workload of the benchmark.
pub trait Workload {
    /// What set-up hands to a pass.
    type Input;
    /// Digests at the default seeds, by name.
    fn pins(&self) -> Vec<(&'static str, u64)>;
    /// Builds the system and generates the inputs (`None`: default
    /// seeds).
    fn setup(&self, seed: Option<u64>, tr: &mut Tracer) -> Self::Input;
    /// One pass over the inputs.
    fn pass(&self, input: &mut Self::Input, tr: &mut Tracer) -> Pass;
    /// The workload's memory address stream, for the `mem` kernel.
    fn mem_stream(&self, seed: Option<u64>) -> MemStream;
}

/// What one pass reports.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Operations attempted: requests, sessions, figures and points.
    pub attempted: u64,
    /// Operations that failed in the pass itself.
    pub failed: u64,
    /// Completed coherent accesses.
    pub accesses: u64,
    /// Determinism digests, by name.
    pub digests: Vec<(&'static str, u64)>,
    /// Host-independent counters, by per-layer metric name.
    pub counters: Vec<(&'static str, f64)>,
    /// The event stream's shape, for the `sim` kernel.
    pub shape: Shape,
    /// The spans inside which the engine dispatched `shape.events`.
    pub dispatch_spans: &'static [&'static str],
}

/// Event count and simulated-time spread of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// External requests (or accesses) that start event chains.
    pub requests: u64,
    /// Events dispatched.
    pub events: u64,
    /// Simulated picoseconds the requests arrive over.
    pub span_ps: u64,
    /// Simulated picoseconds released per dispatch window (= `span_ps`
    /// when everything is issued up front).
    pub window_ps: u64,
}

/// A memory interface and the accesses to replay through it.
pub struct MemStream {
    /// The workload's memory.
    pub mi: simcxl_mem::MemoryInterface,
    /// Simulated picoseconds between accesses.
    pub gap_ps: u64,
    /// `(address, is_write)` in issue order.
    pub accesses: Vec<(simcxl_mem::PhysAddr, bool)>,
}

/// The end-to-end metrics, `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("norm_accesses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("calib_mape_pct", "%"),
];

/// The per-layer metrics, `(name, unit)`, reported with `--trace 1`.
/// `_share` metrics are shares of the traced pass's wall time (of
/// set-up for `cohet.build_share`); a layer a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "share"),
    ("trace.allocs", "count"),
    ("trace.alloc_bytes", "bytes"),
    ("host.calib_ns", "ns"),
    ("coherence.issue_share", "share"),
    ("coherence.dispatch_share", "share"),
    ("coherence.verify_share", "share"),
    ("coherence.ns_per_event", "ns"),
    ("coherence.events", "count"),
    ("coherence.events_per_access", "ratio"),
    ("coherence.fast_path_rate", "ratio"),
    ("coherence.busy_hit_rate", "ratio"),
    ("coherence.pending_depth_mean", "count"),
    ("coherence.replay_chain_mean", "count"),
    ("coherence.snoop_fanout_mean", "count"),
    ("coherence.mshr_occupancy_mean", "count"),
    ("coherence.llc_hit_rate", "ratio"),
    ("coherence.snoops_per_request", "ratio"),
    ("coherence.allocs_per_event", "ratio"),
    ("coherence.alloc_bytes_per_event", "bytes"),
    ("sim.queue_ns_per_event", "ns"),
    ("sim.queue_share", "share"),
    ("mem.ns_per_access", "ns"),
    ("mem.accesses_per_request", "ratio"),
    ("mem.share", "share"),
    ("scenario.peak_live", "count"),
    ("scenario.events_per_access", "ratio"),
    ("scenario.allocs_per_access", "ratio"),
    ("scenario.capped", "count"),
    ("cohet.build_share", "share"),
    ("figures.fig12_share", "share"),
    ("figures.fig13_share", "share"),
    ("figures.fig14_share", "share"),
    ("figures.fig15_share", "share"),
    ("figures.fig16_share", "share"),
    ("figures.fig17_share", "share"),
    ("figures.fig18_share", "share"),
    ("figures.calibration_share", "share"),
    ("faults.flaky_link_share", "share"),
    ("faults.stalling_expander_share", "share"),
    ("faults.drain_under_load_share", "share"),
    ("faults.link_retries", "count"),
    ("faults.port_stalled", "count"),
    ("rebalance.drifting_hot_set_share", "share"),
    ("rebalance.stationary_hot_set_share", "share"),
    ("rebalance.uniform_noop_share", "share"),
    ("rebalance.moved_stripes", "count"),
];

/// Passes measured at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value of `v`; 0 for an empty slice.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest percentile of `v` with at least ten samples above it,
/// as `(percentile, value)`; `None` below eleven samples.
fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((100.0 * (k + 1) as f64 / n as f64, s[k]))
}

/// One measured pass.
struct Sample {
    setup_s: f64,
    wall_s: f64,
    /// [`kernels::reference_s`] run right after the pass.
    reference_s: f64,
    traced: bool,
    pass: Pass,
    spans: Vec<SpanTotal>,
    setup_spans: Vec<SpanTotal>,
}

/// What a run found.
pub struct Outcome {
    /// Whether every check held.
    pub correct: bool,
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations failed over every pass.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `#` lines for the log.
    pub notes: Vec<String>,
}

/// Failed operations of `pass` against the `reference` digests: all of
/// them on a mismatch.
fn failed_ops(pass: &Pass, reference: &[(&'static str, u64)]) -> u64 {
    let matches = reference
        .iter()
        .all(|(name, want)| pass.digests.iter().any(|(n, got)| n == name && got == want));
    if matches {
        pass.failed
    } else {
        pass.attempted
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn host_notes() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("# host nproc={nproc} cpu=\"{cpu}\"")
}

/// Host time a set-up is repeated for: a set-up of a few microseconds
/// is timed as the mean of many, so the median over passes is steady.
const SETUP_BUDGET_S: f64 = 0.002;

/// Sets `w` up until the set-ups add up to [`SETUP_BUDGET_S`] (at least
/// once). Returns their mean time and the last input, whose spans `tr`
/// keeps.
fn timed_setup<W: Workload>(w: &W, seed: Option<u64>, tr: &mut Tracer) -> (f64, W::Input) {
    let mut total = 0.0;
    let mut reps = 0u32;
    loop {
        tr.clear();
        let t0 = Instant::now();
        let input = w.setup(seed, tr);
        total += t0.elapsed().as_secs_f64();
        reps += 1;
        if total >= SETUP_BUDGET_S {
            return (total / f64::from(reps), input);
        }
    }
}

/// Runs workload `w` as the command line asks.
pub fn run<W: Workload>(w: &W, seed: Option<u64>, seconds: f64, traced: bool) -> Outcome {
    let mut notes = vec![host_notes()];
    let pins = w.pins();
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // The pinned pass: checks the pins every run, and warms up.
    let mut off = Tracer::new(false);
    let mut input = w.setup(None, &mut off);
    let pinned = w.pass(&mut input, &mut off);
    drop(input);
    attempted += pinned.attempted;
    failed += failed_ops(&pinned, &pins);

    let mut samples: Vec<Sample> = Vec::new();
    // Pins exist only at the default seeds; elsewhere the first measured
    // pass is the reference (rerun equality).
    let mut reference = Some(pins.clone()).filter(|p| seed.is_none() && !p.is_empty());
    let mut peak_rss = None;
    let start = Instant::now();
    while samples.len() < MIN_PASSES * (1 + traced as usize)
        || start.elapsed().as_secs_f64() < seconds
    {
        // A traced run alternates untraced and traced passes, so the
        // difference between them is the tracing overhead.
        let traced_pass = traced && samples.len() % 2 == 1;
        let mut setup_tr = Tracer::new(traced_pass);
        let mut tr = Tracer::new(traced_pass);
        alloc::set_counting(traced_pass);
        let (setup_s, mut input) = timed_setup(w, seed, &mut setup_tr);
        let t1 = Instant::now();
        let pass = w.pass(&mut input, &mut tr);
        let t2 = Instant::now();
        alloc::set_counting(false);
        drop(input);
        // The workload's own peak, read before the reference kernel's
        // hash map can raise it.
        if peak_rss.is_none() {
            peak_rss = peak_rss_mb();
        }
        let reference_s = kernels::reference_s();
        let reference = reference.get_or_insert_with(|| pass.digests.clone());
        attempted += pass.attempted;
        failed += failed_ops(&pass, reference);
        samples.push(Sample {
            setup_s,
            wall_s: (t2 - t1).as_secs_f64(),
            reference_s,
            traced: traced_pass,
            spans: tr.spans().to_vec(),
            setup_spans: setup_tr.spans().to_vec(),
            pass,
        });
    }

    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|s| s.wall_s).collect();
    let references: Vec<f64> = untraced.iter().map(|s| s.reference_s).collect();
    let wall_s = fastest(&walls);
    let wall_median = median(&mut walls.clone());
    // On a shared host the other tenants slow the memory hierarchy for
    // stretches of seconds to minutes, and a pass then takes up to 1.6×
    // as long. The reference kernel run right after a pass is slowed
    // about as much, so a pass's time over the reference's cancels the
    // phase; it is scaled back to seconds on the quiet host.
    let norm_wall_s = median(
        &mut untraced
            .iter()
            .map(|s| s.wall_s / s.reference_s * kernels::REFERENCE_QUIET_S)
            .collect::<Vec<_>>(),
    );
    let last = &samples.last().expect("at least one pass").pass;
    let calib = figures::calib_mape_pct();
    if calib != figures::CALIB_MAPE_PCT {
        correct = false;
        notes.push(format!(
            "# calib_mape_pct {calib} differs from its recorded {}",
            figures::CALIB_MAPE_PCT
        ));
    }
    notes.push(format!(
        "# passes untraced={} traced={} seed={}",
        walls.len(),
        samples.len() - untraced.len(),
        seed.map_or("default".to_owned(), |s| s.to_string())
    ));
    notes.push(format!("# wall_s samples {walls:?}"));
    notes.push(format!("# reference_s samples {references:?}"));
    notes.push(format!(
        "# norm_wall_s median={norm_wall_s} reference_s median={} quiet={}",
        median(&mut references.clone()),
        kernels::REFERENCE_QUIET_S
    ));
    notes.push(match tail(&walls) {
        Some((p, v)) => format!(
            "# wall_s fastest={wall_s} median={wall_median} p{p:.1}={v} samples={}",
            walls.len()
        ),
        None => format!(
            "# wall_s fastest={wall_s} median={wall_median} samples={} (fewer than 11: no tail \
             percentile)",
            walls.len()
        ),
    });
    let mut setups: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
    let setup_s = fastest(&setups);
    notes.push(format!(
        "# setup_s fastest={setup_s} median={} samples={}",
        median(&mut setups),
        setups.len()
    ));

    let mut metrics = BTreeMap::new();
    if !traced {
        metrics.insert("norm_wall_s", norm_wall_s);
        metrics.insert("setup_s", setup_s);
        metrics.insert("norm_accesses_per_s", last.accesses as f64 / norm_wall_s);
        match peak_rss {
            Some(mb) => {
                metrics.insert("peak_rss_mb", mb);
            }
            None => correct = false,
        }
        metrics.insert("calib_mape_pct", calib);
    } else {
        per_layer(w, seed, &samples, wall_s, &mut metrics, &mut notes);
    }
    correct &= failed == 0;
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Fills the per-layer metrics from the traced passes and the kernels.
fn per_layer<W: Workload>(
    w: &W,
    seed: Option<u64>,
    samples: &[Sample],
    untraced_wall: f64,
    metrics: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let wall = fastest(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    // Median over traced passes of a per-pass quantity.
    let med =
        |f: &dyn Fn(&Sample) -> f64| median(&mut traced.iter().map(|s| f(s)).collect::<Vec<_>>());
    let span = |s: &Sample, name: &str| {
        s.spans
            .iter()
            .find(|t| t.name == name)
            .cloned()
            .unwrap_or_default()
    };
    let share = |name: &'static str| med(&|s| span(s, name).secs / s.wall_s);
    let last = &traced.last().expect("traced passes").pass;
    let shape = last.shape;
    let events = shape.events.max(1) as f64;
    let dispatch = |s: &Sample| {
        s.pass
            .dispatch_spans
            .iter()
            .map(|n| span(s, n))
            .fold((0.0, 0u64, 0u64), |acc, t| {
                (acc.0 + t.secs, acc.1 + t.allocs, acc.2 + t.bytes)
            })
    };
    let dispatch_s = med(&|s| dispatch(s).0);
    let steady = traced.last().expect("traced passes");
    let (_, d_allocs, d_bytes) = dispatch(steady);
    let (allocs, bytes) = steady
        .spans
        .iter()
        .fold((0u64, 0u64), |acc, t| (acc.0 + t.allocs, acc.1 + t.bytes));

    let queue_ns = kernels::median_of(3, || kernels::queue_ns_per_event(&shape));
    let mem_ns = kernels::median_of(3, || kernels::mem_ns_per_access(w.mem_stream(seed)));
    let host_ns = kernels::median_of(5, kernels::host_calib_ns);
    let mem_accesses = last
        .counters
        .iter()
        .find(|(n, _)| *n == "mem.accesses")
        .map_or(0.0, |&(_, v)| v);

    // A layer the workload bypasses reads 0.
    for (name, _) in PER_LAYER {
        metrics.insert(name, 0.0);
    }
    let mut put = |name: &'static str, v: f64| {
        metrics.insert(name, v);
    };
    put("trace.wall_s", wall);
    put("trace.overhead_s", wall - untraced_wall);
    put(
        "trace.coverage",
        med(&|s| s.spans.iter().map(|t| t.secs).sum::<f64>() / s.wall_s),
    );
    put("trace.allocs", allocs as f64);
    put("trace.alloc_bytes", bytes as f64);
    put("host.calib_ns", host_ns);
    put("coherence.issue_share", share("coherence.issue"));
    put("coherence.dispatch_share", share("coherence.dispatch"));
    put("coherence.verify_share", share("coherence.verify"));
    put("coherence.ns_per_event", dispatch_s * 1e9 / events);
    put("coherence.events", shape.events as f64);
    put("coherence.allocs_per_event", d_allocs as f64 / events);
    put("coherence.alloc_bytes_per_event", d_bytes as f64 / events);
    put("sim.queue_ns_per_event", queue_ns);
    put("sim.queue_share", events * queue_ns * 1e-9 / dispatch_s);
    put("mem.ns_per_access", mem_ns);
    put("mem.share", mem_accesses * mem_ns * 1e-9 / wall);
    put(
        "scenario.allocs_per_access",
        if last.dispatch_spans.contains(&"cohet.run_scenario") {
            d_allocs as f64 / last.accesses.max(1) as f64
        } else {
            0.0
        },
    );
    put(
        "cohet.build_share",
        median(
            &mut traced
                .iter()
                .map(|s| {
                    let b = s.setup_spans.iter().find(|t| t.name == "cohet.build");
                    b.map_or(0.0, |b| b.secs / s.setup_s)
                })
                .collect::<Vec<_>>(),
        ),
    );
    for (metric, name) in [
        ("figures.fig12_share", "figures.fig12"),
        ("figures.fig13_share", "figures.fig13"),
        ("figures.fig14_share", "figures.fig14"),
        ("figures.fig15_share", "figures.fig15"),
        ("figures.fig16_share", "figures.fig16"),
        ("figures.fig17_share", "figures.fig17"),
        ("figures.fig18_share", "figures.fig18"),
        ("figures.calibration_share", "figures.calibration"),
        ("faults.flaky_link_share", "faults.flaky_link"),
        ("faults.stalling_expander_share", "faults.stalling_expander"),
        ("faults.drain_under_load_share", "faults.drain_under_load"),
        (
            "rebalance.drifting_hot_set_share",
            "rebalance.drifting_hot_set",
        ),
        (
            "rebalance.stationary_hot_set_share",
            "rebalance.stationary_hot_set",
        ),
        ("rebalance.uniform_noop_share", "rebalance.uniform_noop"),
    ] {
        put(metric, share(name));
    }
    for &(name, v) in &last.counters {
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            put(name, v);
        }
    }

    notes.push(format!(
        "# trace wall_s untraced={untraced_wall} traced={wall} overhead_s={}",
        wall - untraced_wall
    ));
    for t in &steady.setup_spans {
        notes.push(format!(
            "# setup-span {} secs={} calls={} allocs={} bytes={}",
            t.name, t.secs, t.calls, t.allocs, t.bytes
        ));
    }
    for t in &steady.spans {
        notes.push(format!(
            "# span {} secs={} calls={} allocs={} bytes={}",
            t.name, t.secs, t.calls, t.allocs, t.bytes
        ));
    }
    for (name, v) in &last.digests {
        notes.push(format!("# digest {name} {v:#018x}"));
    }
}

/// The result line: metrics in table order, each with its unit.
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut correct = out.correct;
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let mut v = out.metrics.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                correct = false;
                v = 0.0;
            }
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("bad --seed {value:?}: {e}"))?);
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs the named workload at its benchmark size.
fn run_named(name: &str, seed: Option<u64>, seconds: f64, traced: bool) -> Option<Outcome> {
    Some(match name {
        "wave_stress" => run(&engine::EngineBatch::wave_stress(), seed, seconds, traced),
        "dense_batch" => run(&engine::EngineBatch::dense_batch(), seed, seconds, traced),
        "million_clients" => run(
            &scenario::MillionClients { clients: 1_200_000 },
            seed,
            seconds,
            traced,
        ),
        "figures_and_faults" => run(&figures::FiguresAndFaults::full(), seed, seconds, traced),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(out) = run_named(&args.workload, args.seed, args.seconds, args.trace) else {
        eprintln!(
            "perfbench: unknown workload {:?} (wave_stress, dense_batch, million_clients, \
             figures_and_faults)",
            args.workload
        );
        std::process::exit(2);
    };
    for n in &out.notes {
        println!("{n}");
    }
    println!("{}", result_json(&out, args.trace));
}
