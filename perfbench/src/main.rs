//! End-to-end and per-layer benchmark of the Pandora reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload conference16 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `conference16`, `videophone`, `broadcast1024` (see each
//! module). One process runs one workload:
//!
//! * **run** — fresh builds are run to their horizon until `--seconds`
//!   of wall time have passed (at least [`MIN_REPS`] runs), sliced into
//!   100 ms virtual windows where the executor allows it;
//!   `host_ms_per_sim_s` is the median over runs of host ms per
//!   simulated second, and `peak_rss_mb` the smallest of the runs' peak
//!   resident sets. Every run's exact counts must equal the first run's.
//! * **setup** — after each run the topology is built again for about
//!   [`SETUP_SHARE`] of that run's wall time, so setup samples are spread
//!   over the whole measurement; `setup_s` is their lower quartile.
//! * **traced** (`--trace 1`) — half the time goes to untraced runs and
//!   half to runs with a span per window; then each layer is replayed in
//!   isolation to build the host-time ledger, and the held-out seed's
//!   virtual-time metrics are reported.
//!
//! Host times are normalised to a fixed reference kernel timed right
//! after each window ([`calib`]), because the shared hosts this runs on
//! change speed by a third for minutes at a time; the raw wall times are
//! printed and written next to them.
//!
//! The report goes to stdout; its last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The full result
//! (virtual-time metrics, exact counts, per-layer values) and the spans
//! are written under `perfbench/out/`. A failed correctness gate makes
//! `correct` false and the exit code 1.

mod bench;
mod broadcast;
mod calib;
mod conference;
mod replay;
mod stats;
mod trace;
mod videophone;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use bench::Bench;
use broadcast::Broadcast;
use calib::Meter;
use conference::Conference;
use stats::{lower_quartile, median, num, string};
use trace::Tracer;
use videophone::Videophone;
use workload::Outcome;

/// Timed runs at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// The seed the benchmark was written against.
const DEFAULT_SEED: u64 = 1;
/// A seed never used while writing the benchmark: traced runs report its
/// virtual-time metrics so later claims can be checked on it.
const HELD_OUT_SEED: u64 = 1_009;

/// End-to-end metrics, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 3] = [
    ("host_ms_per_sim_s", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 52] = [
    ("sim.polls_per_sim_s", "1/s"),
    ("sim.host_ns_per_poll", "ns"),
    ("sim.tasks_spawned", "count"),
    ("sim.window_host_ms_max", "ms"),
    ("sim.alt_fanin_host_ns", "ns"),
    ("sim.alt_fanin.host_share", "ratio"),
    ("shard.polls_skew", "ratio"),
    ("shard.sync_overhead_ratio", "ratio"),
    ("core.camera_frames_per_sim_s", "1/s"),
    ("core.camera.host_share", "ratio"),
    ("core.switch_forwarded", "count"),
    ("core.net_out_cells", "count"),
    ("core.net_in_frames_discarded", "count"),
    ("core.late_ticks", "count"),
    ("core.concealed", "count"),
    ("core.display_frames_dropped", "count"),
    ("core.net_audio_wait_p50_us", "us_virtual"),
    ("core.cpu_util_max", "ratio"),
    ("buffers.clawback_empty_ticks", "count"),
    ("buffers.clawback_clawed_back", "count"),
    ("buffers.decoupling_high_watermark_max", "count"),
    ("buffers.pool_exhausted_waits", "count"),
    ("slab.copied_bytes_per_segment", "B"),
    ("slab.alloc_failures", "count"),
    ("slab.arena_mb", "MiB"),
    ("atm.cells_per_sim_s", "1/s"),
    ("atm.host_ns_per_cell", "ns"),
    ("atm.burst.host_share", "ratio"),
    ("atm.switch_overflow", "count"),
    ("atm.injected_drops", "count"),
    ("segment.wire_host_ns", "ns"),
    ("segment.wire.host_share", "ratio"),
    ("audio.mix.host_share", "ratio"),
    ("video.slices_per_sim_s", "1/s"),
    ("video.dpcm.host_share", "ratio"),
    ("session.reconfigs", "count"),
    ("session.rejections", "count"),
    ("session.timeouts", "count"),
    ("session.msgs_handled", "count"),
    ("recover.hub_deaths", "count"),
    ("overlay.grafts", "count"),
    ("overlay.dupes", "count"),
    ("overlay.gap_skips", "count"),
    ("overlay.p3_drops", "count"),
    ("overlay.p8_skips", "count"),
    ("overlay.forwarded_per_sim_s", "1/s"),
    ("overlay.hello.host_share", "ratio"),
    ("overlay.plan.setup_share", "ratio"),
    ("unattributed.host_share", "ratio"),
    ("trace.overhead_ms_per_sim_s", "ms"),
    ("host.cores", "count"),
    ("host.shards", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The traced half of a `--trace 1` run: traced timed runs, the ledger
/// of layer replays against the untraced run time, and the held-out
/// seed. Gates it adds go to `outcome`.
fn traced<W: Bench>(
    args: &Args,
    budget: f64,
    host_ms_per_sim_s: f64,
    mut tracer: Tracer,
    outcome: &mut Outcome,
) -> Result<Traced, String> {
    let mut checked = Some(std::mem::take(outcome));
    let traced_runs = timed_reps::<W>(args.seed, budget, 2, &mut checked, Some(&mut tracer), None)?;
    *outcome = checked.unwrap_or_default();
    let mut layer: BTreeMap<&'static str, f64> = outcome.layer.iter().copied().collect();
    // Workloads that cannot slice their run measure windows in `extras`.
    if let Some(worst) = tracer.durations_ns("run.window").max() {
        layer
            .entry("sim.window_host_ms_max")
            .or_insert(worst as f64 / 1e6);
    }
    let run_ns = host_ms_per_sim_s * outcome.sim_s * 1e6;
    let (shares, costs) = W::ledger(args.seed, outcome, &mut tracer);
    let mut explained = 0.0;
    for (name, ns) in shares {
        explained += ns / run_ns;
        layer.insert(name, ns / run_ns);
    }
    layer.insert("unattributed.host_share", 1.0 - explained);
    layer.extend(costs);
    match outcome.count("polls") {
        Some(polls) if polls > 0 => {
            layer.insert("sim.host_ns_per_poll", run_ns / polls as f64);
        }
        _ => outcome.gate("no poll count recorded", false),
    }
    layer.insert(
        "trace.overhead_ms_per_sim_s",
        median(&traced_runs.iter().map(|r| r.norm).collect::<Vec<_>>()) - host_ms_per_sim_s,
    );
    layer.insert("host.cores", host_cores() as f64);
    layer.insert("host.shards", W::SHARDS as f64);
    if W::SHARDS == 1 {
        // One executor: no skew and no cross-shard sync to pay.
        layer.insert("shard.polls_skew", 1.0);
        layer.insert("shard.sync_overhead_ratio", 1.0);
    }
    for &(name, _) in &PER_LAYER {
        if layer.contains_key(name) {
            continue;
        }
        if W::NOT_EXERCISED.contains(&name) {
            layer.insert(name, 0.0);
        } else {
            outcome.gate(format!("per-layer metric {name} was not measured"), false);
        }
    }
    for &(name, start, end) in &outcome.control_spans {
        tracer.virtual_span(name, start, end);
    }
    let mut held = W::setup(HELD_OUT_SEED, None)?;
    held.run(&mut Meter::new(None, W::SHARDS));
    Ok(Traced {
        tracer,
        layer,
        held_out: held.outcome(),
    })
}

/// Everything the protocol measured for one workload.
struct Measured {
    outcome: Outcome,
    /// Lower quartile of the setup samples, normalised (see [`calib`]),
    /// and raw.
    setup_s: f64,
    setup_raw_s: f64,
    setups: usize,
    /// Smallest per-run peak resident set over the untraced runs: with
    /// several shard threads, a run's peak also depends on which
    /// allocator arena each thread lands in, which the smallest peak
    /// leaves out.
    peak_rss_mb: f64,
    peak_reset: bool,
    /// Median over the untraced runs of ms per simulated second,
    /// normalised (see [`calib`]), and raw.
    host_ms_per_sim_s: f64,
    raw_ms_per_sim_s: f64,
    reps: usize,
    shards: usize,
    traced: Option<Traced>,
}

struct Traced {
    tracer: Tracer,
    layer: BTreeMap<&'static str, f64>,
    held_out: Outcome,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One timed run: wall ms per simulated second, raw and normalised to
/// the reference kernel (see [`calib`]).
struct Rep {
    raw: f64,
    norm: f64,
    /// Peak resident set during this run (since its setup began), MiB;
    /// the process-wide peak when the kernel refused the reset.
    peak_rss_mb: f64,
    peak_reset: bool,
}

/// Setup samples taken after each untraced run: builds for about this
/// share of the run's wall time, and at least [`MIN_SETUPS_PER_RUN`].
const SETUP_SHARE: f64 = 0.1;
const MIN_SETUPS_PER_RUN: usize = 2;

/// Setup times sampled between runs, in seconds: raw, and normalised by
/// the reference kernel timed right after each build (see [`calib`]).
#[derive(Default)]
struct Setups {
    raw: Vec<f64>,
    norm: Vec<f64>,
}

impl Setups {
    /// Builds `seed`'s topology repeatedly for about `seconds`.
    fn sample<W: Bench>(&mut self, seed: u64, seconds: f64) -> Result<(), String> {
        let start = Instant::now();
        let mut taken = 0;
        while taken < MIN_SETUPS_PER_RUN || start.elapsed().as_secs_f64() < seconds {
            let t0 = Instant::now();
            let w = W::setup(seed, None)?;
            let raw = t0.elapsed().as_secs_f64();
            drop(w);
            self.raw.push(raw);
            self.norm
                .push(raw * calib::REFERENCE_NOMINAL_MS / calib::reference_ms());
            taken += 1;
        }
        Ok(())
    }
}

/// Timed runs until `seconds` pass (at least `min` of them). The first
/// run's outcome becomes `first`; every later run's exact counts must
/// equal it. Setup samples go to `setups` when given.
fn timed_reps<W: Bench>(
    seed: u64,
    seconds: f64,
    min: usize,
    first: &mut Option<Outcome>,
    mut tracer: Option<&mut Tracer>,
    mut setups: Option<&mut Setups>,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || start.elapsed().as_secs_f64() < seconds {
        // Reset the peak resident set, so each run reports its own.
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        let mut w = W::setup(seed, None)?;
        let run_start = Instant::now();
        let span = tracer.as_deref_mut().map(|t| t.begin("run"));
        let mut meter = Meter::new(tracer.as_deref_mut(), W::SHARDS);
        w.run(&mut meter);
        let (raw_ms, norm_ms) = (meter.raw_ms, meter.norm_ms);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.end(id);
        }
        let o = w.outcome();
        drop(w);
        reps.push(Rep {
            raw: raw_ms / o.sim_s,
            norm: norm_ms / o.sim_s,
            peak_rss_mb: peak_rss_mb()?,
            peak_reset: reset,
        });
        match first {
            None => *first = Some(o),
            Some(f) => check_repeat(f, &o),
        }
        if let Some(s) = setups.as_deref_mut() {
            s.sample::<W>(seed, run_start.elapsed().as_secs_f64() * SETUP_SHARE)?;
        }
    }
    Ok(reps)
}

/// Checks a repeated run of the same seed against the first: exact
/// counts must match exactly, timing-dependent ones within tolerance.
fn check_repeat(first: &mut Outcome, again: &Outcome) {
    if first.counts != again.counts {
        first.gate(
            format!(
                "a repeated run's exact counts differ from the first run's: {}",
                counts_line(&again.counts)
            ),
            false,
        );
    }
    for (&(name, a), &(_, b)) in first.timing_counts.clone().iter().zip(&again.timing_counts) {
        let diff = a.abs_diff(b) as f64 / a.max(1) as f64;
        if diff > workload::TIMING_TOLERANCE {
            first.gate(
                format!("repeated run's {name} {b} is too far from {a}"),
                false,
            );
        } else if a != b {
            first.notes.push(format!(
                "a repeated run's {name} was {b}, the first run's {a}"
            ));
        }
    }
}

fn measure<W: Bench>(args: &Args) -> Result<Measured, String> {
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut first = None;
    let mut setups = Setups::default();
    let untraced = timed_reps::<W>(
        args.seed,
        budget,
        MIN_REPS,
        &mut first,
        None,
        Some(&mut setups),
    )?;
    // The host's speed shifts for seconds at a time, and a build, which
    // allocates heavily, slows more than the reference kernel does: the
    // lower quartile keeps the samples from the host's faster phases.
    let setup_s = lower_quartile(&setups.norm);
    let setup_raw_s = lower_quartile(&setups.raw);
    let mut outcome = first.ok_or("no run completed")?;
    let host_ms_per_sim_s = median(&untraced.iter().map(|r| r.norm).collect::<Vec<_>>());
    let raw_ms_per_sim_s = median(&untraced.iter().map(|r| r.raw).collect::<Vec<_>>());

    let mut tracer = args
        .trace
        .then(|| Tracer::new(format!("{}-seed{}", W::NAME, args.seed)));
    if let Some(t) = tracer.as_mut() {
        drop(W::setup(args.seed, Some(t))?);
    }
    W::extras(args.seed, setup_raw_s, tracer.as_mut(), &mut outcome);

    let traced = match tracer {
        Some(tracer) => Some(traced::<W>(
            args,
            budget,
            host_ms_per_sim_s,
            tracer,
            &mut outcome,
        )?),
        None => None,
    };
    Ok(Measured {
        outcome,
        setup_s,
        setup_raw_s,
        peak_rss_mb: untraced
            .iter()
            .map(|r| r.peak_rss_mb)
            .fold(f64::INFINITY, f64::min),
        peak_reset: untraced.iter().all(|r| r.peak_reset),
        setups: setups.norm.len(),
        host_ms_per_sim_s,
        raw_ms_per_sim_s,
        reps: untraced.len(),
        shards: W::SHARDS,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload conference16|videophone|broadcast1024 \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "conference16" => measure::<Conference>(&args),
        "videophone" => measure::<Videophone>(&args),
        "broadcast1024" => measure::<Broadcast>(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(m) => report(&args, &m),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn report(args: &Args, m: &Measured) -> ExitCode {
    let o = &m.outcome;
    let shards = m.shards;
    let cores = host_cores();
    let held_out = m.traced.iter().flat_map(|t| &t.held_out.gates);
    let failed_gates: Vec<String> = o
        .gates
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(w, _)| w.clone())
        .chain(
            held_out
                .filter(|(_, ok)| !ok)
                .map(|(w, _)| format!("held-out seed {HELD_OUT_SEED}: {w}")),
        )
        .collect();
    let correct = failed_gates.is_empty();
    println!(
        "perfbench {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}): \
         {} timed runs of {:.3} simulated s; host_cores {cores}, shards {shards}{}",
        args.workload,
        args.seed,
        m.reps,
        o.sim_s,
        if cores < shards {
            " — ADVISORY: fewer cores than shards, timings not comparable"
        } else {
            ""
        }
    );
    let e2e = [m.host_ms_per_sim_s, m.setup_s, m.peak_rss_mb];
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        let samples = if *name == "setup_s" { m.setups } else { m.reps };
        println!("  {name:<24} {value:>14.6} {unit:<10} n={samples}");
    }
    if !m.peak_reset {
        println!("  peak_rss_mb is the process-wide peak: the kernel refused the per-run reset");
    }
    println!(
        "  raw wall times (not normalised): host_ms_per_sim_s {:.6} ms, setup_s {:.6} s",
        m.raw_ms_per_sim_s, m.setup_raw_s
    );
    for v in &o.virt {
        println!(
            "  {:<24} {:>14.6} {:<10} n={} virtual{}",
            v.name,
            v.value,
            v.unit,
            v.samples,
            if v.note.is_empty() {
                String::new()
            } else {
                format!(", {}", v.note)
            }
        );
    }
    let digest = counts_digest(&o.counts);
    println!("  exact counts {digest}: {}", counts_line(&o.counts));
    if !o.timing_counts.is_empty() {
        println!(
            "  thread-timing-dependent counts (repeats within {}): {}",
            workload::TIMING_TOLERANCE,
            counts_line(&o.timing_counts)
        );
    }
    for note in &o.notes {
        println!("  note: {note}");
    }
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if let Some(t) = &m.traced {
        for &(name, unit) in &PER_LAYER {
            let v = t.layer.get(name).copied().unwrap_or(f64::NAN);
            println!("  {name:<38} {v:>16.6} {unit}");
            metrics.push((name, unit, v));
        }
        let replayed: Vec<(&str, f64)> = t
            .layer
            .iter()
            .filter(|(n, _)| n.ends_with("host_share") && **n != "unattributed.host_share")
            .map(|(n, v)| (*n, *v))
            .collect();
        let explained: f64 = replayed.iter().map(|(_, v)| v).sum();
        let largest = replayed.iter().max_by(|a, b| a.1.total_cmp(&b.1));
        println!(
            "  ledger: replayed layers explain {explained:.4} of the run's host time, \
             unattributed {:.4}{}; largest {}",
            1.0 - explained,
            if explained > 1.0 {
                " (replays and runs are timed apart; the excess is their noise)"
            } else {
                ""
            },
            largest.map_or("none".to_string(), |(n, v)| format!("{n} = {v:.4}"))
        );
        for v in &t.held_out.virt {
            println!(
                "  held-out seed {HELD_OUT_SEED}: {:<24} {:>14.6} {} n={}",
                v.name, v.value, v.unit, v.samples
            );
        }
        println!("  spans recorded: {}", t.tracer.len());
    } else {
        for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
            metrics.push((name, unit, value));
        }
    }
    for what in &failed_gates {
        println!("  GATE FAILED: {what}");
    }
    if let Err(e) = write_results(args, m, &digest) {
        eprintln!("perfbench: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(n),
                num(*v),
                string(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.ops_attempted * m.reps as u64,
        o.ops_failed + failed_gates.len() as u64,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn counts_line(counts: &[(&str, u64)]) -> String {
    counts
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// FNV-1a over the counts line: equal digests, equal counts.
fn counts_digest(counts: &[(&str, u64)]) -> String {
    format!("{:016x}", stats::fnv1a(counts_line(counts).bytes()))
}

fn write_results(args: &Args, m: &Measured, digest: &str) -> Result<(), String> {
    let shards = m.shards;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let o = &m.outcome;
    let stem = format!(
        "{dir}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut j = String::from("{\n");
    j.push_str(&format!(
        "  \"workload\": {}, \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED},\n",
        string(&args.workload),
        args.seed
    ));
    j.push_str(&format!(
        "  \"host_cores\": {}, \"shards\": {shards}, \"advisory\": {}, \"timed_runs\": {}, \"sim_s\": {},\n",
        host_cores(),
        host_cores() < shards,
        m.reps,
        num(o.sim_s)
    ));
    j.push_str(&format!(
        "  \"end_to_end\": {{\"host_ms_per_sim_s\": {}, \"setup_s\": {}, \"peak_rss_mb\": {}, \
         \"raw_host_ms_per_sim_s\": {}, \"raw_setup_s\": {}}},\n",
        num(m.host_ms_per_sim_s),
        num(m.setup_s),
        num(m.peak_rss_mb),
        num(m.raw_ms_per_sim_s),
        num(m.setup_raw_s)
    ));
    let virt = |o: &Outcome| -> String {
        o.virt
            .iter()
            .map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"note\": {}}}",
                    string(v.name),
                    num(v.value),
                    string(v.unit),
                    v.samples,
                    string(&v.note)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    j.push_str(&format!("  \"virtual\": {{{}}},\n", virt(o)));
    j.push_str(&format!(
        "  \"counts_digest\": \"{digest}\", \"counts\": {{{}}},\n",
        o.counts
            .iter()
            .chain(&o.timing_counts)
            .map(|(n, v)| format!("{}: {v}", string(n)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if let Some(t) = &m.traced {
        j.push_str(&format!(
            "  \"held_out_virtual\": {{{}}},\n",
            virt(&t.held_out)
        ));
        j.push_str(&format!(
            "  \"per_layer\": {{{}}},\n",
            t.layer
                .iter()
                .map(|(n, v)| format!("{}: {}", string(n), num(*v)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        std::fs::write(format!("{stem}.spans.jsonl"), t.tracer.to_jsonl())
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    j.push_str(&format!(
        "  \"gates\": [{}]\n}}\n",
        o.gates
            .iter()
            .map(|(w, ok)| format!("{{\"gate\": {}, \"held\": {ok}}}", string(w)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    std::fs::write(format!("{stem}.json"), j).map_err(|e| format!("cannot write results: {e}"))
}
