//! `broadcast1024`: the striped multi-tree overlay soak.
//!
//! 1,023 viewers on 4 trees of degree 8 with a 1,408 B payload; the
//! busiest interior relay crashes at 150 ms and the hub grafts its
//! orphans onto their grandparents. Runs on [`SHARDS`] shards. No
//! `PandoraBox`, camera or codec is involved.

use pandora_overlay::{
    build_overlay_broadcast, cells_per_segment, plan_for, CrashPlan, OverlayBuild, OverlayConfig,
    OverlaySummary, TreePlan, HOP_BUCKETS,
};
use pandora_shard::RunReport;
use pandora_sim::{SimDuration, SimTime};

use crate::calib::Meter;
use crate::stats::{fnv1a, mix, tail_percentile};
use crate::trace::Tracer;
use crate::workload::{Outcome, Workload};

pub const SHARDS: usize = 2;
pub const VIEWERS: usize = 1_023;

/// The soak's shape; only the planner seed comes from `--seed`.
pub fn config(plan_seed: u64) -> OverlayConfig {
    OverlayConfig {
        viewers: VIEWERS,
        trees: 4,
        degree: 8,
        seed: plan_seed,
        segments: 100,
        segment_interval: SimDuration::from_millis(4),
        payload_bytes: 1_408,
        // 2 x degree stripe copies of uplink headroom, so a backup that
        // adopts a dead relay's children still serializes in time.
        uplink_cps: 60_000,
        source_uplink_cps: 120_000,
        ..OverlayConfig::default()
    }
}

/// Emission time plus 200 ms for the last slices and the repair to land.
pub fn deadline(cfg: &OverlayConfig) -> SimTime {
    SimTime::from_nanos(
        cfg.segment_interval.as_nanos() * u64::from(cfg.segments)
            + SimDuration::from_millis(200).as_nanos(),
    )
}

pub struct Broadcast {
    cfg: OverlayConfig,
    plan: TreePlan,
    build: Option<OverlayBuild>,
    deadline: SimTime,
    report: Option<RunReport>,
}

impl Broadcast {
    /// Builds the soak on `shards` shards, to run until `deadline` (the
    /// full soak when `None`).
    pub fn build(
        seed: u64,
        shards: usize,
        deadline: Option<SimTime>,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Broadcast, String> {
        let span = tracer.as_deref_mut().map(|t| t.begin("setup"));
        let mut cfg = config(mix(seed, 1));
        let plan_span = tracer.as_deref_mut().map(|t| t.begin("setup.plan"));
        let plan = plan_for(&cfg).map_err(|e| format!("overlay plan failed: {e}"))?;
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), plan_span) {
            t.end(id);
        }
        let victim = (1..plan.members())
            .max_by_key(|&v| plan.fanout(v))
            .filter(|&v| plan.fanout(v) > 0)
            .ok_or("overlay plan has no interior relay")?;
        cfg.crash = Some(CrashPlan {
            member: victim,
            at: SimDuration::from_millis(150),
        });
        let build_span = tracer.as_deref_mut().map(|t| t.begin("setup.build"));
        let build = build_overlay_broadcast(&cfg, shards)
            .map_err(|e| format!("overlay build failed at {shards} shards: {e}"))?;
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), build_span) {
            t.end(id);
        }
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id);
        }
        Ok(Broadcast {
            deadline: deadline.unwrap_or_else(|| self::deadline(&cfg)),
            cfg,
            plan,
            build: Some(build),
            report: None,
        })
    }
}

/// Linear interpolation inside the merged log2 hop histogram (bucket `i`
/// holds hops in `[2^i, 2^(i+1))` µs): the value, in µs, below which
/// `pct` percent of hops fall.
pub fn hop_percentile_us(buckets: &[u64; HOP_BUCKETS], pct: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    let target = total as f64 * pct / 100.0;
    let mut seen = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        let c = count as f64;
        if count > 0 && seen + c >= target {
            let lo = (1u64 << i) as f64;
            return lo + lo * (target - seen) / c;
        }
        seen += c;
    }
    (1u64 << HOP_BUCKETS) as f64
}

impl Workload for Broadcast {
    fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Result<Self, String> {
        Broadcast::build(seed, SHARDS, None, tracer)
    }

    fn run(&mut self, meter: &mut Meter) {
        let Some(build) = self.build.take() else {
            return;
        };
        let deadline = self.deadline;
        self.report = Some(meter.window("run.window", || build.cluster.run(deadline)));
    }

    fn outcome(&self) -> Outcome {
        let cfg = &self.cfg;
        let mut out = Outcome {
            sim_s: self.deadline.as_nanos() as f64 / 1e9,
            ..Outcome::default()
        };
        let Some(report) = &self.report else {
            out.gate("overlay soak did not run", false);
            return out;
        };
        let lines = report.merged_lines();
        let s = OverlaySummary::parse(&lines);
        let sim_s = out.sim_s;
        let segments = u64::from(cfg.segments);
        let viewers = cfg.viewers as u64;
        let survivors = s.viewers.saturating_sub(s.crashed);
        let polls: u64 = report.events();
        let mean_polls = polls as f64 / report.ctx_switches.len().max(1) as f64;
        let max_polls = report.ctx_switches.iter().copied().max().unwrap_or(0) as f64;
        let cells = cells_per_segment(cfg.payload_bytes);
        // Every member but the source heartbeats once per cadence until it
        // dies; the crashed member stops at its crash time.
        let beats = self.deadline.as_nanos() / cfg.heartbeat.as_nanos();
        let crash_beats = cfg
            .crash
            .map_or(beats, |c| c.at.as_nanos() / cfg.heartbeat.as_nanos());
        let hellos = (viewers - s.crashed) * beats + s.crashed * crash_beats;

        out.timing_counts.push(("polls", polls));
        out.counts.extend([
            ("tasks_spawned", report.spawned_total),
            ("delivered_slices", s.delivered),
            ("forwarded_slices", s.forwarded),
            ("slab_bytes_copied", s.slab_copied_out),
            ("grafts", s.hub_grafts),
            ("hops", s.hop_count()),
            (
                "trace_digest",
                fnv1a(lines.iter().flat_map(|l| l.bytes().chain([b'\n']))),
            ),
        ]);
        out.layer.extend([
            ("sim.polls_per_sim_s", polls as f64 / sim_s),
            ("sim.tasks_spawned", report.spawned_total as f64),
            ("shard.polls_skew", max_polls / mean_polls.max(1.0)),
            (
                "slab.copied_bytes_per_segment",
                s.slab_copied_out as f64 / segments as f64,
            ),
            (
                "atm.cells_per_sim_s",
                (s.forwarded + s.src_forwarded) as f64 * cells as f64 / sim_s,
            ),
            ("recover.hub_deaths", s.hub_deaths as f64),
            ("overlay.grafts", s.hub_grafts as f64),
            ("overlay.dupes", s.dupes as f64),
            ("overlay.gap_skips", s.gap_skips as f64),
            ("overlay.p3_drops", s.p3_drops as f64),
            ("overlay.p8_skips", s.p8_skips as f64),
            (
                "overlay.forwarded_per_sim_s",
                (s.forwarded + s.src_forwarded) as f64 / sim_s,
            ),
        ]);
        out.units.hellos = hellos;
        out.units.alt_width = VIEWERS;
        out.units.alt_completions = hellos;

        let hops = s.hop_count();
        if hops == 0 {
            out.gate("no per-hop latency samples", false);
        } else {
            out.virt(
                "latency_p50_ms",
                "ms",
                hop_percentile_us(&s.hop_buckets, 50.0) / 1e3,
                hops as usize,
            );
            match tail_percentile(hops as usize) {
                Some(p) => {
                    out.virt(
                        "latency_tail_ms",
                        "ms",
                        hop_percentile_us(&s.hop_buckets, p) / 1e3,
                        hops as usize,
                    );
                    if let Some(v) = out.virt.last_mut() {
                        v.note = format!("p{p}, interpolated in log2 buckets");
                    }
                }
                None => out.gate("too few hops for a tail percentile", false),
            }
        }
        out.virt(
            "repair_gap_max_ms",
            "ms",
            s.stripe_gap_max_us_alive as f64 / 1e3,
            survivors as usize,
        );
        out.virt(
            "failed_ratio",
            "ratio",
            (s.lost_alive + s.late_alive) as f64 / (survivors * segments).max(1) as f64,
            (survivors * segments) as usize,
        );
        out.ops_attempted = 1;

        let playout_us = cfg.playout.as_nanos() / 1_000;
        let gates = [
            (
                format!(
                    "depth {} within bound {}",
                    self.plan.max_depth_overall(),
                    self.plan.depth_bound()
                ),
                self.plan.max_depth_overall() <= self.plan.depth_bound(),
            ),
            (
                format!("parsed {} viewers of {viewers} configured", s.viewers),
                s.viewers == viewers,
            ),
            (
                format!("{} crashed, {} deaths detected", s.crashed, s.hub_deaths),
                s.crashed == 1 && s.hub_deaths == 1,
            ),
            (
                format!(
                    "{} grafts, {} unrepairable",
                    s.hub_grafts, s.hub_unrepairable
                ),
                s.hub_grafts >= 1 && s.hub_unrepairable == 0,
            ),
            (
                format!("survivors: {} lost, {} late", s.lost_alive, s.late_alive),
                s.lost_alive == 0 && s.late_alive == 0,
            ),
            (
                format!(
                    "repair gap {} us within playout {playout_us} us",
                    s.stripe_gap_max_us_alive
                ),
                s.stripe_gap_max_us_alive <= playout_us,
            ),
            (
                format!(
                    "delivered {} + lost {} = {viewers} viewers x {segments} segments",
                    s.delivered, s.lost_total
                ),
                s.delivered + s.lost_total == viewers * segments,
            ),
            (
                format!(
                    "delivered {} + lost_alive {} covers {survivors} survivors x {segments}",
                    s.delivered, s.lost_alive
                ),
                s.delivered + s.lost_alive >= survivors * segments,
            ),
        ];
        for (what, held) in gates {
            out.gate(what, held);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_inside_a_bucket() {
        let mut b = [0u64; HOP_BUCKETS];
        b[10] = 100; // [1024, 2048) us
        assert_eq!(hop_percentile_us(&b, 50.0), 1536.0);
        assert_eq!(hop_percentile_us(&b, 100.0), 2048.0);
        b[11] = 100;
        assert_eq!(hop_percentile_us(&b, 75.0), 3072.0);
    }
}
