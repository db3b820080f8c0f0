//! The simulated ATM fabric: links, jitter/loss stages, switches.
//!
//! The clawback experiments need realistic network disturbance processes.
//! The models here reproduce the conditions the paper reports: "with our
//! network, the jitter is usually around 2ms, sometimes rising to 20ms if
//! there are large blocks of video being transmitted through the same
//! network interface" (§3.7.2), and the SuperJanet trial's multi-hop
//! "several networks and protocol conversions" path.

use std::cell::Cell as StdCell;
use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pandora_sim::{
    channel, link, link_controlled, LinkConfig, LinkControl, LinkSender, Receiver, SimDuration,
    Spawner,
};

use crate::cell::{Cell, Vci};

/// A random extra-delay process applied to a FIFO stream.
#[derive(Debug, Clone, Copy)]
pub enum JitterModel {
    /// No jitter.
    None,
    /// Uniform extra delay in `[0, max]`.
    Uniform {
        /// Largest extra delay.
        max: SimDuration,
    },
    /// Mostly `base`-bounded uniform jitter with occasional bursts up to
    /// `burst` (probability `burst_prob` per item) — the "2ms usually,
    /// sometimes 20ms" shape of §3.7.2.
    Bursty {
        /// Usual jitter bound.
        base: SimDuration,
        /// Burst jitter bound.
        burst: SimDuration,
        /// Probability of a burst per item, in 0..=1.
        burst_prob: f64,
    },
}

impl JitterModel {
    fn sample(&self, rng: &mut SmallRng) -> SimDuration {
        match *self {
            JitterModel::None => SimDuration::ZERO,
            JitterModel::Uniform { max } => SimDuration(rng.gen_range(0..=max.as_nanos())),
            JitterModel::Bursty {
                base,
                burst,
                burst_prob,
            } => {
                if rng.gen_bool(burst_prob) {
                    SimDuration(
                        rng.gen_range(base.as_nanos()..=burst.as_nanos().max(base.as_nanos() + 1)),
                    )
                } else {
                    SimDuration(rng.gen_range(0..=base.as_nanos()))
                }
            }
        }
    }
}

/// Unified fabric/stage counters: one shared-handle struct counts items
/// through loss stages, switches and burst dispatch alike, so the switch
/// and the per-hop stats no longer carry parallel `forwarded` plumbing.
/// Cloning shares the underlying counters.
#[derive(Clone, Default)]
pub struct FabricCounters {
    forwarded: Rc<StdCell<u64>>,
    dropped: Rc<StdCell<u64>>,
    unroutable: Rc<StdCell<u64>>,
    overflow: Rc<StdCell<u64>>,
}

impl FabricCounters {
    /// Items passed through.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.get()
    }

    /// Items deliberately dropped (loss model).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Items dropped for lack of a route.
    pub fn unroutable(&self) -> u64 {
        self.unroutable.get()
    }

    /// Items dropped on full output queues.
    pub fn overflow(&self) -> u64 {
        self.overflow.get()
    }

    pub(crate) fn count_forwarded(&self, n: u64) {
        self.forwarded.set(self.forwarded.get() + n);
    }

    pub(crate) fn count_dropped(&self, n: u64) {
        self.dropped.set(self.dropped.get() + n);
    }

    pub(crate) fn count_unroutable(&self, n: u64) {
        self.unroutable.set(self.unroutable.get() + n);
    }

    pub(crate) fn count_overflow(&self, n: u64) {
        self.overflow.set(self.overflow.get() + n);
    }
}

/// Spawns a FIFO-preserving jitter stage: each item is delayed by a fresh
/// sample, but never reordered (delivery time is clamped to be monotonic,
/// like queueing behind cross-traffic).
pub fn jitter_stage<T: 'static>(
    spawner: &Spawner,
    name: &str,
    model: JitterModel,
    seed: u64,
    input: Receiver<T>,
) -> Receiver<T> {
    let (tx, rx) = channel::<T>();
    // Two subprocesses: a stamper that records every item's true arrival
    // time immediately (so jitter is measured from arrival, not from when
    // the delayer got around to it — otherwise jitter would accumulate
    // into unbounded delay), and a delayer that releases items at
    // max(arrival + sample, previous release) to stay FIFO.
    let (stamped_tx, stamped_rx) = pandora_sim::unbounded::<(pandora_sim::SimTime, T)>();
    spawner.spawn(&format!("jitter:{name}:stamp"), async move {
        while let Ok(item) = input.recv().await {
            if stamped_tx.send((pandora_sim::now(), item)).await.is_err() {
                return;
            }
        }
    });
    spawner.spawn(&format!("jitter:{name}"), async move {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut last_delivery = pandora_sim::SimTime::ZERO;
        while let Ok((arrival, item)) = stamped_rx.recv().await {
            let due = (arrival + model.sample(&mut rng)).max(last_delivery);
            pandora_sim::delay_until(due).await;
            last_delivery = due;
            if tx.send(item).await.is_err() {
                return;
            }
        }
    });
    rx
}

/// Spawns a Bernoulli loss stage dropping each item with probability `p`.
pub fn loss_stage<T: 'static>(
    spawner: &Spawner,
    name: &str,
    p: f64,
    seed: u64,
    input: Receiver<T>,
) -> (Receiver<T>, FabricCounters) {
    assert!((0.0..=1.0).contains(&p), "loss probability out of range");
    let (tx, rx) = channel::<T>();
    let stats = FabricCounters::default();
    let s = stats.clone();
    let name = format!("loss:{name}");
    spawner.spawn(&name, async move {
        let mut rng = SmallRng::seed_from_u64(seed);
        while let Ok(item) = input.recv().await {
            if rng.gen_bool(p) {
                s.count_dropped(1);
                continue;
            }
            s.count_forwarded(1);
            if tx.send(item).await.is_err() {
                return;
            }
        }
    });
    (rx, stats)
}

/// One hop of an ATM path: a bandwidth-limited cell link followed by
/// optional jitter and loss.
#[derive(Debug, Clone, Copy)]
pub struct HopConfig {
    /// Link rate in bits per second.
    pub bits_per_sec: u64,
    /// Propagation/processing latency of the hop.
    pub latency: SimDuration,
    /// Jitter process of the hop.
    pub jitter: JitterModel,
    /// Per-cell loss probability.
    pub loss: f64,
}

impl HopConfig {
    /// A clean hop at `bits_per_sec` with no latency, jitter or loss.
    pub fn clean(bits_per_sec: u64) -> Self {
        HopConfig {
            bits_per_sec,
            latency: SimDuration::ZERO,
            jitter: JitterModel::None,
            loss: 0.0,
        }
    }
}

/// Builds a multi-hop ATM path; returns the ingress sender, the egress
/// receiver and per-hop loss stats.
///
/// This is the E15 "SuperJanet" substrate: chain several hops with bursty
/// jitter to model a Cambridge-to-London path crossing "several networks
/// and protocol conversions".
pub fn build_path(
    spawner: &Spawner,
    name: &str,
    hops: &[HopConfig],
    seed: u64,
) -> (LinkSender<Cell>, Receiver<Cell>, Vec<FabricCounters>) {
    assert!(!hops.is_empty(), "a path needs at least one hop");
    let mut stats = Vec::new();
    let first = LinkConfig::new(leak_name(format!("{name}.0")), hops[0].bits_per_sec)
        .with_latency(hops[0].latency);
    let (ingress, mut rx) = link::<Cell>(spawner, first);
    rx = apply_disturbance(spawner, name, 0, &hops[0], seed, rx, &mut stats);
    for (i, hop) in hops.iter().enumerate().skip(1) {
        let cfg = LinkConfig::new(leak_name(format!("{name}.{i}")), hop.bits_per_sec)
            .with_latency(hop.latency);
        let (tx, next_rx) = link::<Cell>(spawner, cfg);
        // Pump between hops.
        let pump_in = rx;
        spawner.spawn(&format!("hop:{name}.{i}"), async move {
            while let Ok(cell) = pump_in.recv().await {
                if tx.send(cell).await.is_err() {
                    return;
                }
            }
        });
        rx = apply_disturbance(
            spawner,
            name,
            i,
            hop,
            seed.wrapping_add(i as u64),
            next_rx,
            &mut stats,
        );
    }
    (ingress, rx, stats)
}

struct PathCtlState {
    loss: StdCell<f64>,
    corrupt: StdCell<f64>,
    extra_delay_ns: StdCell<u64>,
    injected_drops: StdCell<u64>,
    injected_corruptions: StdCell<u64>,
}

/// Runtime fault-injection handle for a [`build_path_controlled`] path.
///
/// A fault plan can superimpose cell loss, payload corruption and a
/// latency step on the path's egress, and reach the per-hop
/// [`LinkControl`]s to flap links or collapse their bandwidth. All
/// randomness comes from the path's seeded generator, so a given plan
/// replays bit-identically.
#[derive(Clone)]
pub struct PathControl {
    state: Rc<PathCtlState>,
    links: Rc<Vec<LinkControl>>,
}

impl PathControl {
    /// Wraps already-built hop links in a control handle, for topologies
    /// that assemble their own links (the overlay's relay uplinks) but
    /// still want to register with `pandora-faults` as a named path. The
    /// egress disturbance knobs start at zero, exactly as
    /// [`build_path_controlled`] leaves them.
    pub fn from_links(links: Vec<LinkControl>) -> Self {
        PathControl::new(links)
    }

    fn new(links: Vec<LinkControl>) -> Self {
        PathControl {
            state: Rc::new(PathCtlState {
                loss: StdCell::new(0.0),
                corrupt: StdCell::new(0.0),
                extra_delay_ns: StdCell::new(0),
                injected_drops: StdCell::new(0),
                injected_corruptions: StdCell::new(0),
            }),
            links: Rc::new(links),
        }
    }

    /// Sets the superimposed Bernoulli cell-loss probability (0 disables).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..=1`.
    pub fn set_loss(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.state.loss.set(p);
    }

    /// Sets the per-cell payload-corruption probability (0 disables).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..=1`.
    pub fn set_corruption(&self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "corruption probability out of range"
        );
        self.state.corrupt.set(p);
    }

    /// Sets a constant extra delay at the path egress. Stepping this up
    /// then back down reproduces the §3.7.2 jitter step: a gap opens when
    /// the delay appears, and a burst drains when it is removed.
    pub fn set_extra_delay(&self, d: SimDuration) {
        self.state.extra_delay_ns.set(d.as_nanos());
    }

    /// Cells dropped by injected loss so far.
    pub fn injected_drops(&self) -> u64 {
        self.state.injected_drops.get()
    }

    /// Cells whose payload was corrupted so far.
    pub fn injected_corruptions(&self) -> u64 {
        self.state.injected_corruptions.get()
    }

    /// Control handle of hop `i`'s link, if the path has that many hops.
    pub fn link(&self, i: usize) -> Option<&LinkControl> {
        self.links.get(i)
    }

    /// Control handles of every hop link, in hop order.
    pub fn links(&self) -> &[LinkControl] {
        &self.links
    }
}

/// Like [`build_path`], but every hop link gets a [`LinkControl`] and the
/// egress carries a seeded fault stage, all reachable through the returned
/// [`PathControl`]. With the control untouched the path behaves identically
/// to [`build_path`] with the same seed.
pub fn build_path_controlled(
    spawner: &Spawner,
    name: &str,
    hops: &[HopConfig],
    seed: u64,
) -> (
    LinkSender<Cell>,
    Receiver<Cell>,
    Vec<FabricCounters>,
    PathControl,
) {
    assert!(!hops.is_empty(), "a path needs at least one hop");
    let mut stats = Vec::new();
    let mut link_ctls = Vec::new();
    let first = LinkConfig::new(leak_name(format!("{name}.0")), hops[0].bits_per_sec)
        .with_latency(hops[0].latency);
    let (ingress, mut rx, lc) = link_controlled::<Cell>(spawner, first);
    link_ctls.push(lc);
    rx = apply_disturbance(spawner, name, 0, &hops[0], seed, rx, &mut stats);
    for (i, hop) in hops.iter().enumerate().skip(1) {
        let cfg = LinkConfig::new(leak_name(format!("{name}.{i}")), hop.bits_per_sec)
            .with_latency(hop.latency);
        let (tx, next_rx, lc) = link_controlled::<Cell>(spawner, cfg);
        link_ctls.push(lc);
        let pump_in = rx;
        spawner.spawn(&format!("hop:{name}.{i}"), async move {
            while let Ok(cell) = pump_in.recv().await {
                if tx.send(cell).await.is_err() {
                    return;
                }
            }
        });
        rx = apply_disturbance(
            spawner,
            name,
            i,
            hop,
            seed.wrapping_add(i as u64),
            next_rx,
            &mut stats,
        );
    }
    let ctrl = PathControl::new(link_ctls);
    let rx = fault_stage(spawner, name, seed ^ 0xFA17, ctrl.clone(), rx);
    (ingress, rx, stats, ctrl)
}

/// The two directions of a [`build_duplex_path`] connection, from the
/// perspective of one endpoint: `a` holds the A-side ingress/egress,
/// `b` the B-side, with per-direction hop stats and fault controls.
pub struct DuplexPath {
    /// A-side sender (into the a→b direction).
    pub a_tx: LinkSender<Cell>,
    /// A-side receiver (egress of the b→a direction).
    pub a_rx: Receiver<Cell>,
    /// B-side sender (into the b→a direction).
    pub b_tx: LinkSender<Cell>,
    /// B-side receiver (egress of the a→b direction).
    pub b_rx: Receiver<Cell>,
    /// Per-hop loss stats of the a→b direction.
    pub a_to_b: Vec<FabricCounters>,
    /// Per-hop loss stats of the b→a direction.
    pub b_to_a: Vec<FabricCounters>,
    /// Fault-injection control of the a→b direction.
    pub a_to_b_ctrl: PathControl,
    /// Fault-injection control of the b→a direction.
    pub b_to_a_ctrl: PathControl,
}

/// Builds a full-duplex connection: two independent controlled paths with
/// the same hop profile, one per direction. The b→a direction derives its
/// seed from `seed` so a single seed reproduces the whole connection, yet
/// the two directions see independent disturbance processes.
pub fn build_duplex_path(
    spawner: &Spawner,
    name: &str,
    hops: &[HopConfig],
    seed: u64,
) -> DuplexPath {
    let (a_tx, b_rx, a_to_b, a_to_b_ctrl) =
        build_path_controlled(spawner, &format!("{name}.ab"), hops, seed);
    let (b_tx, a_rx, b_to_a, b_to_a_ctrl) =
        build_path_controlled(spawner, &format!("{name}.ba"), hops, seed ^ 0xDEAD);
    DuplexPath {
        a_tx,
        a_rx,
        b_tx,
        b_rx,
        a_to_b,
        b_to_a,
        a_to_b_ctrl,
        b_to_a_ctrl,
    }
}

/// The controllable egress disturbance of [`build_path_controlled`]:
/// seeded Bernoulli loss, payload corruption (one byte XORed, so the frame
/// fails to decode downstream rather than vanishing) and a constant extra
/// delay with FIFO-monotone release.
fn fault_stage(
    spawner: &Spawner,
    name: &str,
    seed: u64,
    ctrl: PathControl,
    input: Receiver<Cell>,
) -> Receiver<Cell> {
    let (tx, rx) = channel::<Cell>();
    // Same stamper/delayer split as `jitter_stage`: arrival times are
    // recorded immediately so a standing extra delay shifts cells by a
    // constant instead of compounding through the rendezvous chain.
    let (stamped_tx, stamped_rx) = pandora_sim::unbounded::<(pandora_sim::SimTime, Cell)>();
    spawner.spawn(&format!("faults:path:{name}:stamp"), async move {
        while let Ok(cell) = input.recv().await {
            if stamped_tx.send((pandora_sim::now(), cell)).await.is_err() {
                return;
            }
        }
    });
    spawner.spawn(&format!("faults:path:{name}"), async move {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut last_due = pandora_sim::SimTime::ZERO;
        while let Ok((arrival, mut cell)) = stamped_rx.recv().await {
            let loss = ctrl.state.loss.get();
            if loss > 0.0 && rng.gen_bool(loss) {
                ctrl.state
                    .injected_drops
                    .set(ctrl.state.injected_drops.get() + 1);
                continue;
            }
            let corrupt = ctrl.state.corrupt.get();
            if corrupt > 0.0 && rng.gen_bool(corrupt) && cell.payload_len > 0 {
                let i = rng.gen_range(0..cell.payload_len as usize);
                cell.payload[i] ^= 0xFF;
                ctrl.state
                    .injected_corruptions
                    .set(ctrl.state.injected_corruptions.get() + 1);
            }
            let extra = ctrl.state.extra_delay_ns.get();
            let due = (arrival + SimDuration(extra)).max(last_due);
            if due > pandora_sim::now() {
                pandora_sim::delay_until(due).await;
            }
            last_due = due;
            if tx.send(cell).await.is_err() {
                return;
            }
        }
    });
    rx
}

fn apply_disturbance(
    spawner: &Spawner,
    name: &str,
    index: usize,
    hop: &HopConfig,
    seed: u64,
    mut rx: Receiver<Cell>,
    stats: &mut Vec<FabricCounters>,
) -> Receiver<Cell> {
    if !matches!(hop.jitter, JitterModel::None) {
        rx = jitter_stage(
            spawner,
            &format!("{name}.{index}"),
            hop.jitter,
            seed ^ 0xA5A5,
            rx,
        );
    }
    if hop.loss > 0.0 {
        let (lrx, s) = loss_stage(
            spawner,
            &format!("{name}.{index}"),
            hop.loss,
            seed ^ 0x5A5A,
            rx,
        );
        stats.push(s);
        lrx
    } else {
        stats.push(FabricCounters::default());
        rx
    }
}

// LinkConfig wants a &'static str name; paths are built once per
// simulation, so leaking the handful of hop names is fine.
fn leak_name(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

// Each routed VCI carries a list of copy destinations: (output port,
// rewritten VCI).
pub(crate) type RouteTable = Rc<RefCell<std::collections::HashMap<Vci, Vec<(usize, Vci)>>>>;

/// A VCI-routed cell switch (the ATM ring / switch fabric stand-in).
///
/// Cells arriving on any input port are forwarded to the ports given by the
/// routing table, optionally rewriting the VCI. A VCI may carry several
/// copy destinations (fabric-level tannoy splitting): each installed copy
/// is forwarded independently. Unroutable cells are dropped and counted.
/// Output ports have bounded queues: a full port drops cells (counting
/// them) rather than stalling other ports — Principle 5 at the fabric
/// level, and Principle 5 again between the copies of a multicast VCI.
pub struct Switch {
    core: crate::burst::SwitchCore,
}

impl Switch {
    /// Spawns a switch over the given input ports; returns the handle and
    /// one receiver per output port.
    ///
    /// `port_queue` bounds each output port's queue in cells.
    pub fn spawn(
        spawner: &Spawner,
        name: &str,
        inputs: Vec<Receiver<Cell>>,
        output_ports: usize,
        port_queue: usize,
    ) -> (Switch, Vec<Receiver<Cell>>) {
        let (core, port_rxs) = crate::burst::SwitchCore::new(output_ports, port_queue);
        let task_core = core.clone();
        spawner.spawn(&format!("switch:{name}"), async move {
            loop {
                let guards: Vec<&Receiver<Cell>> = inputs.iter().collect();
                let Some(Ok((_port, cell))) = pandora_sim::alt_many(&guards).await else {
                    return;
                };
                task_core.dispatch_cell(cell);
            }
        });
        (Switch { core }, port_rxs)
    }

    /// Installs (or replaces) a unicast route: cells on `vci` go to `port`
    /// with their VCI rewritten to `out_vci`. Any previously installed
    /// copies of the VCI are dropped.
    pub fn route(&self, vci: Vci, port: usize, out_vci: Vci) {
        self.core.route(vci, port, out_vci);
    }

    /// Adds one more copy destination for `vci` (fabric-level splitting:
    /// the tannoy grows without touching the VCI's existing copies, so
    /// ongoing listeners never glitch — Principle 6). Duplicate copies are
    /// ignored.
    pub fn route_add(&self, vci: Vci, port: usize, out_vci: Vci) {
        self.core.route_add(vci, port, out_vci);
    }

    /// Removes the copies of `vci` going to `port`; copies toward other
    /// ports keep flowing undisturbed.
    pub fn route_remove(&self, vci: Vci, port: usize) {
        let table = self.core.table();
        let mut table = table.borrow_mut();
        if let Some(routes) = table.get_mut(&vci) {
            routes.retain(|&(p, _)| p != port);
            if routes.is_empty() {
                table.remove(&vci);
            }
        }
    }

    /// Removes a VCI's routes entirely.
    pub fn unroute(&self, vci: Vci) {
        self.core.table().borrow_mut().remove(&vci);
    }

    /// Removes every leg toward `port` — the dead-attachment teardown:
    /// when an endpoint crashes, all fan-out copies aimed at it come out
    /// of the table in one pass while every other port's legs keep
    /// flowing (Principle 6). Returns the VCIs that lost legs, in
    /// ascending order so callers act on them deterministically.
    pub fn unroute_port(&self, port: usize) -> Vec<Vci> {
        let table = self.core.table();
        let mut table = table.borrow_mut();
        let mut touched: Vec<Vci> = Vec::new();
        for (&vci, routes) in table.iter_mut() {
            let before = routes.len();
            routes.retain(|&(p, _)| p != port);
            if routes.len() != before {
                touched.push(vci);
            }
        }
        for vci in &touched {
            if table.get(vci).is_some_and(|r| r.is_empty()) {
                table.remove(vci);
            }
        }
        touched.sort_by_key(|v| v.0);
        touched
    }

    /// Number of installed legs toward `port` — the recovery suite's
    /// "no routes left toward the dead box" assertion.
    pub fn port_route_count(&self, port: usize) -> usize {
        self.core
            .table()
            .borrow()
            .values()
            .map(|routes| routes.iter().filter(|&&(p, _)| p == port).count())
            .sum()
    }

    /// The switch's unified counters.
    pub fn counters(&self) -> &FabricCounters {
        self.core.counters()
    }

    /// Cells forwarded.
    pub fn forwarded(&self) -> u64 {
        self.core.counters().forwarded()
    }

    /// Cells dropped for lack of a route.
    pub fn unroutable(&self) -> u64 {
        self.core.counters().unroutable()
    }

    /// Cells dropped on full output ports.
    pub fn overflow(&self) -> u64 {
        self.core.counters().overflow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{SimTime, Simulation};
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn clean_path_delivers_in_order() {
        let mut sim = Simulation::new();
        let (tx, rx, _stats) = build_path(&sim.spawner(), "p", &[HopConfig::clean(100_000_000)], 1);
        sim.spawn("send", async move {
            for i in 0..10 {
                tx.send(Cell::new(Vci(1), i, false, &[i as u8]))
                    .await
                    .unwrap();
            }
        });
        let got = Rc::new(StdRefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("recv", async move {
            for _ in 0..10 {
                let cell = rx.recv().await.unwrap();
                g.borrow_mut().push(cell.seq);
            }
        });
        sim.run_until_idle();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn jitter_delays_but_preserves_order() {
        let mut sim = Simulation::new();
        let (tx, rx0, _stats) = build_path(
            &sim.spawner(),
            "p",
            &[HopConfig {
                bits_per_sec: 100_000_000,
                latency: SimDuration::ZERO,
                jitter: JitterModel::Uniform {
                    max: SimDuration::from_millis(5),
                },
                loss: 0.0,
            }],
            42,
        );
        sim.spawn("send", async move {
            for i in 0..50 {
                tx.send(Cell::new(Vci(1), i, false, &[])).await.unwrap();
                pandora_sim::delay(SimDuration::from_millis(2)).await;
            }
        });
        let seqs = Rc::new(StdRefCell::new(Vec::new()));
        let times = Rc::new(StdRefCell::new(Vec::new()));
        let (s, t) = (seqs.clone(), times.clone());
        sim.spawn("recv", async move {
            while let Ok(c) = rx0.recv().await {
                s.borrow_mut().push(c.seq);
                t.borrow_mut().push(pandora_sim::now());
            }
        });
        sim.run_until_idle();
        let seqs = seqs.borrow();
        assert_eq!(seqs.len(), 50);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "order violated");
        // Some jitter must actually have occurred.
        let times = times.borrow();
        let deviations: Vec<i64> = times
            .iter()
            .enumerate()
            .map(|(i, t)| t.as_nanos() as i64 - (i as i64) * 2_000_000)
            .collect();
        let min = deviations.iter().min().unwrap();
        let max = deviations.iter().max().unwrap();
        assert!(max - min > 1_000_000, "jitter spread {}ns", max - min);
    }

    #[test]
    fn loss_stage_drops_expected_fraction() {
        let mut sim = Simulation::new();
        let (tx, rx0, stats) = build_path(
            &sim.spawner(),
            "p",
            &[HopConfig {
                bits_per_sec: 1_000_000_000,
                latency: SimDuration::ZERO,
                jitter: JitterModel::None,
                loss: 0.1,
            }],
            7,
        );
        sim.spawn("send", async move {
            for i in 0..2_000 {
                tx.send(Cell::new(Vci(1), i, false, &[])).await.unwrap();
            }
        });
        let n = Rc::new(StdCell::new(0u64));
        let nn = n.clone();
        sim.spawn("recv", async move {
            while rx0.recv().await.is_ok() {
                nn.set(nn.get() + 1);
            }
        });
        sim.run_until_idle();
        let delivered = n.get();
        assert!(
            (1_700..=1_900).contains(&delivered),
            "delivered {delivered}"
        );
        assert_eq!(stats[0].dropped() + stats[0].forwarded(), 2_000);
    }

    #[test]
    fn switch_routes_by_vci() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, mut outs) = Switch::spawn(&sim.spawner(), "s", vec![in_rx], 2, 64);
        sw.route(Vci(1), 0, Vci(101));
        sw.route(Vci(2), 1, Vci(102));
        sim.spawn("send", async move {
            in_tx.send(Cell::new(Vci(1), 0, true, &[1])).await.unwrap();
            in_tx.send(Cell::new(Vci(2), 0, true, &[2])).await.unwrap();
            in_tx.send(Cell::new(Vci(3), 0, true, &[3])).await.unwrap(); // No route.
        });
        sim.run_until_idle();
        let p1 = outs.remove(1);
        let p0 = outs.remove(0);
        let c0 = p0.try_recv().unwrap();
        assert_eq!(c0.vci, Vci(101));
        assert_eq!(c0.data(), &[1]);
        let c1 = p1.try_recv().unwrap();
        assert_eq!(c1.vci, Vci(102));
        assert_eq!(sw.unroutable(), 1);
        assert_eq!(sw.forwarded(), 2);
    }

    #[test]
    fn unroute_port_tears_down_only_the_dead_legs() {
        let sim = Simulation::new();
        let (_in_tx, in_rx) = channel::<Cell>();
        let (sw, _outs) = Switch::spawn(&sim.spawner(), "s", vec![in_rx], 3, 64);
        sw.route(Vci(10), 0, Vci(10));
        sw.route_add(Vci(10), 2, Vci(10)); // A split: ports 0 and 2.
        sw.route(Vci(11), 2, Vci(11)); // Unicast to the dying port.
        sw.route(Vci(12), 1, Vci(12)); // Unrelated.
        assert_eq!(sw.port_route_count(2), 2);
        let touched = sw.unroute_port(2);
        assert_eq!(touched, vec![Vci(10), Vci(11)], "ascending VCI order");
        assert_eq!(sw.port_route_count(2), 0);
        // The split kept its surviving leg; the unicast is gone whole.
        assert_eq!(sw.port_route_count(0), 1);
        assert_eq!(sw.port_route_count(1), 1);
        assert_eq!(sw.unroute_port(2), Vec::<Vci>::new(), "idempotent");
        let _ = sim; // The table edits need no scheduling.
    }

    #[test]
    fn switch_full_port_drops_without_stalling_others() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, mut outs) = Switch::spawn(&sim.spawner(), "s", vec![in_rx], 2, 2);
        sw.route(Vci(1), 0, Vci(1)); // Nobody drains port 0.
        sw.route(Vci(2), 1, Vci(2));
        sim.spawn("send", async move {
            for i in 0..10 {
                in_tx.send(Cell::new(Vci(1), i, false, &[])).await.unwrap();
                in_tx.send(Cell::new(Vci(2), i, false, &[])).await.unwrap();
            }
        });
        let delivered = Rc::new(StdCell::new(0u32));
        let d = delivered.clone();
        let p1 = outs.remove(1);
        sim.spawn("drain1", async move {
            while p1.recv().await.is_ok() {
                d.set(d.get() + 1);
            }
        });
        sim.run_until_idle();
        // Port 1 saw all its cells despite port 0 being wedged.
        assert_eq!(delivered.get(), 10);
        assert_eq!(sw.overflow(), 10 - 2, "port 0 kept 2, dropped 8");
    }

    #[test]
    fn switch_multicast_copies_to_every_port() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, mut outs) = Switch::spawn(&sim.spawner(), "s", vec![in_rx], 3, 64);
        sw.route(Vci(7), 0, Vci(100));
        sw.route_add(Vci(7), 1, Vci(101));
        sw.route_add(Vci(7), 2, Vci(102));
        sw.route_add(Vci(7), 2, Vci(102)); // Duplicate copy: ignored.
        sim.spawn("send", async move {
            in_tx.send(Cell::new(Vci(7), 0, true, &[9])).await.unwrap();
        });
        sim.run_until_idle();
        let p2 = outs.remove(2);
        let p1 = outs.remove(1);
        let p0 = outs.remove(0);
        assert_eq!(p0.try_recv().unwrap().vci, Vci(100));
        assert_eq!(p1.try_recv().unwrap().vci, Vci(101));
        let c2 = p2.try_recv().unwrap();
        assert_eq!(c2.vci, Vci(102));
        assert!(p2.try_recv().is_none(), "duplicate copy forwarded");
        assert_eq!(sw.forwarded(), 3);
    }

    #[test]
    fn switch_route_remove_leaves_other_copies() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, mut outs) = Switch::spawn(&sim.spawner(), "s", vec![in_rx], 2, 64);
        sw.route(Vci(7), 0, Vci(100));
        sw.route_add(Vci(7), 1, Vci(101));
        sw.route_remove(Vci(7), 0);
        sim.spawn("send", async move {
            in_tx.send(Cell::new(Vci(7), 0, true, &[])).await.unwrap();
        });
        sim.run_until_idle();
        let p1 = outs.remove(1);
        let p0 = outs.remove(0);
        assert!(p0.try_recv().is_none(), "removed copy still forwarded");
        assert_eq!(p1.try_recv().unwrap().vci, Vci(101));
        // Removing the last copy drops the VCI entirely.
        sw.route_remove(Vci(7), 1);
        assert_eq!(sw.forwarded(), 1);
    }

    #[test]
    fn duplex_path_carries_both_directions() {
        let mut sim = Simulation::new();
        let d = build_duplex_path(&sim.spawner(), "d", &[HopConfig::clean(100_000_000)], 3);
        let (a_tx, b_tx) = (d.a_tx, d.b_tx);
        sim.spawn("a-send", async move {
            a_tx.send(Cell::new(Vci(1), 0, true, &[1])).await.unwrap();
        });
        sim.spawn("b-send", async move {
            b_tx.send(Cell::new(Vci(2), 0, true, &[2])).await.unwrap();
        });
        let got = Rc::new(StdRefCell::new(Vec::new()));
        let (g1, g2) = (got.clone(), got.clone());
        let (a_rx, b_rx) = (d.a_rx, d.b_rx);
        sim.spawn("a-recv", async move {
            if let Ok(c) = a_rx.recv().await {
                g1.borrow_mut().push(c.vci);
            }
        });
        sim.spawn("b-recv", async move {
            if let Ok(c) = b_rx.recv().await {
                g2.borrow_mut().push(c.vci);
            }
        });
        sim.run_until_idle();
        let mut got = got.borrow().clone();
        got.sort();
        assert_eq!(got, vec![Vci(1), Vci(2)]);
    }

    #[test]
    fn unroute_stops_forwarding() {
        let mut sim = Simulation::new();
        let (in_tx, in_rx) = channel::<Cell>();
        let (sw, _outs) = Switch::spawn(&sim.spawner(), "s", vec![in_rx], 1, 8);
        sw.route(Vci(1), 0, Vci(1));
        sw.unroute(Vci(1));
        sim.spawn("send", async move {
            in_tx.send(Cell::new(Vci(1), 0, true, &[])).await.unwrap();
        });
        sim.run_until_idle();
        assert_eq!(sw.unroutable(), 1);
    }

    #[test]
    fn bursty_jitter_mostly_small_sometimes_large() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = JitterModel::Bursty {
            base: SimDuration::from_millis(2),
            burst: SimDuration::from_millis(20),
            burst_prob: 0.05,
        };
        let samples: Vec<u64> = (0..10_000)
            .map(|_| model.sample(&mut rng).as_nanos())
            .collect();
        let big = samples.iter().filter(|&&s| s > 2_000_000).count();
        assert!((300..=800).contains(&big), "bursts: {big}");
        assert!(samples.iter().any(|&s| s > 15_000_000));
    }

    #[test]
    fn controlled_path_injects_loss_and_corruption() {
        let mut sim = Simulation::new();
        let (tx, rx, _stats, ctrl) =
            build_path_controlled(&sim.spawner(), "p", &[HopConfig::clean(1_000_000_000)], 11);
        ctrl.set_loss(0.2);
        ctrl.set_corruption(0.1);
        sim.spawn("send", async move {
            for i in 0..2_000 {
                tx.send(Cell::new(Vci(1), i, false, &[0u8; 16]))
                    .await
                    .unwrap();
            }
        });
        let delivered = Rc::new(StdCell::new(0u64));
        let flipped = Rc::new(StdCell::new(0u64));
        let (d, f) = (delivered.clone(), flipped.clone());
        sim.spawn("recv", async move {
            while let Ok(c) = rx.recv().await {
                d.set(d.get() + 1);
                if c.data().iter().any(|&b| b != 0) {
                    f.set(f.get() + 1);
                }
            }
        });
        sim.run_until_idle();
        assert_eq!(delivered.get() + ctrl.injected_drops(), 2_000);
        assert!(
            (300..=500).contains(&ctrl.injected_drops()),
            "drops = {}",
            ctrl.injected_drops()
        );
        assert_eq!(flipped.get(), ctrl.injected_corruptions());
        assert!(ctrl.injected_corruptions() > 100);
    }

    #[test]
    fn controlled_path_untouched_matches_plain_path() {
        let run = |controlled: bool| {
            let mut sim = Simulation::new();
            let hop = HopConfig {
                bits_per_sec: 100_000_000,
                latency: SimDuration::from_millis(1),
                jitter: JitterModel::Uniform {
                    max: SimDuration::from_millis(2),
                },
                loss: 0.05,
            };
            let (tx, rx) = if controlled {
                let (tx, rx, _s, _c) = build_path_controlled(&sim.spawner(), "p", &[hop], 99);
                (tx, rx)
            } else {
                let (tx, rx, _s) = build_path(&sim.spawner(), "p", &[hop], 99);
                (tx, rx)
            };
            sim.spawn("send", async move {
                for i in 0..500 {
                    let _ = tx.send(Cell::new(Vci(1), i, false, &[])).await;
                }
            });
            let log = Rc::new(StdRefCell::new(Vec::new()));
            let l = log.clone();
            sim.spawn("recv", async move {
                while let Ok(c) = rx.recv().await {
                    l.borrow_mut().push((pandora_sim::now(), c.seq));
                }
            });
            sim.run_until_idle();
            Rc::try_unwrap(log).expect("log shared").into_inner()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn extra_delay_step_shifts_then_bursts() {
        let mut sim = Simulation::new();
        let (tx, rx, _stats, ctrl) =
            build_path_controlled(&sim.spawner(), "p", &[HopConfig::clean(1_000_000_000)], 5);
        sim.spawn("send", async move {
            for i in 0..100 {
                let _ = tx.send(Cell::new(Vci(1), i, false, &[])).await;
                pandora_sim::delay(SimDuration::from_millis(1)).await;
            }
        });
        let times = Rc::new(StdRefCell::new(Vec::new()));
        let t = times.clone();
        sim.spawn("recv", async move {
            while let Ok(c) = rx.recv().await {
                t.borrow_mut().push((c.seq, pandora_sim::now().as_millis()));
            }
        });
        sim.run_until(SimTime::from_millis(20));
        ctrl.set_extra_delay(SimDuration::from_millis(10));
        sim.run_until(SimTime::from_millis(50));
        ctrl.set_extra_delay(SimDuration::ZERO);
        sim.run_until_idle();
        let times = times.borrow();
        assert_eq!(times.len(), 100);
        // Cell 30 sent at 30ms lands ~40ms; after the revert the backlog
        // drains and late cells return to ~send time.
        let at = |seq: u32| times.iter().find(|&&(s, _)| s == seq).map(|&(_, t)| t);
        assert!(
            at(30).is_some_and(|t| (39..=42).contains(&t)),
            "{:?}",
            at(30)
        );
        assert!(
            at(90).is_some_and(|t| (90..=93).contains(&t)),
            "{:?}",
            at(90)
        );
    }

    #[test]
    fn path_link_flap_reachable_through_control() {
        let mut sim = Simulation::new();
        let (tx, rx, _stats, ctrl) =
            build_path_controlled(&sim.spawner(), "p", &[HopConfig::clean(1_000_000_000)], 5);
        sim.spawn("send", async move {
            for i in 0..10 {
                let _ = tx.send(Cell::new(Vci(1), i, false, &[])).await;
                pandora_sim::delay(SimDuration::from_millis(1)).await;
            }
        });
        let n = Rc::new(StdCell::new(0u64));
        let nn = n.clone();
        sim.spawn("recv", async move {
            while rx.recv().await.is_ok() {
                nn.set(nn.get() + 1);
            }
        });
        sim.run_until(SimTime::from_millis(3));
        let got_at_down = n.get();
        ctrl.link(0).expect("hop 0").set_up(false);
        sim.run_until(SimTime::from_millis(8));
        assert_eq!(n.get(), got_at_down, "no delivery while hop is down");
        ctrl.link(0).expect("hop 0").set_up(true);
        sim.run_until_idle();
        assert_eq!(n.get(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_path_panics() {
        let sim = Simulation::new();
        let _ = build_path(&sim.spawner(), "p", &[], 0);
    }

    #[test]
    fn multihop_latency_accumulates() {
        let mut sim = Simulation::new();
        let hop = HopConfig {
            bits_per_sec: 1_000_000_000,
            latency: SimDuration::from_millis(1),
            jitter: JitterModel::None,
            loss: 0.0,
        };
        let (tx, rx, _) = build_path(&sim.spawner(), "p", &[hop, hop, hop, hop], 1);
        sim.spawn("send", async move {
            tx.send(Cell::new(Vci(1), 0, true, &[])).await.unwrap();
        });
        let at = Rc::new(StdCell::new(SimTime::ZERO));
        let a = at.clone();
        sim.spawn("recv", async move {
            rx.recv().await.unwrap();
            a.set(pandora_sim::now());
        });
        sim.run_until_idle();
        assert!(
            at.get() >= SimTime::from_millis(4),
            "arrived at {}",
            at.get()
        );
    }
}
