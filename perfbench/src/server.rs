//! A running server under test and the always-on counters read from
//! it: `ServerStats` (shard dispatch and fan-out), `DriverCounters`,
//! `ConnDriver::reactor_events()` and, when profiling is on, the path
//! profiler's per-node service times.

use flux_core::FlatVertex;
use flux_net::ConnDriver;
use flux_runtime::ServerStats;
use flux_servers::RunningServer;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A server started with the shipped defaults: nothing but the sharded
/// event runtime sized to the host.
pub struct Running<P: Send + 'static, C> {
    pub server: RunningServer<P, C>,
    pub driver: Arc<ConnDriver>,
    stop: fn(RunningServer<P, C>),
}

impl<P: Send + 'static, C> Running<P, C> {
    pub fn new(
        server: RunningServer<P, C>,
        driver: Arc<ConnDriver>,
        stop: fn(RunningServer<P, C>),
    ) -> Self {
        Running {
            server,
            driver,
            stop,
        }
    }

    /// Stops the server and joins its threads.
    pub fn stop(self) {
        (self.stop)(self.server)
    }
}

/// What the benchmark reads from any running server.
pub trait ServerView {
    fn stats(&self) -> &ServerStats;
    fn driver(&self) -> &ConnDriver;
    /// Mean service time per node, µs, from the path profiler (empty
    /// when profiling is off).
    fn node_means_us(&self) -> BTreeMap<String, f64>;

    /// Snapshot of the cumulative counters.
    fn counters(&self) -> Counters {
        let stats = self.stats();
        let driver = self.driver();
        let mut c = Counters::default();
        if let Some(shards) = stats.shard_stats() {
            for s in shards.iter() {
                let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
                c.executed += get(&s.executed);
                c.stolen += get(&s.stolen);
                c.stolen_events += get(&s.stolen) + get(&s.stolen_batch);
                c.pinned_rerouted += get(&s.pinned_rerouted);
                c.batches += get(&s.batches);
                c.batch_events += get(&s.batch_events);
                c.fused_execs += get(&s.fused_execs);
                c.max_depth = c.max_depth.max(get(&s.max_depth));
            }
        }
        let d = driver.counters();
        c.writes_submitted = d.writes_submitted.load(Ordering::Relaxed);
        c.write_would_block = d.write_would_block.load(Ordering::Relaxed);
        c.accepts = d.accepts_admitted.load(Ordering::Relaxed);
        c.reactor_events = driver.reactor_events();
        c.publishes = stats.fanout.publishes.load(Ordering::Relaxed);
        c.deliveries = stats.fanout.deliveries.load(Ordering::Relaxed);
        c.coalesced = stats.fanout.coalesced_publishes.load(Ordering::Relaxed);
        c
    }
}

impl<P: Send + 'static, C> ServerView for Running<P, C> {
    fn stats(&self) -> &ServerStats {
        &self.server.handle.server().stats
    }

    fn driver(&self) -> &ConnDriver {
        &self.driver
    }

    fn node_means_us(&self) -> BTreeMap<String, f64> {
        let server = self.server.handle.server();
        let Some(profiler) = server.profiler() else {
            return BTreeMap::new();
        };
        let program = server.program();
        let params = profiler.observed_params(program);
        let mut sums: BTreeMap<String, (f64, u32)> = BTreeMap::new();
        for (flow, fp) in program.flows.iter().zip(&params.flows) {
            for (&vid, &mean_s) in &fp.service_mean_s {
                if let FlatVertex::Exec { node, .. } = &flow.flat.verts[vid] {
                    let e = sums
                        .entry(program.graph.name(*node).to_string())
                        .or_default();
                    e.0 += mean_s * 1e6;
                    e.1 += 1;
                }
            }
        }
        sums.into_iter()
            .map(|(name, (sum, n))| (name, sum / n as f64))
            .collect()
    }
}

/// Cumulative server counters; [`Counters::since`] gives a phase's
/// share.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Events dispatchers dequeued from their own queue.
    pub executed: u64,
    /// Steals (each runs one stolen event at once).
    pub stolen: u64,
    /// Events moved by stealing, bulk transfers included.
    pub stolen_events: u64,
    pub pinned_rerouted: u64,
    pub batches: u64,
    pub batch_events: u64,
    pub fused_execs: u64,
    /// Highest queue depth any shard reached since start (not a delta).
    pub max_depth: u64,
    pub writes_submitted: u64,
    pub write_would_block: u64,
    pub accepts: u64,
    pub reactor_events: u64,
    pub publishes: u64,
    pub deliveries: u64,
    pub coalesced: u64,
}

impl Counters {
    pub fn since(&self, b: &Counters) -> Counters {
        Counters {
            executed: self.executed - b.executed,
            stolen: self.stolen - b.stolen,
            stolen_events: self.stolen_events - b.stolen_events,
            pinned_rerouted: self.pinned_rerouted - b.pinned_rerouted,
            batches: self.batches - b.batches,
            batch_events: self.batch_events - b.batch_events,
            fused_execs: self.fused_execs - b.fused_execs,
            max_depth: self.max_depth,
            writes_submitted: self.writes_submitted - b.writes_submitted,
            write_would_block: self.write_would_block - b.write_would_block,
            accepts: self.accepts - b.accepts,
            reactor_events: self.reactor_events - b.reactor_events,
            publishes: self.publishes - b.publishes,
            deliveries: self.deliveries - b.deliveries,
            coalesced: self.coalesced - b.coalesced,
        }
    }

    /// Dispatcher queue turns: own dequeues plus direct steals.
    pub fn turns(&self) -> u64 {
        self.executed + self.stolen
    }
}
