//! Per-thread CPU time and context switches, read from
//! `/proc/self/task/*/{comm,schedstat,status}` and grouped by thread
//! name prefix.
//!
//! The kernel truncates `comm` to 15 bytes, so the reactor thread
//! (`flux-net-reactor`) reads as `flux-net-reacto` and the web source
//! (`flux-source-Listen`) as `flux-source-Lis`; the prefixes below are
//! chosen to match the truncated names. The generator's threads are
//! named with [`GEN_PREFIX`] and are the only threads excluded from
//! server CPU.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name prefix of every load-generator thread.
pub const GEN_PREFIX: &str = "gen-";

/// The thread groups the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    Generator,
    Reactor,
    Accept,
    Source,
    Shard,
    Io,
    /// Every other thread: the benchmark's main thread and any helper
    /// the servers spawn. Counted as server CPU.
    Other,
}

/// Maps a (possibly truncated) thread name to its group.
pub fn group_of(comm: &str) -> Group {
    const RULES: [(&str, Group); 6] = [
        (GEN_PREFIX, Group::Generator),
        ("flux-net-reacto", Group::Reactor),
        ("flux-net-accept", Group::Accept),
        ("flux-source-", Group::Source),
        ("flux-shard-", Group::Shard),
        ("flux-io-", Group::Io),
    ];
    RULES
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map_or(Group::Other, |&(_, g)| g)
}

/// One thread's cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Time on CPU, nanoseconds (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
}

/// A snapshot of every live thread of this process, by thread id, plus
/// the host's CPU-time counters.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    threads: HashMap<u32, (Group, Usage)>,
    /// `/proc/stat` totals over all CPUs, in clock ticks: (steal, all).
    host: (u64, u64),
}

impl Snapshot {
    /// Reads every thread under `/proc/self/task`. Threads that exit
    /// while the directory is walked are skipped.
    pub fn take() -> Snapshot {
        let mut threads = HashMap::new();
        let host = host_ticks();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return Snapshot { threads, host };
        };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let path = entry.path();
            let read = |f: &str| std::fs::read_to_string(path.join(f)).ok();
            let (Some(comm), Some(sched), Some(status)) =
                (read("comm"), read("schedstat"), read("status"))
            else {
                continue;
            };
            let usage = Usage {
                cpu_ns: parse_schedstat(&sched),
                switches: parse_switches(&status),
            };
            threads.insert(tid, (group_of(comm.trim_end()), usage));
        }
        Snapshot { threads, host }
    }

    /// Share of the host's CPU time between `before` and `self` that the
    /// hypervisor gave to other guests (`steal`).
    pub fn steal_share(&self, before: &Snapshot) -> f64 {
        let steal = self.host.0.saturating_sub(before.host.0) as f64;
        let all = self.host.1.saturating_sub(before.host.1) as f64;
        if all == 0.0 {
            0.0
        } else {
            steal / all
        }
    }

    /// Per-group usage accrued between `before` and `self`. A thread
    /// born in between counts from zero; one that exited is lost (no
    /// server thread exits during a measured phase).
    pub fn since(&self, before: &Snapshot) -> GroupUsage {
        let mut out = GroupUsage::default();
        for (tid, (group, now)) in &self.threads {
            let then = before.threads.get(tid).map(|(_, u)| *u).unwrap_or_default();
            let e = out.by_group.entry(*group).or_default();
            e.cpu_ns += now.cpu_ns.saturating_sub(then.cpu_ns);
            e.switches += now.switches.saturating_sub(then.switches);
        }
        out
    }
}

/// Usage deltas summed per group.
#[derive(Debug, Clone, Default)]
pub struct GroupUsage {
    by_group: HashMap<Group, Usage>,
}

impl GroupUsage {
    /// One group's usage.
    pub fn get(&self, g: Group) -> Usage {
        self.by_group.get(&g).copied().unwrap_or_default()
    }

    /// Every group except the generator's: the server's share.
    pub fn server(&self) -> Usage {
        self.by_group
            .iter()
            .filter(|(g, _)| **g != Group::Generator)
            .fold(Usage::default(), |acc, (_, u)| Usage {
                cpu_ns: acc.cpu_ns + u.cpu_ns,
                switches: acc.switches + u.switches,
            })
    }
}

/// (steal, total) clock ticks from the first line of `/proc/stat`.
fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

fn parse_schedstat(s: &str) -> u64 {
    s.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn parse_switches(status: &str) -> u64 {
    status
        .lines()
        .filter(|l| {
            l.starts_with("voluntary_ctxt_switches") || l.starts_with("nonvoluntary_ctxt_switches")
        })
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Takes a [`Snapshot`] every `period` on a thread of its own (named as
/// a generator thread, so its reads of `/proc` are not charged to the
/// server) until [`Sampler::finish`], which takes a last one. Successive
/// snapshots bound the measurement windows of a phase.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<(Instant, Snapshot)>>,
}

impl Sampler {
    pub fn start(period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{GEN_PREFIX}sampler"))
            .spawn(move || {
                let mut out = vec![(Instant::now(), Snapshot::take())];
                let mut next = out[0].0 + period;
                while !flag.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now >= next {
                        out.push((now, Snapshot::take()));
                        next += period;
                    } else {
                        std::thread::sleep((next - now).min(Duration::from_millis(10)));
                    }
                }
                out.push((Instant::now(), Snapshot::take()));
                out
            })
            .expect("spawn sampler thread");
        Sampler { stop, handle }
    }

    /// Stops sampling and returns every snapshot with its time.
    pub fn finish(self) -> Vec<(Instant, Snapshot)> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread panicked")
    }
}

/// CPU time of the calling thread, nanoseconds. Generator threads read
/// it themselves because they exit before the phase's closing
/// [`Snapshot`] is taken.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat").map_or(0, |s| parse_schedstat(&s))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_names_group_by_prefix() {
        assert_eq!(group_of("flux-net-reacto"), Group::Reactor);
        assert_eq!(group_of("flux-net-accept"), Group::Accept);
        assert_eq!(group_of("flux-source-Lis"), Group::Source);
        assert_eq!(group_of("flux-shard-1"), Group::Shard);
        assert_eq!(group_of("flux-io-3"), Group::Io);
        assert_eq!(group_of("gen-pub"), Group::Generator);
        assert_eq!(group_of("flux-net-drain"), Group::Other);
        assert_eq!(group_of("perfbench"), Group::Other);
    }

    #[test]
    fn server_usage_excludes_only_the_generator() {
        let mut before = Snapshot::default();
        let mut after = Snapshot::default();
        let u = |cpu_ns, switches| Usage { cpu_ns, switches };
        before.threads.insert(1, (Group::Generator, u(100, 1)));
        before.threads.insert(2, (Group::Shard, u(50, 2)));
        after.threads.insert(1, (Group::Generator, u(400, 3)));
        after.threads.insert(2, (Group::Shard, u(150, 5)));
        after.threads.insert(3, (Group::Reactor, u(70, 4)));
        let d = after.since(&before);
        assert_eq!(d.get(Group::Generator), u(300, 2));
        assert_eq!(d.get(Group::Reactor), u(70, 4));
        assert_eq!(d.server(), u(170, 7));
    }

    #[test]
    fn reads_this_process() {
        let handle = std::thread::Builder::new()
            .name(format!("{GEN_PREFIX}probe"))
            .spawn(|| {
                let t0 = std::time::Instant::now();
                while t0.elapsed() < std::time::Duration::from_millis(20) {
                    std::hint::black_box(0u64);
                }
                Snapshot::take()
            })
            .expect("spawn probe thread");
        let snap = handle.join().expect("probe thread");
        assert!(thread_cpu_ns() > 0);
        let d = snap.since(&Snapshot::default());
        assert!(d.get(Group::Generator).cpu_ns > 0);
        assert!(peak_rss_mib() > 0.0);
    }
}
