//! The repository benchmark: three workloads against the real servers
//! over TCP loopback (see `README.md` for the workloads, the metrics
//! and the findings of the first baseline).
//!
//! ```text
//! perfbench --workload <web_static|image_cache|pubsub_stream>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the line before
//! it records the run's settings. The exit code is non-zero when any
//! response was wrong.

mod gen;
mod httpload;
mod image;
mod layers;
mod procstat;
mod pubsub;
mod report;
mod server;
mod spans;
mod stats;
mod tracenet;
mod web;
mod workload;

use procstat::{Group, Sampler, Snapshot};
use report::{quote, Metrics};
use std::time::{Duration, Instant};
use workload::{host_cores, Phase, Session, Workload};

/// The workload seed when none is given.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per run when none are given.
const DEFAULT_SECONDS: u64 = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Saturation-phase measurement window: `throughput_rps` and
/// `cpu_us_per_req` are medians over these windows.
const SAT_WINDOW: Duration = Duration::from_secs(1);
/// Arrivals a latency-phase window aims to hold; the reported p50 and
/// p99 are medians over the windows.
const LAT_WINDOW_SAMPLES: f64 = 1000.0;

/// Every per-layer metric a traced run reports, with its unit. A metric
/// the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.gen_cpu_share", "fraction"),
    ("bench.trace_overhead_share", "fraction"),
    ("core.compile_ms", "ms"),
    ("http.parse_us", "us"),
    ("http.serialize_us", "us"),
    ("net.read_calls_per_req", "count"),
    ("net.read_bytes_per_call", "bytes"),
    ("net.write_calls_per_req", "count"),
    ("net.write_pending_share", "fraction"),
    ("net.drain_calls_per_req", "count"),
    ("net.reactor_events_per_req", "count"),
    ("net.write_would_block_share", "fraction"),
    ("net.accepts_per_req", "count"),
    ("net.reactor_cpu_us_per_req", "us"),
    ("net.accept_to_first_byte_p50_ms", "ms"),
    ("net.accept_cpu_ms_per_s", "ms/s"),
    ("runtime.source_cpu_us_per_req", "us"),
    ("runtime.shard_cpu_us_per_req", "us"),
    ("runtime.io_cpu_us_per_req", "us"),
    ("runtime.ctx_switches_per_req", "count"),
    ("runtime.turns_per_req", "count"),
    ("runtime.steal_share", "fraction"),
    ("runtime.steal_rerouted_share", "fraction"),
    ("runtime.batch_events_per_batch", "count"),
    ("runtime.fused_execs_per_req", "count"),
    ("runtime.max_queue_depth", "count"),
    ("runtime.flow_p50_us", "us"),
    ("runtime.flow_p99_us", "us"),
    ("runtime.node_us.ReadRequest", "us"),
    ("runtime.node_us.ReadFromDisk", "us"),
    ("runtime.node_us.CheckCache", "us"),
    ("runtime.node_us.ReadInFromDisk", "us"),
    ("runtime.node_us.Compress", "us"),
    ("runtime.node_us.StoreInCache", "us"),
    ("runtime.node_us.Write", "us"),
    ("runtime.node_us.Complete", "us"),
    ("runtime.node_us.Aggregate", "us"),
    ("runtime.node_us.Fanout", "us"),
    ("runtime.dispatch_us_p50", "us"),
    ("runtime.dispatch_us_p99", "us"),
    ("http.head_read_us_p50", "us"),
    ("servers.handler_us_p50", "us"),
    ("servers.handler_us_p99", "us"),
    ("net.response_us_p50", "us"),
    ("net.response_us_p99", "us"),
    ("spans.coverage", "fraction"),
    ("image.cache_hit_ratio", "fraction"),
    ("image.encode_ms", "ms"),
    ("pubsub.deliveries_per_publish", "count"),
    ("pubsub.coalesced_share", "fraction"),
];

/// Every end-to-end metric an untraced run reports, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("success_rate", "fraction"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Derives a phase's generator seed from the run seed.
pub fn pick_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ phase.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What one run found.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Settings and sample counts, printed before the result line.
    info: Vec<(&'static str, String)>,
    /// Human-readable lines printed after the metrics.
    notes: Vec<String>,
    first_error: Option<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            info: Vec::new(),
            notes: Vec::new(),
            first_error: None,
        }
    }

    /// Counts a phase's requests and failures.
    fn count(&mut self, p: &Phase) {
        self.attempted += p.tally.attempted;
        self.failed += p.tally.failed;
        if p.tally.wrong > 0 {
            self.correct = false;
        }
        if self.first_error.is_none() {
            self.first_error = p.tally.first_error.clone();
        }
    }

    fn setup_failed(&mut self, why: String) {
        self.correct = false;
        self.first_error.get_or_insert(format!("set-up: {why}"));
    }
}

/// Starts a server and waits for its first correct response.
fn set_up(
    w: &dyn Workload,
    tracer: Option<std::sync::Arc<tracenet::Tracer>>,
    out: &mut Outcome,
) -> (Box<dyn Session>, Duration) {
    let t0 = Instant::now();
    let mut s = w.start(tracer);
    if let Err(why) = s.first_response() {
        out.setup_failed(why);
    }
    (s, t0.elapsed())
}

/// One measurement window of a phase.
struct Window {
    secs: f64,
    /// Correct responses completed in the window.
    done: u64,
    /// Open loop: their latencies (ms), sorted.
    samples: Vec<f64>,
    /// Thread usage over the window.
    usage: procstat::GroupUsage,
    /// Share of host CPU time stolen by the hypervisor in the window.
    steal: f64,
}

/// Cuts a phase into the windows between successive sampler snapshots.
/// A closing window shorter than half the first (the drain after the
/// phase's end) is dropped.
fn windows(p: &Phase, snaps: &[(Instant, Snapshot)]) -> Vec<Window> {
    let mut out: Vec<Window> = Vec::new();
    for pair in snaps.windows(2) {
        let ((t0, s0), (t1, s1)) = (&pair[0], &pair[1]);
        let secs = (*t1 - *t0).as_secs_f64();
        if out.first().is_some_and(|w| secs < w.secs / 2.0) {
            continue;
        }
        let done = (0..p.tally.done.len())
            .filter(|&b| (*t0..*t1).contains(&(p.start + gen::BUCKET * b as u32)))
            .map(|b| p.tally.done[b])
            .sum();
        let mut samples: Vec<f64> = p
            .tally
            .lat
            .iter()
            .filter(|(at, _)| (*t0..*t1).contains(at))
            .map(|&(_, ms)| ms)
            .collect();
        stats::sort(&mut samples);
        out.push(Window {
            secs,
            done,
            samples,
            usage: s1.since(s0),
            steal: s1.steal_share(s0),
        });
    }
    out
}

fn rps(p: &Phase) -> f64 {
    stats::ratio(p.tally.ok as f64, p.elapsed.as_secs_f64())
}

fn untraced(w: &dyn Workload, secs: f64) -> Outcome {
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut session = None;
    for i in 0..SETUPS {
        let (s, dt) = set_up(w, None, &mut out);
        setups.push(dt.as_secs_f64());
        if i + 1 < SETUPS {
            s.stop();
        } else {
            session = Some(s);
        }
    }
    let mut s = session.expect("at least one set-up");
    let half = Duration::from_secs_f64(secs / 2.0);
    let sampler = Sampler::start(SAT_WINDOW);
    let sat = s.saturate(half, false);
    let sat_windows = windows(&sat, &sampler.finish());
    // Latency windows hold about LAT_WINDOW_SAMPLES arrivals each, so
    // each window's p99 has its ten samples beyond where the rate
    // allows; at lower rates the whole phase is one window.
    let lat_window = Duration::from_secs_f64(LAT_WINDOW_SAMPLES / w.rate()).clamp(SAT_WINDOW, half);
    let sampler = Sampler::start(lat_window);
    let lat = s.open_loop(half, w.rate());
    let lat_windows = windows(&lat, &sampler.finish());
    out.info
        .push(("poller_backend", quote(s.view().driver().poller_backend())));
    s.stop();
    out.count(&sat);
    out.count(&lat);

    let rps_w: Vec<f64> = sat_windows.iter().map(|w| w.done as f64 / w.secs).collect();
    let cpu_w: Vec<f64> = sat_windows
        .iter()
        .map(|w| stats::ratio(w.usage.server().cpu_ns as f64 / 1e3, w.done as f64))
        .collect();
    let p50_w: Vec<f64> = lat_windows
        .iter()
        .map(|w| stats::percentile(&w.samples, 50.0))
        .collect();
    let tail_w: Vec<(f64, f64)> = lat_windows
        .iter()
        .map(|w| stats::tail(&w.samples, 99.0))
        .collect();
    let p99_w: Vec<f64> = tail_w.iter().map(|t| t.0).collect();
    let m = &mut out.metrics;
    m.add("setup_s", stats::median(&setups), "s");
    m.add("throughput_rps", stats::median(&rps_w), "1/s");
    m.add(
        "success_rate",
        1.0 - stats::ratio(out.failed as f64, out.attempted as f64),
        "fraction",
    );
    m.add("cpu_us_per_req", stats::median(&cpu_w), "us");
    m.add("peak_rss_mb", procstat::peak_rss_mib(), "MiB");

    let mut late = lat.tally.late_ms.clone();
    stats::sort(&mut late);
    let list = |v: &[f64]| {
        format!(
            "[{}]",
            v.iter()
                .map(|x| report::number(*x))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    out.info.push(("setup_s_samples", list(&setups)));
    out.info.push(("throughput_rps_windows", list(&rps_w)));
    out.info.push(("cpu_us_per_req_windows", list(&cpu_w)));
    // The open-loop latencies are printed with their sample counts but
    // are not bounded metrics: on a shared 2-vCPU host they follow the
    // hypervisor's steal time more than the server (see README.md).
    let n: usize = lat_windows.iter().map(|w| w.samples.len()).sum();
    for (name, w) in [("p50_ms", &p50_w), ("p99_ms", &p99_w)] {
        let v = report::number(stats::median(w));
        out.notes.push(format!(
            "{name} = {v} ms (median over {} windows, {n} samples)",
            lat_windows.len()
        ));
        out.info.push((name, v));
    }
    out.info.push(("p50_ms_windows", list(&p50_w)));
    out.info.push(("p99_ms_windows", list(&p99_w)));
    let steal = |ws: &[Window]| list(&ws.iter().map(|w| w.steal).collect::<Vec<_>>());
    out.info.push(("steal_sat_windows", steal(&sat_windows)));
    out.info.push(("steal_lat_windows", steal(&lat_windows)));
    out.info
        .push(("latency_window_s", report::number(lat_window.as_secs_f64())));
    out.info.push((
        "latency_samples_per_window",
        format!(
            "{:?}",
            lat_windows
                .iter()
                .map(|w| w.samples.len())
                .collect::<Vec<_>>()
        ),
    ));
    out.info.push((
        "p99_ms_percentile",
        list(&tail_w.iter().map(|t| t.1).collect::<Vec<_>>()),
    ));
    out.info.push((
        "error_rate",
        report::number(stats::ratio(out.failed as f64, out.attempted as f64)),
    ));
    out.info.push((
        "gen_late_p99_ms",
        report::number(stats::percentile(&late, 99.0)),
    ));
    out
}

fn traced(w: &dyn Workload, secs: f64) -> Outcome {
    let mut out = Outcome::new();
    let third = Duration::from_secs_f64(secs / 3.0);

    // The same saturation untraced, for the tracing overhead.
    let (mut s0, _) = set_up(w, None, &mut out);
    let plain = s0.saturate(third, false);
    s0.stop();
    out.count(&plain);

    let tracer = w.tracer();
    let (mut s, _) = set_up(w, Some(tracer.clone()), &mut out);
    let (c0, n0, p0) = (s.view().counters(), tracer.snapshot(), Snapshot::take());
    let sat = s.saturate(third, true);
    let (p1, n1, c1) = (Snapshot::take(), tracer.snapshot(), s.view().counters());
    out.count(&sat);
    let (c, n, cpu) = (c1.since(&c0), n1.since(&n0), p1.since(&p0));
    let node_us = s.view().node_means_us();
    let flow = &s.view().stats().latency;
    let flow_us = |q| flow.quantile(q).as_secs_f64() * 1e6;
    let (flow_p50, flow_p99) = (flow_us(0.5), flow_us(0.99));
    let mut m = Metrics::default();
    s.server_layers(&mut m);

    let g0 = Snapshot::take();
    let lat = s.open_loop(third, w.rate());
    let gen_cpu = Snapshot::take().since(&g0);
    out.count(&lat);
    s.offline_layers(&mut m);
    out.info
        .push(("poller_backend", quote(s.view().driver().poller_backend())));
    s.stop();

    let req = sat.tally.ok as f64;
    let per_req = |v: u64| stats::ratio(v as f64, req);
    let cpu_us = |g: Group| cpu.get(g).cpu_ns as f64 / 1e3;
    let mut late = lat.tally.late_ms.clone();
    stats::sort(&mut late);
    m.add(
        "bench.gen_late_p99_ms",
        stats::percentile(&late, 99.0),
        "ms",
    );
    m.add(
        "bench.gen_cpu_share",
        stats::ratio(
            lat.tally.gen_cpu_ns as f64,
            (lat.tally.gen_cpu_ns + gen_cpu.server().cpu_ns) as f64,
        ),
        "fraction",
    );
    m.add(
        "bench.trace_overhead_share",
        1.0 - stats::ratio(rps(&sat), rps(&plain)),
        "fraction",
    );
    m.add("core.compile_ms", layers::compile_ms(w.flux_src()), "ms");
    m.add("net.read_calls_per_req", per_req(n.read_calls), "count");
    m.add(
        "net.read_bytes_per_call",
        stats::ratio(n.read_bytes as f64, n.read_calls as f64),
        "bytes",
    );
    m.add("net.write_calls_per_req", per_req(n.write_calls), "count");
    m.add(
        "net.write_pending_share",
        stats::ratio(n.enqueue_pending as f64, n.enqueues as f64),
        "fraction",
    );
    m.add("net.drain_calls_per_req", per_req(n.drain_calls), "count");
    m.add(
        "net.reactor_events_per_req",
        per_req(c.reactor_events),
        "count",
    );
    m.add(
        "net.write_would_block_share",
        stats::ratio(c.write_would_block as f64, c.writes_submitted as f64),
        "fraction",
    );
    m.add("net.accepts_per_req", per_req(c.accepts), "count");
    m.add(
        "net.reactor_cpu_us_per_req",
        stats::ratio(cpu_us(Group::Reactor), req),
        "us",
    );
    m.add(
        "net.accept_to_first_byte_p50_ms",
        stats::median(&sat.tally.first_byte_ms),
        "ms",
    );
    m.add(
        "net.accept_cpu_ms_per_s",
        stats::ratio(cpu_us(Group::Accept) / 1e3, sat.elapsed.as_secs_f64()),
        "ms/s",
    );
    m.add(
        "runtime.source_cpu_us_per_req",
        stats::ratio(cpu_us(Group::Source), req),
        "us",
    );
    m.add(
        "runtime.shard_cpu_us_per_req",
        stats::ratio(cpu_us(Group::Shard), req),
        "us",
    );
    m.add(
        "runtime.io_cpu_us_per_req",
        stats::ratio(cpu_us(Group::Io), req),
        "us",
    );
    m.add(
        "runtime.ctx_switches_per_req",
        per_req(cpu.server().switches),
        "count",
    );
    m.add("runtime.turns_per_req", per_req(c.turns()), "count");
    m.add(
        "runtime.steal_share",
        stats::ratio(c.stolen_events as f64, c.turns() as f64),
        "fraction",
    );
    m.add(
        "runtime.steal_rerouted_share",
        stats::ratio(c.pinned_rerouted as f64, c.stolen_events as f64),
        "fraction",
    );
    m.add(
        "runtime.batch_events_per_batch",
        stats::ratio(c.batch_events as f64, c.batches as f64),
        "count",
    );
    m.add(
        "runtime.fused_execs_per_req",
        per_req(c.fused_execs),
        "count",
    );
    m.add("runtime.max_queue_depth", c.max_depth as f64, "count");
    m.add("runtime.flow_p50_us", flow_p50, "us");
    m.add("runtime.flow_p99_us", flow_p99, "us");
    for (name, us) in &node_us {
        m.add(format!("runtime.node_us.{name}"), *us, "us");
    }
    if let Some(p) = &sat.parts {
        let q = |v: &[f64], q: f64| {
            let mut v = v.to_vec();
            stats::sort(&mut v);
            stats::percentile(&v, q) * 1e3
        };
        m.add("runtime.dispatch_us_p50", q(&p.dispatch, 50.0), "us");
        m.add("runtime.dispatch_us_p99", q(&p.dispatch, 99.0), "us");
        m.add("http.head_read_us_p50", q(&p.head_read, 50.0), "us");
        m.add("servers.handler_us_p50", q(&p.handler, 50.0), "us");
        m.add("servers.handler_us_p99", q(&p.handler, 99.0), "us");
        m.add("net.response_us_p50", q(&p.response, 50.0), "us");
        m.add("net.response_us_p99", q(&p.response, 99.0), "us");
        m.add("spans.coverage", p.coverage(), "fraction");
        out.info.push(("spans_joined", p.joined().to_string()));
        out.info.push(("spans_client", p.client.len().to_string()));
        if (p.coverage() - 1.0).abs() > 0.1 {
            out.correct = false;
            out.first_error.get_or_insert(format!(
                "span parts cover {:.3} of the mean client latency",
                p.coverage()
            ));
        }
    }
    // Report exactly the declared per-layer metrics, in declared order;
    // those this workload does not reach read 0.
    out.metrics = Metrics(
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), m.get(name).unwrap_or(0.0), unit))
            .collect(),
    );
    out.info
        .push(("traced_responses", sat.tally.ok.to_string()));
    out
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <web_static|image_cache|pubsub_stream> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    // Each of these changes what is measured (poller backend, shard
    // queue, fusion, pinning, ...): the benchmark measures the shipped
    // defaults only.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("FLUX_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", set.join(", "));
        std::process::exit(2);
    }
    let w: Box<dyn Workload> = match args.workload.as_str() {
        "web_static" => Box::new(web::WebStatic::new(args.seed)),
        "image_cache" => Box::new(image::ImageCache::new(args.seed)),
        "pubsub_stream" => Box::new(pubsub::PubSubStream),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let secs = args.seconds as f64;
    let out = if args.trace {
        traced(w.as_ref(), secs)
    } else {
        untraced(w.as_ref(), secs)
    };

    for (name, value, unit) in &out.metrics.0 {
        println!("{name} = {} {unit}", report::number(*value));
    }
    for note in &out.notes {
        println!("{note}");
    }
    if let Some(e) = &out.first_error {
        println!("first failure: {e}");
    }
    let mut info = vec![
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("host_cores", host_cores().to_string()),
        ("transport", quote("tcp-loopback")),
        ("open_loop_rate_per_s", report::number(w.rate())),
    ];
    info.extend(out.info);
    let info: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    println!(
        "{}",
        report::result_line(out.correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    std::process::exit(if out.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = a("--workload web_static --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("web_static", 7, 3, true)
        );
        let d = a("--workload x").expect("defaults");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(a("--trace 2").is_err());
        assert!(a("--seed").is_err());
        assert!(a("--bogus 1").is_err());
        assert!(a("--seconds 0").is_err());
    }

    /// `BENCHMARK.json` at the repository root declares the metrics this
    /// program prints: the two lists must agree name for name.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let names = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
    }
}
