//! `web_static`: the paper's §4.2 client against the web server.
//!
//! A SPECweb99-like static set of about 32 MB (`flux_bench::WebSet`)
//! requested with Zipf popularity through [`Stratified`] uniforms. Each connection sends five GETs and
//! reconnects; the fifth carries `Connection: close`, so the server
//! closes first. Request parsing, the accept path and the reactor write
//! path do most of the work; node execution is a docroot lookup. One
//! request in five arrives on a new connection, so accept latency
//! reaches `p99_ms`.

use crate::gen::Stratified;
use crate::httpload::{self, Mix, Picker};
use crate::report::Metrics;
use crate::server::{Running, ServerView};
use crate::tracenet::{Protocol, Tracer};
use crate::workload::{runtime, Phase, Session, Workload};
use crate::{layers, pick_seed};
use flux_bench::WebSet;
use flux_http::{mime_for, Response};
use flux_net::{Listener, TcpAcceptor};
use flux_servers::web::{self, WebCtx, WebFlow, WebSpec};
use flux_servers::ServerBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Size of the static set, bytes (the paper's is about 32 MB).
const SET_BYTES: usize = 32 << 20;
/// Requests per connection; the last asks the server to close.
const REQS_PER_CONN: u64 = 5;
/// Open-loop rate, requests/s: about half the saturation throughput on
/// the reference host (2 cores).
const RATE: f64 = 2000.0;

pub struct WebStatic {
    seed: u64,
    /// The benchmark's own copy of the set: samples paths and checks
    /// every body. Built once, outside set-up timing.
    reference: Arc<WebSet>,
}

impl WebStatic {
    pub fn new(seed: u64) -> WebStatic {
        WebStatic {
            seed,
            reference: Arc::new(WebSet::build(SET_BYTES)),
        }
    }
}

struct WebMix(Arc<WebSet>);

impl Mix for WebMix {
    fn picker(&self, rng: StdRng) -> Picker {
        let set = self.0.clone();
        let mut rng = Stratified::new(rng);
        Box::new(move || set.sample(&mut rng).to_string())
    }

    fn per_conn(&self) -> Option<u64> {
        Some(REQS_PER_CONN)
    }

    fn check(&self, path: &str, body: &[u8]) -> Result<(), String> {
        match self.0.docroot.get(path) {
            Some(want) if want == body => Ok(()),
            Some(want) => Err(format!(
                "{path}: body of {} bytes, want {}",
                body.len(),
                want.len()
            )),
            None => Err(format!("{path}: not in the set")),
        }
    }
}

impl Workload for WebStatic {
    fn rate(&self) -> f64 {
        RATE
    }

    fn flux_src(&self) -> &'static str {
        web::FLUX_SRC
    }

    fn tracer(&self) -> Arc<Tracer> {
        Tracer::new(Protocol::Http)
    }

    fn start(&self, tracer: Option<Arc<Tracer>>) -> Box<dyn Session> {
        let set = WebSet::build(SET_BYTES);
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = acceptor.local_addr();
        let listener: Box<dyn Listener> = match &tracer {
            Some(t) => t.wrap(Box::new(acceptor)),
            None => Box::new(acceptor),
        };
        let server = ServerBuilder::new(WebSpec::new(listener, set.docroot))
            .runtime(runtime())
            .profile(tracer.is_some())
            .spawn();
        let driver = server.ctx.driver.clone();
        Box::new(WebSession {
            running: Running::new(server, driver, web::stop),
            addr,
            mix: Arc::new(WebMix(self.reference.clone())),
            seed: self.seed,
            phases: 0,
            tracer,
        })
    }
}

struct WebSession {
    running: Running<WebFlow, Arc<WebCtx>>,
    addr: String,
    mix: Arc<dyn Mix>,
    seed: u64,
    phases: u64,
    tracer: Option<Arc<Tracer>>,
}

impl WebSession {
    fn phase(&mut self, dur: Duration, rate: Option<f64>, trace: bool) -> Phase {
        self.phases += 1;
        let seed = pick_seed(self.seed, self.phases);
        let tracer = self.tracer.as_deref().filter(|_| trace);
        httpload::run(&self.addr, &self.mix, seed, dur, rate, tracer)
    }
}

impl Session for WebSession {
    fn view(&self) -> &dyn ServerView {
        &self.running
    }

    fn first_response(&mut self) -> Result<(), String> {
        httpload::first_response(&self.addr, &self.mix)
    }

    fn saturate(&mut self, dur: Duration, trace: bool) -> Phase {
        self.phase(dur, None, trace)
    }

    fn open_loop(&mut self, dur: Duration, rate: f64) -> Phase {
        self.phase(dur, Some(rate), false)
    }

    fn server_layers(&self, _m: &mut Metrics) {}

    fn offline_layers(&self, m: &mut Metrics) {
        let mut pick = self.mix.picker(StdRng::seed_from_u64(self.seed));
        let paths: Vec<String> = (0..layers::SAMPLE).map(|_| pick()).collect();
        let heads = paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let close = i as u64 % REQS_PER_CONN == REQS_PER_CONN - 1;
                format!(
                    "GET {p} HTTP/1.1\r\nHost: bench\r\n{}\r\n",
                    if close { "Connection: close\r\n" } else { "" }
                )
            })
            .collect::<String>();
        m.add(
            "http.parse_us",
            layers::parse_us(heads.as_bytes(), paths.len()),
            "us",
        );
        let docroot = &self.running.server.ctx.docroot;
        let responses: Vec<Response> = paths
            .iter()
            .map(|p| {
                Response::ok(
                    mime_for(p),
                    docroot.get(p).expect("sampled from the set").to_vec(),
                )
            })
            .collect();
        m.add("http.serialize_us", layers::serialize_us(&responses), "us");
    }

    fn stop(self: Box<Self>) {
        self.running.stop();
    }
}
