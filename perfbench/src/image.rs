//! `image_cache`: the Figure 2 image server (`ImageSource::Net`,
//! `CompressMode::Real`) on long-lived keep-alive connections.
//!
//! Requests are Zipf over (image, scale) tags in a fixed popularity
//! order, drawn through [`Stratified`] uniforms whose order the seed
//! decides; the cache holds about 40% of the encoded set, so roughly a
//! quarter of requests miss. Node execution does most of
//! the work — JPEG `Compress` on a miss — along with the `cache`
//! atomicity constraint and the blocking `ReadRequest`/`Write` hops to
//! the I/O pool. The accept path does none.

use crate::gen::Stratified;
use crate::httpload::{self, Mix, Picker};
use crate::report::Metrics;
use crate::server::{Running, ServerView};
use crate::tracenet::{Protocol, Tracer};
use crate::workload::{runtime, Phase, Session, Workload};
use crate::{layers, pick_seed};
use flux_bench::Zipf;
use flux_http::Response;
use flux_image::jpeg_encode;
use flux_net::{Listener, TcpAcceptor};
use flux_servers::image::{
    self, CompressMode, ImageConfig, ImageCtx, ImageFlow, ImageSource, ImageTag,
};
use flux_servers::ServerBuilder;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Distinct source images; each is served at eight scales.
const IMAGES: usize = 8;
/// Source image width, pixels.
const IMAGE_SIZE: usize = 256;
/// JPEG quality of `CompressMode::Real`.
const QUALITY: u8 = 75;
/// Cache capacity: about 40% of the 64 encoded tags' bytes, which
/// leaves roughly a quarter of requests missing under the Zipf mix.
const CACHE_BYTES: usize = 96 << 10;
/// Open-loop rate, requests/s: about half the saturation throughput on
/// the reference host (2 cores).
const RATE: f64 = 22.0;

pub struct ImageCache {
    seed: u64,
    mix: Arc<ImageMix>,
}

impl ImageCache {
    pub fn new(seed: u64) -> ImageCache {
        // The popularity order is part of the workload, not of the
        // seed: a seed that made large images popular would change what
        // a miss costs, not just which requests come when.
        let mut tags: Vec<ImageTag> = (0..IMAGES as u32)
            .flat_map(|image| (1..=8).map(move |scale| ImageTag { image, scale }))
            .collect();
        tags.shuffle(&mut StdRng::seed_from_u64(0x1A6E));
        let zipf = Zipf::new(tags.len(), 1.0);
        ImageCache {
            seed,
            mix: Arc::new(ImageMix {
                zipf,
                tags,
                seen: Mutex::new(HashMap::new()),
            }),
        }
    }
}

struct ImageMix {
    /// Tags in popularity order.
    tags: Vec<ImageTag>,
    zipf: Zipf,
    /// The first body served for each path; every later one must match
    /// it byte for byte, whether it was a cache hit or a miss.
    seen: Mutex<HashMap<String, Arc<Vec<u8>>>>,
}

fn path_of(tag: &ImageTag) -> String {
    format!("/img{}-{}.jpg", tag.image, tag.scale)
}

impl Mix for ImageMix {
    fn picker(&self, rng: StdRng) -> Picker {
        let (tags, zipf) = (self.tags.clone(), self.zipf.clone());
        let mut rng = Stratified::new(rng);
        Box::new(move || path_of(&tags[zipf.sample(&mut rng)]))
    }

    fn per_conn(&self) -> Option<u64> {
        None
    }

    fn check(&self, path: &str, body: &[u8]) -> Result<(), String> {
        if !(body.starts_with(&[0xFF, 0xD8]) && body.ends_with(&[0xFF, 0xD9])) {
            return Err(format!("{path}: not a JPEG (no SOI/EOI)"));
        }
        let mut seen = self.seen.lock();
        match seen.get(path) {
            Some(first) if first.as_slice() == body => Ok(()),
            Some(_) => Err(format!("{path}: body differs from an earlier response")),
            None => {
                seen.insert(path.to_string(), Arc::new(body.to_vec()));
                Ok(())
            }
        }
    }
}

impl Workload for ImageCache {
    fn rate(&self) -> f64 {
        RATE
    }

    fn flux_src(&self) -> &'static str {
        image::FLUX_SRC
    }

    fn tracer(&self) -> Arc<Tracer> {
        Tracer::new(Protocol::Http)
    }

    fn start(&self, tracer: Option<Arc<Tracer>>) -> Box<dyn Session> {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = acceptor.local_addr();
        let listener: Box<dyn Listener> = match &tracer {
            Some(t) => t.wrap(Box::new(acceptor)),
            None => Box::new(acceptor),
        };
        let server = ServerBuilder::new(ImageConfig {
            source: ImageSource::Net(listener),
            compress: CompressMode::Real { quality: QUALITY },
            images: IMAGES,
            image_size: IMAGE_SIZE,
            cache_bytes: CACHE_BYTES,
        })
        .runtime(runtime())
        .profile(tracer.is_some())
        .spawn();
        let driver = server.ctx.driver.clone().expect("net mode has a driver");
        let mix: Arc<dyn Mix> = self.mix.clone();
        Box::new(ImageSession {
            running: Running::new(server, driver, image::stop),
            addr,
            mix,
            images: self.mix.clone(),
            seed: self.seed,
            phases: 0,
            tracer,
        })
    }
}

struct ImageSession {
    running: Running<ImageFlow, Arc<ImageCtx>>,
    addr: String,
    mix: Arc<dyn Mix>,
    images: Arc<ImageMix>,
    seed: u64,
    phases: u64,
    tracer: Option<Arc<Tracer>>,
}

impl ImageSession {
    fn phase(&mut self, dur: Duration, rate: Option<f64>, trace: bool) -> Phase {
        self.phases += 1;
        let seed = pick_seed(self.seed, self.phases);
        let tracer = self.tracer.as_deref().filter(|_| trace);
        httpload::run(&self.addr, &self.mix, seed, dur, rate, tracer)
    }
}

impl Session for ImageSession {
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

    fn server_layers(&self, m: &mut Metrics) {
        let ratio = self.running.server.ctx.cache.lock().hit_ratio();
        m.add("image.cache_hit_ratio", ratio, "fraction");
    }

    fn offline_layers(&self, m: &mut Metrics) {
        let mut pick = self.mix.picker(StdRng::seed_from_u64(self.seed));
        let draws: Vec<String> = (0..layers::SAMPLE).map(|_| pick()).collect();
        let heads: String = draws
            .iter()
            .map(|p| format!("GET {p} HTTP/1.1\r\nHost: bench\r\n\r\n"))
            .collect();
        m.add(
            "http.parse_us",
            layers::parse_us(heads.as_bytes(), draws.len()),
            "us",
        );
        let seen = self.images.seen.lock().clone();
        let responses: Vec<Response> = draws
            .iter()
            .filter_map(|p| seen.get(p))
            .map(|body| Response::ok("image/jpeg", body.as_ref().clone()))
            .collect();
        m.add("http.serialize_us", layers::serialize_us(&responses), "us");
        let disk = &self.running.server.ctx.disk;
        let scaled: Vec<_> = draws[..16]
            .iter()
            .filter_map(|p| ImageTag::from_path(p))
            .map(|t| disk[t.image as usize].scale_eighths(t.scale))
            .collect();
        let encode_ms = layers::per_call_ms(&scaled, |img| {
            black_box(jpeg_encode(black_box(img), QUALITY));
        });
        m.add("image.encode_ms", encode_ms, "ms");
    }

    fn stop(self: Box<Self>) {
        self.running.stop();
    }
}
