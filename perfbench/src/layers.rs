//! Timed calls into public layer functions, made on the workload's own
//! inputs outside the measured phases. Each reports the median of
//! [`REPEATS`] timed passes, per call.

use flux_http::{read_request_buffered, Response};
use std::hint::black_box;
use std::time::Instant;

/// Inputs drawn per workload for the timed calls.
pub const SAMPLE: usize = 2000;
/// Timed passes per layer function.
const REPEATS: usize = 7;

/// Median over [`REPEATS`] passes of `pass`, divided by `per_pass`
/// calls, in seconds.
fn time_per_call(per_pass: usize, mut pass: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::sort(&mut times);
    times[REPEATS / 2] / per_pass.max(1) as f64
}

/// `flux_core::compile` of a server's program, ms.
pub fn compile_ms(src: &str) -> f64 {
    1e3 * time_per_call(1, || {
        black_box(flux_core::compile(black_box(src)).expect("server program compiles"));
    })
}

/// `read_request_buffered` over `count` concatenated request heads, µs
/// per request.
pub fn parse_us(heads: &[u8], count: usize) -> f64 {
    let mut scratch = Vec::new();
    1e6 * time_per_call(count, || {
        let mut r = std::io::Cursor::new(heads);
        for _ in 0..count {
            black_box(read_request_buffered(&mut r, &mut scratch).expect("well-formed request"));
        }
    })
}

/// `Response::write_to` into a reused `Vec`, µs per response.
pub fn serialize_us(responses: &[Response]) -> f64 {
    let mut out = Vec::new();
    1e6 * time_per_call(responses.len(), || {
        for r in responses {
            out.clear();
            r.write_to(&mut out, true).expect("writing to memory");
            black_box(&out);
        }
    })
}

/// Mean of `f` over `inputs`, ms per call.
pub fn per_call_ms<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    1e3 * time_per_call(inputs.len(), || {
        for x in inputs {
            f(x);
        }
    })
}
