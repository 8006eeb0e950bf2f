//! The closed loop: each client issues its next call when the previous
//! one returns, checks the answer's shape against the reference pass,
//! and records the latency.

use crate::mix;
use crate::query::run;
use crate::workload::Pool;
use qbism::MedicalServer;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into `Pool::classes`.
    pub class: usize,
    pub nanos: u64,
    pub ok: bool,
}

/// Everything one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub samples: Vec<Sample>,
    /// Seconds from the first call to the last answer.
    pub wall: f64,
}

impl LoopStats {
    /// Calls issued.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Calls that errored or returned a wrong answer.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Correct answers per second.
    pub fn qps(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.wall
    }

    /// Latency quantile `q` in milliseconds over every call, or over
    /// one class's calls (nearest rank; 0 when there are none).
    pub fn quantile_ms(&self, q: f64, class: Option<usize>) -> f64 {
        let mut nanos: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.nanos)
            .collect();
        if nanos.is_empty() {
            return 0.0;
        }
        nanos.sort_unstable();
        let rank = ((q * nanos.len() as f64).ceil() as usize).clamp(1, nanos.len());
        nanos[rank - 1] as f64 / 1e6
    }
}

/// Runs `clients` closed-loop clients against `server` for `seconds`,
/// each issuing its own call stream seeded from `seed`.
pub fn closed_loop(
    server: &MedicalServer,
    pool: &Pool,
    clients: usize,
    seed: u64,
    seconds: f64,
) -> LoopStats {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = pool.stream(mix(seed, 100 + c as u64));
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let (class, item) = stream.next_call();
                        let t = Instant::now();
                        let answer = run(server, &item.query);
                        let nanos = t.elapsed().as_nanos() as u64;
                        let ok = matches!(&answer, Ok(a) if a.shape() == item.shape);
                        out.push(Sample { class, nanos, ok });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    LoopStats { samples: per_client.into_iter().flatten().collect(), wall }
}

/// Flight-recorder cost: throughput with `qbism_obs` recording on
/// versus off, in alternating short blocks (on-off, off-on, ...) at
/// `clients` clients.  Returns the per-block throughputs of each arm.
pub fn recorder_blocks(
    server: &MedicalServer,
    pool: &Pool,
    clients: usize,
    seed: u64,
    seconds: f64,
) -> (Vec<f64>, Vec<f64>) {
    const BLOCK_S: f64 = 0.2;
    let pairs = ((seconds / (2.0 * BLOCK_S)) as usize).max(2);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        let order = if i % 2 == 0 { [true, false] } else { [false, true] };
        for (j, enabled) in order.into_iter().enumerate() {
            qbism_obs::set_enabled(enabled);
            let block = closed_loop(server, pool, clients, mix(seed, (2 * i + j) as u64), BLOCK_S);
            if enabled { &mut on } else { &mut off }.push(block.qps());
        }
    }
    qbism_obs::set_enabled(true);
    (on, off)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
