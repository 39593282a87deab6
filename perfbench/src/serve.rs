//! The serve session of a traced run: the in-process `pdn_eval::serve`
//! daemon on D1-ci, driven over loopback by an open-loop generator.
//!
//! One generator thread releases requests at their due times: `/predict`
//! as a seeded Poisson stream at [`PREDICT_RATE`], and `/simulate` every
//! [`SIMULATE_PERIOD`]. At most `nproc` connections are in flight; a
//! request that finds them all busy waits, and its latency still counts
//! from its due time. At D1-ci's 24×24 tiles, HTTP and CSV parsing, batcher
//! wait and the force-enabled telemetry dominate a prediction, and running
//! `/simulate` beside `/predict` shows a gain on one route that costs the
//! other.
//!
//! The session runs last in every traced run, because `serve()` turns
//! process-global telemetry on for good. Its latencies are per-layer
//! metrics, not a gated workload: a served request's latency follows the
//! host's speed, which on a shared host drifts by a fifth or more over
//! minutes, and no per-request minimum can stand in for a percentile.

use crate::inputs;
use crate::trace::Tracer;
use crate::{stats, Ctx};
use pdn_core::map::TileMap;
use pdn_eval::serve::{self as daemon, ServeConfig, Server};
use pdn_grid::build::PowerGrid;
use pdn_sim::wnv::WnvRunner;
use pdn_vectors::vector::TestVector;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Mean `/predict` arrival rate, requests per second. While a `/simulate`
/// holds one of the two connections of a 2-CPU host, the other runs at
/// about 25 % utilisation: loaded, but far enough from saturation that the
/// tail does not swing with every few percent of host speed.
pub const PREDICT_RATE: f64 = 25.0;
/// Interval between `/simulate` requests.
pub const SIMULATE_PERIOD: Duration = Duration::from_millis(1250);
/// Time steps of a `/simulate` vector. Short vectors keep each simulation
/// near a quarter second, so a run holds a couple of dozen of them while
/// one is in flight only about a fifth of the time: the host's speed drifts
/// by tens of percent over seconds, and a median of a few long simulations
/// would follow that drift rather than the server.
const SIMULATE_STEPS: usize = 40;
/// Distinct `/predict` vectors, cycled.
const PREDICT_POOL: usize = 32;
/// Length of the serve session of a traced run.
pub const SESSION: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Open-loop generator

/// When each request was due, handed to a connection, and answered.
#[derive(Debug, Clone)]
pub struct Sample<O> {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub outcome: O,
}

impl<O> Sample<O> {
    /// Latency as the user sees it: from the due time, so a stall also
    /// delays every request queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the request left: generator oversleep plus the wait for a
    /// free connection.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Runs `exec(i)` for every `dues[i]` (offsets from now, ascending) on at
/// most `connections` worker threads. The calling thread is the generator:
/// it sleeps until each due time and releases the job, whether or not a
/// connection is free. Samples come back in job order.
pub fn open_loop<O: Send>(
    dues: &[Duration],
    connections: usize,
    exec: impl Fn(usize) -> O + Sync,
) -> Vec<Sample<O>> {
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let rx = Mutex::new(rx);
    let origin = Instant::now();
    let mut samples: Vec<(usize, Sample<O>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let job = rx
                            .lock()
                            .expect("no worker panics holding the queue")
                            .recv();
                        let Ok((i, due)) = job else { break };
                        let sent = Instant::now();
                        let outcome = exec(i);
                        out.push((
                            i,
                            Sample {
                                due,
                                sent,
                                done: Instant::now(),
                                outcome,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for (i, &offset) in dues.iter().enumerate() {
            let due = origin + offset;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            tx.send((i, due)).expect("workers outlive the generator");
        }
        drop(tx);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread panicked"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

// ---------------------------------------------------------------------------
// Loopback HTTP client

/// What one request returned.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub status: u16,
    pub map: Vec<f64>,
    pub queue_us: f64,
    pub compute_us: f64,
    pub batch_width: f64,
    pub error: Option<String>,
}

/// Sends one request and reads the response to EOF (the server closes
/// every connection after answering), then parses it.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Outcome {
    let io = || -> std::io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        Ok(raw)
    };
    match io() {
        Ok(raw) => parse_response(&String::from_utf8_lossy(&raw)),
        Err(e) => Outcome {
            error: Some(e.to_string()),
            ..Outcome::default()
        },
    }
}

/// Parses a status line and, for a JSON map body, the fields the benchmark
/// reads. Floats are shortest-round-trip decimals, so they parse back to
/// the server's exact bits.
pub fn parse_response(raw: &str) -> Outcome {
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let mut out = Outcome {
        status,
        ..Outcome::default()
    };
    if status != 200 {
        out.error = Some(format!(
            "HTTP {status}: {}",
            body.chars().take(200).collect::<String>()
        ));
        return out;
    }
    let json = pdn_eval::jsonl::parse(body).ok();
    let number = |key: &str| json.as_ref()?.get(key)?.as_f64();
    let map = json
        .as_ref()
        .and_then(|j| j.get("map")?.as_array())
        .and_then(|values| {
            values
                .iter()
                .map(|v| v.as_f64())
                .collect::<Option<Vec<f64>>>()
        });
    match (
        map,
        number("queue_us"),
        number("compute_us"),
        number("batch_width"),
    ) {
        (Some(map), Some(q), Some(c), Some(w)) => {
            out.map = map;
            out.queue_us = q;
            out.compute_us = c;
            out.batch_width = w;
        }
        _ => out.error = Some("response lacks map, queue_us, compute_us or batch_width".into()),
    }
    out
}

// ---------------------------------------------------------------------------
// The session

/// A served design and its request bodies.
pub struct Served {
    server: Server,
    grid: PowerGrid,
    predict_vectors: Vec<TestVector>,
    predict_bodies: Vec<Vec<u8>>,
    simulate_vectors: Vec<TestVector>,
    simulate_bodies: Vec<Vec<u8>>,
}

/// Builds D1-ci, its runner and predictor, starts `serve()` on an ephemeral
/// loopback port and waits for `/healthz`.
pub fn start() -> Result<(Server, PowerGrid), String> {
    let t = Instant::now();
    let grid = inputs::build_d1();
    let runner = WnvRunner::new(&grid).map_err(|e| format!("WnvRunner::new: {e}"))?;
    let predictor = inputs::predictor(&grid);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = daemon::serve(&cfg, "D1-ci", grid.clone(), predictor, runner, None)
        .map_err(|e| format!("serve: {e}"))?;
    while request(server.local_addr(), "GET", "/healthz", b"").status != 200 {
        if t.elapsed() > Duration::from_secs(30) {
            return Err("/healthz never answered".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((server, grid))
}

impl Served {
    /// Prepares the request bodies of a session of up to `budget` seeded by
    /// `seed`.
    pub fn new(server: Server, grid: PowerGrid, seed: u64, budget: Duration) -> Served {
        let predict_vectors = inputs::vectors(&grid, &inputs::vector_seeds(seed, 3, PREDICT_POOL));
        let sims = (budget.as_secs_f64() / SIMULATE_PERIOD.as_secs_f64()).ceil() as usize + 1;
        let gen = inputs::generator(&grid, SIMULATE_STEPS);
        let simulate_vectors: Vec<TestVector> = inputs::vector_seeds(seed, 4, sims)
            .into_iter()
            .map(|s| gen.generate(s))
            .collect();
        let body = |v: &TestVector| {
            let mut out = Vec::new();
            pdn_vectors::io::write_csv(v, &mut out).expect("writing to memory cannot fail");
            out
        };
        Served {
            predict_bodies: predict_vectors.iter().map(body).collect(),
            simulate_bodies: simulate_vectors.iter().map(body).collect(),
            predict_vectors,
            simulate_vectors,
            server,
            grid,
        }
    }
}

/// One open-loop session's requests, split by route.
pub struct Session {
    /// `(pool index, sample)` per `/predict`.
    pub predict: Vec<(usize, Sample<Outcome>)>,
    /// `(vector index, sample)` per `/simulate`.
    pub simulate: Vec<(usize, Sample<Outcome>)>,
}

/// Seeded schedule: `(due offset, is_simulate, vector index)`, ascending.
pub fn schedule(seed: u64, budget: Duration) -> Vec<(Duration, bool, usize)> {
    let mut jobs = Vec::new();
    let mut t = 0.0;
    let mut k = 0u64;
    loop {
        // Exponential gaps from a uniform in (0, 1].
        let u = ((inputs::mix(seed, 0xa11 + k) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / PREDICT_RATE;
        if t >= budget.as_secs_f64() {
            break;
        }
        jobs.push((Duration::from_secs_f64(t), false, k as usize % PREDICT_POOL));
        k += 1;
    }
    let phase = (inputs::mix(seed, 0x51) % 1000) as f64 / 1000.0 * SIMULATE_PERIOD.as_secs_f64();
    let mut s = 0;
    while phase + s as f64 * SIMULATE_PERIOD.as_secs_f64() < budget.as_secs_f64() {
        let due = phase + s as f64 * SIMULATE_PERIOD.as_secs_f64();
        jobs.push((Duration::from_secs_f64(due), true, s));
        s += 1;
    }
    jobs.sort_by_key(|j| j.0);
    jobs
}

/// Drives one session of `budget` against the server.
pub fn session(ctx: &mut Ctx, served: &Served, budget: Duration) -> Session {
    let jobs = schedule(ctx.seed, budget);
    let addr = served.server.local_addr();
    let dues: Vec<Duration> = jobs.iter().map(|j| j.0).collect();
    let samples = open_loop(&dues, ctx.nproc, |i| {
        let (_, sim, v) = jobs[i];
        if sim {
            request(addr, "POST", "/simulate", &served.simulate_bodies[v])
        } else {
            request(addr, "POST", "/predict", &served.predict_bodies[v])
        }
    });
    ctx.report.attempted(samples.len() as u64);
    let mut session = Session {
        predict: Vec::new(),
        simulate: Vec::new(),
    };
    for (job, sample) in jobs.iter().zip(samples) {
        record_spans(&mut ctx.tracer, job.1, job.2 as u64, &sample);
        if job.1 {
            session.simulate.push((job.2, sample));
        } else {
            session.predict.push((job.2, sample));
        }
    }
    session
}

fn record_spans(tracer: &mut Tracer, simulate: bool, key: u64, s: &Sample<Outcome>) {
    let name = if simulate {
        "serve.simulate_p50_ms"
    } else {
        "serve.predict_p50_ms"
    };
    if let Some(id) = tracer.record(name, key, s.due, s.done) {
        tracer.record_child(id, "serve.generator_lag_ms_p95", key, s.due, s.sent);
    }
}

/// Checks every answer of a session against offline `Predictor::predict`
/// and `WnvRunner::run` on the served grid.
fn check(ctx: &mut Ctx, served: &Served, session: &Session) -> Result<(), String> {
    let grid = &served.grid;
    let mut twin = inputs::predictor(grid);
    let runner = WnvRunner::new(grid).map_err(|e| format!("WnvRunner::new: {e}"))?;
    let same = |got: &[f64], want: &TileMap| {
        got.len() == want.len()
            && got
                .iter()
                .zip(want.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    for (v, s) in &session.predict {
        if s.outcome.error.is_none() {
            let want = twin.predict(grid, &served.predict_vectors[*v]);
            ctx.report.check(same(&s.outcome.map, &want), || {
                format!("served /predict of vector {v} differs from offline predict")
            });
        }
    }
    for (v, s) in &session.simulate {
        if s.outcome.error.is_none() {
            let want = runner
                .run(&served.simulate_vectors[*v])
                .map_err(|e| format!("offline run of vector {v}: {e}"))?;
            ctx.report
                .check(same(&s.outcome.map, &want.worst_noise), || {
                    format!("served /simulate of vector {v} differs from offline run")
                });
        }
    }
    // A failed or refused request is a failed check.
    for (_, s) in session.predict.iter().chain(&session.simulate) {
        if let Some(error) = &s.outcome.error {
            ctx.report.check(false, || error.clone());
        }
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latencies in ms from due time; a failed or refused request counts as
/// missing every limit.
fn latencies(samples: &[(usize, Sample<Outcome>)]) -> Vec<f64> {
    samples
        .iter()
        .map(|(_, s)| {
            if s.outcome.error.is_none() {
                ms(s.latency())
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Per-layer serve metrics derived from a session's responses.
pub fn layer_metrics(session: &Session) -> Vec<(&'static str, &'static str, f64)> {
    let ok: Vec<&Outcome> = session
        .predict
        .iter()
        .map(|(_, s)| &s.outcome)
        .filter(|o| o.error.is_none())
        .collect();
    let http: Vec<f64> = session
        .predict
        .iter()
        .filter(|(_, s)| s.outcome.error.is_none())
        .map(|(_, s)| {
            ms(s.done.saturating_duration_since(s.sent))
                - (s.outcome.queue_us + s.outcome.compute_us) / 1e3
        })
        .collect();
    let sim_queue: Vec<f64> = session
        .simulate
        .iter()
        .filter(|(_, s)| s.outcome.error.is_none())
        .map(|(_, s)| s.outcome.queue_us / 1e3)
        .collect();
    let all = session.predict.iter().chain(&session.simulate);
    let lag: Vec<f64> = all.clone().map(|(_, s)| ms(s.lag())).collect();
    let rejected = all.clone().filter(|(_, s)| s.outcome.status == 429).count();
    let errors = all
        .filter(|(_, s)| s.outcome.error.is_some() && s.outcome.status != 429)
        .count();
    let predict = latencies(&session.predict);
    vec![
        ("serve.predict_p50_ms", "ms", stats::median(&predict)),
        (
            "serve.predict_p95_ms",
            "ms",
            stats::percentile(&predict, 95.0).map_or(f64::NAN, |(v, _)| v),
        ),
        (
            "serve.simulate_p50_ms",
            "ms",
            stats::median(&latencies(&session.simulate)),
        ),
        (
            "serve.queue_ms_p50",
            "ms",
            stats::median(&ok.iter().map(|o| o.queue_us / 1e3).collect::<Vec<_>>()),
        ),
        (
            "serve.compute_ms_p50",
            "ms",
            stats::median(&ok.iter().map(|o| o.compute_us / 1e3).collect::<Vec<_>>()),
        ),
        (
            "serve.batch_width_mean",
            "count",
            stats::mean(&ok.iter().map(|o| o.batch_width).collect::<Vec<_>>()),
        ),
        ("serve.http_ms_p50", "ms", stats::median(&http)),
        (
            "serve.simulate_queue_ms_p50",
            "ms",
            stats::median(&sim_queue),
        ),
        (
            "serve.generator_lag_ms_p95",
            "ms",
            stats::percentile(&lag, 95.0).map_or(f64::NAN, |(v, _)| v),
        ),
        ("serve.rejected", "count", rejected as f64),
        ("serve.errors", "count", errors as f64),
    ]
}

fn describe(session: &Session) {
    println!(
        "{}",
        stats::describe("serve.predict_ms", "ms", &latencies(&session.predict))
    );
    println!(
        "{}",
        stats::describe("serve.simulate_ms", "ms", &latencies(&session.simulate))
    );
    let lag: Vec<f64> = session
        .predict
        .iter()
        .chain(&session.simulate)
        .map(|(_, s)| ms(s.lag()))
        .collect();
    println!("{}", stats::describe("serve.generator_lag_ms", "ms", &lag));
}

/// Starts the daemon, drives one session of `budget`, checks every answer
/// and reports the per-layer serve metrics.
pub fn layer_session(ctx: &mut Ctx, budget: Duration) -> Result<(), String> {
    let (server, grid) = start()?;
    let served = Served::new(server, grid, ctx.seed, budget);
    println!(
        "serve: D1-ci, /predict at {PREDICT_RATE}/s over {PREDICT_POOL} vectors, /simulate \
         every {SIMULATE_PERIOD:?}, open loop, at most {} connections in flight, for {budget:?}",
        ctx.nproc
    );
    let s = session(ctx, &served, budget);
    describe(&s);
    let checked = check(ctx, &served, &s);
    served.server.shutdown();
    checked?;
    for (name, unit, value) in layer_metrics(&s) {
        ctx.report.metric(name, unit, value);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_lag_is_reported() {
        // Ten requests due 5 ms apart, each taking 20 ms on one connection:
        // the backlog grows, so later requests wait for the connection and
        // their latency includes that wait.
        let dues: Vec<Duration> = (0..10).map(|i| Duration::from_millis(5 * i)).collect();
        let samples = open_loop(&dues, 1, |_| std::thread::sleep(Duration::from_millis(20)));
        assert_eq!(samples.len(), 10);
        for (i, s) in samples.iter().enumerate() {
            assert!(s.due <= s.sent && s.sent <= s.done);
            assert_eq!(s.latency(), s.done - s.due);
            assert!(s.latency() >= s.done - s.sent);
            // Request i cannot start before i earlier ones have finished.
            assert!(
                s.lag() >= Duration::from_millis(15 * i as u64),
                "{i}: {:?}",
                s.lag()
            );
        }
        assert!(samples[9].latency() >= Duration::from_millis(9 * 15 + 20));
        // Dues are spaced from one origin, not from when the generator ran.
        assert_eq!(samples[9].due - samples[0].due, Duration::from_millis(45));
    }

    #[test]
    fn enough_connections_keep_lag_small() {
        let dues: Vec<Duration> = (0..6).map(|i| Duration::from_millis(10 * i)).collect();
        let samples = open_loop(&dues, 4, |i| i * 2);
        assert_eq!(
            samples.iter().map(|s| s.outcome).collect::<Vec<_>>(),
            vec![0, 2, 4, 6, 8, 10]
        );
        assert!(samples.iter().all(|s| s.lag() < Duration::from_millis(10)));
    }

    #[test]
    fn schedule_is_seeded_and_near_the_rates() {
        let budget = Duration::from_secs(20);
        let a = schedule(5, budget);
        assert_eq!(a, schedule(5, budget));
        assert_ne!(a, schedule(6, budget));
        let predicts = a.iter().filter(|j| !j.1).count() as f64;
        assert!(
            (predicts / 20.0 - PREDICT_RATE).abs() < 0.15 * PREDICT_RATE,
            "{predicts}"
        );
        let period = SIMULATE_PERIOD.as_secs_f64();
        assert_eq!(
            a.iter().filter(|j| j.1).count() as f64,
            (20.0 / period).ceil()
        );
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn responses_parse_exactly() {
        let raw =
            "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"kind\":\"predict\",\"batch_width\":2,\
                   \"queue_us\":140,\"compute_us\":1800,\"map\":[0.1,3.3e-5,0]}";
        let o = parse_response(raw);
        assert_eq!(o.error, None);
        assert_eq!(o.map, vec![0.1, 3.3e-5, 0.0]);
        assert_eq!(
            (o.queue_us, o.compute_us, o.batch_width),
            (140.0, 1800.0, 2.0)
        );
        let shed = parse_response("HTTP/1.1 429 Too Many Requests\r\n\r\n{\"error\":\"busy\"}");
        assert_eq!(shed.status, 429);
        assert!(shed.error.is_some());
        assert!(parse_response("HTTP/1.1 200 OK\r\n\r\n{\"map\":[null]}")
            .error
            .is_some());
    }
}
