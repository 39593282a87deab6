//! End-to-end and per-layer benchmark of worst-case PDN noise sign-off.
//!
//! ```text
//! pdn-perfbench --workload sim-d4|predict-d4 --seed N --seconds S --trace 0|1
//! pdn-perfbench --write-reference FILE
//! ```
//!
//! One workload runs per process, so process-global state (telemetry that
//! `serve()` switches on for good, the build-once thread pool, the peak
//! resident set) never leaks between workloads. The serve session of a
//! traced run comes last for the same reason. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end metrics,
//! the same four for every workload; with `--trace 1` they are the per-layer metrics, the workload
//! runs once untraced and once traced on the same inputs (each for half the
//! budget) to give the tracing overhead, and the spans are written to
//! `--trace-out`. A failed output check exits with status 1.

mod inputs;
mod layers;
mod predict;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// Set-ups repeat for at least this long, so the median spans more than
/// one moment of the host's speed.
pub const SETUP_SPAN: Duration = Duration::from_secs(2);

/// One run's state, handed to the workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Connections the serve session's generator may keep in flight.
    pub nproc: usize,
    pub report: Report,
    pub tracer: Tracer,
}

impl Ctx {
    /// The measuring budget of one untraced pass.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Sets a workload up [`SETUP_REPEATS`] times or for [`SETUP_SPAN`],
    /// whichever takes longer, and reports the median set-up time as
    /// `setup_s`. `setup` returns what it built and the seconds its timed
    /// part took; every result but the last goes to `teardown` before the
    /// next set-up starts, so no two are alive at once. Returns the last.
    pub fn setup<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<(T, f64), String>,
        mut teardown: impl FnMut(T),
    ) -> Result<T, String> {
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut built = None;
        while samples.len() < SETUP_REPEATS || start.elapsed() < SETUP_SPAN {
            if let Some(old) = built.take() {
                teardown(old);
            }
            let (new, secs) = setup()?;
            samples.push(secs);
            built = Some(new);
        }
        println!("{}", stats::describe("setup_s", "s", &samples));
        self.report.metric("setup_s", "s", stats::median(&samples));
        Ok(built.expect("at least one set-up"))
    }

    /// Reports the peak resident set so far. Workloads call it after their
    /// measured passes and before building anything only the output checks
    /// or derived figures need.
    pub fn peak_rss_mb(&mut self) {
        self.report
            .metric("peak_rss_mb", "MiB", inputs::peak_rss_mb());
    }

    /// Runs the measured part of a workload. Untraced: one pass over the
    /// whole budget. Traced: an untraced and a traced pass over the same
    /// inputs, half the budget each; the relative change of `primary`
    /// between them is the tracing overhead. Returns the passes in order,
    /// so the last one is the one whose figures are reported.
    pub fn passes<P>(
        &mut self,
        mut pass: impl FnMut(&mut Ctx, Duration) -> Result<P, String>,
        primary: impl Fn(&P) -> f64,
    ) -> Result<Vec<P>, String> {
        if !self.traced {
            return Ok(vec![pass(self, self.budget())?]);
        }
        let half = self.budget() / 2;
        self.tracer.set_enabled(false);
        let plain = pass(self, half)?;
        self.tracer.set_enabled(true);
        let traced = pass(self, half)?;
        let (a, b) = (primary(&plain), primary(&traced));
        println!("trace: primary metric untraced {a:.6}, traced {b:.6}");
        self.report
            .metric("trace.overhead_pct", "%", (b - a) / a * 100.0);
        Ok(vec![plain, traced])
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
    write_reference: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        trace_out: None,
        write_reference: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                // Any integer: negative seeds map onto the same 64-bit space.
                let raw = value()?;
                args.seed = raw
                    .parse::<u64>()
                    .or_else(|_| raw.parse::<i64>().map(|s| s as u64))
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--write-reference" => args.write_reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.write_reference.is_none() && !report::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", report::WORKLOADS));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pdn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.write_reference {
        if let Err(e) = sim::write_reference(path) {
            eprintln!("pdn-perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }

    let threads = pdn_core::threads::configure_from_env();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "threads: PDN_THREADS={} pool={threads} nproc={nproc}",
        std::env::var("PDN_THREADS").unwrap_or_else(|_| "unset".into())
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );

    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        nproc,
        report: Report::default(),
        tracer: Tracer::new(false),
    };
    let outcome = match args.workload.as_str() {
        "sim-d4" => sim::run(&mut ctx),
        _ => predict::run(&mut ctx),
    }
    .and_then(|()| {
        if !ctx.traced {
            return Ok(());
        }
        // Standalone layer calls, then the ones that switch process-global
        // telemetry on.
        ctx.tracer.set_enabled(true);
        layers::run(&mut ctx)?;
        serve::layer_session(&mut ctx, serve::SESSION)?;
        layers::telemetry_layers(&mut ctx);
        Ok(())
    });
    if let Err(e) = outcome {
        ctx.report.check(false, || e);
    }

    let expected: Vec<(String, &str)> = if ctx.traced {
        ctx.report
            .metric("trace.spans", "count", ctx.tracer.spans().len() as f64);
        if let Some(path) = &args.trace_out {
            match std::fs::write(path, ctx.tracer.to_jsonl()) {
                Ok(()) => println!(
                    "trace: {} spans written to {}",
                    ctx.tracer.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("pdn-perfbench: cannot write {}: {e}", path.display()),
            }
        }
        report::per_layer_expected()
    } else {
        report::E2E
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let (line, correct) = ctx.report.finish(&expected);
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn setup_tears_each_build_down_before_the_next_and_reports_the_median() {
        let mut ctx = Ctx {
            seed: 0,
            seconds: 1.0,
            traced: false,
            nproc: 1,
            report: Report::default(),
            tracer: Tracer::new(false),
        };
        let (alive, peak, built) = (Cell::new(0), Cell::new(0), Cell::new(0usize));
        let last = ctx
            .setup(
                || {
                    std::thread::sleep(Duration::from_millis(5));
                    alive.set(alive.get() + 1);
                    peak.set(peak.get().max(alive.get()));
                    built.set(built.get() + 1);
                    Ok((built.get(), built.get() as f64))
                },
                |_| alive.set(alive.get() - 1),
            )
            .unwrap();
        assert_eq!(peak.get(), 1, "two set-ups were alive at once");
        assert!(built.get() >= SETUP_REPEATS);
        assert_eq!(last, built.get());
        // Set-up k took k seconds, so the median is the middle index.
        let n = built.get() as f64;
        assert_eq!(ctx.report.get("setup_s"), Some((n + 1.0) / 2.0));
    }
}
