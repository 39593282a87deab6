//! `sim-d4`: worst-case noise by full transient simulation on D4-ci.
//!
//! Vectors go as one group of eight through `WnvRunner::run_group`
//! (lockstep batches of four), then one at a time through `WnvRunner::run`
//! (k = 1 solves), both on `WnvRunner::new`, the default solver. Grid,
//! sparse and sim do nearly all the work; compress, model and serve do
//! none.
//!
//! `vector_ms` is the fastest `run`, `group_vectors_per_s` eight over the
//! fastest `run_group`. Both take the fastest call of their phase, as
//! `predict-d4` takes each vector's fastest prediction: on a shared host a
//! core's speed drops by up to half for seconds at a time, and a vector
//! takes seconds, so a run holds only a few calls and their median follows
//! how many of them a slow phase caught.

use crate::inputs::{self, Reference};
use crate::trace::NO_KEY;
use crate::{stats, Ctx};
use pdn_core::map::TileMap;
use pdn_sim::wnv::WnvRunner;
use std::time::{Duration, Instant};

/// Vectors per run, and the group size.
const GROUP: usize = 8;
/// Order of the one-at-a-time phase: alternates between the two lockstep
/// batches of the group, so the first few runs already cover both.
const RUN_ORDER: [usize; GROUP] = [0, 4, 1, 5, 2, 6, 3, 7];
/// Fewest one-at-a-time runs, whatever the budget.
const MIN_RUNS: usize = 2;
/// Share of the budget given to the group phase, which comes first: a
/// group takes several times as long as a run, so the runs that follow
/// fill the rest of the budget more closely than groups could.
const GROUP_SHARE: f64 = 0.6;
/// Predictions per vector for the derived Table 2 line.
const DERIVED_TRIES: usize = 10;

/// Timings and outputs of one measured pass.
#[derive(Default)]
struct Pass {
    run_s: Vec<f64>,
    group_s: Vec<f64>,
    /// First `run` map of each group position.
    run_maps: Vec<Option<TileMap>>,
    group_maps: Vec<Vec<TileMap>>,
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (grid, runner) = ctx.setup(
        || {
            let t = Instant::now();
            let grid = inputs::build_d4();
            let runner = WnvRunner::new(&grid).map_err(|e| format!("WnvRunner::new: {e}"))?;
            Ok(((grid, runner), t.elapsed().as_secs_f64()))
        },
        drop,
    )?;

    let reference = Reference::stored()?;
    let seeds = Reference::pick(ctx.seed, GROUP);
    let vectors = inputs::vectors(&grid, &seeds);
    println!(
        "inputs: D4-ci {} nodes, vectors {seeds:?} x {} steps",
        grid.node_count(),
        inputs::STEPS
    );

    let passes = ctx.passes(
        |ctx, budget| pass(ctx, &runner, &vectors, &seeds, budget),
        |p| stats::min(&p.run_s),
    )?;
    ctx.peak_rss_mb();

    for p in &passes {
        check(ctx, p, &seeds, &reference);
    }
    let main = passes.last().expect("one pass");
    let vector_s = stats::min(&main.run_s);
    let group_s = stats::min(&main.group_s);
    println!(
        "{}; fastest {vector_s:.6} s",
        stats::describe("run", "s", &main.run_s)
    );
    println!(
        "{}; fastest {group_s:.6} s",
        stats::describe("run_group", "s", &main.group_s)
    );
    ctx.report.metric("vector_ms", "ms", vector_s * 1e3);
    ctx.report
        .metric("group_vectors_per_s", "1/s", GROUP as f64 / group_s);

    // Table 2's ratio, on the same design and vectors. Printed as a derived
    // line, not gated: a faster simulator lowers it.
    let mut predictor = inputs::predictor(&grid);
    let mut out = TileMap::empty();
    predictor.predict_into(&grid, &vectors[0], &mut out);
    // The same estimator as predict-d4: each vector's best of a few tries.
    let predict_ms: Vec<f64> = vectors
        .iter()
        .map(|v| {
            (0..DERIVED_TRIES)
                .map(|_| {
                    let t = Instant::now();
                    predictor.predict_into(&grid, v, &mut out);
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let predict_ms = stats::median(&predict_ms);
    println!(
        "derived: table2_speedup = vector_ms / f32 predict = {:.1} ms / {predict_ms:.4} ms = \
         {:.1}x (D4-ci, the {GROUP} vectors above, default solver, warm f32 predict timed in \
         this process after simulation, median of each vector's best of {DERIVED_TRIES})",
        vector_s * 1e3,
        vector_s * 1e3 / predict_ms
    );
    Ok(())
}

fn pass(
    ctx: &mut Ctx,
    runner: &WnvRunner,
    vectors: &[pdn_vectors::vector::TestVector],
    seeds: &[u64],
    budget: Duration,
) -> Result<Pass, String> {
    let mut p = Pass {
        run_maps: vec![None; GROUP],
        ..Pass::default()
    };
    // A call starts only if one more of the last one's length still fits
    // its phase, so a run lasts about its budget whatever the speed.
    let fits = |elapsed: Duration, last: Option<&f64>, limit: Duration| {
        elapsed + Duration::from_secs_f64(last.copied().unwrap_or(0.0)) <= limit
    };
    let start = Instant::now();
    loop {
        ctx.report.attempted(GROUP as u64);
        let (res, d) = ctx
            .tracer
            .time("group_vectors_per_s", NO_KEY, || runner.run_group(vectors));
        let reports = res.map_err(|e| format!("run_group: {e}"))?;
        p.group_s.push(d.as_secs_f64());
        if p.group_maps.is_empty() {
            p.group_maps
                .push(reports.into_iter().map(|r| r.worst_noise).collect());
        }
        if !fits(
            start.elapsed(),
            p.group_s.last(),
            budget.mul_f64(GROUP_SHARE),
        ) {
            break;
        }
    }
    let mut k = 0;
    while k < MIN_RUNS || fits(start.elapsed(), p.run_s.last(), budget) {
        let i = RUN_ORDER[k % GROUP];
        ctx.report.attempted(1);
        let (res, d) = ctx
            .tracer
            .time("vector_ms", seeds[i], || runner.run(&vectors[i]));
        let report = res.map_err(|e| format!("run of vector {}: {e}", seeds[i]))?;
        p.run_s.push(d.as_secs_f64());
        p.run_maps[i].get_or_insert(report.worst_noise);
        k += 1;
    }
    Ok(p)
}

fn check(ctx: &mut Ctx, p: &Pass, seeds: &[u64], reference: &Reference) {
    let against_reference = |ctx: &mut Ctx, what: &str, seed: u64, map: &TileMap| {
        let Some(want) = reference.get(seed) else {
            ctx.report
                .check(false, || format!("no reference map for vector {seed}"));
            return;
        };
        let dev = inputs::max_abs_diff(map.as_slice(), want.as_slice());
        ctx.report
            .check(inputs::finite(map) && map.max() > 0.0, || {
                format!("{what} map of vector {seed} is not finite or all zero")
            });
        ctx.report.check(
            map.shape() == want.shape() && dev <= Reference::TOLERANCE_V,
            || {
                format!(
                    "{what} map of vector {seed} is {:.3} uV from the reference",
                    dev * 1e6
                )
            },
        );
    };
    for (i, map) in p.run_maps.iter().enumerate() {
        if let Some(map) = map {
            against_reference(ctx, "run", seeds[i], map);
        }
    }
    for maps in &p.group_maps {
        for (i, map) in maps.iter().enumerate() {
            against_reference(ctx, "run_group", seeds[i], map);
            if let Some(solo) = &p.run_maps[i] {
                ctx.report.check(inputs::bitwise_eq(map, solo), || {
                    format!("run_group map of vector {} differs from run", seeds[i])
                });
            }
        }
    }
}

/// Simulates every pool vector with the default runner and writes the
/// reference file.
pub fn write_reference(path: &std::path::Path) -> Result<(), String> {
    let grid = inputs::build_d4();
    let runner = WnvRunner::new(&grid).map_err(|e| e.to_string())?;
    let seeds = Reference::pool();
    let vectors = inputs::vectors(&grid, &seeds);
    let mut maps = Vec::new();
    for (seed, v) in seeds.iter().zip(&vectors) {
        let r = runner.run(v).map_err(|e| e.to_string())?;
        eprintln!(
            "reference: vector {seed} max {:.6} V in {:?}",
            r.max_noise.0, r.elapsed
        );
        maps.push((*seed, r.worst_noise));
    }
    std::fs::write(path, Reference::render(&maps)).map_err(|e| format!("{}: {e}", path.display()))
}
