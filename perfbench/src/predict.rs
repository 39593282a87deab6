//! `predict-d4`: worst-case noise maps from the CNN on D4-ci.
//!
//! Each vector goes through `Predictor::predict_into` at f32, f16 and
//! int8. D4-ci's 48×48 tile grid is the largest at CI scale, so the CNN and
//! Algorithm 1 get the most work; sparse, sim, serve and telemetry do none.
//!
//! A run predicts a pool of vectors over and over, and after each round the
//! whole pool once more through `Predictor::predict_batch` at f32.
//! `vector_ms` is the median, over the pool, of each vector's fastest f32
//! prediction; `group_vectors_per_s` is the pool size over the fastest
//! `predict_batch`. The f16 and int8 figures are printed, not reported:
//! every workload reports the same end-to-end metrics, and their per-layer
//! twins are `model.predict_ms.*`. On a shared host a core's speed can
//! drop by nearly half for seconds at a time while a neighbour is busy; the
//! median of every timing follows how much of the run fell in such phases,
//! while each vector's fastest time comes from the quiet moments that
//! nearly every run has.

use crate::inputs;
use crate::report::PRECISIONS;
use crate::trace::NO_KEY;
use crate::{stats, Ctx};
use pdn_core::map::TileMap;
use pdn_eval::quantization::QuantizationGate;
use pdn_grid::build::PowerGrid;
use pdn_model::model::Predictor;
use pdn_nn::quant::Precision;
use pdn_vectors::vector::TestVector;
use std::time::{Duration, Instant};

/// Vectors per run, generated before any timing. Algorithm 1 keeps a
/// different number of maps for each vector, so the median over the pool
/// varies little with the seed's mix of compression outcomes.
const POOL: usize = 16;

pub const PRECISION_VALUES: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

/// One pass's timings and maps, per precision.
struct Pass {
    /// Every timing, ms per map.
    ms: [Vec<f64>; 3],
    /// Each pool vector's fastest timing.
    best: [Vec<f64>; 3],
    /// The first map of every pool vector.
    maps: [Vec<TileMap>; 3],
    /// Every f32 `predict_batch` of the whole pool, seconds.
    batch_s: Vec<f64>,
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let warm = inputs::vectors(&inputs::build_d4(), &[inputs::CALIBRATION_VECTOR]).remove(0);
    let (grid, f32_predictor) = ctx.setup(
        || {
            let t = Instant::now();
            let grid = inputs::build_d4();
            let mut predictor = inputs::predictor(&grid);
            predictor.predict_into(&grid, &warm, &mut TileMap::empty());
            Ok(((grid, predictor), t.elapsed().as_secs_f64()))
        },
        drop,
    )?;

    // One predictor per precision, so the precisions can alternate vector
    // by vector without a switch dropping the cached distance features.
    let mut predictors = [
        f32_predictor,
        inputs::predictor(&grid),
        inputs::predictor(&grid),
    ];
    let mut out = TileMap::empty();
    for (predictor, &precision) in predictors.iter_mut().zip(&PRECISION_VALUES) {
        predictor.set_precision(precision);
        predictor.predict_into(&grid, &warm, &mut out);
    }
    let vectors = inputs::vectors(&grid, &inputs::vector_seeds(ctx.seed, 100, POOL));
    println!(
        "inputs: D4-ci, {POOL} vectors x {} steps from seed {}, each predicted at f32, f16 \
         and int8 in turn",
        inputs::STEPS,
        ctx.seed
    );

    let passes = ctx.passes(
        |ctx, budget| Ok(pass(ctx, &grid, &mut predictors, &vectors, budget)),
        |p| stats::median(&p.best[0]),
    )?;
    ctx.peak_rss_mb();
    for p in &passes {
        check(ctx, &grid, &mut predictors[0], &vectors, p);
    }
    let main = passes.last().expect("one pass");
    for (i, name) in PRECISIONS.iter().enumerate() {
        println!(
            "{}; median of each vector's best of {}: {:.6} ms/map",
            stats::describe(&format!("{name} predict"), "ms/map", &main.ms[i]),
            main.ms[i].len() / POOL,
            stats::median(&main.best[i])
        );
    }
    let batch_s = stats::min(&main.batch_s);
    println!(
        "{}; fastest {batch_s:.6} s",
        stats::describe("f32 predict_batch", "s", &main.batch_s)
    );
    ctx.report
        .metric("vector_ms", "ms", stats::median(&main.best[0]));
    ctx.report
        .metric("group_vectors_per_s", "1/s", POOL as f64 / batch_s);
    Ok(())
}

/// Rounds over the pool until the budget is spent. Every vector is
/// predicted at each precision back to back, in an order that rotates
/// from vector to vector, so a change of host speed reaches all three
/// precisions alike; each round ends with an f32 `predict_batch` of the
/// pool.
fn pass(
    ctx: &mut Ctx,
    grid: &PowerGrid,
    predictors: &mut [Predictor; 3],
    vectors: &[TestVector],
    budget: Duration,
) -> Pass {
    let mut p = Pass {
        ms: Default::default(),
        best: std::array::from_fn(|_| vec![f64::INFINITY; vectors.len()]),
        maps: Default::default(),
        batch_s: Vec::new(),
    };
    // Spans are named after the metric they feed, or the call.
    let names = ["vector_ms", "predict_into.f16", "predict_into.int8"];
    let mut out = TileMap::empty();
    let mut batch = Vec::new();
    let start = Instant::now();
    let mut turn = 0;
    while p.batch_s.is_empty() || start.elapsed() < budget {
        let k = turn % vectors.len();
        for j in 0..PRECISION_VALUES.len() {
            let pi = (turn + j) % PRECISION_VALUES.len();
            ctx.report.attempted(1);
            let ((), d) = ctx.tracer.time(names[pi], k as u64, || {
                predictors[pi].predict_into(grid, &vectors[k], &mut out)
            });
            let ms = d.as_secs_f64() * 1e3;
            p.ms[pi].push(ms);
            p.best[pi][k] = p.best[pi][k].min(ms);
            if turn < vectors.len() {
                p.maps[pi].push(out.clone());
            }
        }
        turn += 1;
        if turn % vectors.len() == 0 {
            ctx.report.attempted(vectors.len() as u64);
            let ((), d) = ctx.tracer.time("group_vectors_per_s", NO_KEY, || {
                predictors[0].predict_batch(grid, vectors, &mut batch)
            });
            p.batch_s.push(d.as_secs_f64());
        }
    }
    p
}

fn check(
    ctx: &mut Ctx,
    grid: &PowerGrid,
    predictor: &mut Predictor,
    vectors: &[TestVector],
    p: &Pass,
) {
    let f32_maps = &p.maps[0];
    let f32_max = f32_maps.iter().map(TileMap::max).fold(0.0f64, f64::max);
    ctx.report
        .check(f32_maps.iter().all(inputs::finite) && f32_max > 0.0, || {
            "f32 maps are not finite or all zero".to_string()
        });
    let mut batch = Vec::new();
    for (pi, &precision) in PRECISION_VALUES.iter().enumerate() {
        predictor.set_precision(precision);
        predictor.predict_batch(grid, vectors, &mut batch);
        let same = batch.len() == p.maps[pi].len()
            && batch
                .iter()
                .zip(&p.maps[pi])
                .all(|(a, b)| inputs::bitwise_eq(a, b));
        ctx.report.check(same, || {
            format!("{precision} predict_batch differs from predict_into")
        });
        if precision == Precision::F32 {
            continue;
        }
        // The default gates bound the deviation from f32 relative to the f32
        // maps' scale. Without simulated truth the mean-AE-inflation gate is
        // applied to the mean deviation from f32, which bounds it from above
        // for any truth; the hotspot-AUC gate needs truth and is not applied.
        let gate = QuantizationGate::default_for(precision);
        let (mut max_dev, mut sum_dev, mut tiles) = (0.0f64, 0.0f64, 0usize);
        for (a, b) in p.maps[pi].iter().zip(f32_maps) {
            max_dev = max_dev.max(inputs::max_abs_diff(a.as_slice(), b.as_slice()));
            sum_dev += a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>();
            tiles += a.len();
        }
        let mean_dev = sum_dev / tiles.max(1) as f64;
        println!(
            "check: {precision} vs f32: max dev {:.4} mV (gate {:.4}), mean dev {:.4} mV (gate {:.4})",
            max_dev * 1e3,
            gate.max_dev_frac * f32_max * 1e3,
            mean_dev * 1e3,
            gate.mean_ae_inflation_frac * f32_max * 1e3
        );
        ctx.report.check(
            p.maps[pi].iter().all(inputs::finite)
                && max_dev <= gate.max_dev_frac * f32_max
                && mean_dev <= gate.mean_ae_inflation_frac * f32_max,
            || format!("{precision} maps fail the default quantization gate against f32"),
        );
    }
    predictor.set_precision(Precision::F32);
}
