//! Standalone per-layer calls, made only in traced runs.
//!
//! Each call goes through a crate's public function on D4-ci (D1-ci for the
//! serve request codec) and is timed as a span named after the metric it
//! feeds. Which end-to-end metric each should move:
//!
//! * `grid.*`: `setup_s` on sim-d4.
//! * `sparse.analyze_ms`, `sparse.factor_ms`: `setup_s` and `peak_rss_mb`;
//!   `sparse.solve_k1_ms`: `vector_ms` on sim-d4 and
//!   `serve.simulate_p50_ms`; `sparse.solve_k4_ms_per_rhs`:
//!   `group_vectors_per_s` on sim-d4. None of them should move predict-d4.
//! * `sim.*`: `vector_ms` and `group_vectors_per_s` on sim-d4. Without
//!   contention `sim.solve_share` bounds what faster solve kernels save.
//! * `compress.*`: `vector_ms` and `group_vectors_per_s` on predict-d4 and
//!   `serve.predict_*`.
//! * `features.distance_ms`, `model.distance_ms.*`: `setup_s` on predict-d4.
//! * `model.fusion_*`, `model.stats_ms`, `model.prediction_*` and the whole
//!   predict `model.predict_ms.*`: `vector_ms` and `group_vectors_per_s` on
//!   predict-d4 (the `.f32` ones; whole f16 and int8 predicts are reported
//!   only here); none should move sim-d4.
//! * `serve.*` (from the serve session): the served latencies
//!   `serve.predict_*` and `serve.simulate_p50_ms` only.
//! * `telemetry.*` (enabled cost, as `serve()` forces it on):
//!   `serve.predict_*`; flat on sim-d4 and predict-d4, which run with
//!   telemetry off.

use crate::inputs;
use crate::predict::PRECISION_VALUES;
use crate::report::PRECISIONS;
use crate::trace::NO_KEY;
use crate::{stats, Ctx};
use pdn_compress::temporal::{CompressScratch, TemporalCompressor};
use pdn_core::map::TileMap;
use pdn_core::telemetry;
use pdn_eval::serve::proto::{MapResponse, VectorRequest};
use pdn_model::fusion::{FusionBufs, FusionNet};
use pdn_model::model::ModelConfig;
use pdn_model::pad::{pad_to_multiple4, round_up4};
use pdn_model::stats::StatsInferBufs;
use pdn_model::unet::{UNet, UNetBufs};
use pdn_nn::layer::Layer;
use pdn_nn::tensor::Tensor;
use pdn_sim::transient::stamp_transient_system;
use pdn_sim::wnv::WnvRunner;
use pdn_sparse::supernodal::{SupernodalCholesky, SymbolicCholesky};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of the cheap calls; their median is reported.
const REPS: usize = 9;
/// Calls per thread in the telemetry measurements.
const TELEMETRY_CALLS: u64 = 200_000;

/// Times `f` `reps` times, after one untimed warm-up call, as spans named
/// `name` and returns the median in milliseconds with the last result.
fn timed<R>(ctx: &mut Ctx, name: &str, reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut ms = Vec::with_capacity(reps);
    let mut last = Some(f());
    for _ in 0..reps {
        let (r, d) = ctx.tracer.time(name, NO_KEY, &mut f);
        ms.push(d.as_secs_f64() * 1e3);
        last = Some(r);
    }
    (stats::median(&ms), last.expect("at least the warm-up ran"))
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    // pdn-grid
    let (build_ms, grid) = timed(ctx, "grid.build_ms", REPS, inputs::build_d4);
    let (stamp_ms, stamped) = timed(ctx, "grid.stamp_ms", REPS, || stamp_transient_system(&grid));
    let (matrix, _, _) = stamped.map_err(|e| format!("stamp_transient_system: {e}"))?;
    ctx.report.metric("grid.build_ms", "ms", build_ms);
    ctx.report.metric("grid.stamp_ms", "ms", stamp_ms);
    ctx.report
        .metric("grid.nodes", "count", grid.node_count() as f64);

    // pdn-sparse, on the stamped transient matrix.
    let (analyze_ms, sym) = timed(ctx, "sparse.analyze_ms", 3, || {
        SymbolicCholesky::analyze(&matrix)
    });
    let sym = Arc::new(sym.map_err(|e| format!("analyze: {e}"))?);
    let (factor_ms, chol) = timed(ctx, "sparse.factor_ms", 3, || {
        SupernodalCholesky::factor_with(Arc::clone(&sym), &matrix)
    });
    let chol = chol.map_err(|e| format!("factor: {e}"))?;
    let n = matrix.n_rows();
    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut x = rhs.clone();
    let (k1_ms, ()) = timed(ctx, "sparse.solve_k1_ms", 31, || {
        x.copy_from_slice(&rhs);
        chol.solve_in_place(&mut x);
    });
    let residual = matrix_residual(&matrix, &x, &rhs);
    ctx.report.check(residual < 1e-8, || {
        format!("direct solve residual {residual:e}")
    });
    let rhs4: Vec<f64> = (0..n * 4)
        .map(|i| rhs[i / 4] * (1 + i % 4) as f64)
        .collect();
    let mut x4 = rhs4.clone();
    let (k4_ms, ()) = timed(ctx, "sparse.solve_k4_ms_per_rhs", 15, || {
        x4.copy_from_slice(&rhs4);
        chol.solve_multi_in_place(&mut x4, 4);
    });
    ctx.report.check(
        (0..n).all(|i| (x4[i * 4] - x[i]).abs() <= 1e-12 * x[i].abs().max(1.0)),
        || "k=4 solve disagrees with k=1".to_string(),
    );
    ctx.report.metric("sparse.analyze_ms", "ms", analyze_ms);
    ctx.report.metric("sparse.factor_ms", "ms", factor_ms);
    ctx.report
        .metric("sparse.nnz_l", "count", sym.factor_nnz() as f64);
    ctx.report
        .metric("sparse.supernodes", "count", sym.n_supernodes() as f64);
    ctx.report.metric("sparse.solve_k1_ms", "ms", k1_ms);
    ctx.report
        .metric("sparse.solve_k4_ms_per_rhs", "ms", k4_ms / 4.0);
    // Computed, not measured traffic: every stored panel value is read once
    // in the forward and once in the backward sweep.
    let panel_bytes = 2.0 * 8.0 * sym.panel_nnz() as f64;
    ctx.report.metric(
        "sparse.solve_gbps_computed",
        "GB/s",
        panel_bytes / (k1_ms * 1e-3) / 1e9,
    );

    // pdn-sim, on the default runner.
    let runner = WnvRunner::new(&grid).map_err(|e| format!("WnvRunner::new: {e}"))?;
    let vectors = inputs::vectors(&grid, &inputs::vector_seeds(ctx.seed, 2, 4));
    ctx.report.attempted(5);
    let (run, d) = ctx.tracer.time("sim.run_s", 0, || runner.run(&vectors[0]));
    let run = run.map_err(|e| format!("run: {e}"))?;
    let run_s = d.as_secs_f64();
    let refs: Vec<_> = vectors.iter().collect();
    let (batch, d) = ctx.tracer.time("sim.batch4_s_per_vector", NO_KEY, || {
        runner.run_batch(&refs)
    });
    let batch = batch.map_err(|e| format!("run_batch: {e}"))?;
    ctx.report.check(
        inputs::bitwise_eq(&batch[0].worst_noise, &run.worst_noise),
        || "run_batch map differs from run".to_string(),
    );
    ctx.report.metric("sim.run_s", "s", run_s);
    ctx.report
        .metric("sim.batch4_s_per_vector", "s", d.as_secs_f64() / 4.0);
    let steps = run.stats.steps.max(1) as f64;
    ctx.report.metric(
        "sim.cg_iterations_per_step",
        "count",
        run.stats.cg_iterations as f64 / steps,
    );
    ctx.report
        .metric("sim.solve_share", "ratio", steps * k1_ms * 1e-3 / run_s);

    // pdn-compress and pdn-features.
    let (distance_ms, distance) = timed(ctx, "features.distance_ms", REPS, || {
        pdn_features::distance::distance_tensor(&grid)
    });
    ctx.report.metric("features.distance_ms", "ms", distance_ms);
    let mut maps: Vec<TileMap> = (0..inputs::STEPS).map(|_| TileMap::empty()).collect();
    let mut spatial = Vec::new();
    let mut temporal = Vec::new();
    let mut kept_counts = Vec::new();
    let compressor = TemporalCompressor::new(inputs::COMPRESSION.0, inputs::COMPRESSION.1)
        .map_err(|e| format!("compressor: {e}"))?;
    let mut scratch = CompressScratch::default();
    for (k, v) in vectors.iter().enumerate() {
        let ((), d) = ctx.tracer.time("compress.spatial_ms", k as u64, || {
            for (step, map) in maps.iter_mut().enumerate() {
                pdn_compress::spatial::load_tile_map_into(&grid, v.step(step), map);
            }
        });
        spatial.push(d.as_secs_f64() * 1e3);
        let totals: Vec<f64> = maps.iter().map(TileMap::sum).collect();
        for _ in 0..REPS {
            let ((), d) = ctx.tracer.time("compress.temporal_us", k as u64, || {
                compressor.compress_with(&totals, &mut scratch)
            });
            temporal.push(d.as_secs_f64() * 1e6);
        }
        kept_counts.push(scratch.kept().len() as f64);
    }
    let kept_maps = stats::median(&kept_counts);
    ctx.report
        .metric("compress.spatial_ms", "ms", stats::median(&spatial));
    ctx.report
        .metric("compress.temporal_us", "us", stats::median(&temporal));
    ctx.report.metric("compress.kept_maps", "count", kept_maps);

    model_layers(
        ctx,
        &grid,
        &distance,
        &maps,
        scratch.kept(),
        kept_maps,
        &vectors,
    )?;
    codec_layers(ctx);
    Ok(())
}

/// `‖A x − b‖∞ / ‖b‖∞`.
fn matrix_residual(a: &pdn_sparse::csr::CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.mul_vec(x);
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    ax.iter()
        .zip(b)
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()))
        / scale
}

/// Standalone subnets at the predictor's config and padded shape, the
/// whole predictor for the unattributed remainder, and the MAC count.
fn model_layers(
    ctx: &mut Ctx,
    grid: &pdn_grid::build::PowerGrid,
    distance: &Tensor,
    maps: &[TileMap],
    kept: &[usize],
    kept_maps: f64,
    vectors: &[pdn_vectors::vector::TestVector],
) -> Result<(), String> {
    let cfg = ModelConfig::default();
    let bumps = grid.bumps().len();
    let mut fusion = FusionNet::new(cfg.c2, inputs::MODEL_SEED + 200);
    let mut prediction = UNet::new(4, cfg.c3, 1, inputs::MODEL_SEED + 300);
    let mut distance_net = UNet::new(bumps, cfg.c1, 1, inputs::MODEL_SEED + 100);
    let padded_distance = pad_to_multiple4(distance);
    let scale = 1.0 / maps.iter().map(TileMap::max).fold(1e-30f64, f64::max);
    let currents: Vec<Tensor> = kept
        .iter()
        .map(|&k| {
            let m = &maps[k];
            pad_to_multiple4(&Tensor::from_fn3(1, m.rows(), m.cols(), |_, r, c| {
                (m.as_slice()[r * m.cols() + c] * scale) as f32
            }))
        })
        .collect();
    let (hp, wp) = (
        round_up4(grid.tile_grid().rows()),
        round_up4(grid.tile_grid().cols()),
    );
    let macs = fusion_macs(&mut fusion, hp, wp) * kept_maps + unet_macs(&mut prediction, hp, wp);
    ctx.report.metric("model.macs_per_map", "count", macs);

    let mut predictor = inputs::predictor(grid);
    let mut out = TileMap::empty();
    let mut fused: Vec<Tensor> = currents.iter().map(|_| Tensor::default()).collect();
    let mut stats_bufs = StatsInferBufs::default();
    let mut d_tilde = Tensor::default();
    for (pi, &p) in PRECISION_VALUES.iter().enumerate() {
        let suffix = PRECISIONS[pi];
        fusion.set_precision(p);
        prediction.set_precision(p);
        distance_net.set_precision(p);
        let mut dbufs = UNetBufs::default();
        let (dist_ms, ()) = timed(ctx, &format!("model.distance_ms.{suffix}"), 5, || {
            distance_net.forward_infer(&padded_distance, &mut dbufs, &mut d_tilde)
        });
        let mut fbufs = FusionBufs::default();
        let (fusion_ms, ()) = timed(ctx, &format!("model.fusion_ms_per_map.{suffix}"), 5, || {
            for (c, f) in currents.iter().zip(fused.iter_mut()) {
                fusion.forward_infer(c, &mut fbufs, f);
            }
        });
        let fusion_ms = fusion_ms / currents.len().max(1) as f64;
        let (stats_ms, ()) = timed(ctx, "model.stats_ms", REPS, || stats_bufs.compute(&fused));
        let cat = Tensor::concat_channels(&[
            &d_tilde,
            &stats_bufs.max,
            &stats_bufs.mean_extreme,
            &stats_bufs.msd,
        ]);
        let mut pbufs = UNetBufs::default();
        let mut pred = Tensor::default();
        let (prediction_ms, ()) =
            timed(ctx, &format!("model.prediction_ms.{suffix}"), REPS, || {
                prediction.forward_infer(&cat, &mut pbufs, &mut pred)
            });

        predictor.set_precision(p);
        predictor.predict_into(grid, &vectors[0], &mut out);
        // Each vector's best of three, as predict-d4 measures `vector_ms`.
        let predict_ms: Vec<f64> = vectors
            .iter()
            .map(|v| {
                (0..3)
                    .map(|_| {
                        let t = Instant::now();
                        predictor.predict_into(grid, v, &mut out);
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let attributed = ctx.report.get("compress.spatial_ms").unwrap_or(0.0)
            + ctx.report.get("compress.temporal_us").unwrap_or(0.0) / 1e3
            + fusion_ms * kept_maps
            + stats_ms
            + prediction_ms;
        ctx.report
            .metric(&format!("model.distance_ms.{suffix}"), "ms", dist_ms);
        ctx.report.metric(
            &format!("model.fusion_ms_per_map.{suffix}"),
            "ms",
            fusion_ms,
        );
        ctx.report.metric(
            &format!("model.prediction_ms.{suffix}"),
            "ms",
            prediction_ms,
        );
        let predict_ms = stats::median(&predict_ms);
        ctx.report
            .metric(&format!("model.predict_ms.{suffix}"), "ms", predict_ms);
        ctx.report.metric(
            &format!("model.unattributed_ms.{suffix}"),
            "ms",
            predict_ms - attributed,
        );
        if pi == 0 {
            ctx.report.metric("model.stats_ms", "ms", stats_ms);
        }
    }
    Ok(())
}

/// Multiply-accumulates of one forward pass, from the weight shapes: a
/// convolution does `weights` MACs per output pixel, a stride-2 transposed
/// convolution `weights` per input pixel. `schedule[i]` is the resolution
/// divisor of the i-th weight tensor's output and whether it is transposed.
fn macs(net: &mut dyn Layer, hp: usize, wp: usize, schedule: &[(usize, bool)]) -> f64 {
    let mut weights = Vec::new();
    net.visit_params(&mut |p| {
        if p.value.shape().len() == 4 {
            weights.push(p.value.len() as f64);
        }
    });
    assert_eq!(
        weights.len(),
        schedule.len(),
        "layer schedule does not match the network"
    );
    weights
        .iter()
        .zip(schedule)
        .map(|(w, &(div, transposed))| {
            let out_px = (hp / div * (wp / div)) as f64;
            if transposed {
                w * out_px / 4.0
            } else {
                w * out_px
            }
        })
        .sum()
}

/// Fusion subnet: two stride-2 convolutions, two stride-2 deconvolutions.
fn fusion_macs(net: &mut FusionNet, hp: usize, wp: usize) -> f64 {
    macs(net, hp, wp, &[(2, false), (4, false), (2, true), (1, true)])
}

/// Two-level U-Net: in, down ×4, up (deconv + conv) ×2, out.
fn unet_macs(net: &mut UNet, hp: usize, wp: usize) -> f64 {
    let schedule = [
        (1, false),
        (2, false),
        (2, false),
        (4, false),
        (4, false),
        (2, true),
        (2, false),
        (1, true),
        (1, false),
        (1, false),
    ];
    macs(net, hp, wp, &schedule)
}

/// The serve request codec on a D1-ci workload body.
fn codec_layers(ctx: &mut Ctx) {
    let grid = inputs::build_d1();
    let vector = inputs::vectors(&grid, &inputs::vector_seeds(ctx.seed, 3, 1)).remove(0);
    let mut body = Vec::new();
    pdn_vectors::io::write_csv(&vector, &mut body).expect("writing to memory cannot fail");
    let loads = grid.loads().len();
    let (parse_ms, parsed) = timed(ctx, "serve.parse_ms", REPS, || {
        VectorRequest::parse(&body, loads)
    });
    ctx.report
        .check(parsed.is_ok_and(|r| r.vector == vector), || {
            "request body did not round-trip".into()
        });
    let map = inputs::predictor(&grid).predict(&grid, &vector);
    let thr = grid.spec().hotspot_threshold().0;
    let (encode_ms, json) = timed(ctx, "serve.encode_ms", REPS, || {
        MapResponse::from_map("predict", &map, thr).to_json()
    });
    ctx.report.check(json.contains("\"map\":["), || {
        "encoded response has no map".into()
    });
    ctx.report.metric("serve.parse_ms", "ms", parse_ms);
    ctx.report.metric("serve.encode_ms", "ms", encode_ms);
}

/// Enabled-telemetry cost per call on one and two threads. Run last: it
/// turns process-global telemetry on (and off again if it was off).
pub fn telemetry_layers(ctx: &mut Ctx) {
    let was_enabled = telemetry::enabled();
    telemetry::enable();
    let ops: [(&str, fn()); 3] = [
        ("counter_add", || {
            telemetry::counter_add("perfbench.counter", 1)
        }),
        ("observe", || {
            telemetry::observe("perfbench.observe", 1.5e-3)
        }),
        ("span", || drop(telemetry::span("perfbench.span"))),
    ];
    for (op, call) in ops {
        for threads in [1u64, 2] {
            let name = format!("telemetry.{op}_ns.t{threads}");
            let (ms, ()) = timed(ctx, &name, 5, || {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| {
                            for _ in 0..TELEMETRY_CALLS {
                                call();
                            }
                        });
                    }
                })
            });
            ctx.report
                .metric(&name, "ns", ms * 1e6 / TELEMETRY_CALLS as f64);
        }
    }
    if !was_enabled {
        telemetry::disable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_count_matches_a_hand_count() {
        // Fusion at C2 = 8 on 48×48: enc1 1·8·9 at 24², enc2 8·8·9 at 12²,
        // dec1 8·8·16 per 12² input pixel, dec2 8·1·16 per 24² input pixel.
        let mut fusion = FusionNet::new(8, 1);
        let want = (72 * 576 + 576 * 144 + 1024 * 144 + 128 * 576) as f64;
        assert_eq!(fusion_macs(&mut fusion, 48, 48), want);
        let mut unet = UNet::new(4, 16, 1, 1);
        assert!(unet_macs(&mut unet, 48, 48) > 0.0);
    }
}
