//! Seeded inputs shared by the workloads: designs, vectors, the predictor
//! and the stored reference noise maps.

use pdn_compress::temporal::TemporalCompressor;
use pdn_core::map::TileMap;
use pdn_features::normalize::Normalizer;
use pdn_grid::build::PowerGrid;
use pdn_grid::design::{DesignPreset, DesignScale};
use pdn_model::model::{ModelConfig, Predictor, WnvModel};
use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
use pdn_vectors::vector::TestVector;

/// Grid placement seed. The designs are fixed; only the vectors vary.
pub const GRID_SEED: u64 = 1;
/// Time steps per vector.
pub const STEPS: usize = 120;
/// Model initialisation seed; inference cost does not depend on it.
pub const MODEL_SEED: u64 = 7;
/// Vector that fits the predictor's current normaliser.
pub const CALIBRATION_VECTOR: u64 = 999_983;
/// Algorithm 1 compression rate `r` and step `Δr` (the paper's setting).
pub const COMPRESSION: (f64, f64) = (0.3, 0.05);
/// Normalised output bias of the prediction head. An untrained head with
/// the zero bias it is initialised with maps every tile of D4-ci below
/// zero, which the predictor clamps, so every map would be all zeros and
/// the accuracy checks vacuous; this offset makes the map positive and
/// varying across tiles. Inference cost does not depend on weight values.
pub const HEAD_BIAS: f32 = 1.0;

/// D4 at CI scale: 21 312 nodes, 1 500 loads, 48×48 tiles.
pub fn build_d4() -> PowerGrid {
    DesignPreset::D4
        .spec(DesignScale::Ci)
        .build(GRID_SEED)
        .expect("preset specs are valid")
}

/// D1 at CI scale: 5 328 nodes, 150 loads, 24×24 tiles.
pub fn build_d1() -> PowerGrid {
    DesignPreset::D1
        .spec(DesignScale::Ci)
        .build(GRID_SEED)
        .expect("preset specs are valid")
}

/// The vector generator every workload uses, at `steps` time steps.
pub fn generator(grid: &PowerGrid, steps: usize) -> VectorGenerator {
    VectorGenerator::new(
        grid,
        GeneratorConfig {
            steps,
            ..Default::default()
        },
    )
}

/// SplitMix64: derives independent streams from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` distinct vector seeds for the workload seed, drawn from the
/// stream `stream`.
pub fn vector_seeds(seed: u64, stream: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| mix(mix(seed, stream), i))
        .collect()
}

/// Builds the predictor: the paper's C1 = C2 = 8, C3 = 16 and Algorithm 1
/// at r = 0.3, Δr = 0.05, seeded weights, a current normaliser fitted on
/// a fixed calibration vector and a target scale of the hotspot threshold.
pub fn predictor(grid: &PowerGrid) -> Predictor {
    let mut model = WnvModel::new(grid.bumps().len(), ModelConfig::default(), MODEL_SEED);
    let mut params = 0;
    model.visit_params(&mut |_| params += 1);
    // The last parameter visited is the prediction head's output bias.
    let mut i = 0;
    model.visit_params(&mut |p| {
        i += 1;
        if i == params {
            p.value.as_mut_slice().fill(HEAD_BIAS);
        }
    });
    let calibration = generator(grid, STEPS).generate(CALIBRATION_VECTOR);
    let peaks: Vec<f64> = pdn_compress::spatial::tile_current_maps(grid, &calibration)
        .iter()
        .map(TileMap::max)
        .collect();
    Predictor::from_parts(
        model,
        pdn_features::distance::distance_tensor(grid),
        Normalizer::fit_to_unit_max(&peaks),
        Normalizer::with_scale(1.0 / grid.spec().hotspot_threshold().0),
        Some(TemporalCompressor::new(COMPRESSION.0, COMPRESSION.1).expect("valid compression")),
    )
}

/// Whether two maps are identical bit for bit.
pub fn bitwise_eq(a: &TileMap, b: &TileMap) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether every value of the map is finite.
pub fn finite(map: &TileMap) -> bool {
    map.as_slice().iter().all(|v| v.is_finite())
}

/// Largest absolute difference between two maps of one shape.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reference D4-ci noise maps, computed once with `WnvRunner::new` and
/// stored with the benchmark, so a simulator change that alters answers
/// beyond [`Reference::TOLERANCE_V`] fails the run.
pub struct Reference {
    /// `(vector seed, map)` pairs, in file order.
    pub maps: Vec<(u64, TileMap)>,
}

impl Reference {
    /// Maps are stored in whole microvolts.
    pub const UNIT_V: f64 = 1e-6;
    /// Allowed deviation per tile: 10 µV. A change of linear solver (CG to
    /// a direct factorisation) moves maps by far less; a wrong answer moves
    /// them by millivolts.
    pub const TOLERANCE_V: f64 = 1e-5;
    /// Vector seeds of the pool, `POOL_BASE..POOL_BASE + POOL`.
    pub const POOL_BASE: u64 = 1000;
    /// Pool size.
    pub const POOL: u64 = 16;
    /// The maps stored with the benchmark.
    pub fn stored() -> Result<Reference, String> {
        Reference::parse(include_str!("../reference/d4_ci_sim.txt"))
    }

    /// Parses the reference file format written by [`Reference::render`].
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut maps = Vec::new();
        let mut lines = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty());
        while let Some(head) = lines.next() {
            let f: Vec<&str> = head.split_whitespace().collect();
            let [tag, seed, rows, cols] = f[..] else {
                return Err(format!("bad header {head:?}"));
            };
            if tag != "vector" {
                return Err(format!("bad header {head:?}"));
            }
            let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"));
            let (seed, rows, cols) = (num(seed)?, num(rows)? as usize, num(cols)? as usize);
            let body = lines.next().ok_or("missing map line")?;
            let values = body
                .split(',')
                .map(|v| v.trim().parse::<i64>().map(|u| u as f64 * Self::UNIT_V))
                .collect::<Result<Vec<f64>, _>>()
                .map_err(|e| format!("map of vector {seed}: {e}"))?;
            let map = TileMap::from_vec(rows, cols, values).map_err(|e| e.to_string())?;
            maps.push((seed, map));
        }
        Ok(Reference { maps })
    }

    /// Renders maps in the stored format.
    pub fn render(maps: &[(u64, TileMap)]) -> String {
        let mut out = String::from(
            "# D4-ci worst-case noise maps, whole microvolts, one vector per pair of lines.\n\
             # Regenerate with: pdn-perfbench --write-reference <file>\n",
        );
        for (seed, map) in maps {
            let (rows, cols) = map.shape();
            out.push_str(&format!("vector {seed} {rows} {cols}\n"));
            let values: Vec<String> = map
                .as_slice()
                .iter()
                .map(|v| format!("{}", (v / Self::UNIT_V).round() as i64))
                .collect();
            out.push_str(&values.join(","));
            out.push('\n');
        }
        out
    }

    /// The stored map of vector `seed`.
    pub fn get(&self, seed: u64) -> Option<&TileMap> {
        self.maps.iter().find(|(s, _)| *s == seed).map(|(_, m)| m)
    }

    /// Every pool seed, in order.
    pub fn pool() -> Vec<u64> {
        (Self::POOL_BASE..Self::POOL_BASE + Self::POOL).collect()
    }

    /// `count` distinct pool seeds chosen by the workload seed.
    pub fn pick(seed: u64, count: usize) -> Vec<u64> {
        let mut pool = Self::pool();
        // Fisher–Yates driven by the seed's own stream.
        for i in (1..pool.len()).rev() {
            let j = (mix(seed, 0x5eed_0000 + i as u64) % (i as u64 + 1)) as usize;
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool
    }
}

/// Generates the [`STEPS`]-step vectors of `seeds` on `grid`.
pub fn vectors(grid: &PowerGrid, seeds: &[u64]) -> Vec<TestVector> {
    let gen = generator(grid, STEPS);
    seeds.iter().map(|&s| gen.generate(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_at_microvolt_resolution() {
        let map = TileMap::from_fn(2, 3, |r, c| 0.01 * r as f64 + 0.001234567 * c as f64);
        let text = Reference::render(&[(1003, map.clone())]);
        let back = Reference::parse(&text).unwrap();
        let got = back.get(1003).unwrap();
        assert_eq!(got.shape(), (2, 3));
        assert!(max_abs_diff(got.as_slice(), map.as_slice()) <= 0.5e-6 + 1e-12);
        assert!(Reference::parse("vector x 1 1\n0\n").is_err());
    }

    #[test]
    fn picks_are_distinct_pool_members_and_depend_on_the_seed() {
        let a = Reference::pick(3, 8);
        assert_eq!(a.len(), 8);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(a.iter().all(|s| Reference::pool().contains(s)));
        assert_eq!(a, Reference::pick(3, 8));
        assert!((0..20).any(|s| Reference::pick(s, 8) != a));
    }

    #[test]
    fn stored_reference_covers_the_pool() {
        let reference = Reference::stored().unwrap();
        for seed in Reference::pool() {
            let map = reference
                .get(seed)
                .unwrap_or_else(|| panic!("vector {seed} missing"));
            assert_eq!(map.shape(), (48, 48));
            assert!(map.max() > 0.0);
        }
    }
}
